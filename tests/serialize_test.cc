// Template serialization (text + binary) and signed-package tests.
#include <gtest/gtest.h>

#include <set>

#include "src/core/package.h"
#include "src/core/serialize_binary.h"
#include "src/crypto/sha256.h"
#include "src/record/campaign.h"
#include "src/record/package_writer.h"
#include "src/record/serialize_text.h"

namespace dlt {
namespace {

InteractionTemplate SampleTemplate() {
  InteractionTemplate t;
  t.name = "RD_8";
  t.entry = "replay_mmc";
  t.primary_device = 1;
  t.params = {{"rw", false}, {"blkcnt", false}, {"blkid", false}, {"buf", true}};
  t.initial.AddAtom(ConstraintAtom{Expr::Input("rw"), Cmp::kEq, Expr::Const(1)});
  t.initial.AddAtom(ConstraintAtom{
      Expr::Binary(ExprOp::kMul, Expr::Input("blkcnt"), Expr::Const(512)), Cmp::kLe,
      Expr::Const(4096)});

  TemplateEvent w;
  w.kind = EventKind::kRegWrite;
  w.device = 1;
  w.reg_off = 0x50;
  w.value = Expr::Input("blkcnt");
  w.file = "driver.cc";
  w.line = 42;
  t.events.push_back(w);

  TemplateEvent alloc;
  alloc.kind = EventKind::kDmaAlloc;
  alloc.bind = "dma0";
  alloc.value = Expr::Const(4096);
  alloc.state_changing = true;
  t.events.push_back(alloc);

  TemplateEvent shmw;
  shmw.kind = EventKind::kShmWrite;
  shmw.addr = Expr::Binary(ExprOp::kAdd, Expr::Input("dma0"), Expr::Const(8));
  shmw.value = Expr::Binary(ExprOp::kAnd, Expr::Input("blkid"), Expr::Const(~7ull));
  t.events.push_back(shmw);

  TemplateEvent rd;
  rd.kind = EventKind::kRegRead;
  rd.device = 1;
  rd.reg_off = 0x20;
  rd.bind = "din0";
  rd.state_changing = true;
  rd.constraint.AddAtom(ConstraintAtom{
      Expr::Binary(ExprOp::kAnd, Expr::Input("din0"), Expr::Const(0x200)), Cmp::kEq,
      Expr::Const(0x200)});
  t.events.push_back(rd);

  TemplateEvent irq;
  irq.kind = EventKind::kWaitIrq;
  irq.irq_line = 56;
  irq.timeout_us = 1'000'000;
  irq.state_changing = true;
  t.events.push_back(irq);

  TemplateEvent poll;
  poll.kind = EventKind::kPollReg;
  poll.device = 1;
  poll.reg_off = 0x00;
  poll.mask = 0x8000;
  poll.want = 0;
  poll.poll_cmp = Cmp::kEq;
  poll.timeout_us = 200'000;
  poll.interval_us = 10;
  poll.recorded_iters = 9;
  poll.state_changing = true;
  TemplateEvent body;
  body.kind = EventKind::kDelay;
  body.value = Expr::Const(10);
  poll.body.push_back(body);
  t.events.push_back(poll);

  TemplateEvent copy;
  copy.kind = EventKind::kCopyFromDma;
  copy.addr = Expr::Input("dma0");
  copy.buffer = "buf";
  copy.buf_offset = Expr::Const(0);
  copy.value = Expr::Binary(ExprOp::kMul, Expr::Input("blkcnt"), Expr::Const(512));
  t.events.push_back(copy);
  return t;
}

void ExpectSame(const InteractionTemplate& a, const InteractionTemplate& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.entry, b.entry);
  EXPECT_EQ(a.primary_device, b.primary_device);
  ASSERT_EQ(a.params.size(), b.params.size());
  for (size_t i = 0; i < a.params.size(); ++i) {
    EXPECT_EQ(a.params[i].name, b.params[i].name);
    EXPECT_EQ(a.params[i].is_buffer, b.params[i].is_buffer);
  }
  EXPECT_EQ(a.initial.ToString(), b.initial.ToString());
  EXPECT_TRUE(SameStateTransition(a.events, b.events));
  // Also the non-structural fields the transition comparison ignores.
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].timeout_us, b.events[i].timeout_us) << i;
    EXPECT_EQ(a.events[i].interval_us, b.events[i].interval_us) << i;
    EXPECT_EQ(a.events[i].recorded_iters, b.events[i].recorded_iters) << i;
    EXPECT_EQ(a.events[i].file, b.events[i].file) << i;
    EXPECT_EQ(a.events[i].line, b.events[i].line) << i;
    EXPECT_EQ(a.events[i].bind, b.events[i].bind) << i;
  }
}

TEST(SerializeTextTest, RoundTrip) {
  InteractionTemplate t = SampleTemplate();
  std::string text = TemplateToText(t);
  Result<std::vector<InteractionTemplate>> parsed = TemplatesFromText(text);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(1u, parsed->size());
  ExpectSame(t, (*parsed)[0]);
}

TEST(SerializeTextTest, MultipleTemplates) {
  InteractionTemplate a = SampleTemplate();
  InteractionTemplate b = SampleTemplate();
  b.name = "WR_8";
  std::string text = TemplatesToText({a, b});
  Result<std::vector<InteractionTemplate>> parsed = TemplatesFromText(text);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(2u, parsed->size());
  EXPECT_EQ("RD_8", (*parsed)[0].name);
  EXPECT_EQ("WR_8", (*parsed)[1].name);
}

TEST(SerializeTextTest, CommentsAndBlankLinesIgnored) {
  std::string text = "# a driverlet\n\n" + TemplateToText(SampleTemplate());
  EXPECT_TRUE(TemplatesFromText(text).ok());
}

TEST(SerializeTextTest, GarbageRejected) {
  EXPECT_FALSE(TemplatesFromText("template X\nbogus line\nendtemplate\n").ok());
  EXPECT_FALSE(TemplatesFromText("ev kind=reg_read\n").ok());
  // Missing endtemplate.
  std::string text = TemplateToText(SampleTemplate());
  text = text.substr(0, text.size() - 12);
  EXPECT_FALSE(TemplatesFromText(text).ok());
}

TEST(SerializeBinaryTest, RoundTrip) {
  InteractionTemplate t = SampleTemplate();
  std::vector<uint8_t> bin = TemplatesToBinary({t});
  Result<std::vector<InteractionTemplate>> parsed = TemplatesFromBinary(bin.data(), bin.size());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(1u, parsed->size());
  ExpectSame(t, (*parsed)[0]);
}

TEST(SerializeBinaryTest, BinaryIsSmallerThanText) {
  InteractionTemplate t = SampleTemplate();
  std::string text = TemplatesToText({t});
  std::vector<uint8_t> bin = TemplatesToBinary({t});
  EXPECT_LT(bin.size(), text.size());
}

TEST(SerializeBinaryTest, CorruptionRejected) {
  std::vector<uint8_t> bin = TemplatesToBinary({SampleTemplate()});
  // Truncations must never crash or succeed wrongly.
  for (size_t cut : {size_t{3}, size_t{10}, bin.size() / 2, bin.size() - 1}) {
    EXPECT_FALSE(TemplatesFromBinary(bin.data(), cut).ok()) << cut;
  }
  std::vector<uint8_t> bad = bin;
  bad[0] ^= 0xff;
  EXPECT_FALSE(TemplatesFromBinary(bad.data(), bad.size()).ok());
}

TEST(PackageTest, SealOpenRoundTrip) {
  DriverletPackage pkg;
  pkg.driverlet = "mmc";
  pkg.templates = {SampleTemplate()};
  PackageSizes sizes;
  std::vector<uint8_t> sealed = SealPackage(pkg.driverlet, pkg.templates, "key", &sizes);
  EXPECT_GT(sizes.serialized, 0u);
  EXPECT_GT(sizes.compressed, 0u);
  EXPECT_EQ(sizes.sealed, sealed.size());
  Result<DriverletPackage> opened = OpenPackage(sealed.data(), sealed.size(), "key");
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ("mmc", opened->driverlet);
  ASSERT_EQ(1u, opened->templates.size());
  ExpectSame(pkg.templates[0], opened->templates[0]);
}

// A second synthetic template: a flagged write with explicit recording sites,
// so every field of the template header and the flag byte are on the wire.
InteractionTemplate SampleWriteTemplate() {
  InteractionTemplate t;
  t.name = "WR_1";
  t.entry = "replay_mmc";
  t.primary_device = 300;  // a two-byte varint
  t.leaves_clean_state = true;
  t.params = {{"rw", false}, {"blkid", false}, {"buf", true}};
  t.initial.AddAtom(ConstraintAtom{Expr::Input("rw"), Cmp::kEq, Expr::Const(2)});

  TemplateEvent arg;
  arg.kind = EventKind::kRegWrite;
  arg.device = 300;
  arg.reg_off = 0x04;
  arg.value = Expr::Input("blkid");
  arg.file = "src/drv/bcm_sdhost_driver.cc";
  arg.line = 118;
  t.events.push_back(arg);

  TemplateEvent pio;
  pio.kind = EventKind::kPioOut;
  pio.device = 300;
  pio.reg_off = 0x40;
  pio.buffer = "buf";
  pio.buf_offset = Expr::Const(0);
  pio.value = Expr::Const(512);
  pio.file = "src/drv/bcm_sdhost_driver.cc";
  pio.line = 205;
  t.events.push_back(pio);
  return t;
}

// Every expression node under some templates, by address and by rendering.
struct NodeCensus {
  std::set<const Expr*> nodes;
  std::set<std::string> shapes;

  void Add(const ExprRef& e) {
    if (e != nullptr && nodes.insert(e.get()).second) {
      shapes.insert(e->ToString());
      Add(e->lhs());
      Add(e->rhs());
    }
  }
  void Add(const Constraint& c) {
    for (const ConstraintAtom& a : c.atoms()) {
      Add(a.lhs);
      Add(a.rhs);
    }
  }
  void Add(const std::vector<TemplateEvent>& events) {
    for (const TemplateEvent& e : events) {
      Add(e.addr);
      Add(e.value);
      Add(e.buf_offset);
      Add(e.constraint);
      Add(e.body);
    }
  }
  void Add(const std::vector<InteractionTemplate>& templates) {
    for (const InteractionTemplate& t : templates) {
      Add(t.initial);
      Add(t.events);
    }
  }
};

// A package decodes to one node per distinct sub-expression, across events
// and templates, and the shared nodes encode back to the same bytes.
TEST(SerializeBinaryTest, IdenticalSubExpressionsDecodeToOneNode) {
  InteractionTemplate again = SampleTemplate();
  again.name = "RD_8_again";
  const std::vector<InteractionTemplate> in = {SampleTemplate(), again, SampleWriteTemplate()};
  std::vector<uint8_t> bin = TemplatesToBinary(in);
  Result<std::vector<InteractionTemplate>> out = TemplatesFromBinary(bin.data(), bin.size());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(bin, TemplatesToBinary(*out));

  NodeCensus built;
  NodeCensus decoded;
  built.Add(in);
  decoded.Add(*out);
  EXPECT_EQ(built.shapes, decoded.shapes);
  EXPECT_EQ(decoded.shapes.size(), decoded.nodes.size()) << "two decoded nodes are equal";
  EXPECT_LT(decoded.nodes.size(), built.nodes.size());
  // The copy's length is the initial constraint's product, within a template
  // and across the two copies of it.
  const InteractionTemplate& t = (*out)[0];
  EXPECT_EQ(t.initial.atoms()[1].lhs, t.events.back().value);
  EXPECT_EQ(t.events.back().value, (*out)[1].events.back().value);
  EXPECT_NE(t.initial.atoms()[0].lhs, t.events[0].value);  // rw and blkcnt stay apart
}

TEST(PackageTest, SealedBinaryBytesAreStable) {
  // Pins the wire bytes of a sealed package: envelope, format byte, LZSS
  // stream and binary-v1 payload. The digest is what the build that still
  // sealed both formats produced for this package in its binary form, so
  // any byte the one-format sealer changes fails here.
  DriverletPackage pkg;
  pkg.driverlet = "mmc";
  pkg.templates = {SampleTemplate(), SampleWriteTemplate()};
  std::vector<uint8_t> sealed = SealPackage(pkg.driverlet, pkg.templates, "key");
  EXPECT_EQ(355u, sealed.size());
  EXPECT_EQ("ba6f74c978643a38885e20944a3f318a8b5e9225dd3c55bd9f00e2ad416b4fa5",
            Sha256::HexDigest(Sha256::Hash(sealed.data(), sealed.size())));
  EXPECT_TRUE(OpenPackage(sealed.data(), sealed.size(), "key").ok());
}

TEST(PackageTest, SignatureTamperRejected) {
  DriverletPackage pkg;
  pkg.driverlet = "mmc";
  pkg.templates = {SampleTemplate()};
  std::vector<uint8_t> sealed = SealPackage(pkg.driverlet, pkg.templates, "key");
  // Flip one payload bit: fabricated templates must not verify (paper §7.2.2).
  std::vector<uint8_t> bad = sealed;
  bad[sealed.size() / 2] ^= 1;
  EXPECT_EQ(Status::kCorrupt, OpenPackage(bad.data(), bad.size(), "key").status());
  // Wrong key.
  EXPECT_EQ(Status::kCorrupt, OpenPackage(sealed.data(), sealed.size(), "evil").status());
  // Truncation.
  EXPECT_FALSE(OpenPackage(sealed.data(), sealed.size() - 5, "key").ok());
}

}  // namespace
}  // namespace dlt
