// RecordSession: a DriverIo that exercises the gold driver while logging raw
// interaction events and taint flows — one record run of a record campaign
// (paper §4). Each path condition attaches when its branch is logged
// (constraint discovery, §4.2 Challenge I): a condition over params only
// becomes an initial constraint, any other goes to the latest event that binds
// one of its symbols and makes that event state-changing. Finish() hands the
// log to the template builder, which only lifts polling loops and moves the
// events into the template.
//
// A copy-out whose source is still a pending device fill (a camera frame the
// VC4 has not written to RAM) is deferred: the session keeps the fill's bytes
// and the destination in one slot. A later CopyFromDma that covers the same
// destination bytes drops it, so a capture of N frames into one buffer
// generates one frame. Otherwise it lands (is generated into the program
// buffer) before any access that reads or partly overwrites those bytes
// (CopyToDma, PioOut, PioIn, another CopyFromDma), at DmaReleaseAll, at
// Finish and when the session is destroyed, so the gold driver's caller sees
// the same buffers as with an immediate copy. Program buffers must therefore
// outlive the session.
#ifndef SRC_RECORD_RECORD_SESSION_H_
#define SRC_RECORD_RECORD_SESSION_H_

#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/event.h"
#include "src/core/interaction_template.h"
#include "src/record/driver_io.h"

namespace dlt {

// A branch not taken records the negated condition.
Cmp NegateCmp(Cmp c);
ConstraintAtom Negated(const ConstraintAtom& a);

// Everything one record run produces; input to BuildTemplate().
struct RawRecording {
  std::string entry;
  std::string name;
  uint16_t primary_device = 0;
  std::vector<ParamSpec> params;
  Constraint initial;  // path conditions over params only
  // A deque, so appending never moves or copies a logged event.
  std::deque<TemplateEvent> events;
};

class RecordSession : public DriverIo {
 public:
  // |base| performs the actual IO (normally kern::PassthroughIo over the
  // machine); the session interposes and logs.
  RecordSession(DriverIo* base, std::string entry, std::string template_name,
                uint16_t primary_device);
  // Lands a copy still pending, e.g. after a driver returned an error.
  ~RecordSession() override;
  RecordSession(const RecordSession&) = delete;
  RecordSession& operator=(const RecordSession&) = delete;

  // ---- Program <-> Driver seeding ----
  TValue ScalarParam(const std::string& name, uint64_t concrete);
  void BufferParam(const std::string& name, uint8_t* base_ptr, size_t len);

  // Lands a pending copy, then distills the raw log into a template (loop
  // lifting); kBadState if the run failed or a path condition named a symbol
  // no event bound. The session is spent afterwards.
  Result<InteractionTemplate> Finish();

  // Raw access for the differ and tests.
  const RawRecording& raw() const { return raw_; }

  // ---- DriverIo ----
  TValue RegRead32(uint16_t device, uint64_t offset, SourceLoc loc) override;
  void RegWrite32(uint16_t device, uint64_t offset, const TValue& value, SourceLoc loc) override;
  TValue ShmRead32(const TValue& addr, SourceLoc loc) override;
  void ShmWrite32(const TValue& addr, const TValue& value, SourceLoc loc) override;
  Status WaitForIrq(int line, uint64_t timeout_us, SourceLoc loc) override;
  Status PollReg32(uint16_t device, uint64_t offset, uint32_t mask, uint32_t want, bool negate,
                   uint64_t timeout_us, uint64_t interval_us, SourceLoc loc) override;
  void DelayUs(uint64_t us, SourceLoc loc) override;
  TValue DmaAlloc(const TValue& size, SourceLoc loc) override;
  void DmaReleaseAll(SourceLoc loc) override;
  TValue GetRandomU32(SourceLoc loc) override;
  TValue GetTimestampUs(SourceLoc loc) override;
  void CopyToDma(const TValue& dst, const uint8_t* src_base, const TValue& src_off,
                 const TValue& len, SourceLoc loc) override;
  void CopyFromDma(uint8_t* dst_base, const TValue& dst_off, const TValue& src, const TValue& len,
                   SourceLoc loc) override;
  void PioIn(uint16_t device, uint64_t offset, uint8_t* dst_base, const TValue& dst_off,
             const TValue& len, SourceLoc loc) override;
  void PioOut(uint16_t device, uint64_t offset, const uint8_t* src_base, const TValue& src_off,
              const TValue& len, SourceLoc loc) override;
  bool Branch(const TValue& lhs, Cmp cmp, const TValue& rhs, SourceLoc loc) override;
  uint64_t NowUs() override;

 private:
  std::string NewBind(const char* prefix);
  void Emit(TemplateEvent e);
  void AttachPathCond(ConstraintAtom atom);
  // Resolves a raw data pointer to a registered buffer param name; empty if
  // the pointer is not inside a registered program buffer.
  std::string BufferOf(const uint8_t* ptr, size_t len) const;
  // Writes the pending copy, if any, to its destination.
  void LandCopy();
  // Lands the pending copy when [p, p+n) overlaps its destination.
  void LandCopyOver(const uint8_t* p, size_t n);

  DriverIo* base_;
  RawRecording raw_;
  // Bind symbol -> index of the event binding it (binds are unique per run).
  std::unordered_map<std::string, size_t> bind_event_;
  bool failed_ = false;
  int din_count_ = 0;
  int dma_count_ = 0;
  int rand_count_ = 0;
  int ts_count_ = 0;

  struct BufferReg {
    std::string name;
    uint8_t* base;
    size_t len;
  };
  std::vector<BufferReg> buffers_;

  // A deferred CopyFromDma: |bytes| belong at [dst, dst + bytes.n).
  struct PendingCopy {
    uint8_t* dst;
    AddressSpace::FillBytes bytes;
  };
  std::optional<PendingCopy> pending_copy_;
};

}  // namespace dlt

#endif  // SRC_RECORD_RECORD_SESSION_H_
