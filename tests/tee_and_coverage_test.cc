// SecureWorld runtime, CMA pool, coverage computation and region-validation
// unit tests.
#include <gtest/gtest.h>

#include "src/record/coverage.h"
#include "src/record/differ.h"
#include "src/soc/cma_pool.h"
#include "src/workload/rpi3_testbed.h"

namespace dlt {
namespace {

TEST(CmaPoolTest, AlignedBumpAllocation) {
  CmaPool pool(0x10000, 0x100000);
  Result<PhysAddr> a = pool.Alloc(100);
  Result<PhysAddr> b = pool.Alloc(100);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(0u, *a & 0x3fff);  // 16 KB aligned (VCHIQ MBOX requirement)
  EXPECT_EQ(0u, *b & 0x3fff);
  EXPECT_NE(*a, *b);
  EXPECT_TRUE(pool.Contains(*a, 100));
  EXPECT_FALSE(pool.Contains(0x10000 + 0x100000, 1));
}

TEST(CmaPoolTest, ExhaustionAndRelease) {
  CmaPool pool(0x4000, 0x8000);  // room for two 16 KB-aligned allocations
  ASSERT_TRUE(pool.Alloc(0x4000).ok());
  ASSERT_TRUE(pool.Alloc(0x1000).ok());
  EXPECT_FALSE(pool.Alloc(0x4000).ok());
  pool.ReleaseAll();
  EXPECT_TRUE(pool.Alloc(0x4000).ok());
}

TEST(CmaPoolTest, ZeroSizeRejected) {
  CmaPool pool(0x4000, 0x8000);
  EXPECT_FALSE(pool.Alloc(0).ok());
}

class SecureWorldTest : public ::testing::Test {
 protected:
  SecureWorldTest() : tb_(TestbedOptions{.secure_io = true, .probe_drivers = false}) {}
  Rpi3Testbed tb_;
};

TEST_F(SecureWorldTest, RegisterAccessRequiresMapping) {
  // The display device is mapped; an unmapped id is refused even in-TEE.
  EXPECT_TRUE(tb_.tee().RegRead32(tb_.mmc_id(), 0x20).ok());
  EXPECT_EQ(Status::kPermissionDenied, tb_.tee().RegRead32(99, 0).status());
  EXPECT_EQ(Status::kOutOfRange, tb_.tee().RegRead32(tb_.mmc_id(), 0x10000).status());
}

TEST_F(SecureWorldTest, MemAccessConfinedToPool) {
  Result<PhysAddr> a = tb_.tee().DmaAlloc(64);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(Status::kOk, tb_.tee().MemWrite32(*a, 0x1122));
  EXPECT_EQ(0x1122u, *tb_.tee().MemRead32(*a));
  // Outside the TEE reservation: refused.
  EXPECT_EQ(Status::kPermissionDenied, tb_.tee().MemWrite32(0x100, 1));
  EXPECT_EQ(Status::kPermissionDenied, tb_.tee().MemRead32(kKernPoolBase).status());
}

TEST_F(SecureWorldTest, TimestampsFollowVirtualClock) {
  uint64_t t0 = tb_.tee().TimestampUs();
  tb_.tee().DelayUs(123);
  EXPECT_EQ(t0 + 123, tb_.tee().TimestampUs());
}

TEST_F(SecureWorldTest, RngIsDeterministicPerSeedButNonConstant) {
  uint32_t a = *tb_.tee().RandomU32();
  uint32_t b = *tb_.tee().RandomU32();
  EXPECT_NE(a, b);
}

TEST_F(SecureWorldTest, SoftResetChargesTimeAndResets) {
  uint64_t t0 = tb_.clock().now_us();
  ASSERT_EQ(Status::kOk, tb_.tee().SoftResetDevice(tb_.mmc_id()));
  EXPECT_GT(tb_.clock().now_us(), t0);
  EXPECT_EQ(Status::kPermissionDenied, tb_.tee().SoftResetDevice(99));
}

TEST(CoverageTest, AffineConstraintsSolved) {
  InteractionTemplate t;
  t.entry = "e";
  t.params = {{"blkcnt", false}};
  // (blkcnt * 512) - 0x3000 > 0x1000 && (blkcnt * 512) - 0x4000 <= 0x1000
  t.initial.AddAtom(ConstraintAtom{
      Expr::Binary(ExprOp::kSub, Expr::Binary(ExprOp::kMul, Expr::Input("blkcnt"),
                                              Expr::Const(512)),
                   Expr::Const(0x3000)),
      Cmp::kGt, Expr::Const(0x1000)});
  t.initial.AddAtom(ConstraintAtom{
      Expr::Binary(ExprOp::kSub, Expr::Binary(ExprOp::kMul, Expr::Input("blkcnt"),
                                              Expr::Const(512)),
                   Expr::Const(0x4000)),
      Cmp::kLe, Expr::Const(0x1000)});
  Coverage cov = ComputeCoverage({t});
  EXPECT_FALSE(Covers(cov, "blkcnt", 32));
  EXPECT_TRUE(Covers(cov, "blkcnt", 33));
  EXPECT_TRUE(Covers(cov, "blkcnt", 40));
  EXPECT_FALSE(Covers(cov, "blkcnt", 41));
}

TEST(CoverageTest, UnionAcrossTemplatesMerges) {
  auto make = [](uint64_t lo, uint64_t hi) {
    InteractionTemplate t;
    t.entry = "e";
    t.params = {{"n", false}};
    t.initial.AddAtom(ConstraintAtom{Expr::Input("n"), Cmp::kGe, Expr::Const(lo)});
    t.initial.AddAtom(ConstraintAtom{Expr::Input("n"), Cmp::kLe, Expr::Const(hi)});
    return t;
  };
  Coverage cov = ComputeCoverage({make(1, 4), make(5, 8), make(20, 30)});
  // [1,4] and [5,8] are adjacent: merged into [1,8].
  ASSERT_EQ(2u, cov["n"].ranges.size());
  EXPECT_EQ(1u, cov["n"].ranges[0].lo);
  EXPECT_EQ(8u, cov["n"].ranges[0].hi);
  EXPECT_TRUE(Covers(cov, "n", 7));
  EXPECT_FALSE(Covers(cov, "n", 12));
  EXPECT_TRUE(Covers(cov, "n", 25));
}

TEST(CoverageTest, ShiftExpressionsSolved) {
  InteractionTemplate t;
  t.entry = "e";
  t.params = {{"n", false}};
  // (n << 9) <= 0x1000  ->  n <= 8
  t.initial.AddAtom(ConstraintAtom{
      Expr::Binary(ExprOp::kShl, Expr::Input("n"), Expr::Const(9)), Cmp::kLe,
      Expr::Const(0x1000)});
  Coverage cov = ComputeCoverage({t});
  EXPECT_TRUE(Covers(cov, "n", 8));
  EXPECT_FALSE(Covers(cov, "n", 9));
}

TEST(CoverageTest, NonAffineAtomsAreConservative) {
  InteractionTemplate t;
  t.entry = "e";
  t.params = {{"n", false}};
  t.initial.AddAtom(ConstraintAtom{
      Expr::Binary(ExprOp::kAnd, Expr::Input("n"), Expr::Const(7)), Cmp::kEq, Expr::Const(0)});
  Coverage cov = ComputeCoverage({t});
  // Alignment is not interval-representable: reported as unconstrained
  // (selection still enforces it through full constraint evaluation).
  EXPECT_TRUE(Covers(cov, "n", 3));
}

TEST(RegionValidationTest, DetectsBothKindsOfViolation) {
  // A scripted probe: path depends on whether n <= 4.
  TransitionProbe probe = [](const Bindings& b) -> Result<std::string> {
    return std::string(b.at("n") <= 4 ? "small" : "large");
  };
  Bindings recorded{{"n", 3}};
  RegionValidation good = ValidateTransitionRegion(
      probe, recorded, {{{"n", 1}}, {{"n", 4}}}, {{{"n", 5}}, {{"n", 100}}});
  EXPECT_TRUE(good.ok());

  RegionValidation bad_in = ValidateTransitionRegion(probe, recorded, {{{"n", 9}}}, {});
  EXPECT_FALSE(bad_in.ok());
  EXPECT_EQ(1u, bad_in.violations.size());

  RegionValidation bad_out = ValidateTransitionRegion(probe, recorded, {}, {{{"n", 2}}});
  EXPECT_FALSE(bad_out.ok());
}

}  // namespace
}  // namespace dlt
