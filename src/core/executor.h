// Single-threaded, transactional event executor (paper §5, "Executing events").
// Executes one instantiated template against a ReplayContext. On the happy path
// all state-changing input constraints hold; any violation is reported as a
// divergence for the replayer to handle (soft reset + re-execution).
#ifndef SRC_CORE_EXECUTOR_H_
#define SRC_CORE_EXECUTOR_H_

#include <vector>

#include "src/core/interaction_template.h"
#include "src/core/replay_args.h"
#include "src/core/replay_context.h"

namespace dlt {

// Deterministic replay CPU cost: the virtual time the executor charges per
// executed event (poll-body events included) through the context's
// replay-overhead hook.
inline constexpr uint64_t kReplayInterpEventNs = 800;

class Executor {
 public:
  Executor(ReplayContext* ctx, const InteractionTemplate* tpl, const ReplayArgs* args);

  // Executes all events once. kDiverged / kTimeout fill the report.
  Status Run(DivergenceReport* report);

  size_t events_executed() const { return events_executed_; }
  // Top-level template events Run completed, in order; poll bodies do not
  // count. The replayer measures the run by it (integrity.h).
  size_t events_completed() const { return events_completed_; }

 private:
  Status RunEvents(const std::vector<TemplateEvent>& events, DivergenceReport* report);
  // RunOne wraps ExecuteOne with telemetry (per-event trace span + latency
  // histogram); the disabled path costs one branch before dispatch.
  Status RunOne(const TemplateEvent& e, size_t index, DivergenceReport* report);
  Status ExecuteOne(const TemplateEvent& e, size_t index, DivergenceReport* report);

  Result<uint64_t> EvalExpr(const ExprRef& e) const;
  Result<PhysAddr> EvalAddr(const ExprRef& e, size_t access_len) const;
  Status CheckConstraint(const TemplateEvent& e, size_t index, uint64_t observed,
                         DivergenceReport* report);
  Status BindAndCheck(const TemplateEvent& e, size_t index, uint64_t observed,
                      DivergenceReport* report);
  void FillDivergence(const TemplateEvent& e, size_t index, uint64_t observed,
                      DivergenceReport* report) const;
  // Buffer resolution is const-correct: events that store into the program
  // buffer (kCopyFromDma, kPioIn) need a writable view and are refused with
  // kPermissionDenied when the trustlet passed the buffer read-only; events
  // that only consume bytes (kCopyToDma, kPioOut) accept either flavour.
  Result<BufferView> ResolveWritable(const TemplateEvent& e, uint64_t* offset,
                                     uint64_t* len) const;
  Result<ConstBufferView> ResolveReadable(const TemplateEvent& e, uint64_t* offset,
                                          uint64_t* len) const;
  Status CheckBufferSpan(const ConstBufferView& buf, const TemplateEvent& e, uint64_t* offset,
                         uint64_t* len) const;

  ReplayContext* ctx_;
  const InteractionTemplate* tpl_;
  const ReplayArgs* args_;
  Bindings bindings_;
  // Allocations made during this run, for symbolic-address bounds checking.
  struct Alloc {
    PhysAddr base;
    uint64_t size;
  };
  std::vector<Alloc> allocs_;
  std::vector<uint32_t> pio_scratch_;  // staging words for PIO block transfers
  size_t events_executed_ = 0;
  size_t events_completed_ = 0;
};

// Renders an event for reports: "reg_write mmc+0x34 @bcm_sdhost.cc:210".
std::string DescribeEvent(const TemplateEvent& e);

}  // namespace dlt

#endif  // SRC_CORE_EXECUTOR_H_
