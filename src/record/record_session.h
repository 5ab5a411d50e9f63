// RecordSession: a DriverIo that exercises the gold driver while logging raw
// interaction events, taint flows and path conditions — one record run of a
// record campaign (paper §4). Finish() distills the raw log into an
// interaction template via the template builder.
#ifndef SRC_RECORD_RECORD_SESSION_H_
#define SRC_RECORD_RECORD_SESSION_H_

#include <map>
#include <string>
#include <vector>

#include "src/core/event.h"
#include "src/core/interaction_template.h"
#include "src/record/driver_io.h"

namespace dlt {

// A path condition logged at a tainted branch: the (possibly negated) comparison
// that held on the recorded path, positioned after the raw event it follows.
struct PathCond {
  ConstraintAtom atom;
  size_t after_event = 0;  // index into RawRecording::events (count of events before it)
  SourceLoc loc;
};

// Everything one record run produces; input to BuildTemplate().
struct RawRecording {
  std::string entry;
  std::string name;
  uint16_t primary_device = 0;
  std::vector<ParamSpec> params;
  std::vector<TemplateEvent> events;
  std::vector<PathCond> path_conds;
  // Concrete values observed for each input event (parallel to input events'
  // order of appearance); used by the differ and by tests.
  std::map<std::string, uint64_t> concrete_inputs;
};

class RecordSession : public DriverIo {
 public:
  // |base| performs the actual IO (normally kern::PassthroughIo over the
  // machine); the session interposes and logs.
  RecordSession(DriverIo* base, std::string entry, std::string template_name,
                uint16_t primary_device);

  // ---- Program <-> Driver seeding ----
  TValue ScalarParam(const std::string& name, uint64_t concrete);
  void BufferParam(const std::string& name, uint8_t* base_ptr, size_t len);

  // Distills the raw log into a template (constraint attachment, state-changing
  // classification, loop lifting). The session is spent afterwards.
  Result<InteractionTemplate> Finish();

  // Raw access for the differ and tests.
  const RawRecording& raw() const { return raw_; }
  bool failed() const { return failed_; }

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
  TemplateEvent& Emit(TemplateEvent e);
  // Resolves a raw data pointer to a registered buffer param name; empty if
  // the pointer is not inside a registered program buffer.
  std::string BufferOf(const uint8_t* ptr, size_t len, uint64_t* offset_out) const;

  DriverIo* base_;
  RawRecording raw_;
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
};

}  // namespace dlt

#endif  // SRC_RECORD_RECORD_SESSION_H_
