// System DMA engine modelled after the bcm2835 DMA controller: 16 channels, each
// programmed with a chain of 32-byte control blocks in RAM. Peripheral data ports
// (DREQ pacing) let the engine move MMC block data by addressing the controller's
// data FIFO, which is exactly the descriptor topology the paper records (Figure 4).
#ifndef SRC_SOC_DMA_ENGINE_H_
#define SRC_SOC_DMA_ENGINE_H_

#include <array>
#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

#include "src/soc/address_space.h"
#include "src/soc/device.h"
#include "src/soc/irq.h"
#include "src/soc/latency_model.h"
#include "src/soc/sim_clock.h"

namespace dlt {

// Register offsets within a channel's 0x100 window.
inline constexpr uint64_t kDmaCs = 0x00;
inline constexpr uint64_t kDmaConblkAd = 0x04;
inline constexpr uint64_t kDmaTi = 0x08;
inline constexpr uint64_t kDmaSourceAd = 0x0c;
inline constexpr uint64_t kDmaDestAd = 0x10;
inline constexpr uint64_t kDmaTxfrLen = 0x14;
inline constexpr uint64_t kDmaNextConbk = 0x1c;
inline constexpr uint64_t kDmaDebug = 0x20;

// CS bits.
inline constexpr uint32_t kDmaCsActive = 1u << 0;
inline constexpr uint32_t kDmaCsEnd = 1u << 1;
inline constexpr uint32_t kDmaCsInt = 1u << 2;
inline constexpr uint32_t kDmaCsError = 1u << 8;
inline constexpr uint32_t kDmaCsReset = 1u << 31;

// TI bits.
inline constexpr uint32_t kDmaTiIntEn = 1u << 0;
inline constexpr uint32_t kDmaTiDestInc = 1u << 4;
inline constexpr uint32_t kDmaTiDestDreq = 1u << 6;
inline constexpr uint32_t kDmaTiSrcInc = 1u << 8;
inline constexpr uint32_t kDmaTiSrcDreq = 1u << 10;

// In-memory control block layout (8 x u32 = 32 bytes, like bcm2835).
struct DmaControlBlock {
  uint32_t ti;
  uint32_t source_ad;
  uint32_t dest_ad;
  uint32_t txfr_len;
  uint32_t stride;
  uint32_t nextconbk;
  uint32_t reserved0;
  uint32_t reserved1;
};
static_assert(sizeof(DmaControlBlock) == 32);

// Fault-injection hook over executed control blocks (src/fault's
// FaultInjector). Called after the engine staged a block's payload and before
// delivery; the hook may corrupt |data| in place or shrink |*len| — a
// truncated transfer whose tail never reaches the destination.
class DmaFaultHook {
 public:
  virtual ~DmaFaultHook() = default;
  virtual void OnBlock(uint32_t ti, PhysAddr src, PhysAddr dst, uint8_t* data,
                       size_t* len) = 0;
};

class DmaEngine : public MmioDevice {
 public:
  static constexpr int kNumChannels = 16;

  DmaEngine(AddressSpace* mem, SimClock* clock, InterruptController* irq,
            const LatencyModel* lat, int irq_base);

  // Peripheral FIFO addresses the engine paces against (e.g. the MMC SDDATA port).
  void RegisterDataPort(PhysAddr addr, DmaDataPort* port);

  // Fault injection: nullptr uninstalls.
  void set_fault_hook(DmaFaultHook* hook) { fault_hook_ = hook; }

  std::string_view name() const override { return "dma"; }
  uint32_t MmioRead32(uint64_t offset) override;
  void MmioWrite32(uint64_t offset, uint32_t value) override;
  void SoftReset() override;

  int irq_line(int channel) const { return irq_base_ + channel; }

 private:
  struct Channel {
    uint32_t cs = 0;
    uint32_t conblk_ad = 0;
    // Shadow of the most recently executed control block.
    DmaControlBlock cb{};
    SimClock::EventId pending = SimClock::kInvalidEvent;
  };

  void StartChannel(int ch);
  // Executes the whole chain synchronously (data is visible immediately) and
  // returns the modelled duration; END/INT assert after that duration.
  uint64_t RunChain(Channel& c, bool* error_out);
  bool RunOneBlock(const DmaControlBlock& cb, uint64_t* cost_us);

  AddressSpace* mem_;
  SimClock* clock_;
  InterruptController* irq_;
  const LatencyModel* lat_;
  int irq_base_;
  std::array<Channel, kNumChannels> channels_;
  std::map<PhysAddr, DmaDataPort*> ports_;
  uint64_t bytes_transferred_ = 0;  // bytes blocks wrote; feeds the dma.bytes counter
  std::vector<uint8_t> bounce_;
  DmaFaultHook* fault_hook_ = nullptr;
};

}  // namespace dlt

#endif  // SRC_SOC_DMA_ENGINE_H_
