#include "src/soc/dma_engine.h"

#include "src/obs/telemetry.h"
#include "src/soc/log.h"

namespace dlt {

DmaEngine::DmaEngine(AddressSpace* mem, SimClock* clock, InterruptController* irq,
                     const LatencyModel* lat, int irq_base)
    : mem_(mem), clock_(clock), irq_(irq), lat_(lat), irq_base_(irq_base) {}

void DmaEngine::RegisterDataPort(PhysAddr addr, DmaDataPort* port) { ports_[addr] = port; }

uint32_t DmaEngine::MmioRead32(uint64_t offset) {
  int ch = static_cast<int>(offset / 0x100);
  uint64_t reg = offset % 0x100;
  if (ch < 0 || ch >= kNumChannels) {
    return 0;
  }
  Channel& c = channels_[static_cast<size_t>(ch)];
  switch (reg) {
    case kDmaCs: return c.cs;
    case kDmaConblkAd: return c.conblk_ad;
    case kDmaTi: return c.cb.ti;
    case kDmaSourceAd: return c.cb.source_ad;
    case kDmaDestAd: return c.cb.dest_ad;
    case kDmaTxfrLen: return c.cb.txfr_len;
    case kDmaNextConbk: return c.cb.nextconbk;
    case kDmaDebug: return 0;
    default: return 0;
  }
}

void DmaEngine::MmioWrite32(uint64_t offset, uint32_t value) {
  int ch = static_cast<int>(offset / 0x100);
  uint64_t reg = offset % 0x100;
  if (ch < 0 || ch >= kNumChannels) {
    return;
  }
  Channel& c = channels_[static_cast<size_t>(ch)];
  switch (reg) {
    case kDmaCs:
      if (value & kDmaCsReset) {
        if (c.pending != SimClock::kInvalidEvent) {
          clock_->Cancel(c.pending);
          c.pending = SimClock::kInvalidEvent;
        }
        c.cs = 0;
        irq_->Clear(irq_line(ch));
        return;
      }
      // Write-1-to-clear for END / INT; the per-channel line follows INT.
      c.cs &= ~(value & (kDmaCsEnd | kDmaCsInt));
      if (!(c.cs & kDmaCsInt)) {
        irq_->Clear(irq_line(ch));
      }
      if ((value & kDmaCsActive) && !(c.cs & kDmaCsActive)) {
        c.cs |= kDmaCsActive;
        StartChannel(ch);
      }
      break;
    case kDmaConblkAd:
      c.conblk_ad = value;
      break;
    default:
      break;
  }
}

void DmaEngine::StartChannel(int ch) {
  Channel& c = channels_[static_cast<size_t>(ch)];
  bool error = false;
  uint64_t bytes_before = bytes_transferred_;
  uint64_t cost_us = RunChain(c, &error);
  Telemetry& t = Telemetry::Get();
  if (t.enabled()) {
    uint64_t bytes = bytes_transferred_ - bytes_before;
    t.metrics().counter("dma.bytes").Inc(bytes);
    t.metrics().counter("dma.transfers").Inc();
    t.metrics().histogram("dma.xfer_us").Record(cost_us);
    t.Span(TraceKind::kDmaTransfer, clock_->now_us(), cost_us, "dma_xfer", bytes,
           static_cast<uint64_t>(ch));
  }
  int line = irq_line(ch);
  bool want_irq = (c.cb.ti & kDmaTiIntEn) != 0;
  c.pending = clock_->ScheduleIn(cost_us, [this, ch, line, want_irq, error] {
    Channel& cc = channels_[static_cast<size_t>(ch)];
    cc.pending = SimClock::kInvalidEvent;
    cc.cs &= ~kDmaCsActive;
    cc.cs |= kDmaCsEnd;
    if (error) {
      cc.cs |= kDmaCsError;
    }
    if (want_irq) {
      cc.cs |= kDmaCsInt;
      irq_->Raise(line);
    }
  });
}

uint64_t DmaEngine::RunChain(Channel& c, bool* error_out) {
  uint64_t total_us = 0;
  uint32_t cb_addr = c.conblk_ad;
  *error_out = false;
  int hops = 0;
  while (cb_addr != 0 && hops++ < 4096) {
    DmaControlBlock cb{};
    if (!Ok(mem_->DmaRead(cb_addr, &cb, sizeof(cb)))) {
      *error_out = true;
      break;
    }
    c.cb = cb;
    uint64_t cost = 0;
    if (!RunOneBlock(cb, &cost)) {
      *error_out = true;
      break;
    }
    total_us += lat_->dma_setup_us + cost;
    cb_addr = cb.nextconbk;
  }
  return total_us == 0 ? lat_->dma_setup_us : total_us;
}

bool DmaEngine::RunOneBlock(const DmaControlBlock& cb, uint64_t* cost_us) {
  size_t len = cb.txfr_len;
  *cost_us = (len * lat_->dma_per_kb_us + 1023) / 1024;
  if (len == 0) {
    return true;
  }
  bool src_dreq = (cb.ti & kDmaTiSrcDreq) != 0;
  bool dst_dreq = (cb.ti & kDmaTiDestDreq) != 0;
  // The length is guest-written: a RAM source is range-checked before the
  // bounce buffer is sized by it, and fails here as DmaRead would below. A
  // DREQ source is not: its FIFO drains and the fault hook sees the block.
  if (!src_dreq && mem_->RamPtr(cb.source_ad, len) == nullptr) {
    return false;
  }
  bounce_.resize(len);
  if (src_dreq && dst_dreq) {
    return false;
  }
  if (src_dreq) {
    auto it = ports_.find(cb.source_ad);
    if (it == ports_.end()) {
      return false;
    }
    size_t got = it->second->DmaPull(bounce_.data(), len);
    if (got < len) {
      std::memset(bounce_.data() + got, 0, len - got);
    }
  } else {
    if (!Ok(mem_->DmaRead(cb.source_ad, bounce_.data(), len))) {
      return false;
    }
  }
  size_t deliver = len;
  if (fault_hook_ != nullptr) {
    fault_hook_->OnBlock(cb.ti, cb.source_ad, cb.dest_ad, bounce_.data(), &deliver);
    if (deliver > len) {
      deliver = len;
    }
  }
  if (dst_dreq) {
    auto it = ports_.find(cb.dest_ad);
    if (it == ports_.end()) {
      return false;
    }
    it->second->DmaPush(bounce_.data(), deliver);
  } else {
    if (!Ok(mem_->DmaWrite(cb.dest_ad, bounce_.data(), deliver))) {
      return false;
    }
  }
  bytes_transferred_ += deliver;  // what the block wrote, not what it asked for
  return true;
}

void DmaEngine::SoftReset() {
  for (int ch = 0; ch < kNumChannels; ++ch) {
    Channel& c = channels_[static_cast<size_t>(ch)];
    if (c.pending != SimClock::kInvalidEvent) {
      clock_->Cancel(c.pending);
    }
    c = Channel{};
    irq_->Clear(irq_line(ch));
  }
}

}  // namespace dlt
