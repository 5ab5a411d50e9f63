#include "src/kern/block_layer.h"

#include <algorithm>
#include <cstring>

namespace dlt {

PageCacheBlockDevice::PageCacheBlockDevice(RawBlockDriver* driver, Machine* machine, SyncMode mode,
                                           size_t capacity_extents)
    : driver_(driver), machine_(machine), mode_(mode), capacity_extents_(capacity_extents) {}

void PageCacheBlockDevice::ChargeKernelCpu() {
  machine_->clock().Advance(machine_->latency().kern_block_layer_us);
}

Status PageCacheBlockDevice::EvictIfNeeded() {
  while (cache_.size() > capacity_extents_ && !lru_.empty()) {
    uint64_t victim = lru_.back();
    lru_.pop_back();
    auto it = cache_.find(victim);
    if (it == cache_.end()) {
      continue;
    }
    if (it->second.dirty) {
      DLT_RETURN_IF_ERROR(WriteExtents({victim}));
    }
    cache_.erase(victim);
  }
  return Status::kOk;
}

Result<PageCacheBlockDevice::Extent*> PageCacheBlockDevice::GetExtent(uint64_t index,
                                                                      bool for_write,
                                                                      bool whole_overwrite) {
  auto it = cache_.find(index);
  if (it != cache_.end()) {
    ++hits_;
    lru_.remove(index);
    lru_.push_front(index);
    return &it->second;
  }
  ++misses_;
  Extent e;
  e.data.resize(kExtentBytes);
  if (!(for_write && whole_overwrite)) {
    // Fill from the device: one aligned 8-sector read, charged per-page cost.
    machine_->clock().Advance(driver_->PerPageSchedulingUs());
    DLT_RETURN_IF_ERROR(driver_->ReadBlocks(index * kExtentSectors, kExtentSectors, e.data.data()));
  }
  auto [ins, ok] = cache_.emplace(index, std::move(e));
  (void)ok;
  lru_.push_front(index);
  DLT_RETURN_IF_ERROR(EvictIfNeeded());
  return &ins->second;
}

Status PageCacheBlockDevice::Read(uint64_t lba, uint32_t count, uint8_t* out) {
  ++ops_;
  ChargeKernelCpu();
  uint64_t end = lba + count;
  while (lba < end) {
    uint64_t index = lba / kExtentSectors;
    uint32_t in_off = static_cast<uint32_t>(lba % kExtentSectors);
    uint32_t take = std::min<uint32_t>(kExtentSectors - in_off, static_cast<uint32_t>(end - lba));
    DLT_ASSIGN_OR_RETURN(Extent * e, GetExtent(index, false, false));
    std::memcpy(out, e->data.data() + static_cast<size_t>(in_off) * 512,
                static_cast<size_t>(take) * 512);
    out += static_cast<size_t>(take) * 512;
    lba += take;
  }
  return Status::kOk;
}

Status PageCacheBlockDevice::Write(uint64_t lba, uint32_t count, const uint8_t* data) {
  ++ops_;
  ChargeKernelCpu();
  std::vector<uint64_t> touched;
  uint64_t end = lba + count;
  while (lba < end) {
    uint64_t index = lba / kExtentSectors;
    uint32_t in_off = static_cast<uint32_t>(lba % kExtentSectors);
    uint32_t take = std::min<uint32_t>(kExtentSectors - in_off, static_cast<uint32_t>(end - lba));
    bool whole = (in_off == 0 && take == kExtentSectors);
    DLT_ASSIGN_OR_RETURN(Extent * e, GetExtent(index, true, whole));
    std::memcpy(e->data.data() + static_cast<size_t>(in_off) * 512, data,
                static_cast<size_t>(take) * 512);
    e->dirty = true;
    touched.push_back(index);
    data += static_cast<size_t>(take) * 512;
    lba += take;
  }
  if (mode_ == SyncMode::kSync) {
    // O_SYNC: the write barrier + synchronous completion path on top of the
    // device wait itself (journal barriers, plug/unplug, wakeup chains).
    machine_->clock().Advance(machine_->latency().kern_sync_write_us);
    DLT_RETURN_IF_ERROR(WriteExtents(touched));
  }
  return Status::kOk;
}

Status PageCacheBlockDevice::WriteExtents(const std::vector<uint64_t>& sorted_indices) {
  // Merge adjacent dirty extents into requests up to the driver's max size —
  // the block-layer merging a synchronous driverlet forgoes.
  std::vector<uint64_t> indices;
  for (uint64_t idx : sorted_indices) {
    auto it = cache_.find(idx);
    if (it != cache_.end() && it->second.dirty) {
      indices.push_back(idx);
    }
  }
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());

  size_t i = 0;
  const uint32_t max_extents = std::max<uint32_t>(1, driver_->MaxBlocksPerRequest() / kExtentSectors);
  while (i < indices.size()) {
    size_t j = i + 1;
    while (j < indices.size() && indices[j] == indices[j - 1] + 1 && (j - i) < max_extents) {
      ++j;
    }
    size_t run = j - i;
    std::vector<uint8_t> buf(run * kExtentBytes);
    for (size_t k = 0; k < run; ++k) {
      Extent& e = cache_[indices[i + k]];
      std::memcpy(buf.data() + k * kExtentBytes, e.data.data(), kExtentBytes);
      e.dirty = false;
    }
    machine_->clock().Advance(driver_->PerPageSchedulingUs() * run);
    DLT_RETURN_IF_ERROR(driver_->WriteBlocks(indices[i] * kExtentSectors,
                                             static_cast<uint32_t>(run * kExtentSectors),
                                             buf.data()));
    i = j;
  }
  return Status::kOk;
}

Status PageCacheBlockDevice::Flush() {
  std::vector<uint64_t> dirty;
  for (const auto& [idx, e] : cache_) {
    if (e.dirty) {
      dirty.push_back(idx);
    }
  }
  return WriteExtents(dirty);
}

}  // namespace dlt
