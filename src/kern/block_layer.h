// Mini Linux block layer: the kernel machinery between a filesystem-level
// consumer (workload::MiniDb) and a gold storage driver. Provides 8-sector
// alignment (the source of the paper's blkid & ~0x7 taint, §6.1.3), request
// splitting to the driver's max transfer, a write-back page cache with request
// merging (the native baseline) and an O_SYNC mode (native-sync).
#ifndef SRC_KERN_BLOCK_LAYER_H_
#define SRC_KERN_BLOCK_LAYER_H_

#include <cstdint>
#include <list>
#include <map>
#include <vector>

#include "src/soc/machine.h"
#include "src/soc/status.h"

namespace dlt {

// What gold storage drivers expose upward (blkid/blkcnt in 512 B sectors).
class RawBlockDriver {
 public:
  virtual ~RawBlockDriver() = default;
  virtual Status ReadBlocks(uint64_t blkid, uint32_t blkcnt, uint8_t* buf) = 0;
  virtual Status WriteBlocks(uint64_t blkid, uint32_t blkcnt, const uint8_t* buf) = 0;
  virtual uint32_t MaxBlocksPerRequest() const = 0;
  // CPU cost the kernel pays per data page when submitting to this driver
  // (e.g. USB per-4KB transfer scheduling, paper §7.3.3).
  virtual uint64_t PerPageSchedulingUs() const { return 0; }
};

// What workloads consume. Lba/count in 512 B sectors.
class BlockDevice {
 public:
  virtual ~BlockDevice() = default;
  virtual Status Read(uint64_t lba, uint32_t count, uint8_t* out) = 0;
  virtual Status Write(uint64_t lba, uint32_t count, const uint8_t* data) = 0;
  virtual Status Flush() = 0;
  virtual uint64_t io_ops() const = 0;
};

// The native path: syscall + VFS + block layer costs, 8-sector-aligned extents,
// write-back page cache (or O_SYNC), request merging on flush.
class PageCacheBlockDevice : public BlockDevice {
 public:
  enum class SyncMode {
    kWriteback,  // "native": writes complete at the cache
    kSync,       // "native-sync": every write waits for the device
  };

  PageCacheBlockDevice(RawBlockDriver* driver, Machine* machine, SyncMode mode,
                       size_t capacity_extents = 512);

  Status Read(uint64_t lba, uint32_t count, uint8_t* out) override;
  Status Write(uint64_t lba, uint32_t count, const uint8_t* data) override;
  Status Flush() override;
  uint64_t io_ops() const override { return ops_; }

  uint64_t cache_hits() const { return hits_; }
  uint64_t cache_misses() const { return misses_; }

 private:
  static constexpr uint32_t kExtentSectors = 8;  // 4 KB cache granule
  static constexpr size_t kExtentBytes = kExtentSectors * 512;

  struct Extent {
    std::vector<uint8_t> data;
    bool dirty = false;
  };

  void ChargeKernelCpu();
  Result<Extent*> GetExtent(uint64_t index, bool for_write, bool whole_overwrite);
  Status WriteExtents(const std::vector<uint64_t>& sorted_indices);
  Status EvictIfNeeded();

  RawBlockDriver* driver_;
  Machine* machine_;
  SyncMode mode_;
  size_t capacity_extents_;
  std::map<uint64_t, Extent> cache_;
  std::list<uint64_t> lru_;  // front = most recent
  uint64_t ops_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace dlt

#endif  // SRC_KERN_BLOCK_LAYER_H_
