// Secure surveillance trustlet — the paper's end-to-end use case (§7.4, Fig. 9):
// periodically sample image frames from the CSI camera and store them on the SD
// card, entirely inside the TEE. The trustlet code mirrors the paper's ~50-line
// sample: one header, two replay interfaces (replay_cam, replay_mmc).
#include <cstdio>
#include <cstring>

#include "src/core/replayer.h"
#include "src/workload/record_campaigns.h"
#include "src/workload/rpi3_testbed.h"

using namespace dlt;

namespace {

// The trustlet from Figure 9, expressed against the replayer API.
class SurveillanceTrustlet : public Trustlet {
 public:
  SurveillanceTrustlet(Replayer* cam, Replayer* mmc, int frames)
      : cam_(cam), mmc_(mmc), frames_(frames) {}

  std::string_view name() const override { return "secure-surveillance"; }

  Status Run(SecureWorld* tee) override {
    size_t buf_size = 2u << 20;  /* provided buffer size (paper: 2<<20) */
    std::vector<uint8_t> img(buf_size);
    std::vector<uint8_t> size_out(4);
    uint64_t sector = 0;
    for (int i = 0; i < frames_; ++i) {
      uint64_t t0 = tee->TimestampUs();
      ReplayArgs cam_args;
      cam_args.scalars = {{"frame", 1}, {"resolution", 1080}, {"buf_size", buf_size}};
      cam_args.buffers["buf"] = BufferView{img.data(), img.size()};
      cam_args.buffers["img_size"] = BufferView{size_out.data(), size_out.size()};
      Result<ReplayStats> cam = cam_->Invoke(kCameraEntry, cam_args);
      if (!cam.ok()) { /* err: no template, small buffer, etc. */
        return cam.status();
      }
      uint32_t size = 0;
      std::memcpy(&size, size_out.data(), 4);
      uint64_t t_cam = tee->TimestampUs();

      /* store the image: iterate 256-block trunks (paper Fig. 9) */
      uint32_t sectors = (size + 511) / 512;
      sectors = (sectors + 255) & ~255u;  // template granularity: 256-block chunks
      for (uint32_t off = 0; off < sectors; off += 256) {
        ReplayArgs mmc_args;
        mmc_args.scalars = {{"rw", kMmcRwWrite}, {"blkcnt", 256},
                            {"blkid", sector + off}, {"flag", 0}};
        mmc_args.buffers["buf"] =
            BufferView{img.data() + static_cast<size_t>(off) * 512, 256 * 512};
        Result<ReplayStats> wr = mmc_->Invoke(kMmcEntry, mmc_args);
        if (!wr.ok()) { /* err: card removed, cmd timeout etc. */
          return wr.status();
        }
      }
      uint64_t t_store = tee->TimestampUs();
      std::printf("  frame %d: %u-byte JPEG, capture %.2fs, store %.0fms (%u chunks)\n", i,
                  size, static_cast<double>(t_cam - t0) / 1e6,
                  static_cast<double>(t_store - t_cam) / 1e3, sectors / 256);
      sector += sectors;
    }
    return Status::kOk;
  }

 private:
  Replayer* cam_;
  Replayer* mmc_;
  int frames_;
};

}  // namespace

int main() {
  std::printf("Secure surveillance trustlet (paper 7.4 / Figure 9)\n\n");
  std::printf("recording camera + MMC driverlets on the developer machine...\n");
  std::vector<uint8_t> cam_pkg;
  std::vector<uint8_t> mmc_pkg;
  {
    Rpi3Testbed dev{TestbedOptions{}};
    Result<RecordCampaign> cam = RecordCameraCampaign(&dev);
    Result<RecordCampaign> mmc = RecordMmcCampaign(&dev);
    if (!cam.ok() || !mmc.ok()) {
      return 1;
    }
    cam_pkg = cam->Seal(kDeveloperKey);
    mmc_pkg = mmc->Seal(kDeveloperKey);
  }

  TestbedOptions opts;
  opts.secure_io = true;
  opts.probe_drivers = false;
  Rpi3Testbed machine{opts};
  Replayer cam_replayer(&machine.tee(), kDeveloperKey);
  Replayer mmc_replayer(&machine.tee(), kDeveloperKey);
  if (!Ok(cam_replayer.LoadPackage(cam_pkg.data(), cam_pkg.size())) ||
      !Ok(mmc_replayer.LoadPackage(mmc_pkg.data(), mmc_pkg.size()))) {
    return 1;
  }

  std::printf("running the trustlet in the TEE (camera + SD card isolated by TZASC):\n");
  SurveillanceTrustlet trustlet(&cam_replayer, &mmc_replayer, /*frames=*/3);
  uint64_t t0 = machine.clock().now_us();
  Status s = trustlet.Run(&machine.tee());
  uint64_t total = machine.clock().now_us() - t0;
  if (!Ok(s)) {
    std::fprintf(stderr, "trustlet failed: %s\n", StatusName(s));
    return 1;
  }
  std::printf("\nstored 3 frames in %.2fs (%.2fs per frame)\n",
              static_cast<double>(total) / 1e6, static_cast<double>(total) / 3e6);
  std::printf("sectors written on the secure SD card: %llu\n",
              static_cast<unsigned long long>(machine.sd_medium().sectors_written()));
  std::printf("(paper: storing each frame takes 3.7s, of which most is camera init\n"
              " and storing the image only takes 154ms)\n");
  return 0;
}
