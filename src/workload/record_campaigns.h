// The paper's three record campaigns (§6), runnable on a developer-machine
// testbed. Each exercises the gold driver through RecordSessions and returns a
// campaign holding the distilled interaction templates:
//   MMC    — 10 runs: RD/WR x {1,8,32,128,256} blocks (Table 3);
//   USB    — same 10 runs against the mass-storage driver (§6.2.2);
//   Camera — 9 runs: {1,10,100} frames x {720,1080,1440}p, which merge into 3
//            templates (OneShot/ShortBurst/LongBurst, Table 5) because the
//            driver's state-transition path is resolution-independent.
// Every run also sets InteractionTemplate::leaves_clean_state: whether the
// primary device's StateDigest after the gold driver returned equals the one
// taken right after the run's pre-record reset.
#ifndef SRC_WORKLOAD_RECORD_CAMPAIGNS_H_
#define SRC_WORKLOAD_RECORD_CAMPAIGNS_H_

#include "src/record/campaign.h"
#include "src/workload/rpi3_testbed.h"

namespace dlt {

inline constexpr const char* kMmcEntry = "replay_mmc";
inline constexpr const char* kUsbEntry = "replay_usb";
inline constexpr const char* kCameraEntry = "replay_camera";
inline constexpr const char* kDisplayEntry = "replay_display";
inline constexpr const char* kTouchEntry = "replay_touch";
inline constexpr const char* kFtpmEntry = "replay_ftpm";
inline constexpr const char* kCryptoaccEntry = "replay_cryptoacc";

// The developer signing key used throughout examples/tests/benches.
inline constexpr const char* kDeveloperKey = "driverlet-developer-key-v1";

Result<RecordCampaign> RecordMmcCampaign(Rpi3Testbed* tb);
Result<RecordCampaign> RecordUsbCampaign(Rpi3Testbed* tb);
Result<RecordCampaign> RecordCameraCampaign(Rpi3Testbed* tb);
// Trusted-UI display driverlet (paper §2.1 third use case): blit a bitmap to
// given panel coordinates. All geometries share one transition path, so the
// campaign's runs merge into a single template.
Result<RecordCampaign> RecordDisplayCampaign(Rpi3Testbed* tb);
// Trusted-input driverlet (the other half of trusted UI): wait for and deliver
// one touch sample.
Result<RecordCampaign> RecordTouchCampaign(Rpi3Testbed* tb);
// fTPM driverlet (fourth class): one template per ordinal — get-random with a
// variable-length response, PCR extend/read, and quote.
Result<RecordCampaign> RecordFtpmCampaign(Rpi3Testbed* tb);
// Crypto-accelerator driverlet (fifth class): cipher jobs at 1/2/3/4
// descriptor-ring chunks (encrypt and decrypt merge — the op is a symbolic
// descriptor operand) plus a single-descriptor digest.
Result<RecordCampaign> RecordCryptoaccCampaign(Rpi3Testbed* tb);

// One MMC record run (exposed for targeted tests): records template |name| for
// the given request and returns the distilled template.
Result<InteractionTemplate> RecordMmcRun(Rpi3Testbed* tb, const std::string& name, uint64_t rw,
                                         uint64_t blkcnt, uint64_t blkid);
Result<InteractionTemplate> RecordUsbRun(Rpi3Testbed* tb, const std::string& name, uint64_t rw,
                                         uint64_t blkcnt, uint64_t blkid);
Result<InteractionTemplate> RecordCameraRun(Rpi3Testbed* tb, const std::string& name,
                                            uint64_t frames, uint64_t resolution);
Result<InteractionTemplate> RecordDisplayRun(Rpi3Testbed* tb, const std::string& name, uint64_t x,
                                             uint64_t y, uint64_t w, uint64_t h);
Result<InteractionTemplate> RecordFtpmRun(Rpi3Testbed* tb, const std::string& name, uint64_t ord,
                                          uint64_t arg);
Result<InteractionTemplate> RecordCryptoaccRun(Rpi3Testbed* tb, const std::string& name,
                                               uint64_t op, uint64_t key, uint64_t len);

}  // namespace dlt

#endif  // SRC_WORKLOAD_RECORD_CAMPAIGNS_H_
