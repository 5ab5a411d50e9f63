#include "src/workload/record_campaigns.h"

#include <optional>
#include <vector>

#include "src/record/record_session.h"
#include "src/soc/log.h"

namespace dlt {

namespace {

// The sample block address used by record runs; any covered address works, the
// templates generalize it (paper Fig. 2's "write 10 blocks at block address 42").
constexpr uint64_t kSampleBlkId = 2048;

void FillPattern(std::vector<uint8_t>* buf, uint64_t seed) {
  for (size_t i = 0; i < buf->size(); ++i) {
    (*buf)[i] = static_cast<uint8_t>((seed * 131 + i * 7) & 0xff);
  }
}

// Constrains the device state space before a record run (paper §3.2) and
// returns the primary device's post-reset digest.
std::optional<uint64_t> BeginRun(Rpi3Testbed* tb, uint16_t device) {
  tb->ResetDevices();
  tb->kern_io().ReleaseDma();
  return tb->DeviceStateDigest(device);
}

// Distils the run's template. It leaves its device clean when the device's
// digest now, after the gold driver returned, equals |clean|, the digest
// BeginRun took; a device without a digest never proves clean. Callers end
// their driver first. Their program buffers are declared before the session
// and outlive it, because the session may land a deferred copy-out into one
// in Finish or in its destructor (an error return). Apart from the camera's
// shared capture buffer (2.46 MB, kept across a campaign's runs), each is at
// most 200 KB.
Result<InteractionTemplate> FinishRun(RecordSession* sess, Rpi3Testbed* tb, uint16_t device,
                                      std::optional<uint64_t> clean) {
  std::optional<uint64_t> after = tb->DeviceStateDigest(device);
  DLT_ASSIGN_OR_RETURN(InteractionTemplate t, sess->Finish());
  t.leaves_clean_state = clean.has_value() && after == clean;
  return t;
}

}  // namespace

Result<InteractionTemplate> RecordMmcRun(Rpi3Testbed* tb, const std::string& name, uint64_t rw,
                                         uint64_t blkcnt, uint64_t blkid) {
  std::optional<uint64_t> clean = BeginRun(tb, tb->mmc_id());
  std::vector<uint8_t> buf(blkcnt * 512);
  FillPattern(&buf, blkid);
  RecordSession sess(&tb->kern_io(), kMmcEntry, name, tb->mmc_id());
  TValue rw_v = sess.ScalarParam("rw", rw);
  TValue cnt_v = sess.ScalarParam("blkcnt", blkcnt);
  TValue id_v = sess.ScalarParam("blkid", blkid);
  TValue flag_v = sess.ScalarParam("flag", 0);
  sess.BufferParam("buf", buf.data(), buf.size());
  {
    BcmSdhostDriver driver(&sess, tb->mmc_config());
    Status s = driver.Transfer(rw_v, cnt_v, id_v, flag_v, buf.data(), buf.size());
    if (!Ok(s)) {
      DLT_LOG(kError) << "MMC record run " << name << " failed: " << StatusName(s);
      return s;
    }
  }
  return FinishRun(&sess, tb, tb->mmc_id(), clean);
}

Result<InteractionTemplate> RecordUsbRun(Rpi3Testbed* tb, const std::string& name, uint64_t rw,
                                         uint64_t blkcnt, uint64_t blkid) {
  std::optional<uint64_t> clean = BeginRun(tb, tb->usb_id());
  std::vector<uint8_t> buf(blkcnt * 512);
  FillPattern(&buf, blkid + 1);
  RecordSession sess(&tb->kern_io(), kUsbEntry, name, tb->usb_id());
  TValue rw_v = sess.ScalarParam("rw", rw);
  TValue cnt_v = sess.ScalarParam("blkcnt", blkcnt);
  TValue id_v = sess.ScalarParam("blkid", blkid);
  TValue flag_v = sess.ScalarParam("flag", 0);
  sess.BufferParam("buf", buf.data(), buf.size());
  {
    Dwc2StorageDriver driver(&sess, tb->usb_config());
    Status s = driver.Transfer(rw_v, cnt_v, id_v, flag_v, buf.data(), buf.size());
    if (!Ok(s)) {
      DLT_LOG(kError) << "USB record run " << name << " failed: " << StatusName(s);
      return s;
    }
  }
  return FinishRun(&sess, tb, tb->usb_id(), clean);
}

namespace {

// A capture buffer that covers every resolution.
std::vector<uint8_t> CameraBuffer() {
  return std::vector<uint8_t>(Vc4Firmware::FrameBytes(1440) + 4096);
}

// One camera record run into |buf|, a CameraBuffer. The gold driver only
// writes it, so what an earlier run left there does not reach the template.
Result<InteractionTemplate> RecordCameraRunInto(Rpi3Testbed* tb, const std::string& name,
                                                uint64_t frames, uint64_t resolution,
                                                std::vector<uint8_t>* buf) {
  std::optional<uint64_t> clean = BeginRun(tb, tb->vchiq_id());
  std::vector<uint8_t> img_size(4);
  RecordSession sess(&tb->kern_io(), kCameraEntry, name, tb->vchiq_id());
  TValue frames_v = sess.ScalarParam("frame", frames);
  TValue res_v = sess.ScalarParam("resolution", resolution);
  TValue buf_size_v = sess.ScalarParam("buf_size", buf->size());
  sess.BufferParam("buf", buf->data(), buf->size());
  sess.BufferParam("img_size", img_size.data(), img_size.size());
  {
    VchiqCameraDriver driver(&sess, tb->cam_config());
    Status s =
        driver.Capture(frames_v, res_v, buf->data(), buf->size(), buf_size_v, img_size.data());
    if (!Ok(s)) {
      DLT_LOG(kError) << "camera record run " << name << " failed: " << StatusName(s);
      return s;
    }
  }
  return FinishRun(&sess, tb, tb->vchiq_id(), clean);
}

}  // namespace

Result<InteractionTemplate> RecordCameraRun(Rpi3Testbed* tb, const std::string& name,
                                            uint64_t frames, uint64_t resolution) {
  std::vector<uint8_t> buf = CameraBuffer();
  return RecordCameraRunInto(tb, name, frames, resolution, &buf);
}

Result<InteractionTemplate> RecordDisplayRun(Rpi3Testbed* tb, const std::string& name, uint64_t x,
                                             uint64_t y, uint64_t w, uint64_t h) {
  std::optional<uint64_t> clean = BeginRun(tb, tb->display_id());
  std::vector<uint8_t> buf(w * h * 4);
  FillPattern(&buf, x ^ y);
  RecordSession sess(&tb->kern_io(), kDisplayEntry, name, tb->display_id());
  TValue x_v = sess.ScalarParam("x", x);
  TValue y_v = sess.ScalarParam("y", y);
  TValue w_v = sess.ScalarParam("w", w);
  TValue h_v = sess.ScalarParam("h", h);
  sess.BufferParam("buf", buf.data(), buf.size());
  {
    DsiDisplayDriver driver(&sess, tb->display_config());
    Status s = driver.Blit(x_v, y_v, w_v, h_v, buf.data(), buf.size());
    if (!Ok(s)) {
      DLT_LOG(kError) << "display record run " << name << " failed: " << StatusName(s);
      return s;
    }
  }
  return FinishRun(&sess, tb, tb->display_id(), clean);
}

Result<RecordCampaign> RecordTouchCampaign(Rpi3Testbed* tb) {
  RecordCampaign campaign("touch");
  std::optional<uint64_t> clean = BeginRun(tb, tb->touch_id());
  // The record run needs a user: inject a sample press shortly after the wait
  // begins (the developer taps the panel during recording).
  tb->touch().InjectTouch(400, 240, /*delay_us=*/3'000);
  std::vector<uint8_t> evt(4);
  RecordSession sess(&tb->kern_io(), kTouchEntry, "Sample", tb->touch_id());
  sess.BufferParam("evt", evt.data(), evt.size());
  {
    TouchDriver driver(&sess, tb->touch_config());
    Status s = driver.ReadEvent(evt.data());
    if (!Ok(s)) {
      DLT_LOG(kError) << "touch record run failed: " << StatusName(s);
      return s;
    }
  }
  DLT_ASSIGN_OR_RETURN(InteractionTemplate t, FinishRun(&sess, tb, tb->touch_id(), clean));
  campaign.AddTemplate(std::move(t));
  return campaign;
}

Result<RecordCampaign> RecordDisplayCampaign(Rpi3Testbed* tb) {
  RecordCampaign campaign("display");
  struct Run {
    const char* name;
    uint64_t x, y, w, h;
  };
  const Run kRuns[] = {
      {"Banner", 0, 0, 800, 64},      // status/verification-code strip
      {"Dialog", 200, 160, 400, 160}, // centered confirmation dialog
      {"Icon", 736, 416, 64, 64},     // secure-indicator badge
  };
  for (const Run& run : kRuns) {
    DLT_ASSIGN_OR_RETURN(InteractionTemplate t,
                         RecordDisplayRun(tb, run.name, run.x, run.y, run.w, run.h));
    bool kept = campaign.AddTemplate(std::move(t));
    if (!kept) {
      DLT_LOG(kInfo) << "display run " << run.name << " merged (same transition path)";
    }
  }
  return campaign;
}

Result<InteractionTemplate> RecordFtpmRun(Rpi3Testbed* tb, const std::string& name, uint64_t ord,
                                          uint64_t arg) {
  std::optional<uint64_t> clean = BeginRun(tb, tb->ftpm_id());
  // Request payload sized for the largest ordinal payload (PCR digest);
  // response sized for the largest response (get-random cap).
  std::vector<uint8_t> req(kFtpmPcrBytes);
  FillPattern(&req, ord * 17 + arg);
  std::vector<uint8_t> rsp(kFtpmMaxRandom);
  RecordSession sess(&tb->kern_io(), kFtpmEntry, name, tb->ftpm_id());
  TValue ord_v = sess.ScalarParam("ord", ord);
  TValue arg_v = sess.ScalarParam("arg", arg);
  sess.BufferParam("req", req.data(), req.size());
  sess.BufferParam("rsp", rsp.data(), rsp.size());
  {
    FtpmDriver driver(&sess, tb->ftpm_config());
    Status s = driver.Execute(ord_v, arg_v, req.data(), rsp.data());
    if (!Ok(s)) {
      DLT_LOG(kError) << "ftpm record run " << name << " failed: " << StatusName(s);
      return s;
    }
  }
  return FinishRun(&sess, tb, tb->ftpm_id(), clean);
}

Result<InteractionTemplate> RecordCryptoaccRun(Rpi3Testbed* tb, const std::string& name,
                                               uint64_t op, uint64_t key, uint64_t len) {
  std::optional<uint64_t> clean = BeginRun(tb, tb->crypto_id());
  std::vector<uint8_t> buf(len);
  FillPattern(&buf, key + len);
  std::vector<uint8_t> out(len < kCaDigestBytes ? kCaDigestBytes : len);
  RecordSession sess(&tb->kern_io(), kCryptoaccEntry, name, tb->crypto_id());
  TValue op_v = sess.ScalarParam("op", op);
  TValue key_v = sess.ScalarParam("key", key);
  TValue len_v = sess.ScalarParam("len", len);
  sess.BufferParam("buf", buf.data(), buf.size());
  sess.BufferParam("out", out.data(), out.size());
  {
    CryptoaccDriver driver(&sess, tb->crypto_config());
    Status s = driver.Transform(op_v, key_v, len_v, buf.data(), buf.size(), out.data());
    if (!Ok(s)) {
      DLT_LOG(kError) << "cryptoacc record run " << name << " failed: " << StatusName(s);
      return s;
    }
  }
  return FinishRun(&sess, tb, tb->crypto_id(), clean);
}

Result<RecordCampaign> RecordFtpmCampaign(Rpi3Testbed* tb) {
  RecordCampaign campaign("ftpm");
  struct Run {
    const char* name;
    uint64_t ord, arg;
  };
  const Run kRuns[] = {
      {"GetRandom32", kFtpmOrdGetRandom, 32},
      {"GetRandom128", kFtpmOrdGetRandom, 128},  // merges: same transition path
      {"PcrExtend", kFtpmOrdPcrExtend, 0},
      {"PcrRead", kFtpmOrdPcrRead, 0},
      {"Quote", kFtpmOrdQuote, 0x3},
  };
  for (const Run& run : kRuns) {
    DLT_ASSIGN_OR_RETURN(InteractionTemplate t, RecordFtpmRun(tb, run.name, run.ord, run.arg));
    bool kept = campaign.AddTemplate(std::move(t));
    if (!kept) {
      DLT_LOG(kInfo) << "ftpm run " << run.name << " merged (same transition path)";
    }
  }
  return campaign;
}

Result<RecordCampaign> RecordCryptoaccCampaign(Rpi3Testbed* tb) {
  RecordCampaign campaign("cryptoacc");
  struct Run {
    const char* name;
    uint64_t op, key, len;
  };
  const Run kRuns[] = {
      {"Enc1", kCaOpEncrypt, 0xc0ffee01, 256},     // 1 ring chunk
      {"Dec1", kCaOpDecrypt, 0xc0ffee01, 4096},    // merges with Enc1 (same path)
      {"Enc2", kCaOpEncrypt, 0xc0ffee02, 8192},    // 2 chunks
      {"Enc3", kCaOpEncrypt, 0xc0ffee03, 12288},   // 3 chunks
      {"Enc4", kCaOpEncrypt, 0xc0ffee04, 16384},   // 4 chunks
      {"Digest", kCaOpDigest, 0xd16e5701, 4096},   // single descriptor
  };
  for (const Run& run : kRuns) {
    DLT_ASSIGN_OR_RETURN(InteractionTemplate t,
                         RecordCryptoaccRun(tb, run.name, run.op, run.key, run.len));
    bool kept = campaign.AddTemplate(std::move(t));
    if (!kept) {
      DLT_LOG(kInfo) << "cryptoacc run " << run.name << " merged (same transition path)";
    }
  }
  return campaign;
}

Result<RecordCampaign> RecordMmcCampaign(Rpi3Testbed* tb) {
  RecordCampaign campaign("mmc");
  const uint64_t kCounts[] = {1, 8, 32, 128, 256};
  for (uint64_t count : kCounts) {
    DLT_ASSIGN_OR_RETURN(
        InteractionTemplate rd,
        RecordMmcRun(tb, "RD_" + std::to_string(count), kMmcRwRead, count, kSampleBlkId));
    campaign.AddTemplate(std::move(rd));
    DLT_ASSIGN_OR_RETURN(
        InteractionTemplate wr,
        RecordMmcRun(tb, "WR_" + std::to_string(count), kMmcRwWrite, count, kSampleBlkId));
    campaign.AddTemplate(std::move(wr));
  }
  return campaign;
}

Result<RecordCampaign> RecordUsbCampaign(Rpi3Testbed* tb) {
  RecordCampaign campaign("usb");
  const uint64_t kCounts[] = {1, 8, 32, 128, 256};
  for (uint64_t count : kCounts) {
    DLT_ASSIGN_OR_RETURN(
        InteractionTemplate rd,
        RecordUsbRun(tb, "RD_" + std::to_string(count), kMmcRwRead, count, kSampleBlkId));
    campaign.AddTemplate(std::move(rd));
    DLT_ASSIGN_OR_RETURN(
        InteractionTemplate wr,
        RecordUsbRun(tb, "WR_" + std::to_string(count), kMmcRwWrite, count, kSampleBlkId));
    campaign.AddTemplate(std::move(wr));
  }
  return campaign;
}

Result<RecordCampaign> RecordCameraCampaign(Rpi3Testbed* tb) {
  RecordCampaign campaign("camera");
  struct Run {
    const char* name;
    uint64_t frames;
  };
  const Run kRuns[] = {{"OneShot", 1}, {"ShortBurst", 10}, {"LongBurst", 100}};
  const uint64_t kResolutions[] = {720, 1080, 1440};
  // One buffer for all nine runs: a fresh 2.46 MB buffer per run would be
  // zero-filled each time, and the heap grows around each freed one.
  std::vector<uint8_t> buf = CameraBuffer();
  for (const Run& run : kRuns) {
    for (uint64_t res : kResolutions) {
      DLT_ASSIGN_OR_RETURN(InteractionTemplate t,
                           RecordCameraRunInto(tb, run.name, run.frames, res, &buf));
      bool kept = campaign.AddTemplate(std::move(t));
      if (!kept) {
        DLT_LOG(kInfo) << "camera run " << run.name << "@" << res
                       << "p merged into an existing template (same transition path)";
      }
    }
  }
  return campaign;
}

}  // namespace dlt
