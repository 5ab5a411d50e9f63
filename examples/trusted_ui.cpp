// Trusted UI: the paper's third secure-IO use case (§2.1) — a trustlet renders
// security-sensitive content (a service verification code) on a display
// controller isolated in the TEE, via a display driverlet. The normal-world OS
// can neither read nor overwrite what is on screen.
#include <cstdio>
#include <cstring>

#include "src/core/replayer.h"
#include "src/workload/record_campaigns.h"
#include "src/workload/rpi3_testbed.h"

using namespace dlt;

namespace {

// 5x7 digit glyphs for the verification code.
const uint8_t kGlyphs[10][7] = {
    {0x0e, 0x11, 0x13, 0x15, 0x19, 0x11, 0x0e}, {0x04, 0x0c, 0x04, 0x04, 0x04, 0x04, 0x0e},
    {0x0e, 0x11, 0x01, 0x02, 0x04, 0x08, 0x1f}, {0x1f, 0x02, 0x04, 0x02, 0x01, 0x11, 0x0e},
    {0x02, 0x06, 0x0a, 0x12, 0x1f, 0x02, 0x02}, {0x1f, 0x10, 0x1e, 0x01, 0x01, 0x11, 0x0e},
    {0x06, 0x08, 0x10, 0x1e, 0x11, 0x11, 0x0e}, {0x1f, 0x01, 0x02, 0x04, 0x08, 0x08, 0x08},
    {0x0e, 0x11, 0x11, 0x0e, 0x11, 0x11, 0x0e}, {0x0e, 0x11, 0x11, 0x0f, 0x01, 0x02, 0x0c}};

constexpr uint32_t kBannerW = 800;
constexpr uint32_t kBannerH = 64;
constexpr uint32_t kBg = 0x00102040;  // dark blue
constexpr uint32_t kFg = 0x00ffffff;  // white

void RenderCode(const char* code, std::vector<uint8_t>* banner) {
  banner->assign(static_cast<size_t>(kBannerW) * kBannerH * 4, 0);
  auto put = [&](uint32_t x, uint32_t y, uint32_t color) {
    std::memcpy(banner->data() + (static_cast<size_t>(y) * kBannerW + x) * 4, &color, 4);
  };
  for (uint32_t y = 0; y < kBannerH; ++y) {
    for (uint32_t x = 0; x < kBannerW; ++x) {
      put(x, y, kBg);
    }
  }
  uint32_t cx = 32;
  for (const char* p = code; *p; ++p) {
    if (*p < '0' || *p > '9') {
      cx += 24;
      continue;
    }
    const uint8_t* glyph = kGlyphs[*p - '0'];
    for (int gy = 0; gy < 7; ++gy) {
      for (int gx = 0; gx < 5; ++gx) {
        if (glyph[gy] & (1 << (4 - gx))) {
          // 6x scale.
          for (int sy = 0; sy < 6; ++sy) {
            for (int sx = 0; sx < 6; ++sx) {
              put(cx + static_cast<uint32_t>(gx * 6 + sx),
                  8 + static_cast<uint32_t>(gy * 6 + sy), kFg);
            }
          }
        }
      }
    }
    cx += 40;
  }
}

}  // namespace

int main() {
  std::printf("Trusted UI: rendering a verification code from the TEE\n\n");
  std::vector<uint8_t> pkg;
  {
    Rpi3Testbed dev{TestbedOptions{}};
    Result<RecordCampaign> c = RecordDisplayCampaign(&dev);
    if (!c.ok()) {
      return 1;
    }
    std::printf("display campaign: 3 record runs -> %zu template(s) (geometries share one\n"
                "transition path, so the recorder merges them)\n",
                c->templates().size());
    std::printf("coverage: %s\n\n", c->CoverageReport().c_str());
    pkg = c->Seal(kDeveloperKey);
  }

  TestbedOptions opts;
  opts.secure_io = true;
  opts.probe_drivers = false;
  Rpi3Testbed machine{opts};
  Replayer replayer(&machine.tee(), kDeveloperKey);
  if (!Ok(replayer.LoadPackage(pkg.data(), pkg.size()))) {
    return 1;
  }

  const char* code = "481516";
  std::printf("trustlet renders verification code %s to the secure banner...\n", code);
  std::vector<uint8_t> banner;
  RenderCode(code, &banner);
  ReplayArgs args;
  args.scalars = {{"x", 0}, {"y", 0}, {"w", kBannerW}, {"h", kBannerH}};
  args.buffers["buf"] = BufferView{banner.data(), banner.size()};
  Result<ReplayStats> r = replayer.Invoke(kDisplayEntry, args);
  if (!r.ok()) {
    std::fprintf(stderr, "blit failed: %s\n", StatusName(r.status()));
    return 1;
  }
  std::printf("blit replayed via template %s (%zu events)\n", r->template_name.c_str(),
              r->events_executed);

  // Verify what the panel physically shows: row 4 of the '4' glyph is solid
  // (0x1f), so (32+3, 8+4*6+3) must be foreground.
  uint32_t on = machine.display().PanelPixel(32 + 3, 8 + 4 * 6 + 3);
  uint32_t off = machine.display().PanelPixel(0, 0);
  std::printf("panel pixel inside glyph: 0x%06x (expect 0x%06x), background: 0x%06x\n", on, kFg,
              off);

  // The OS cannot touch the display controller:
  Status normal = machine.machine().mem().Write32(World::kNormal, kDisplayBase + kDispCommit, 1);
  std::printf("normal-world attempt to kick the display: %s\n", StatusName(normal));

  // --- trusted input: the user confirms on the isolated touch panel ---
  std::vector<uint8_t> touch_pkg;
  {
    Rpi3Testbed dev{TestbedOptions{}};
    Result<RecordCampaign> c = RecordTouchCampaign(&dev);
    if (!c.ok()) {
      return 1;
    }
    touch_pkg = c->Seal(kDeveloperKey);
  }
  Replayer touch_replayer(&machine.tee(), kDeveloperKey);
  if (!Ok(touch_replayer.LoadPackage(touch_pkg.data(), touch_pkg.size()))) {
    return 1;
  }
  std::printf("\nwaiting for the user to confirm on the secure panel...\n");
  machine.touch().InjectTouch(420, 32, /*delay_us=*/50'000);  // the user taps the banner
  std::vector<uint8_t> evt(4, 0);
  ReplayArgs touch_args;
  touch_args.buffers["evt"] = BufferView{evt.data(), evt.size()};
  Result<ReplayStats> tap = touch_replayer.Invoke(kTouchEntry, touch_args);
  if (!tap.ok()) {
    std::fprintf(stderr, "touch replay failed: %s\n", StatusName(tap.status()));
    return 1;
  }
  uint32_t sample = 0;
  std::memcpy(&sample, evt.data(), 4);
  uint32_t tx = sample & 0xfff;
  uint32_t ty = (sample >> 12) & 0xfff;
  bool confirmed = tx < kBannerW && ty < kBannerH;
  std::printf("tap at (%u, %u): %s\n", tx, ty,
              confirmed ? "inside the banner -> transaction confirmed" : "outside -> ignored");
  return (on == kFg && off == kBg && normal == Status::kPermissionDenied && confirmed) ? 0 : 1;
}
