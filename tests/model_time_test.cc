// Tier-1 model-time pin: two covered invokes per registered driverlet class on
// one fresh deployment, checked against constants. The first invoke's pins
// were recorded while the replay stack still carried a second (compiled)
// engine. The second invoke skips its soft reset (device_reset_us) for the
// classes whose templates the recorder proved leave the device clean (mmc,
// ftpm, cryptoacc) and pays it for the others (usb, camera); the 1–2 µs
// left over against "first − reset" or "first" is the sub-µs replay-overhead
// remainder the virtual clock carries from one invoke into the next. Model
// time is deterministic, so any change to what an invoke charges the virtual
// clock — per-event replay overhead, world switches, resets, device
// latencies — shows up here as an exact mismatch that the change must justify
// by updating the table.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/workload/deploy_util.h"

namespace dlt {
namespace {

struct ModelTimePin {
  const char* driverlet;
  const char* template_name;
  size_t events_executed;
  uint64_t model_us;         // virtual-clock delta across ReplayService::Invoke
  uint64_t second_model_us;  // the same for the next covered invoke
  bool second_reset_elided;
};

constexpr ModelTimePin kPins[] = {
    {"mmc", "WR_8", 34, 3078, 2279, true},
    {"usb", "WR_8", 46, 2242, 2243, false},
    {"camera", "OneShot", 112, 2097155, 2097153, false},
    {"ftpm", "GetRandom32", 11, 1510, 711, true},
    {"cryptoacc", "Enc1", 21, 884, 84, true},
};

const ModelTimePin* FindPin(const std::string& driverlet) {
  for (const ModelTimePin& p : kPins) {
    if (driverlet == p.driverlet) {
      return &p;
    }
  }
  return nullptr;
}

TEST(ModelTimeTest, CoveredInvokePerClassChargesPinnedModelTime) {
  int pinned = 0;
  for (const DriverletClassSpec& spec : RegisteredDriverletClasses()) {
    SCOPED_TRACE(spec.name);
    std::vector<uint8_t> buf, aux;
    ReplayArgs args;
    if (!CoveredArgsFor(spec.entry, 0, &buf, &aux, &args)) {
      continue;  // no synthesizable load for this entry
    }
    const ModelTimePin* pin = FindPin(spec.name);
    ASSERT_NE(pin, nullptr) << "registered class without a model-time pin";
    Deployment d = MakeDeployment(spec.build_package());
    ASSERT_NE(d.session, 0u);
    const uint64_t t0 = d.tb->machine().clock().now_us();
    Result<ReplayStats> r = d.service->Invoke(d.session, spec.entry, args);
    const uint64_t t1 = d.tb->machine().clock().now_us();
    ASSERT_TRUE(r.ok()) << StatusName(r.status());
    EXPECT_EQ(r->template_name, pin->template_name);
    EXPECT_EQ(r->events_executed, pin->events_executed);
    EXPECT_EQ(t1 - t0, pin->model_us);

    // The same covered request again, on the device the first one left.
    Result<ReplayStats> r2 = d.service->Invoke(d.session, spec.entry, args);
    const uint64_t t2 = d.tb->machine().clock().now_us();
    ASSERT_TRUE(r2.ok()) << StatusName(r2.status());
    EXPECT_EQ(r2->template_name, pin->template_name);
    EXPECT_EQ(r2->events_executed, pin->events_executed);
    EXPECT_EQ(r2->reset_elided, pin->second_reset_elided);
    EXPECT_EQ(t2 - t1, pin->second_model_us);
    ++pinned;
  }
  EXPECT_EQ(pinned, static_cast<int>(sizeof(kPins) / sizeof(kPins[0])));
}

}  // namespace
}  // namespace dlt
