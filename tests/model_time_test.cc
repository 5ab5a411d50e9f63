// Tier-1 model-time pin: one covered invoke per registered driverlet class on
// a fresh deployment, checked against constants recorded while the replay
// stack still carried a second (compiled) engine. Model time is deterministic,
// so any change to what an invoke charges the virtual clock — per-event
// replay overhead, world switches, resets, device latencies — shows up here
// as an exact mismatch that the change must justify by updating the table.
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
  uint64_t model_us;  // virtual-clock delta across ReplayService::Invoke
};

constexpr ModelTimePin kPins[] = {
    {"mmc", "WR_8", 34, 3078},
    {"usb", "WR_8", 46, 2242},
    {"camera", "OneShot", 112, 2097155},
    {"ftpm", "GetRandom32", 11, 1510},
    {"cryptoacc", "Enc1", 21, 884},
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
    ++pinned;
  }
  EXPECT_EQ(pinned, static_cast<int>(sizeof(kPins) / sizeof(kPins[0])));
}

}  // namespace
}  // namespace dlt
