// The §2.2 taxonomy contrast: for a trivial device (UART), the manual trim-down
// approach works — a ~50-line in-TEE driver — while the same device is also
// recordable as a driverlet. Both paths coexist in the TEE.
#include <gtest/gtest.h>

#include "src/core/replayer.h"
#include "src/drv/touch_driver.h"
#include "src/record/record_session.h"
#include "src/tee/trimmed_uart.h"
#include "src/workload/record_campaigns.h"
#include "src/workload/rpi3_testbed.h"

namespace dlt {
namespace {

class UartTrimDownTest : public ::testing::Test {
 protected:
  UartTrimDownTest() : tb_(TestbedOptions{.secure_io = true, .probe_drivers = false}) {}
  Rpi3Testbed tb_;
};

TEST_F(UartTrimDownTest, TrimmedDriverTransmitsFromTee) {
  TrimmedUartDriver uart(&tb_.tee(), tb_.uart_id());
  ASSERT_EQ(Status::kOk, uart.Puts("TEE log: driverlet replay ok\n"));
  EXPECT_EQ("TEE log: driverlet replay ok\n", tb_.uart().transmitted());
}

TEST_F(UartTrimDownTest, TrimmedDriverHonorsTxFifoBackpressure) {
  TrimmedUartDriver uart(&tb_.tee(), tb_.uart_id());
  // 64 bytes into a 16-deep FIFO at ~87 us/byte: the driver must spin on TXFF
  // and still deliver everything in order.
  std::string msg;
  for (int i = 0; i < 64; ++i) {
    msg.push_back(static_cast<char>('a' + i % 26));
  }
  ASSERT_EQ(Status::kOk, uart.Puts(msg));
  EXPECT_EQ(msg, tb_.uart().transmitted());
}

TEST_F(UartTrimDownTest, TrimmedDriverReceives) {
  TrimmedUartDriver uart(&tb_.tee(), tb_.uart_id());
  tb_.uart().InjectRx("ok", 500);
  Result<char> a = uart.Getc();
  Result<char> b = uart.Getc();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ('o', *a);
  EXPECT_EQ('k', *b);
  EXPECT_EQ(Status::kTimeout, uart.Getc(1'000).status());
}

TEST_F(UartTrimDownTest, TrimmedDriverDeniedWithoutSecureAssignment) {
  // On a machine whose UART stays in the normal world, the in-TEE driver's
  // register accesses are refused by the mapping policy.
  Rpi3Testbed open_tb{TestbedOptions{.secure_io = false, .probe_drivers = false}};
  TrimmedUartDriver uart(&open_tb.tee(), open_tb.uart_id());
  EXPECT_EQ(Status::kPermissionDenied, uart.Putc('x'));
}

TEST_F(UartTrimDownTest, UartIsAlsoRecordableAsADriverlet) {
  // The same device through the record/replay pipeline: a putc driverlet.
  // (Economically pointless for UART — the point of §2.2 — but it works.)
  Rpi3Testbed dev{TestbedOptions{.secure_io = false, .probe_drivers = false}};
  RecordSession sess(&dev.kern_io(), "replay_uart_putc", "Putc", dev.uart_id());
  TValue ch = sess.ScalarParam("ch", 'R');
  // The gold "driver": poll FR until not full, write DR.
  Status poll = sess.PollReg32(dev.uart_id(), kUartFr, kUartFrTxFull, 0, /*negate=*/false,
                               100'000, 50, DLT_HERE);
  ASSERT_EQ(Status::kOk, poll);
  sess.RegWrite32(dev.uart_id(), kUartDr, ch & TValue(0xff), DLT_HERE);
  Result<InteractionTemplate> t = sess.Finish();
  ASSERT_TRUE(t.ok());

  RecordCampaign campaign("uart");
  campaign.AddTemplate(std::move(*t));
  std::vector<uint8_t> pkg = campaign.Seal(kDeveloperKey);

  Replayer replayer(&tb_.tee(), kDeveloperKey);
  ASSERT_EQ(Status::kOk, replayer.LoadPackage(pkg.data(), pkg.size()));
  for (char c : std::string("hi from a uart driverlet")) {
    ReplayArgs args;
    args.scalars["ch"] = static_cast<uint64_t>(c);
    ASSERT_TRUE(replayer.Invoke("replay_uart_putc", args).ok());
  }
  EXPECT_EQ("hi from a uart driverlet", tb_.uart().transmitted());
}

}  // namespace
}  // namespace dlt
