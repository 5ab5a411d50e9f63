// The TEE boundary, checked on objects: this program links dlt_tee alone (with
// what it links: dlt_core, dlt_sym, dlt_crypto, dlt_soc, dlt_obs), never the
// recorder, drivers or workloads. If any TEE object still calls a function
// that lives in a normal-world library, this target fails to link. At run time
// it drives every TEE entry point once on a bare Machine and SecureWorld and
// checks the status each one returns. tools/tee_budget.py holds the same
// sources to their line budget.
#include <cstdio>
#include <vector>

#include "src/core/package.h"
#include "src/core/replayer.h"
#include "src/tee/replay_service.h"
#include "src/tee/secure_world.h"

namespace {

int g_failures = 0;

void Expect(const char* what, dlt::Status got, dlt::Status want) {
  if (got != want) {
    std::fprintf(stderr, "FAIL: %s returned %s, want %s\n", what, dlt::StatusName(got),
                 dlt::StatusName(want));
    ++g_failures;
  }
}

template <typename T>
dlt::Status StatusOf(const dlt::Result<T>& r) {
  return r.ok() ? dlt::Status::kOk : r.status();
}

}  // namespace

int main() {
  using namespace dlt;
  Machine machine;
  SecureWorld tee(&machine);
  constexpr char kKey[] = "tee-link-check-key";

  // A well-framed envelope whose HMAC trailer is all zeros: it fails the
  // signature check before anything parses it.
  std::vector<uint8_t> forged(kPackageMagic, kPackageMagic + 8);
  forged.resize(64, 0);
  forged[8] = kPackageFormatBinaryV1;

  Expect("OpenPackage", StatusOf(OpenPackage(forged.data(), forged.size(), kKey)),
         Status::kCorrupt);
  ReplayService service(&tee, kKey);
  Expect("RegisterDriverlet",
         StatusOf(service.RegisterDriverlet(forged.data(), forged.size())), Status::kCorrupt);
  Replayer standalone(&tee, kKey);
  Expect("Replayer::LoadPackage", standalone.LoadPackage(forged.data(), forged.size()),
         Status::kCorrupt);

  Expect("OpenSession", StatusOf(service.OpenSession("mmc")), Status::kNotFound);
  constexpr SessionId kUnknown = 42;
  Expect("Invoke", StatusOf(service.Invoke(kUnknown, "replay_mmc", ReplayArgs{})),
         Status::kNotFound);
  Expect("RingPush", StatusOf(service.RingPush(kUnknown, "replay_mmc", ReplayArgs{})),
         Status::kNotFound);
  Expect("RingDoorbell", StatusOf(service.RingDoorbell(kUnknown)), Status::kNotFound);
  Expect("RingPop", StatusOf(service.RingPop(kUnknown)), Status::kNotFound);
  Expect("Attest", StatusOf(service.Attest(kUnknown, "nonce")), Status::kNotFound);

  if (g_failures == 0) {
    std::printf("TEE link check: every entry point linked and returned its status\n");
  }
  return g_failures == 0 ? 0 : 1;
}
