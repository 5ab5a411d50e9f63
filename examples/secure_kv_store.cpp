// Secure credential store: the paper's "secure storage" use case (§2.1) — a
// trustlet managing credentials on USB flash isolated in the TEE. Runs the full
// MiniDb engine on top of the USB driverlet: every block the database touches
// moves through replayed interaction templates.
#include <cstdio>
#include <cstring>

#include "src/tee/replay_service.h"
#include "src/workload/minidb.h"
#include "src/workload/record_campaigns.h"
#include "src/workload/replay_block_device.h"
#include "src/workload/rpi3_testbed.h"

using namespace dlt;

namespace {

uint64_t KeyFor(const char* name) {
  // FNV-1a over the credential name.
  uint64_t h = 1469598103934665603ull;
  for (const char* p = name; *p; ++p) {
    h = (h ^ static_cast<uint8_t>(*p)) * 1099511628211ull;
  }
  return h;
}

}  // namespace

int main() {
  std::printf("Secure credential store over the USB driverlet\n\n");
  std::vector<uint8_t> pkg;
  {
    Rpi3Testbed dev{TestbedOptions{}};
    Result<RecordCampaign> c = RecordUsbCampaign(&dev);
    if (!c.ok()) {
      return 1;
    }
    pkg = c->Seal(kDeveloperKey);
    std::printf("USB driverlet recorded and sealed (%zu bytes)\n\n", pkg.size());
  }

  TestbedOptions opts;
  opts.secure_io = true;
  opts.probe_drivers = false;
  Rpi3Testbed machine{opts};
  // The credential store is one client of the session-oriented secure IO
  // service: it opens a session against the USB driverlet and issues every
  // block access through it.
  ReplayService service(&machine.tee(), kDeveloperKey);
  Result<std::string> driverlet = service.RegisterDriverlet(pkg.data(), pkg.size());
  if (!driverlet.ok()) {
    return 1;
  }
  Result<SessionId> session = service.OpenSession(*driverlet);
  if (!session.ok()) {
    return 1;
  }

  ReplayBlockDevice dev(&service, *session, kUsbEntry);
  MiniDb db(&dev);
  if (!Ok(db.Open())) {
    return 1;
  }

  struct Credential {
    const char* name;
    const char* value;
  };
  const Credential kCreds[] = {
      {"wifi/home", "psk=correct-horse-battery"},
      {"bank/totp", "seed=JBSWY3DPEHPK3PXP"},
      {"mail/imap", "app-password=wxyz 1234"},
      {"vpn/office", "cert-fingerprint=a1:b2:c3"},
  };
  std::printf("storing %zu credentials in the TEE...\n", std::size(kCreds));
  for (const Credential& c : kCreds) {
    if (!Ok(db.Insert(KeyFor(c.name), c.value, std::strlen(c.value)))) {
      std::fprintf(stderr, "insert failed for %s\n", c.name);
      return 1;
    }
  }
  if (!Ok(db.Commit())) {
    return 1;
  }

  std::printf("retrieving:\n");
  for (const Credential& c : kCreds) {
    Result<std::vector<uint8_t>> v = db.Lookup(KeyFor(c.name));
    if (!v.ok()) {
      std::fprintf(stderr, "  %s: lookup failed\n", c.name);
      return 1;
    }
    std::string got(v->begin(), v->end());
    std::printf("  %-12s -> %s  [%s]\n", c.name, got.c_str(),
                got == c.value ? "ok" : "CORRUPT");
  }

  std::printf("\nrotating one credential and deleting another...\n");
  const char* rotated = "psk=new-rotated-passphrase";
  if (!Ok(db.Update(KeyFor("wifi/home"), rotated, std::strlen(rotated))) ||
      !Ok(db.Delete(KeyFor("mail/imap"))) || !Ok(db.Commit())) {
    return 1;
  }
  Result<std::vector<uint8_t>> v = db.Lookup(KeyFor("wifi/home"));
  std::printf("  wifi/home  -> %s\n",
              v.ok() ? std::string(v->begin(), v->end()).c_str() : "(missing)");
  std::printf("  mail/imap  -> %s\n", db.Lookup(KeyFor("mail/imap")).ok() ? "STILL THERE?!"
                                                                          : "(deleted)");

  std::printf("\nblock IO performed via replayed templates: %llu requests\n",
              static_cast<unsigned long long>(dev.io_ops()));
  for (const auto& [tpl, count] : dev.invocations()) {
    std::printf("  %-8s x%llu\n", tpl.c_str(), static_cast<unsigned long long>(count));
  }
  std::printf("\nnormal world access to the USB controller: %s\n",
              StatusName(machine.machine().mem().Read32(World::kNormal, kUsbBase).status()));
  return 0;
}
