// Trustlet-facing replay argument types, shared by the replayer, the executor
// and the TEE service layer. Buffers come in two const-correct flavours:
// writable views (outputs and in/out data) and read-only views (pure inputs,
// e.g. the payload of a block write). The executor enforces the split — a
// template event that stores into a read-only buffer is refused, it does not
// cast the qualifier away.
#ifndef SRC_CORE_REPLAY_ARGS_H_
#define SRC_CORE_REPLAY_ARGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dlt {

// A writable span of trustlet memory the template may fill (kCopyFromDma,
// kPioIn) or read back out of (kCopyToDma, kPioOut).
struct BufferView {
  uint8_t* data = nullptr;
  size_t len = 0;
};

// A read-only span: usable wherever the template only consumes bytes. A
// writable view widens into one implicitly, mirroring `T*` → `const T*`.
struct ConstBufferView {
  const uint8_t* data = nullptr;
  size_t len = 0;

  ConstBufferView() = default;
  ConstBufferView(const uint8_t* d, size_t l) : data(d), len(l) {}
  // NOLINTNEXTLINE(google-explicit-constructor): deliberate widening.
  ConstBufferView(const BufferView& b) : data(b.data), len(b.len) {}
};

struct ReplayArgs {
  std::map<std::string, uint64_t> scalars;
  std::map<std::string, BufferView> buffers;          // writable / in-out
  std::map<std::string, ConstBufferView> ro_buffers;  // read-only inputs
};

struct ReplayStats {
  std::string template_name;
  int attempts = 0;
  size_t events_executed = 0;
  int resets = 0;
  // Runtime integrity measurement of the successful attempt (integrity.h):
  // hex SHA-256 chain over the executed top-level events and how many were
  // folded. A successful invoke's chain always equals the template's golden
  // measurement; the failed-invoke chain lives in Replayer::last_measurement.
  std::string measurement;
  size_t events_measured = 0;
};

// Diagnostic produced when the executor gives up: the divergent event plus the
// rewound prefix, each with its recording site (paper §5, §7.2 fault injection).
struct DivergenceReport {
  bool valid = false;
  std::string template_name;
  size_t event_index = 0;
  std::string event_desc;
  std::string file;
  int line = 0;
  uint64_t observed = 0;
  std::string expected_constraint;
  std::vector<std::string> rewound;  // "<kind> <iface> @file:line" oldest-first
};

}  // namespace dlt

#endif  // SRC_CORE_REPLAY_ARGS_H_
