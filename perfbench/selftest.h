#ifndef PERFBENCH_SELFTEST_H_
#define PERFBENCH_SELFTEST_H_

namespace perfbench {

// The benchmark's own checks: quantile edge cases, seed-driven generators,
// and that the TimedSecureWorld leaves model time and read-back bytes exactly
// as the plain SecureWorld does on a short run. Returns the exit code.
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_SELFTEST_H_
