#pragma once

// The one way tests pin a kernel tier: an RAII guard over
// setActiveCpuTier that restores the previously active tier on scope
// exit. GEMMs follow the pin on their next call; a ScoringFunction takes
// the tier active at its construction, so build it inside the pin.
// What a process decides at its first kernel call (the probe, the
// DQNDOCK_FORCE_KERNEL override and its errors) is only visible in a
// process with no active tier yet: expectInFreshProcess runs a check in
// one.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/cpu_tier.hpp"

namespace dqndock {

class CpuTierGuard {
 public:
  explicit CpuTierGuard(CpuTier tier) : previous_(activeCpuTier()) { setActiveCpuTier(tier); }
  ~CpuTierGuard() { setActiveCpuTier(previous_); }
  CpuTierGuard(const CpuTierGuard&) = delete;
  CpuTierGuard& operator=(const CpuTierGuard&) = delete;

 private:
  CpuTier previous_;
};

/// Every tier this binary and host can run, worst first.
inline std::vector<CpuTier> supportedCpuTiers() {
  std::vector<CpuTier> tiers{CpuTier::kGeneric};
  if (cpuTierSupported(CpuTier::kAvx512)) tiers.push_back(CpuTier::kAvx512);
  return tiers;
}

/// RAII DQNDOCK_FORCE_KERNEL value (nullptr unsets it), restored on
/// scope exit. setenv is safe here: these tests spawn no concurrent
/// getenv readers.
class ScopedForceKernelEnv {
 public:
  explicit ScopedForceKernelEnv(const char* value) {
    if (const char* prev = std::getenv(kVar)) {
      hadPrev_ = true;
      prev_ = prev;
    }
    if (value != nullptr) {
      ::setenv(kVar, value, /*overwrite=*/1);
    } else {
      ::unsetenv(kVar);
    }
  }
  ~ScopedForceKernelEnv() {
    if (hadPrev_) {
      ::setenv(kVar, prev_.c_str(), 1);
    } else {
      ::unsetenv(kVar);
    }
  }
  ScopedForceKernelEnv(const ScopedForceKernelEnv&) = delete;
  ScopedForceKernelEnv& operator=(const ScopedForceKernelEnv&) = delete;

 private:
  static constexpr const char* kVar = "DQNDOCK_FORCE_KERNEL";
  bool hadPrev_ = false;
  std::string prev_;
};

/// Runs `check` in a new process that has made no kernel call yet and
/// expects it to return true; a failing check explains itself on
/// stderr, which the test failure prints. The threadsafe death-test
/// style re-executes the test binary instead of forking this process,
/// whose tier may already be decided. Everything the test body does
/// before this call runs again in the new process, so set the
/// environment first. The child ends with _Exit, so no leak check or
/// other exit handler of a sanitizer build can change its exit code.
template <class Check>
void expectInFreshProcess(Check check) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";  // gtest restores flags per test
  EXPECT_EXIT(std::_Exit(check() ? 0 : 1), ::testing::ExitedWithCode(0), "");
}

}  // namespace dqndock
