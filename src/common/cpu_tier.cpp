/// \file cpu_tier.cpp
/// CPUID probe + DQNDOCK_FORCE_KERNEL resolution for every kernel
/// family. Compiled with the plain target flags (no ISA extensions): it
/// must be executable before any probing happened.

#include "src/common/cpu_tier.hpp"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace dqndock {

namespace {

/// The one enum<->name table, read by cpuTierName() and the
/// DQNDOCK_FORCE_KERNEL parser. A later tier is one row here plus its
/// case in cpuTierCompiled()/cpuTierSupported().
constexpr struct {
  CpuTier tier;
  const char* name;
} kTierNames[] = {
    {CpuTier::kGeneric, "generic"},
    {CpuTier::kAvx512, "avx512"},
};

bool cpuHasAvx512f() {
#if defined(__x86_64__) || defined(__i386__)
  // GCC/Clang builtin: CPUID-backed, independent of the build's -march.
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

/// A forced tier must never silently fall back: a benchmark reporting
/// generic numbers as avx512 is worse than an error.
void requireSupported(CpuTier tier, const std::string& what) {
  if (cpuTierSupported(tier)) return;
  throw std::runtime_error(what + (cpuTierCompiled(tier) ? ": this CPU does not support the tier"
                                                         : ": tier not compiled into this binary"));
}

// Active tier, -1 until the first activeCpuTier() or setActiveCpuTier().
// A benign race on first use resolves to the same value on every thread
// (environment and CPUID are process-constant).
std::atomic<int> gActiveTier{-1};

}  // namespace

const char* cpuTierName(CpuTier tier) {
  for (const auto& row : kTierNames) {
    if (row.tier == tier) return row.name;
  }
  return "unknown";
}

bool cpuTierCompiled(CpuTier tier) {
#ifdef DQNDOCK_HAVE_AVX512
  if (tier == CpuTier::kAvx512) return true;
#endif
  return tier == CpuTier::kGeneric;
}

bool cpuTierSupported(CpuTier tier) {
  return cpuTierCompiled(tier) && (tier != CpuTier::kAvx512 || cpuHasAvx512f());
}

CpuTier probeCpuTier() {
  static const CpuTier best =
      cpuTierSupported(CpuTier::kAvx512) ? CpuTier::kAvx512 : CpuTier::kGeneric;
  return best;
}

CpuTier resolveCpuTier() {
  const char* env = std::getenv("DQNDOCK_FORCE_KERNEL");
  if (env == nullptr || *env == '\0') return probeCpuTier();
  const std::string name(env);
  std::string known;
  for (const auto& row : kTierNames) {
    known += std::string(known.empty() ? "" : "|") + row.name;
    if (name != row.name) continue;
    requireSupported(row.tier, "DQNDOCK_FORCE_KERNEL=" + name);
    return row.tier;
  }
  throw std::runtime_error("DQNDOCK_FORCE_KERNEL: unknown kernel tier '" + name + "' (expected " +
                           known + ")");
}

CpuTier activeCpuTier() {
  const int cur = gActiveTier.load(std::memory_order_acquire);
  if (cur >= 0) return static_cast<CpuTier>(cur);
  const CpuTier resolved = resolveCpuTier();  // a bad override throws on every call
  gActiveTier.store(static_cast<int>(resolved), std::memory_order_release);
  return resolved;
}

void setActiveCpuTier(CpuTier tier) {
  requireSupported(tier, std::string("setActiveCpuTier(") + cpuTierName(tier) + ")");
  gActiveTier.store(static_cast<int>(tier), std::memory_order_release);
}

}  // namespace dqndock
