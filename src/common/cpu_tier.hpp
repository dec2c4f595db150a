#pragma once

/// \file cpu_tier.hpp
/// The one run-time ISA-tier decision for every kernel family: the Eq. 1
/// sweeps (src/metadock/scoring_kernels.hpp) and the training GEMMs
/// (src/nn/gemm_kernels.hpp). Their per-ISA translation units are built
/// by `dqndock_kernel_sources` (src/CMakeLists.txt); this module picks
/// the one that runs, so a portable binary runs AVX-512 wherever the CPU
/// has it. `DQNDOCK_FORCE_KERNEL=generic|avx512` overrides the CPUID
/// probe; an unknown name or a tier the binary or CPU cannot run throws,
/// so a pinned run never silently falls back.

namespace dqndock {

/// ISA tier of the kernel translation units, ordered worst to best.
enum class CpuTier : unsigned char {
  kGeneric = 0,  ///< portable C++, compiler-auto-vectorised
  kAvx512 = 1,   ///< AVX-512F (+ FMA) intrinsics and zmm auto-vectorisation
};

/// Stable lowercase name ("generic", "avx512"): the value
/// DQNDOCK_FORCE_KERNEL accepts and bench JSON records.
const char* cpuTierName(CpuTier tier);

/// True when this binary contains the tier's translation units.
bool cpuTierCompiled(CpuTier tier);

/// True when the tier is compiled in AND the running CPU can execute it.
bool cpuTierSupported(CpuTier tier);

/// Best CPU-supported tier (CPUID probe, cached for the process).
CpuTier probeCpuTier();

/// probeCpuTier() unless DQNDOCK_FORCE_KERNEL names a tier; reads the
/// environment on every call and throws std::runtime_error for an
/// unknown name or an unsupported forced tier.
CpuTier resolveCpuTier();

/// The tier every kernel family dispatches to: resolveCpuTier() on first
/// use, then cached, so the environment is read once per process.
CpuTier activeCpuTier();

/// Re-pin the active tier (tests); throws std::runtime_error when `tier`
/// is not supported. GEMMs follow it on their next call; a
/// ScoringFunction keeps the tier it was constructed with.
void setActiveCpuTier(CpuTier tier);

}  // namespace dqndock
