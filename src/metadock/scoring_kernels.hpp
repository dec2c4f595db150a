#pragma once

/// \file scoring_kernels.hpp
/// Runtime-dispatched Eq. 1 sweep kernels.
///
/// The batched (and per-pose packed) electrostatics+Lennard-Jones sweeps
/// live in per-ISA translation units compiled with explicit per-file
/// flags (`scoring_kernel_generic.cpp` portable, `scoring_kernel_avx512.cpp`
/// with `-mavx512f`), instead of relying on `__AVX512F__` leaking in from
/// `-march=native`. `ScoringFunction` takes the function-pointer table of
/// the active tier (src/common/cpu_tier.hpp: CPUID probe, cached) at
/// construction, so one portable Release binary picks up the AVX-512
/// sweep on capable hosts — the one-binary-many-ISAs pattern of
/// METADOCK's multi-backend scoring engine.
///
/// Tier contract:
///  * Each tier is bit-deterministic: for a fixed tier, batched scores
///    are bit-identical across batch splits, tile sizes, and thread
///    counts, and the per-pose packed sweep is bit-identical across
///    tiers and builds (IEEE div/sqrt only — ISA changes instruction
///    selection, not results).
///  * The AVX-512 batched sweep (vrsqrt14pd + 2 Newton-Raphson steps)
///    agrees with the generic batched sweep to ~1e-9 relative.
///  * Because both tiers are compiled from fixed per-file flags, a
///    portable build and a `-march=native` build that select the same
///    tier produce bit-identical scores.
///
/// cpu_tier.hpp owns the override that pins one tier for every kernel
/// family, and the errors for a tier this binary or host cannot run.

#include <cstddef>
#include <cstdint>

#include "src/common/cpu_tier.hpp"

namespace dqndock::metadock {

// bench/e2e's host stamp (`scoring_kernel_tier`) calls these two names; they
// forward to the one tier decision. New code calls activeCpuTier() and
// cpuTierName() directly.
inline CpuTier resolveKernelTier() { return activeCpuTier(); }
inline const char* kernelTierName(CpuTier tier) { return cpuTierName(tier); }

namespace detail {

/// Batched range sweep: fused elec+LJ over packed receptor ranges for
/// `lanes` pose-position lanes (see ScoringFunction docs). `ranges` holds
/// numRanges packed [first, end) index pairs, swept in order.
using SweepRangesFn = void (*)(const double* X, const double* Y, const double* Z,
                               const double* Q, const double* EPS, const double* SG2,
                               const std::uint32_t* ranges, std::size_t numRanges,
                               const double* lx, const double* ly, const double* lz,
                               std::size_t lanes, double cut2, double* elecAcc, double* vdwAcc);

/// Per-pose packed sweep: same pair arithmetic for one position, 8
/// fixed-order accumulator lanes; returns the elec (sum q_j/r) and vdw
/// (sum eps*(s12-s6)) partial sums via out params.
using SweepAtomFn = void (*)(const double* X, const double* Y, const double* Z,
                             const double* Q, const double* EPS, const double* SG2,
                             const std::uint32_t* ranges, std::size_t numRanges, double lx,
                             double ly, double lz, double cut2, double* elecOut, double* vdwOut);

/// One tier's dispatch table. Instances live in the per-ISA TUs; the
/// AVX-512 table must only be invoked after cpuTierSupported() says the
/// host can run it.
struct ScoringKernelOps {
  CpuTier tier;
  SweepRangesFn sweepRanges;
  SweepAtomFn sweepAtom;
};

extern const ScoringKernelOps kGenericKernelOps;
#ifdef DQNDOCK_HAVE_AVX512
extern const ScoringKernelOps kAvx512KernelOps;
#endif

/// Table for `tier`, a tier activeCpuTier() returned (so compiled in).
inline const ScoringKernelOps& scoringKernelOps(CpuTier tier) {
#ifdef DQNDOCK_HAVE_AVX512
  if (tier == CpuTier::kAvx512) return kAvx512KernelOps;
#endif
  return kGenericKernelOps;
}

}  // namespace detail

}  // namespace dqndock::metadock
