#pragma once

/// \file gemm_kernels.hpp
/// Runtime-dispatched GEMM kernel tiers for the Q-network hot path.
///
/// The three training GEMM shapes (forward X*W^T, input gradient dY*W,
/// weight gradient dY^T*X) live in per-ISA translation units compiled
/// with explicit per-file flags (`gemm_kernel_generic.cpp` portable,
/// `gemm_kernel_avx512.cpp` with `-mavx512f`), as the Eq. 1 scoring
/// kernels do (src/metadock/scoring_kernels.hpp). Every GEMM call takes
/// the function-pointer table of the active tier (src/common/cpu_tier.hpp:
/// CPUID probe, cached), so one portable Release binary runs the
/// AVX-512/FMA microkernels on capable hosts.
///
/// Tier contract:
///  * Each tier is bit-deterministic: for a fixed tier, every output
///    element accumulates its products in the same order regardless of
///    thread count, row partition, or register-tile membership, so
///    repeated runs and 1/2/8-thread pools produce bit-identical
///    tensors (and bit-identical DqnAgent::learn weight trajectories).
///  * The generic tier is bit-identical to the pre-dispatch scalar
///    kernels: same loop order, same per-element mul/add sequence, and
///    the global `-ffp-contract=off` keeps the compiler from fusing.
///  * The AVX-512 tier uses FMA with a fixed 8-lane reduction order
///    (pairwise 512->256->128->scalar tree) and agrees with the generic
///    tier to ~1e-12 relative on paper Table 1 shapes.
///
/// cpu_tier.hpp owns the override that pins one tier for every kernel
/// family, and the errors for a tier this binary or host cannot run.

#include <cstddef>

#include "src/common/cpu_tier.hpp"

namespace dqndock::nn {

// bench/e2e's host stamp (`gemm_kernel_tier`) calls these two names; they
// forward to the one tier decision. New code calls activeCpuTier() and
// cpuTierName() directly.
inline CpuTier resolveGemmTier() { return activeCpuTier(); }
inline const char* gemmTierName(CpuTier tier) { return cpuTierName(tier); }

namespace detail {

/// Rows [lo, hi) of C = A * B^T with optional fused epilogue. A is
/// (m x k), B is (n x k), C is (m x n); pointers address full matrices
/// and the kernel offsets by absolute row index, so any row partition
/// computes identical per-element sequences. `bias` (length n) is added
/// to every row when non-null; when `relu`, C is clamped at zero after
/// the bias and `reluMask` (m x n, may be null) records 1.0/0.0 per kept
/// element.
using GemmABtRowsFn = void (*)(const double* a, const double* b, double* c, std::size_t lo,
                               std::size_t hi, std::size_t n, std::size_t k, const double* bias,
                               bool relu, double* reluMask);

/// Rows [lo, hi) of C += A * B. A is (m x k), B is (k x n), C is
/// (m x n) and must hold the accumulation base (zeros for a plain
/// product). `mask` (m x n, may be null) is multiplied elementwise into
/// the finished rows — the fused ReLU-backward gate.
using GemmABRowsFn = void (*)(const double* a, const double* b, double* c, std::size_t lo,
                              std::size_t hi, std::size_t n, std::size_t k, const double* mask);

/// Rows [lo, hi) of C += A^T * B. A is (k x m), B is (k x n), C is
/// (m x n); row i of C reads column i of A (stride m).
using GemmAtBRowsFn = void (*)(const double* a, const double* b, double* c, std::size_t lo,
                               std::size_t hi, std::size_t m, std::size_t n, std::size_t k);

/// One tier's dispatch table. Instances live in the per-ISA TUs; the
/// AVX-512 table must only be invoked after cpuTierSupported() agrees.
struct GemmKernelOps {
  CpuTier tier;
  GemmABtRowsFn abtRows;
  GemmABRowsFn abRows;
  GemmAtBRowsFn atbRows;
};

extern const GemmKernelOps kGenericGemmOps;
#ifdef DQNDOCK_HAVE_AVX512
extern const GemmKernelOps kAvx512GemmOps;
#endif

/// Table for `tier`, a tier activeCpuTier() returned (so compiled in).
inline const GemmKernelOps& gemmKernelOps(CpuTier tier) {
#ifdef DQNDOCK_HAVE_AVX512
  if (tier == CpuTier::kAvx512) return kAvx512GemmOps;
#endif
  return kGenericGemmOps;
}

}  // namespace detail

}  // namespace dqndock::nn
