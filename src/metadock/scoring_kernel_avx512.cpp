/// \file scoring_kernel_avx512.cpp
/// AVX-512F tier of the Eq. 1 sweep kernels. This translation unit is
/// compiled with an explicit `-mavx512f` (plus the shared kernel flags) —
/// NOT gated on `-march=native` — so every build of the library carries
/// it; the dispatch table only routes here after src/common/cpu_tier
/// (CPUID probe, or a checked avx512 pin) says the host can execute it.
/// Nothing in this TU runs at static-initialisation time except storing
/// plain function pointers.
///
/// The batched sweep is hand-written intrinsics (vrsqrt14pd + 2
/// Newton-Raphson steps, ~1e-9 relative from the generic divide+sqrt
/// path); the per-pose sweep reuses the shared IEEE body, which zmm
/// auto-vectorisation cannot change bit-wise — per-pose results are
/// bit-identical across tiers.

#include "src/metadock/scoring_kernels.hpp"

#ifdef DQNDOCK_HAVE_AVX512

#include <immintrin.h>

#include "src/metadock/scoring_kernel_impl.hpp"

#if defined(__GNUC__) && !defined(__clang__)
// GCC 12's _mm512_rsqrt14_pd / _mm512_max_pd headers pass
// _mm512_undefined_pd() placeholders into the mask builtins, which trips
// -Wmaybe-uninitialized through the always_inline chain at every call
// site. Header false positive; nothing in this file reads uninitialized
// data (the masked tail lanes are explicitly zeroed).
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace dqndock::metadock::detail {

namespace {

/// zmm chunks (8 double lanes each) processed per pass of the batched
/// sweep's main loop. Overridable at compile time for the tiling
/// experiment; see the comment at the loop.
#ifndef DQNDOCK_AVX512_CHUNKS
#define DQNDOCK_AVX512_CHUNKS 2
#endif
constexpr int kSweepChunks = DQNDOCK_AVX512_CHUNKS;
static_assert(kSweepChunks >= 1 && kSweepChunks <= 4,
              "1..4 chunks (8..32 lanes) fit the 32 zmm registers");
constexpr std::size_t kSweepLanesPerPass = 8 * static_cast<std::size_t>(kSweepChunks);

/// AVX-512 range sweep: 8 pose lanes per zmm register, processed two
/// chunks (16 lanes) at a time with a masked single-chunk tail, so one
/// kernel serves every lane count (a lane's result is elementwise, so it
/// cannot depend on its chunk neighbours or alignment — the property the
/// bisection/tiling determinism argument needs). Lane positions and
/// accumulators load once per chunk pass and stay in registers across
/// the whole range list; per-receptor-atom broadcasts are shared by both
/// chunks of a pair and the two independent rsqrt/Newton chains overlap
/// in the pipeline. 1/sqrt runs as vrsqrt14pd + two Newton-Raphson
/// steps (~1 ulp) instead of vdivpd+vsqrtpd, which roughly halves the
/// per-pair cost; products fuse through explicit FMA intrinsics. Every
/// batched sweep on this tier goes through this one function, so batched
/// results stay bit-deterministic within the tier; they differ from the
/// generic tier (and from the per-pose kernel) within the documented
/// ~1e-9 relative envelope.
void sweepRangesAvx512(const double* X, const double* Y, const double* Z, const double* Q,
                       const double* EPS, const double* SG2, const std::uint32_t* ranges,
                       std::size_t numRanges, const double* lx, const double* ly,
                       const double* lz, std::size_t lanes, double cut2, double* elecAcc,
                       double* vdwAcc) {
  constexpr double kMinDist2 = kMinPairDistance * kMinPairDistance;
  const __m512d vcut2 = _mm512_set1_pd(cut2);
  const __m512d vmind2 = _mm512_set1_pd(kMinDist2);
  const __m512d vhalf = _mm512_set1_pd(0.5);
  const __m512d v1p5 = _mm512_set1_pd(1.5);
  std::size_t c = 0;
  // Multi-chunk passes: kSweepChunks zmm chunks (8 lanes each) per
  // receptor atom, so every per-atom broadcast (position, charge, pair
  // row) is shared by all chunks of a pass and the independent
  // rsqrt/Newton chains overlap in the pipeline. The width was measured,
  // not guessed: 2/3/4 chunks (16/24/32 lanes) were benchmarked on
  // BM_ScorePoseBatched/32 via -DDQNDOCK_AVX512_CHUNKS (EXPERIMENTS.md)
  // and the winner hardcoded below. Each lane's arithmetic is identical
  // to the single-chunk tail, so results do not depend on which variant
  // a lane lands in (the bisection/tiling determinism argument).
  for (; c + kSweepLanesPerPass <= lanes; c += kSweepLanesPerPass) {
    __m512d vlx[kSweepChunks], vly[kSweepChunks], vlz[kSweepChunks];
    __m512d ve[kSweepChunks], vv[kSweepChunks];
    for (int u = 0; u < kSweepChunks; ++u) {
      vlx[u] = _mm512_loadu_pd(lx + c + 8 * u);
      vly[u] = _mm512_loadu_pd(ly + c + 8 * u);
      vlz[u] = _mm512_loadu_pd(lz + c + 8 * u);
      ve[u] = _mm512_loadu_pd(elecAcc + c + 8 * u);
      vv[u] = _mm512_loadu_pd(vdwAcc + c + 8 * u);
    }
    for (std::size_t k = 0; k < numRanges; ++k) {
      const std::size_t first = ranges[2 * k];
      const std::size_t end = ranges[2 * k + 1];
      for (std::size_t j = first; j < end; ++j) {
        const __m512d xj = _mm512_set1_pd(X[j]);
        const __m512d yj = _mm512_set1_pd(Y[j]);
        const __m512d zj = _mm512_set1_pd(Z[j]);
        // Stage the chains as per-step loops over the chunks (not one
        // loop with everything inside) so after unrolling the u-th and
        // (u+1)-th chunk of each step interleave — the same pipeline
        // overlap the hand-paired 2-chunk version had.
        __m512d r2[kSweepChunks];
        for (int u = 0; u < kSweepChunks; ++u) {
          const __m512d dx = _mm512_sub_pd(xj, vlx[u]);
          const __m512d dy = _mm512_sub_pd(yj, vly[u]);
          const __m512d dz = _mm512_sub_pd(zj, vlz[u]);
          r2[u] = _mm512_mul_pd(dz, dz);
          r2[u] = _mm512_fmadd_pd(dy, dy, r2[u]);
          r2[u] = _mm512_fmadd_pd(dx, dx, r2[u]);
        }
        __mmask8 kin[kSweepChunks];
        __m512d r2c[kSweepChunks], y[kSweepChunks], h[kSweepChunks];
        for (int u = 0; u < kSweepChunks; ++u) {
          kin[u] = _mm512_cmp_pd_mask(r2[u], vcut2, _CMP_LE_OQ);
          r2c[u] = _mm512_max_pd(r2[u], vmind2);
          y[u] = _mm512_rsqrt14_pd(r2c[u]);
          h[u] = _mm512_mul_pd(r2c[u], vhalf);
        }
        for (int step = 0; step < 2; ++step) {
          for (int u = 0; u < kSweepChunks; ++u) {
            const __m512d t = _mm512_mul_pd(y[u], y[u]);
            y[u] = _mm512_mul_pd(y[u], _mm512_fnmadd_pd(h[u], t, v1p5));
          }
        }
        const __m512d gj = _mm512_set1_pd(SG2[j]);
        const __m512d qj = _mm512_set1_pd(Q[j]);
        const __m512d ej = _mm512_set1_pd(EPS[j]);
        for (int u = 0; u < kSweepChunks; ++u) {
          const __m512d s2 = _mm512_mul_pd(gj, _mm512_mul_pd(y[u], y[u]));
          const __m512d s6 = _mm512_mul_pd(s2, _mm512_mul_pd(s2, s2));
          const __m512d poly = _mm512_fmsub_pd(s6, s6, s6);
          ve[u] = _mm512_mask3_fmadd_pd(qj, y[u], ve[u], kin[u]);
          vv[u] = _mm512_mask3_fmadd_pd(ej, poly, vv[u], kin[u]);
        }
      }
    }
    for (int u = 0; u < kSweepChunks; ++u) {
      _mm512_storeu_pd(elecAcc + c + 8 * u, ve[u]);
      _mm512_storeu_pd(vdwAcc + c + 8 * u, vv[u]);
    }
  }
  for (; c < lanes; c += 8) {
    const std::size_t left = lanes - c;
    const __mmask8 m = left >= 8 ? static_cast<__mmask8>(0xFF)
                                 : static_cast<__mmask8>((1u << left) - 1u);
    // mask_loadu with an explicit zero source (not maskz_loadu): same
    // semantics, but GCC 12's maskz builtin trips -Wmaybe-uninitialized.
    const __m512d vzero = _mm512_setzero_pd();
    const __m512d vlx = _mm512_mask_loadu_pd(vzero, m, lx + c);
    const __m512d vly = _mm512_mask_loadu_pd(vzero, m, ly + c);
    const __m512d vlz = _mm512_mask_loadu_pd(vzero, m, lz + c);
    __m512d ve = _mm512_mask_loadu_pd(vzero, m, elecAcc + c);
    __m512d vv = _mm512_mask_loadu_pd(vzero, m, vdwAcc + c);
    for (std::size_t k = 0; k < numRanges; ++k) {
      const std::size_t first = ranges[2 * k];
      const std::size_t end = ranges[2 * k + 1];
      for (std::size_t j = first; j < end; ++j) {
        const __m512d xj = _mm512_set1_pd(X[j]);
        const __m512d yj = _mm512_set1_pd(Y[j]);
        const __m512d zj = _mm512_set1_pd(Z[j]);
        const __m512d dx = _mm512_sub_pd(xj, vlx);
        const __m512d dy = _mm512_sub_pd(yj, vly);
        const __m512d dz = _mm512_sub_pd(zj, vlz);
        __m512d r2 = _mm512_mul_pd(dz, dz);
        r2 = _mm512_fmadd_pd(dy, dy, r2);
        r2 = _mm512_fmadd_pd(dx, dx, r2);
        // Inactive tail lanes may pass the cutoff test on their zeroed
        // positions; they are never stored, so only `kin` gating of the
        // accumulators matters for the live lanes.
        const __mmask8 kin = _mm512_cmp_pd_mask(r2, vcut2, _CMP_LE_OQ);
        const __m512d r2c = _mm512_max_pd(r2, vmind2);
        __m512d y = _mm512_rsqrt14_pd(r2c);
        const __m512d h = _mm512_mul_pd(r2c, vhalf);
        __m512d t = _mm512_mul_pd(y, y);
        y = _mm512_mul_pd(y, _mm512_fnmadd_pd(h, t, v1p5));
        t = _mm512_mul_pd(y, y);
        y = _mm512_mul_pd(y, _mm512_fnmadd_pd(h, t, v1p5));
        const __m512d gj = _mm512_set1_pd(SG2[j]);
        const __m512d s2 = _mm512_mul_pd(gj, _mm512_mul_pd(y, y));
        const __m512d s6 = _mm512_mul_pd(s2, _mm512_mul_pd(s2, s2));
        const __m512d poly = _mm512_fmsub_pd(s6, s6, s6);
        const __m512d qj = _mm512_set1_pd(Q[j]);
        const __m512d ej = _mm512_set1_pd(EPS[j]);
        ve = _mm512_mask3_fmadd_pd(qj, y, ve, kin);
        vv = _mm512_mask3_fmadd_pd(ej, poly, vv, kin);
      }
    }
    _mm512_mask_storeu_pd(elecAcc + c, m, ve);
    _mm512_mask_storeu_pd(vdwAcc + c, m, vv);
  }
}

void sweepAtomAvx512(const double* X, const double* Y, const double* Z, const double* Q,
                     const double* EPS, const double* SG2, const std::uint32_t* ranges,
                     std::size_t numRanges, double lx, double ly, double lz, double cut2,
                     double* elecOut, double* vdwOut) {
  // Shared IEEE body auto-vectorised with zmm registers: wider
  // instruction selection only, bit-identical to the generic tier.
  sweepAtomImpl(X, Y, Z, Q, EPS, SG2, ranges, numRanges, lx, ly, lz, cut2, elecOut, vdwOut);
}

}  // namespace

const ScoringKernelOps kAvx512KernelOps = {CpuTier::kAvx512, &sweepRangesAvx512,
                                           &sweepAtomAvx512};

}  // namespace dqndock::metadock::detail

#endif  // DQNDOCK_HAVE_AVX512
