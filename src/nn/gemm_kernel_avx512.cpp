/// \file gemm_kernel_avx512.cpp
/// AVX-512F/FMA tier of the training GEMM kernels. This translation
/// unit is compiled with an explicit `-mavx512f` (plus the shared kernel
/// flags) — NOT gated on `-march=native` — so every build of the library
/// carries it; the dispatch table only routes here after
/// src/common/cpu_tier (CPUID probe, or a checked avx512 pin) says the
/// host can execute it. Nothing in this TU runs at static-initialisation
/// time except storing plain function pointers.
///
/// Determinism layout (the "fixed lane-reduction order" contract):
///  * gemmABt: each output element is one dot product accumulated in
///    8-lane chunks over p ascending, reduced by the fixed pairwise hsum
///    tree below. The 4-row register tile gives each row its own
///    accumulator running the exact same per-element sequence as the
///    1-row remainder path, so tile membership, row partition (thread
///    count) and the outer j-block all leave every element's arithmetic
///    untouched.
///  * gemmAB / gemmAtBAccum: output columns are processed in 8-lane
///    strips at absolute column positions (j-blocks anchored at
///    multiples of 64 from column 0), each lane accumulating
///    C[i][j] += a*b over p ascending via lane-local FMA. No horizontal
///    reduction exists on this path, so strip membership cannot change a
///    value and row-partitioned threads are bit-identical to serial.
///
/// Cross-tier: FMA carries one rounding per multiply-add where the
/// generic tier carries two, so this tier agrees with generic to ~1e-12
/// relative on paper Table 1 shapes rather than bit-wise.

#include "src/nn/gemm_kernels.hpp"

#ifdef DQNDOCK_HAVE_AVX512

#include <immintrin.h>

#include "src/nn/gemm_kernel_impl.hpp"

#if defined(__GNUC__) && !defined(__clang__)
// GCC 12 trips -Wmaybe-uninitialized on the masked-load builtins through
// the always_inline chain (header placeholder arguments). False
// positive; every masked lane below is explicitly zero-sourced.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace dqndock::nn::detail {

namespace {

/// Fixed-order horizontal sum: 512 -> 256 -> 128 pairwise halves, then
/// one scalar add. Pinned (instead of _mm512_reduce_add_pd, whose
/// reduction order is the compiler's choice) so every dot product on
/// this tier sums its lanes identically on every call.
inline double hsum(__m512d v) {
  const __m256d lo = _mm512_castpd512_pd256(v);
  const __m256d hi = _mm512_extractf64x4_pd(v, 1);
  const __m256d s4 = _mm256_add_pd(lo, hi);  // {0+4, 1+5, 2+6, 3+7}
  const __m128d lo2 = _mm256_castpd256_pd128(s4);
  const __m128d hi2 = _mm256_extractf128_pd(s4, 1);
  const __m128d s2 = _mm_add_pd(lo2, hi2);   // {0+4+2+6, 1+5+3+7}
  return _mm_cvtsd_f64(_mm_add_sd(s2, _mm_unpackhi_pd(s2, s2)));
}

// ---------------------------------------------------------------------------
// C = A * B^T (+ fused bias/ReLU epilogue)
// ---------------------------------------------------------------------------

/// B rows (C columns) per cache block: the block stays cache-resident
/// while every A row tile streams past it, so B is read from DRAM once
/// per sweep instead of once per 4-row tile — and, symmetrically, A is
/// re-streamed only ceil(n / kAbtJBlock) times. At paper dims (A 32 x
/// 16,599 = 4.25 MB, B 135 x 16,599 = 18 MB) the sweep is bandwidth-
/// bound, so the block is sized to cut A passes (32 B rows = 4.2 MB,
/// comfortably L3-resident) rather than to fit L2. Block membership
/// never touches arithmetic: each element owns its accumulator and
/// reduction regardless of which block visits it.
constexpr std::size_t kAbtJBlock = 32;

void gemmABtRowsAvx512(const double* a, const double* b, double* c, std::size_t lo, std::size_t hi,
                       std::size_t n, std::size_t k, const double* bias, bool relu,
                       double* reluMask) {
  const __m512d vzero = _mm512_setzero_pd();
  const std::size_t kTail = k % 8;
  const __mmask8 tailMask = kTail != 0 ? static_cast<__mmask8>((1u << kTail) - 1u) : 0;
  const std::size_t kMain = k - kTail;
  for (std::size_t j0 = 0; j0 < n; j0 += kAbtJBlock) {
    const std::size_t j1 = j0 + kAbtJBlock < n ? j0 + kAbtJBlock : n;
    std::size_t i = lo;
    for (; i + 4 <= hi; i += 4) {
      const double* a0 = a + i * k;
      const double* a1 = a0 + k;
      const double* a2 = a1 + k;
      const double* a3 = a2 + k;
      double* ci = c + i * n;
      double* mi = reluMask != nullptr ? reluMask + i * n : nullptr;
      std::size_t j = j0;
      // 4-row x 2-column register tile: 8 independent FMA chains off 6
      // loads per k-vector (4 A rows shared across both columns) — the
      // single-column tile's 4 chains x 5 loads leave the FMA ports
      // half idle behind the load ports. Each element still owns one
      // accumulator summing p ascending through the same hsum tree, so
      // column pairing changes scheduling only, never arithmetic.
      for (; j + 2 <= j1; j += 2) {
        const double* bj = b + j * k;
        const double* bj2 = bj + k;
        __m512d acc0 = vzero, acc1 = vzero, acc2 = vzero, acc3 = vzero;
        __m512d acc4 = vzero, acc5 = vzero, acc6 = vzero, acc7 = vzero;
        std::size_t p = 0;
        for (; p < kMain; p += 8) {
          const __m512d bv = _mm512_loadu_pd(bj + p);
          const __m512d bw = _mm512_loadu_pd(bj2 + p);
          const __m512d av0 = _mm512_loadu_pd(a0 + p);
          const __m512d av1 = _mm512_loadu_pd(a1 + p);
          const __m512d av2 = _mm512_loadu_pd(a2 + p);
          const __m512d av3 = _mm512_loadu_pd(a3 + p);
          acc0 = _mm512_fmadd_pd(av0, bv, acc0);
          acc1 = _mm512_fmadd_pd(av1, bv, acc1);
          acc2 = _mm512_fmadd_pd(av2, bv, acc2);
          acc3 = _mm512_fmadd_pd(av3, bv, acc3);
          acc4 = _mm512_fmadd_pd(av0, bw, acc4);
          acc5 = _mm512_fmadd_pd(av1, bw, acc5);
          acc6 = _mm512_fmadd_pd(av2, bw, acc6);
          acc7 = _mm512_fmadd_pd(av3, bw, acc7);
        }
        if (kTail != 0) {
          // Zero-sourced masked loads: inactive lanes contribute 0*0.
          const __m512d bv = _mm512_mask_loadu_pd(vzero, tailMask, bj + p);
          const __m512d bw = _mm512_mask_loadu_pd(vzero, tailMask, bj2 + p);
          const __m512d av0 = _mm512_mask_loadu_pd(vzero, tailMask, a0 + p);
          const __m512d av1 = _mm512_mask_loadu_pd(vzero, tailMask, a1 + p);
          const __m512d av2 = _mm512_mask_loadu_pd(vzero, tailMask, a2 + p);
          const __m512d av3 = _mm512_mask_loadu_pd(vzero, tailMask, a3 + p);
          acc0 = _mm512_fmadd_pd(av0, bv, acc0);
          acc1 = _mm512_fmadd_pd(av1, bv, acc1);
          acc2 = _mm512_fmadd_pd(av2, bv, acc2);
          acc3 = _mm512_fmadd_pd(av3, bv, acc3);
          acc4 = _mm512_fmadd_pd(av0, bw, acc4);
          acc5 = _mm512_fmadd_pd(av1, bw, acc5);
          acc6 = _mm512_fmadd_pd(av2, bw, acc6);
          acc7 = _mm512_fmadd_pd(av3, bw, acc7);
        }
        storeWithEpilogue(ci + j, hsum(acc0), bias, j, relu, mi != nullptr ? mi + j : nullptr);
        storeWithEpilogue(ci + n + j, hsum(acc1), bias, j, relu,
                          mi != nullptr ? mi + n + j : nullptr);
        storeWithEpilogue(ci + 2 * n + j, hsum(acc2), bias, j, relu,
                          mi != nullptr ? mi + 2 * n + j : nullptr);
        storeWithEpilogue(ci + 3 * n + j, hsum(acc3), bias, j, relu,
                          mi != nullptr ? mi + 3 * n + j : nullptr);
        storeWithEpilogue(ci + j + 1, hsum(acc4), bias, j + 1, relu,
                          mi != nullptr ? mi + j + 1 : nullptr);
        storeWithEpilogue(ci + n + j + 1, hsum(acc5), bias, j + 1, relu,
                          mi != nullptr ? mi + n + j + 1 : nullptr);
        storeWithEpilogue(ci + 2 * n + j + 1, hsum(acc6), bias, j + 1, relu,
                          mi != nullptr ? mi + 2 * n + j + 1 : nullptr);
        storeWithEpilogue(ci + 3 * n + j + 1, hsum(acc7), bias, j + 1, relu,
                          mi != nullptr ? mi + 3 * n + j + 1 : nullptr);
      }
      for (; j < j1; ++j) {
        const double* bj = b + j * k;
        __m512d acc0 = vzero, acc1 = vzero, acc2 = vzero, acc3 = vzero;
        std::size_t p = 0;
        for (; p < kMain; p += 8) {
          const __m512d bv = _mm512_loadu_pd(bj + p);
          acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(a0 + p), bv, acc0);
          acc1 = _mm512_fmadd_pd(_mm512_loadu_pd(a1 + p), bv, acc1);
          acc2 = _mm512_fmadd_pd(_mm512_loadu_pd(a2 + p), bv, acc2);
          acc3 = _mm512_fmadd_pd(_mm512_loadu_pd(a3 + p), bv, acc3);
        }
        if (kTail != 0) {
          const __m512d bv = _mm512_mask_loadu_pd(vzero, tailMask, bj + p);
          acc0 = _mm512_fmadd_pd(_mm512_mask_loadu_pd(vzero, tailMask, a0 + p), bv, acc0);
          acc1 = _mm512_fmadd_pd(_mm512_mask_loadu_pd(vzero, tailMask, a1 + p), bv, acc1);
          acc2 = _mm512_fmadd_pd(_mm512_mask_loadu_pd(vzero, tailMask, a2 + p), bv, acc2);
          acc3 = _mm512_fmadd_pd(_mm512_mask_loadu_pd(vzero, tailMask, a3 + p), bv, acc3);
        }
        storeWithEpilogue(ci + j, hsum(acc0), bias, j, relu, mi != nullptr ? mi + j : nullptr);
        storeWithEpilogue(ci + n + j, hsum(acc1), bias, j, relu,
                          mi != nullptr ? mi + n + j : nullptr);
        storeWithEpilogue(ci + 2 * n + j, hsum(acc2), bias, j, relu,
                          mi != nullptr ? mi + 2 * n + j : nullptr);
        storeWithEpilogue(ci + 3 * n + j, hsum(acc3), bias, j, relu,
                          mi != nullptr ? mi + 3 * n + j : nullptr);
      }
    }
    for (; i < hi; ++i) {
      const double* ai = a + i * k;
      double* ci = c + i * n;
      double* mi = reluMask != nullptr ? reluMask + i * n : nullptr;
      for (std::size_t j = j0; j < j1; ++j) {
        const double* bj = b + j * k;
        __m512d acc = vzero;
        std::size_t p = 0;
        for (; p < kMain; p += 8) {
          acc = _mm512_fmadd_pd(_mm512_loadu_pd(ai + p), _mm512_loadu_pd(bj + p), acc);
        }
        if (kTail != 0) {
          acc = _mm512_fmadd_pd(_mm512_mask_loadu_pd(vzero, tailMask, ai + p),
                                _mm512_mask_loadu_pd(vzero, tailMask, bj + p), acc);
        }
        storeWithEpilogue(ci + j, hsum(acc), bias, j, relu, mi != nullptr ? mi + j : nullptr);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// C += A * B  and  C += A^T * B (row-local column strips)
// ---------------------------------------------------------------------------

/// One 64-column strip of one C row: 8 zmm accumulators seeded from C,
/// FMA over p ascending with the ReLU-sparsity zero skip, optional
/// elementwise mask multiply, store back. `av(p)` abstracts the A
/// element so the dense (gemmAB) and strided (gemmAtBAccum) walks share
/// the body. B is read in 64-column slices that stay cache-resident
/// across every C row of the sweep — the whole point of this ordering:
/// the scalar ikj kernels re-stream all of B once per C row.
template <typename AvFn>
inline void accumRowStrip64(AvFn av, const double* b, double* ci, std::size_t n, std::size_t k,
                            std::size_t j0, const double* mi) {
  const double* bBase = b + j0;
  double* cp = ci + j0;
  __m512d acc0 = _mm512_loadu_pd(cp);
  __m512d acc1 = _mm512_loadu_pd(cp + 8);
  __m512d acc2 = _mm512_loadu_pd(cp + 16);
  __m512d acc3 = _mm512_loadu_pd(cp + 24);
  __m512d acc4 = _mm512_loadu_pd(cp + 32);
  __m512d acc5 = _mm512_loadu_pd(cp + 40);
  __m512d acc6 = _mm512_loadu_pd(cp + 48);
  __m512d acc7 = _mm512_loadu_pd(cp + 56);
  for (std::size_t p = 0; p < k; ++p) {
    const double a = av(p);
    if (a == 0.0) continue;  // ReLU-sparsity skip — semantics pinned in gemm.hpp
    const __m512d va = _mm512_set1_pd(a);
    const double* bp = bBase + p * n;
    acc0 = _mm512_fmadd_pd(va, _mm512_loadu_pd(bp), acc0);
    acc1 = _mm512_fmadd_pd(va, _mm512_loadu_pd(bp + 8), acc1);
    acc2 = _mm512_fmadd_pd(va, _mm512_loadu_pd(bp + 16), acc2);
    acc3 = _mm512_fmadd_pd(va, _mm512_loadu_pd(bp + 24), acc3);
    acc4 = _mm512_fmadd_pd(va, _mm512_loadu_pd(bp + 32), acc4);
    acc5 = _mm512_fmadd_pd(va, _mm512_loadu_pd(bp + 40), acc5);
    acc6 = _mm512_fmadd_pd(va, _mm512_loadu_pd(bp + 48), acc6);
    acc7 = _mm512_fmadd_pd(va, _mm512_loadu_pd(bp + 56), acc7);
  }
  if (mi != nullptr) {
    const double* mp = mi + j0;
    acc0 = _mm512_mul_pd(acc0, _mm512_loadu_pd(mp));
    acc1 = _mm512_mul_pd(acc1, _mm512_loadu_pd(mp + 8));
    acc2 = _mm512_mul_pd(acc2, _mm512_loadu_pd(mp + 16));
    acc3 = _mm512_mul_pd(acc3, _mm512_loadu_pd(mp + 24));
    acc4 = _mm512_mul_pd(acc4, _mm512_loadu_pd(mp + 32));
    acc5 = _mm512_mul_pd(acc5, _mm512_loadu_pd(mp + 40));
    acc6 = _mm512_mul_pd(acc6, _mm512_loadu_pd(mp + 48));
    acc7 = _mm512_mul_pd(acc7, _mm512_loadu_pd(mp + 56));
  }
  _mm512_storeu_pd(cp, acc0);
  _mm512_storeu_pd(cp + 8, acc1);
  _mm512_storeu_pd(cp + 16, acc2);
  _mm512_storeu_pd(cp + 24, acc3);
  _mm512_storeu_pd(cp + 32, acc4);
  _mm512_storeu_pd(cp + 40, acc5);
  _mm512_storeu_pd(cp + 48, acc6);
  _mm512_storeu_pd(cp + 56, acc7);
}

/// Partial strip of up to 8 columns (masked). Lane arithmetic is
/// positional, so splitting a narrow block into 8-column groups computes
/// the same per-element sequences as the wide strip.
template <typename AvFn>
inline void accumRowStripTail(AvFn av, const double* b, double* ci, std::size_t n, std::size_t k,
                              std::size_t j0, std::size_t width, const double* mi) {
  const __m512d vzero = _mm512_setzero_pd();
  const __mmask8 m = static_cast<__mmask8>((1u << width) - 1u);
  double* cp = ci + j0;
  __m512d acc = _mm512_mask_loadu_pd(vzero, m, cp);
  for (std::size_t p = 0; p < k; ++p) {
    const double a = av(p);
    if (a == 0.0) continue;  // ReLU-sparsity skip — semantics pinned in gemm.hpp
    const __m512d va = _mm512_set1_pd(a);
    acc = _mm512_fmadd_pd(va, _mm512_mask_loadu_pd(vzero, m, b + p * n + j0), acc);
  }
  if (mi != nullptr) acc = _mm512_mul_pd(acc, _mm512_mask_loadu_pd(vzero, m, mi + j0));
  _mm512_mask_storeu_pd(cp, m, acc);
}

/// Column-strip driver: j-blocks OUTER (at absolute multiples of 64
/// from column 0), C rows inner, so the k x 64 slice of B a strip reads
/// stays cache-resident across every C row of the sweep instead of B
/// being re-streamed once per row. Block anchoring at absolute columns
/// plus lane-positional arithmetic keeps every element's op sequence
/// independent of the row partition. `rowAv(i)` yields the per-row A
/// accessor (dense for gemmAB, column-strided for gemmAtBAccum).
template <typename RowAvFn>
inline void accumRowsByStrips(RowAvFn rowAv, const double* b, double* c, std::size_t lo,
                              std::size_t hi, std::size_t n, std::size_t k, const double* mask) {
  std::size_t j0 = 0;
  for (; j0 + 64 <= n; j0 += 64) {
    for (std::size_t i = lo; i < hi; ++i) {
      accumRowStrip64(rowAv(i), b, c + i * n, n, k, j0,
                      mask != nullptr ? mask + i * n : nullptr);
    }
  }
  for (; j0 < n; j0 += 8) {
    const std::size_t width = n - j0 < 8 ? n - j0 : 8;
    for (std::size_t i = lo; i < hi; ++i) {
      accumRowStripTail(rowAv(i), b, c + i * n, n, k, j0, width,
                        mask != nullptr ? mask + i * n : nullptr);
    }
  }
}

void gemmABRowsAvx512(const double* a, const double* b, double* c, std::size_t lo, std::size_t hi,
                      std::size_t n, std::size_t k, const double* mask) {
  accumRowsByStrips(
      [a, k](std::size_t i) {
        const double* ai = a + i * k;
        return [ai](std::size_t p) { return ai[p]; };
      },
      b, c, lo, hi, n, k, mask);
}

void gemmAtBRowsAvx512(const double* a, const double* b, double* c, std::size_t lo, std::size_t hi,
                       std::size_t m, std::size_t n, std::size_t k) {
  accumRowsByStrips(
      [a, m](std::size_t i) {
        return [a, m, i](std::size_t p) { return a[p * m + i]; };
      },
      b, c, lo, hi, n, k, nullptr);
}

}  // namespace

const GemmKernelOps kAvx512GemmOps = {CpuTier::kAvx512, &gemmABtRowsAvx512, &gemmABRowsAvx512,
                                      &gemmAtBRowsAvx512};

}  // namespace dqndock::nn::detail

#endif  // DQNDOCK_HAVE_AVX512
