/// \file gemm_kernel_generic.cpp
/// Portable GEMM kernel tier — the pre-dispatch scalar kernels moved
/// verbatim behind the ops table, plus the fused epilogues. Loop order
/// and per-element accumulation sequences are unchanged (and the global
/// `-ffp-contract=off` forbids compiler FMA fusion), so this tier is
/// bit-identical to the kernels it replaced: the epilogue ops are
/// element-local, so applying them at store time instead of in separate
/// full-tensor passes cannot change any value.

#include <cstddef>

#include "src/nn/gemm_kernel_impl.hpp"
#include "src/nn/gemm_kernels.hpp"

namespace dqndock::nn::detail {

namespace {

void gemmABtRowsGeneric(const double* a, const double* b, double* c, std::size_t lo, std::size_t hi,
                        std::size_t n, std::size_t k, const double* bias, bool relu,
                        double* reluMask) {
  // 4-row register tile: four independent accumulator chains hide the
  // FP-add latency a single serial dot is bound by, and each B row is
  // streamed once per 4 output rows instead of once per row. Every
  // c[i][j] still accumulates over p in ascending order, so results are
  // bit-identical to the plain loop at any batch height or row split.
  std::size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    const double* a0 = a + i * k;
    const double* a1 = a0 + k;
    const double* a2 = a1 + k;
    const double* a3 = a2 + k;
    double* ci = c + i * n;
    double* mi = reluMask != nullptr ? reluMask + i * n : nullptr;
    for (std::size_t j = 0; j < n; ++j) {
      const double* bj = b + j * k;
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const double bv = bj[p];
        s0 += a0[p] * bv;
        s1 += a1[p] * bv;
        s2 += a2[p] * bv;
        s3 += a3[p] * bv;
      }
      storeWithEpilogue(ci + j, s0, bias, j, relu, mi != nullptr ? mi + j : nullptr);
      storeWithEpilogue(ci + n + j, s1, bias, j, relu, mi != nullptr ? mi + n + j : nullptr);
      storeWithEpilogue(ci + 2 * n + j, s2, bias, j, relu,
                        mi != nullptr ? mi + 2 * n + j : nullptr);
      storeWithEpilogue(ci + 3 * n + j, s3, bias, j, relu,
                        mi != nullptr ? mi + 3 * n + j : nullptr);
    }
  }
  for (; i < hi; ++i) {
    const double* ai = a + i * k;
    double* ci = c + i * n;
    double* mi = reluMask != nullptr ? reluMask + i * n : nullptr;
    for (std::size_t j = 0; j < n; ++j) {
      const double* bj = b + j * k;
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) acc += ai[p] * bj[p];
      storeWithEpilogue(ci + j, acc, bias, j, relu, mi != nullptr ? mi + j : nullptr);
    }
  }
}

void gemmABRowsGeneric(const double* a, const double* b, double* c, std::size_t lo, std::size_t hi,
                       std::size_t n, std::size_t k, const double* mask) {
  for (std::size_t i = lo; i < hi; ++i) {
    const double* ai = a + i * k;
    double* ci = c + i * n;
    // ikj loop order: streams B row-wise, accumulates into C row.
    for (std::size_t p = 0; p < k; ++p) {
      const double av = ai[p];
      if (av == 0.0) continue;
      const double* bp = b + p * n;
      for (std::size_t j = 0; j < n; ++j) ci[j] += av * bp[j];
    }
    if (mask != nullptr) {
      const double* mi = mask + i * n;
      for (std::size_t j = 0; j < n; ++j) ci[j] *= mi[j];
    }
  }
}

void gemmAtBRowsGeneric(const double* a, const double* b, double* c, std::size_t lo, std::size_t hi,
                        std::size_t m, std::size_t n, std::size_t k) {
  for (std::size_t i = lo; i < hi; ++i) {
    double* ci = c + i * n;
    for (std::size_t p = 0; p < k; ++p) {
      const double av = a[p * m + i];
      if (av == 0.0) continue;
      const double* bp = b + p * n;
      for (std::size_t j = 0; j < n; ++j) ci[j] += av * bp[j];
    }
  }
}

}  // namespace

const GemmKernelOps kGenericGemmOps = {CpuTier::kGeneric, &gemmABtRowsGeneric, &gemmABRowsGeneric,
                                       &gemmAtBRowsGeneric};

}  // namespace dqndock::nn::detail
