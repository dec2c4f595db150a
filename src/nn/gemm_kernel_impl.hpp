#pragma once

/// \file gemm_kernel_impl.hpp
/// Shared helpers for the per-ISA GEMM translation units. Everything
/// here is plain scalar IEEE arithmetic (adds/compares, no dot-product
/// reductions), so including it from differently-flagged TUs cannot
/// introduce cross-tier drift: the epilogue applied after an avx512
/// accumulation is bit-identical to the one applied after a generic
/// accumulation.

#include <cstddef>

namespace dqndock::nn::detail {

/// Fused gemmABt epilogue for one output element: bias add, then the
/// ReLU clamp with optional mask capture. The `v > 0` form keeps a ReLU
/// output from ever being -0.0, and every tier applies exactly this
/// sequence, so fusing is bit-identical to separate bias/ReLU passes.
inline void storeWithEpilogue(double* cPtr, double v, const double* bias, std::size_t j, bool relu,
                              double* maskPtr) {
  if (bias != nullptr) v += bias[j];
  if (relu) {
    if (v > 0.0) {
      if (maskPtr != nullptr) *maskPtr = 1.0;
    } else {
      v = 0.0;
      if (maskPtr != nullptr) *maskPtr = 0.0;
    }
  }
  *cPtr = v;
}

}  // namespace dqndock::nn::detail
