#pragma once

/// \file gemm.hpp
/// Runtime-dispatched, optionally thread-parallel matrix multiply
/// kernels — the entire FLOP budget of DQN training flows through these
/// three shapes: forward (X*W^T), input gradient (dY*W) and weight
/// gradient (dY^T*X). Per-ISA kernel tiers live behind the dispatch
/// table in gemm_kernels.hpp; each call runs the active tier of
/// src/common/cpu_tier.hpp (an environment override pins it). Every
/// tier is bit-deterministic across thread counts and runs.
///
/// Zero-skip semantics (gemmAB / gemmAtBAccum): rows of B whose matching
/// A element is exactly 0.0 are skipped entirely. In backprop A is a
/// ReLU-gated gradient, typically 50%+ exact zeros, so the skip removes
/// half the memory traffic of the two big backward GEMMs. The trade-off
/// is deliberate and pinned by test: a skipped row contributes nothing
/// even where B holds non-finite values, i.e. 0 x Inf yields 0, not the
/// IEEE NaN a literal multiply would produce. Weights and activations
/// that have gone Inf/NaN have already destroyed training, so
/// propagating NaN through zero-gradient lanes buys nothing — both
/// kernel tiers implement the same skip, keeping them equivalent on
/// non-finite inputs too.

#include "src/common/thread_pool.hpp"
#include "src/nn/tensor.hpp"

namespace dqndock::nn {

/// Optional epilogue fused into gemmABt's output sweep: Y = act(A*B^T
/// + bias). Fusing runs the bias add and ReLU clamp while the freshly
/// computed element is still in a register, replacing the separate
/// full-tensor passes DenseLayer/Mlp used to make. Element-local ops,
/// applied in the fixed order (bias, then clamp), so fused results are
/// bit-identical to the unfused sequence on every tier.
struct GemmEpilogue {
  const Tensor* bias = nullptr;  ///< 1 x n row added to every output row
  bool relu = false;             ///< clamp at zero after the bias
  /// When `relu`, optionally capture the keep mask (resized to m x n,
  /// 1.0 where the output stayed positive, 0.0 where it was clamped).
  Tensor* reluMask = nullptr;
};

/// C = A * B^T (+ fused epilogue). A is (m x k), B is (n x k), C
/// becomes (m x n). Rows of C are distributed over `pool` when given.
void gemmABt(const Tensor& a, const Tensor& b, Tensor& c, ThreadPool* pool = nullptr,
             const GemmEpilogue& epilogue = {});

/// Rows [lo, hi) of gemmABt, serial, into a C (and reluMask) already
/// sized (m x n): nothing is resized and no row outside the range is
/// touched, so threads may fill disjoint row ranges of one product.
/// Every element gets the arithmetic gemmABt gives it.
void gemmABtRows(const Tensor& a, const Tensor& b, Tensor& c, std::size_t lo, std::size_t hi,
                 const GemmEpilogue& epilogue = {});

/// C = A * B. A is (m x k), B is (k x n), C becomes (m x n). `mask`
/// (m x n) is multiplied elementwise into the finished product — the
/// fused ReLU-backward gate, bit-identical to a separate reluBackward
/// pass over the result.
void gemmAB(const Tensor& a, const Tensor& b, Tensor& c, ThreadPool* pool = nullptr,
            const Tensor* mask = nullptr);

/// C += A^T * B. A is (k x m), B is (k x n), C must be (m x n).
/// (Accumulating form: weight gradients sum over the minibatch.)
void gemmAtBAccum(const Tensor& a, const Tensor& b, Tensor& c, ThreadPool* pool = nullptr);

}  // namespace dqndock::nn
