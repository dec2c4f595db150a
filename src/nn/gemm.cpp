#include "src/nn/gemm.hpp"

#include <stdexcept>

#include "src/nn/gemm_kernels.hpp"

namespace dqndock::nn {

namespace {
/// Min multiply-adds per worker before fanning a GEMM out. Every worker
/// re-streams its full share of the B matrix plus fan-out/join overhead,
/// so splitting a product below this floor is a net loss — the measured
/// paper-shape forward (m=32, n=135, k=16,599 → 71.7M madds) ran ~1.5x
/// SLOWER on 2 threads than serial. The cap keeps the Table-1 backward
/// GEMMs (and the dueling trunk's forward) serial while large batches
/// (virtual-screening sweeps, wide replay batches) still split across
/// the pool. Mlp::forward/predict do not split here: they hand 4-row
/// groups through all their layers to the pool once per call, under a
/// per-participant floor of their own (kMinMacsPerPart, src/nn/mlp.cpp).
constexpr std::size_t kMinWorkPerWorker = 48u * 1024u * 1024u;

/// Max partitions for an m*n*k product; <= 1 means run serial.
std::size_t partitionCap(std::size_t m, std::size_t n, std::size_t k) {
  return (m * n * k) / kMinWorkPerWorker;
}

void checkABt(const Tensor& a, const Tensor& b, const GemmEpilogue& epilogue) {
  if (a.cols() != b.cols()) throw std::invalid_argument("gemmABt: inner dimension mismatch");
  if (epilogue.bias != nullptr &&
      (epilogue.bias->rows() != 1 || epilogue.bias->cols() != b.rows())) {
    throw std::invalid_argument("gemmABt: bias must be 1 x n");
  }
  if (epilogue.reluMask != nullptr && !epilogue.relu) {
    throw std::invalid_argument("gemmABt: reluMask requires relu");
  }
}

/// Rows [lo, hi) of C = A * B^T with the epilogue; C and the mask hold
/// (m x n) already.
void abtRange(const Tensor& a, const Tensor& b, Tensor& c, std::size_t lo, std::size_t hi,
              const GemmEpilogue& epilogue) {
  double* maskPtr = epilogue.reluMask != nullptr ? epilogue.reluMask->data() : nullptr;
  const double* biasPtr = epilogue.bias != nullptr ? epilogue.bias->data() : nullptr;
  detail::gemmKernelOps(activeCpuTier())
      .abtRows(a.data(), b.data(), c.data(), lo, hi, b.rows(), a.cols(), biasPtr, epilogue.relu,
               maskPtr);
}
}  // namespace

void gemmABt(const Tensor& a, const Tensor& b, Tensor& c, ThreadPool* pool,
             const GemmEpilogue& epilogue) {
  checkABt(a, b, epilogue);
  const std::size_t m = a.rows(), n = b.rows(), k = a.cols();
  // The kernel writes every element of C (and of the mask), so skip the
  // zero-fill resize() would pay.
  c.resizeOverwrite(m, n);
  if (epilogue.reluMask != nullptr) epilogue.reluMask->resizeOverwrite(m, n);
  auto body = [&](std::size_t lo, std::size_t hi) { abtRange(a, b, c, lo, hi, epilogue); };
  const std::size_t maxParts = partitionCap(m, n, k);
  if (pool && maxParts > 1) {
    pool->parallelFor(0, m, maxParts, body);
  } else {
    body(0, m);
  }
}

void gemmABtRows(const Tensor& a, const Tensor& b, Tensor& c, std::size_t lo, std::size_t hi,
                 const GemmEpilogue& epilogue) {
  checkABt(a, b, epilogue);
  const std::size_t m = a.rows(), n = b.rows();
  if (c.rows() != m || c.cols() != n) throw std::invalid_argument("gemmABtRows: C must be m x n");
  if (epilogue.reluMask != nullptr &&
      (epilogue.reluMask->rows() != m || epilogue.reluMask->cols() != n)) {
    throw std::invalid_argument("gemmABtRows: reluMask must be m x n");
  }
  if (lo > hi || hi > m) throw std::invalid_argument("gemmABtRows: row range out of bounds");
  abtRange(a, b, c, lo, hi, epilogue);
}

void gemmAB(const Tensor& a, const Tensor& b, Tensor& c, ThreadPool* pool, const Tensor* mask) {
  if (a.cols() != b.rows()) throw std::invalid_argument("gemmAB: inner dimension mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (mask != nullptr && (mask->rows() != m || mask->cols() != n)) {
    throw std::invalid_argument("gemmAB: mask shape mismatch");
  }
  c.resize(m, n);  // zero base: the kernel accumulates into C
  const double* maskPtr = mask != nullptr ? mask->data() : nullptr;
  const auto& ops = detail::gemmKernelOps(activeCpuTier());
  auto body = [&](std::size_t lo, std::size_t hi) {
    ops.abRows(a.data(), b.data(), c.data(), lo, hi, n, k, maskPtr);
  };
  const std::size_t maxParts = partitionCap(m, n, k);
  if (pool && maxParts > 1) {
    pool->parallelFor(0, m, maxParts, body);
  } else {
    body(0, m);
  }
}

void gemmAtBAccum(const Tensor& a, const Tensor& b, Tensor& c, ThreadPool* pool) {
  if (a.rows() != b.rows()) throw std::invalid_argument("gemmAtBAccum: outer dimension mismatch");
  if (c.rows() != a.cols() || c.cols() != b.cols()) {
    throw std::invalid_argument("gemmAtBAccum: output shape mismatch");
  }
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  const auto& ops = detail::gemmKernelOps(activeCpuTier());
  // Parallelize over rows of C (columns of A) so threads never share an
  // output cache line region.
  auto body = [&](std::size_t lo, std::size_t hi) {
    ops.atbRows(a.data(), b.data(), c.data(), lo, hi, m, n, k);
  };
  const std::size_t maxParts = partitionCap(m, n, k);
  if (pool && maxParts > 1) {
    pool->parallelFor(0, m, maxParts, body);
  } else {
    body(0, m);
  }
}

}  // namespace dqndock::nn
