#include "src/nn/gemm.hpp"

#include <stdexcept>

#include "src/nn/gemm_kernels.hpp"

namespace dqndock::nn {

namespace {
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

void gemmABt(const Tensor& a, const Tensor& b, Tensor& c, const GemmEpilogue& epilogue) {
  checkABt(a, b, epilogue);
  const std::size_t m = a.rows(), n = b.rows();
  // The kernel writes every element of C (and of the mask), so skip the
  // zero-fill resize() would pay.
  c.resizeOverwrite(m, n);
  if (epilogue.reluMask != nullptr) epilogue.reluMask->resizeOverwrite(m, n);
  abtRange(a, b, c, 0, m, epilogue);
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

void gemmAB(const Tensor& a, const Tensor& b, Tensor& c, const Tensor* mask) {
  if (a.cols() != b.rows()) throw std::invalid_argument("gemmAB: inner dimension mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (mask != nullptr && (mask->rows() != m || mask->cols() != n)) {
    throw std::invalid_argument("gemmAB: mask shape mismatch");
  }
  c.resize(m, n);  // zero base: the kernel accumulates into C
  const double* maskPtr = mask != nullptr ? mask->data() : nullptr;
  detail::gemmKernelOps(activeCpuTier())
      .abRows(a.data(), b.data(), c.data(), 0, m, n, k, maskPtr);
}

void gemmAtBAccum(const Tensor& a, const Tensor& b, Tensor& c) {
  if (a.rows() != b.rows()) throw std::invalid_argument("gemmAtBAccum: outer dimension mismatch");
  if (c.rows() != a.cols() || c.cols() != b.cols()) {
    throw std::invalid_argument("gemmAtBAccum: output shape mismatch");
  }
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  detail::gemmKernelOps(activeCpuTier()).atbRows(a.data(), b.data(), c.data(), 0, m, m, n, k);
}

}  // namespace dqndock::nn
