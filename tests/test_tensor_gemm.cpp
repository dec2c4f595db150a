// Tests for the tensor container and the three GEMM kernels.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>

#include "src/common/rng.hpp"
#include "src/nn/gemm.hpp"
#include "src/nn/tensor.hpp"

namespace dqndock::nn {
namespace {

TEST(TensorTest, ConstructionAndIndexing) {
  Tensor t(2, 3, 1.5);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.size(), 6u);
  EXPECT_DOUBLE_EQ(t(1, 2), 1.5);
  t(1, 2) = -4.0;
  EXPECT_DOUBLE_EQ(t(1, 2), -4.0);
}

TEST(TensorTest, RowSpan) {
  Tensor t(2, 3);
  t(1, 0) = 7;
  auto row = t.row(1);
  EXPECT_EQ(row.size(), 3u);
  EXPECT_DOUBLE_EQ(row[0], 7);
}

TEST(TensorTest, FillAndResize) {
  Tensor t(2, 2, 9.0);
  t.fill(0.5);
  for (double v : t.flat()) EXPECT_DOUBLE_EQ(v, 0.5);
  t.resize(3, 4);
  EXPECT_EQ(t.rows(), 3u);
  for (double v : t.flat()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(TensorTest, ResizeOverwriteSkipsZeroFill) {
  Tensor t(2, 2, 9.0);
  // Same element count, new shape: contents are unspecified but the
  // dims must update and the storage stays valid to write through.
  t.resizeOverwrite(1, 4);
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.cols(), 4u);
  ASSERT_EQ(t.size(), 4u);
  for (std::size_t i = 0; i < t.size(); ++i) t.flat()[i] = static_cast<double>(i);
  EXPECT_DOUBLE_EQ(t(0, 3), 3.0);
  // Growing still yields a well-formed buffer of the new size.
  t.resizeOverwrite(3, 5);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 5u);
  EXPECT_EQ(t.size(), 15u);
  t.fill(1.25);
  for (double v : t.flat()) EXPECT_DOUBLE_EQ(v, 1.25);
}

// The zero-skip contract documented in gemm.hpp: an A element that is
// exactly 0.0 skips its whole B row, so non-finite values sitting
// behind zeroed (ReLU-dead) activations never reach the output as
// 0 x Inf = NaN.
TEST(GemmTest, ZeroSkipShieldsNonFiniteB) {
  Tensor a(1, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 3.0;
  Tensor b(2, 3, 1.0);
  b(0, 0) = std::numeric_limits<double>::infinity();
  b(0, 1) = std::numeric_limits<double>::quiet_NaN();
  Tensor c;
  gemmAB(a, b, c);
  EXPECT_DOUBLE_EQ(c(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(c(0, 2), 3.0);

  Tensor at(2, 2);
  at(0, 1) = 1.0;  // column 0 of A is all zero
  at(1, 1) = 2.0;
  Tensor ct(2, 3, 0.0);
  gemmAtBAccum(at, b, ct);
  EXPECT_DOUBLE_EQ(ct(0, 0), 0.0);  // skipped: no NaN leak
  EXPECT_TRUE(std::isinf(ct(1, 0)));
}

TEST(TensorTest, Norms) {
  Tensor t(1, 2);
  t(0, 0) = 3;
  t(0, 1) = -4;
  EXPECT_DOUBLE_EQ(maxAbs(t), 4.0);
  EXPECT_DOUBLE_EQ(l2Norm(t), 5.0);
}

// Reference implementations for the property sweeps.
Tensor naiveABt(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.rows(); ++j)
      for (std::size_t k = 0; k < a.cols(); ++k) c(i, j) += a(i, k) * b(j, k);
  return c;
}

Tensor naiveAB(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j)
      for (std::size_t k = 0; k < a.cols(); ++k) c(i, j) += a(i, k) * b(k, j);
  return c;
}

Tensor randomTensor(std::size_t r, std::size_t c, Rng& rng) {
  Tensor t(r, c);
  for (double& v : t.flat()) v = rng.gaussian();
  return t;
}

void expectNear(const Tensor& a, const Tensor& b, double tol = 1e-10) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a.flat()[i], b.flat()[i], tol);
  }
}

using Shape = std::tuple<int, int, int>;  // m, k, n

class GemmShapeTest : public ::testing::TestWithParam<Shape> {};

TEST_P(GemmShapeTest, ABtMatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(1);
  const Tensor a = randomTensor(m, k, rng);
  const Tensor b = randomTensor(n, k, rng);
  Tensor c;
  gemmABt(a, b, c);
  expectNear(c, naiveABt(a, b));
}

TEST_P(GemmShapeTest, ABMatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(2);
  const Tensor a = randomTensor(m, k, rng);
  const Tensor b = randomTensor(k, n, rng);
  Tensor c;
  gemmAB(a, b, c);
  expectNear(c, naiveAB(a, b));
}

TEST_P(GemmShapeTest, AtBAccumAccumulates) {
  const auto [m, k, n] = GetParam();
  Rng rng(3);
  const Tensor a = randomTensor(k, m, rng);
  const Tensor b = randomTensor(k, n, rng);
  Tensor c(m, n, 1.0);  // pre-filled: result must be 1 + A^T B
  gemmAtBAccum(a, b, c);
  Tensor at(m, k);
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < k; ++j) at(i, j) = a(j, i);
  Tensor expected = naiveAB(at, b);
  for (double& v : expected.flat()) v += 1.0;
  expectNear(c, expected);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmShapeTest,
                         ::testing::Values(Shape{1, 1, 1}, Shape{2, 3, 4}, Shape{7, 5, 3},
                                           Shape{32, 135, 12}, Shape{64, 64, 64},
                                           Shape{1, 100, 1}));

TEST(GemmTest, DimensionMismatchThrows) {
  Tensor a(2, 3), b(2, 4), c;
  EXPECT_THROW(gemmABt(a, b, c), std::invalid_argument);
  EXPECT_THROW(gemmAB(a, b, c), std::invalid_argument);
  Tensor bad(1, 1);
  EXPECT_THROW(gemmAtBAccum(a, b, bad), std::invalid_argument);
}

}  // namespace
}  // namespace dqndock::nn
