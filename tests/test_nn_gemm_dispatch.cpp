// GEMM kernel-tier dispatch matrix (mirrors test_scoring_batched's
// KernelDispatch suites): generic-tier bit-identity with the pre-dispatch
// kernels, cross-tier agreement on paper Table 1 shapes, per-tier
// bit-determinism across thread pools and repeated runs, fused-epilogue
// equivalence and the pinned zero-skip semantics on non-finite inputs —
// plus an end-to-end DqnAgent::learn weight-trajectory determinism check
// per tier. The probe and DQNDOCK_FORCE_KERNEL checks here are what a
// process's first GEMM decides; the parser itself is tested in
// test_cpu_tier.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/nn/gemm.hpp"
#include "src/nn/gemm_kernels.hpp"
#include "src/nn/tensor.hpp"
#include "src/rl/dqn_agent.hpp"
#include "src/rl/replay_buffer.hpp"
#include "tests/cpu_tier_guard.hpp"

namespace dqndock::nn {
namespace {

Tensor randomTensor(std::size_t r, std::size_t c, Rng& rng) {
  Tensor t(r, c);
  for (double& v : t.flat()) v = rng.gaussian();
  return t;
}

/// ReLU-like sparsity: zero out ~half the entries exactly (the pattern
/// the backward kernels' zero skip is built for).
Tensor sparseRandomTensor(std::size_t r, std::size_t c, Rng& rng) {
  Tensor t = randomTensor(r, c, rng);
  for (double& v : t.flat()) {
    if (v < 0.0) v = 0.0;
  }
  return t;
}

void expectBitEqual(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.flat()[i], b.flat()[i]) << what << " diverges at flat index " << i;
  }
}

void expectRelClose(const Tensor& a, const Tensor& b, double relTol, const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double x = a.flat()[i];
    const double y = b.flat()[i];
    const double scale = std::max({std::abs(x), std::abs(y), 1.0});
    ASSERT_LE(std::abs(x - y), relTol * scale) << what << " at flat index " << i;
  }
}

// --- Pre-dispatch reference kernels ----------------------------------------
// Per-element arithmetic of the kernels gemm.cpp shipped before the tier
// split: ascending-p accumulation (ABt), ikj with the zero skip (AB and
// AtB). With -ffp-contract=off these plain loops are bit-identical to
// the old kernels at any optimisation level, so the generic tier must
// reproduce them bit-for-bit.

Tensor refGemmABt(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < a.cols(); ++p) acc += a(i, p) * b(j, p);
      c(i, j) = acc;
    }
  }
  return c;
}

Tensor refGemmAB(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t p = 0; p < a.cols(); ++p) {
      const double av = a(i, p);
      if (av == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) c(i, j) += av * b(p, j);
    }
  }
  return c;
}

Tensor refGemmAtBAccum(const Tensor& a, const Tensor& b, const Tensor& base) {
  Tensor c = base;
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t p = 0; p < a.rows(); ++p) {
      const double av = a(p, i);
      if (av == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) c(i, j) += av * b(p, j);
    }
  }
  return c;
}

using Shape = std::tuple<std::size_t, std::size_t, std::size_t>;  // m, k, n

// Mixed tiles/remainders/strip tails: 4-row tiles plus remainder rows,
// column counts straddling the avx512 64-col strip and 8-lane groups.
const Shape kSmallShapes[] = {{1, 1, 1},   {2, 3, 4},    {7, 5, 3},
                              {5, 33, 70}, {9, 64, 137}, {32, 135, 12}};

// Paper Table 1 dims (2BSM state 16599, two 135-unit hidden layers,
// batch 32): the three shapes the learn phase actually runs.
const Shape kPaperAbtShapes[] = {{32, 16599, 135}, {32, 135, 135}, {32, 135, 12}};

TEST(GemmKernelDispatchTest, ProbeSelectsBestSupportedTier) {
  // With no override, a process's first GEMM runs the best tier the
  // probe finds, and the bench host stamp (resolveGemmTier) names it. On
  // an AVX-512 host the two tiers round this input differently, so the
  // bitwise match below tells which kernel ran.
  const CpuTier best = cpuTierSupported(CpuTier::kAvx512) ? CpuTier::kAvx512 : CpuTier::kGeneric;
  EXPECT_EQ(probeCpuTier(), best);
  EXPECT_STREQ(gemmTierName(CpuTier::kGeneric), "generic");
  EXPECT_STREQ(gemmTierName(CpuTier::kAvx512), "avx512");
  ScopedForceKernelEnv env(nullptr);
  Rng rng(3);
  const Tensor a = randomTensor(5, 70, rng);
  const Tensor b = randomTensor(33, 70, rng);
  expectInFreshProcess([&] {
    Tensor dispatched;
    gemmABt(a, b, dispatched);
    Tensor direct(a.rows(), b.rows());
    detail::gemmKernelOps(best).abtRows(a.data(), b.data(), direct.data(), 0, a.rows(), b.rows(),
                                        a.cols(), nullptr, false, nullptr);
    for (std::size_t i = 0; i < direct.size(); ++i) {
      if (dispatched.data()[i] != direct.data()[i]) {
        std::fprintf(stderr, "first GEMM did not run the %s kernel (index %zu)\n",
                     gemmTierName(best), i);
        return false;
      }
    }
    if (resolveGemmTier() != best) {
      std::fprintf(stderr, "bench stamp reports %s, not %s\n", gemmTierName(resolveGemmTier()),
                   gemmTierName(best));
      return false;
    }
    return true;
  });
}

TEST(GemmKernelDispatchTest, GenericBitIdenticalToPreDispatchKernels) {
  CpuTierGuard guard(CpuTier::kGeneric);
  ThreadPool pool(2);
  int seed = 100;
  for (const auto& [m, k, n] : kSmallShapes) {
    Rng rng(static_cast<std::uint64_t>(seed++));
    const Tensor x = randomTensor(m, k, rng);
    const Tensor w = randomTensor(n, k, rng);
    Tensor c;
    gemmABt(x, w, c);
    expectBitEqual(c, refGemmABt(x, w), "generic gemmABt");
    gemmABt(x, w, c, &pool);
    expectBitEqual(c, refGemmABt(x, w), "generic gemmABt (pooled)");

    const Tensor dy = sparseRandomTensor(m, k, rng);
    const Tensor wB = randomTensor(k, n, rng);
    Tensor dx;
    gemmAB(dy, wB, dx);
    expectBitEqual(dx, refGemmAB(dy, wB), "generic gemmAB");

    const Tensor at = sparseRandomTensor(k, m, rng);
    const Tensor bt = randomTensor(k, n, rng);
    Tensor base = randomTensor(m, n, rng);
    Tensor accum = base;
    gemmAtBAccum(at, bt, accum);
    expectBitEqual(accum, refGemmAtBAccum(at, bt, base), "generic gemmAtBAccum");
  }
}

TEST(GemmKernelDispatchTest, FusedEpilogueMatchesSeparatePasses) {
  for (CpuTier tier : supportedCpuTiers()) {
    CpuTierGuard guard(tier);
    Rng rng(41);
    const Tensor x = randomTensor(9, 33, rng);
    const Tensor w = randomTensor(70, 33, rng);
    const Tensor bias = randomTensor(1, 70, rng);

    // Unfused reference: plain GEMM, then bias, then the v > 0 clamp.
    Tensor plain;
    gemmABt(x, w, plain);
    Tensor expect = plain;
    Tensor expectMask(expect.rows(), expect.cols());
    for (std::size_t r = 0; r < expect.rows(); ++r) {
      for (std::size_t c = 0; c < expect.cols(); ++c) {
        double v = expect(r, c) + bias(0, c);
        const bool keep = v > 0.0;
        expect(r, c) = keep ? v : 0.0;
        expectMask(r, c) = keep ? 1.0 : 0.0;
      }
    }

    Tensor fused, mask;
    GemmEpilogue epilogue;
    epilogue.bias = &bias;
    epilogue.relu = true;
    epilogue.reluMask = &mask;
    gemmABt(x, w, fused, nullptr, epilogue);
    const std::string tag = std::string("fused epilogue, tier ") + cpuTierName(tier);
    expectBitEqual(fused, expect, tag);
    expectBitEqual(mask, expectMask, tag + " (mask)");

    // Fused ReLU-backward gate on gemmAB == separate multiply.
    const Tensor dy = sparseRandomTensor(9, 70, rng);
    const Tensor wB = randomTensor(70, 33, rng);
    Tensor gateMask(9, 33);
    for (std::size_t i = 0; i < gateMask.size(); ++i) {
      gateMask.flat()[i] = expectMask.flat()[i % expectMask.size()];
    }
    Tensor dxPlain;
    gemmAB(dy, wB, dxPlain);
    for (std::size_t i = 0; i < dxPlain.size(); ++i) dxPlain.flat()[i] *= gateMask.flat()[i];
    Tensor dxFused;
    gemmAB(dy, wB, dxFused, nullptr, &gateMask);
    expectBitEqual(dxFused, dxPlain, tag + " (gemmAB mask)");
  }
}

TEST(GemmKernelDispatchTest, ForcedTiersAgreeOnPaperShapes) {
  if (!cpuTierSupported(CpuTier::kAvx512)) {
    GTEST_SKIP() << "host cannot run the avx512 tier";
  }
  int seed = 7;
  for (const auto& [m, k, n] : kPaperAbtShapes) {
    Rng rng(static_cast<std::uint64_t>(seed++));
    const Tensor x = randomTensor(m, k, rng);
    const Tensor w = randomTensor(n, k, rng);
    Tensor generic, avx512;
    {
      CpuTierGuard guard(CpuTier::kGeneric);
      gemmABt(x, w, generic);
    }
    {
      CpuTierGuard guard(CpuTier::kAvx512);
      gemmABt(x, w, avx512);
    }
    expectRelClose(generic, avx512, 1e-12, "gemmABt tier agreement");
  }
  // Backward shapes at paper dims: dX = dY * W (n = 16599 streams the
  // big weight matrix) and dW += dY^T * X.
  Rng rng(77);
  const Tensor dy = sparseRandomTensor(32, 135, rng);
  const Tensor w0 = randomTensor(135, 16599, rng);
  const Tensor xin = randomTensor(32, 16599, rng);
  Tensor dxG, dxV, dwG(135, 16599, 0.25), dwV(135, 16599, 0.25);
  {
    CpuTierGuard guard(CpuTier::kGeneric);
    gemmAB(dy, w0, dxG);
    gemmAtBAccum(dy, xin, dwG);
  }
  {
    CpuTierGuard guard(CpuTier::kAvx512);
    gemmAB(dy, w0, dxV);
    gemmAtBAccum(dy, xin, dwV);
  }
  expectRelClose(dxG, dxV, 1e-12, "gemmAB tier agreement");
  expectRelClose(dwG, dwV, 1e-12, "gemmAtBAccum tier agreement");
}

TEST(GemmKernelDispatchTest, BitIdenticalAcrossThreadCountsAndRuns) {
  for (CpuTier tier : supportedCpuTiers()) {
    CpuTierGuard guard(tier);
    Rng rng(500 + static_cast<int>(tier));
    // 33 rows: 8 full 4-row tiles + remainder; 137/70 columns straddle
    // the avx512 64-col strips and masked 8-lane tails.
    const Tensor x = randomTensor(33, 300, rng);
    const Tensor w = randomTensor(137, 300, rng);
    const Tensor bias = randomTensor(1, 137, rng);
    const Tensor dy = sparseRandomTensor(33, 137, rng);
    const Tensor wB = randomTensor(137, 70, rng);
    const Tensor at = sparseRandomTensor(33, 64, rng);
    const Tensor bt = randomTensor(33, 70, rng);

    GemmEpilogue epilogue;
    epilogue.bias = &bias;
    epilogue.relu = true;

    Tensor refAbt, refAb, refAtb(64, 70, 0.5);
    gemmABt(x, w, refAbt, nullptr, epilogue);
    gemmAB(dy, wB, refAb);
    gemmAtBAccum(at, bt, refAtb);

    const std::string tag = std::string("thread determinism, tier ") + cpuTierName(tier);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      for (int repeat = 0; repeat < 2; ++repeat) {
        Tensor abt, ab, atb(64, 70, 0.5);
        gemmABt(x, w, abt, &pool, epilogue);
        gemmAB(dy, wB, ab, &pool);
        gemmAtBAccum(at, bt, atb, &pool);
        expectBitEqual(abt, refAbt, tag + " (ABt)");
        expectBitEqual(ab, refAb, tag + " (AB)");
        expectBitEqual(atb, refAtb, tag + " (AtB)");
      }
    }
  }
}

TEST(GemmKernelDispatchTest, ProbedMatchesForcedAvx512) {
  if (probeCpuTier() != CpuTier::kAvx512) {
    GTEST_SKIP() << "probe does not select avx512 on this host";
  }
  Rng rng(9);
  const Tensor x = randomTensor(13, 200, rng);
  const Tensor w = randomTensor(30, 200, rng);
  Tensor probed, forced;
  {
    CpuTierGuard guard(probeCpuTier());
    gemmABt(x, w, probed);
  }
  {
    CpuTierGuard guard(CpuTier::kAvx512);
    gemmABt(x, w, forced);
  }
  expectBitEqual(probed, forced, "probed vs forced avx512");
}

// The zero-skip contract (documented in gemm.hpp): A elements that are
// exactly 0.0 skip their B row entirely, so non-finite B values behind
// zero weights do NOT poison the output (no 0 x Inf = NaN) — on every
// tier. Non-zero A elements still propagate non-finite B normally.
TEST(GemmKernelDispatchTest, ZeroSkipShieldsNonFiniteRows) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  for (CpuTier tier : supportedCpuTiers()) {
    CpuTierGuard guard(tier);
    const std::string tag = std::string("zero-skip, tier ") + cpuTierName(tier);

    // Row 0 of A is all zero; row 1 hits the poisoned B row with 2.0.
    Tensor a(2, 3);
    a(1, 0) = 2.0;
    a(1, 2) = 1.0;
    Tensor b(3, 70, 1.0);
    for (std::size_t j = 0; j < b.cols(); ++j) b(0, j) = (j % 2 == 0) ? kInf : kNan;

    Tensor c;
    gemmAB(a, b, c);
    ASSERT_EQ(c.rows(), 2u);
    for (std::size_t j = 0; j < c.cols(); ++j) {
      EXPECT_EQ(c(0, j), 0.0) << tag << ": zero row must skip non-finite B";
      EXPECT_FALSE(std::isfinite(c(1, j))) << tag << ": non-zero row must propagate";
    }

    // Same contract on the accumulating transpose kernel: column 0 of A
    // is zero, column 1 reaches the poisoned row.
    Tensor at(3, 2);
    at(0, 1) = 2.0;
    at(2, 1) = 1.0;
    Tensor ct(2, 70, 0.0);
    gemmAtBAccum(at, b, ct);
    for (std::size_t j = 0; j < ct.cols(); ++j) {
      EXPECT_EQ(ct(0, j), 0.0) << tag << ": zero column must skip non-finite B";
      EXPECT_FALSE(std::isfinite(ct(1, j))) << tag << ": non-zero column must propagate";
    }
  }
}

TEST(GemmKernelDispatchErrorTest, UnknownForceValueThrows) {
  // An unknown DQNDOCK_FORCE_KERNEL name fails a process's first GEMM
  // instead of falling back to the probe. No tier becomes active, so the
  // bench host stamp (resolveGemmTier) keeps failing too.
  ScopedForceKernelEnv env("turbo9000");
  const Tensor a(2, 3, 1.0), b(4, 3, 1.0);
  expectInFreshProcess([&] {
    auto rejects = [](const char* what, auto&& call) {
      try {
        call();
      } catch (const std::runtime_error& e) {
        if (std::string(e.what()).find("turbo9000") != std::string::npos) return true;
      }
      std::fprintf(stderr, "%s did not reject DQNDOCK_FORCE_KERNEL=turbo9000\n", what);
      return false;
    };
    Tensor out;
    const bool gemm = rejects("first GEMM", [&] { gemmABt(a, b, out); });
    const bool stamp = rejects("resolveGemmTier", [] { resolveGemmTier(); });
    return gemm && stamp;
  });
}

// --- End-to-end learn-phase determinism ------------------------------------

/// Run a fixed seeded DQN training schedule and return the flattened
/// final online-network weights.
std::vector<double> learnTrajectory(std::size_t poolThreads) {
  std::unique_ptr<ThreadPool> pool;
  if (poolThreads > 0) pool = std::make_unique<ThreadPool>(poolThreads);
  Rng initRng(2018);
  rl::DqnConfig cfg;
  cfg.hiddenSizes = {32, 32};
  cfg.batchSize = 16;
  cfg.targetSyncInterval = 5;
  const std::size_t stateDim = 201;
  const int actions = 5;
  rl::DqnAgent agent(stateDim, actions, cfg, initRng, pool.get());

  rl::ReplayBuffer buffer(256, stateDim);
  Rng dataRng(7);
  std::vector<double> s(stateDim), s2(stateDim);
  for (int t = 0; t < 64; ++t) {
    for (double& v : s) v = dataRng.gaussian();
    for (double& v : s2) v = dataRng.gaussian();
    buffer.push(s, static_cast<int>(dataRng.uniformInt(actions)), dataRng.uniform(), s2,
                t % 13 == 0);
  }

  Rng learnRng(99);
  for (int step = 0; step < 12; ++step) agent.learn(buffer, learnRng);

  std::vector<double> weights;
  for (nn::Tensor* t : agent.online().parameters()) {
    weights.insert(weights.end(), t->flat().begin(), t->flat().end());
  }
  return weights;
}

TEST(GemmKernelDispatchLearnTest, WeightTrajectoryDeterministicPerTier) {
  for (CpuTier tier : supportedCpuTiers()) {
    CpuTierGuard guard(tier);
    const std::vector<double> serial = learnTrajectory(0);
    ASSERT_FALSE(serial.empty());
    for (const std::size_t threads : {0u, 2u, 8u}) {
      const std::vector<double> run = learnTrajectory(threads);
      ASSERT_EQ(run.size(), serial.size());
      for (std::size_t i = 0; i < run.size(); ++i) {
        ASSERT_EQ(run[i], serial[i])
            << "tier " << cpuTierName(tier) << ", threads " << threads
            << ": weight trajectory diverged at parameter " << i;
      }
    }
  }
}

}  // namespace
}  // namespace dqndock::nn
