// The one ISA-tier decision (src/common/cpu_tier): the CPUID probe, the
// enum<->name table, the DQNDOCK_FORCE_KERNEL parser and its error
// contract, and the pin that moves every kernel family at once.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/chem/synthetic.hpp"
#include "src/common/rng.hpp"
#include "src/metadock/scoring.hpp"
#include "src/nn/gemm.hpp"
#include "src/nn/gemm_kernels.hpp"
#include "tests/cpu_tier_guard.hpp"

namespace dqndock {
namespace {

TEST(CpuTierTest, ProbeSelectsBestSupportedTier) {
  const CpuTier probed = probeCpuTier();
  EXPECT_TRUE(cpuTierSupported(probed));
  EXPECT_EQ(probed, cpuTierSupported(CpuTier::kAvx512) ? CpuTier::kAvx512 : CpuTier::kGeneric);
  EXPECT_TRUE(cpuTierCompiled(CpuTier::kGeneric));
  EXPECT_STREQ(cpuTierName(CpuTier::kGeneric), "generic");
  EXPECT_STREQ(cpuTierName(CpuTier::kAvx512), "avx512");
  for (const char* unset : {static_cast<const char*>(nullptr), ""}) {
    ScopedForceKernelEnv env(unset);
    EXPECT_EQ(resolveCpuTier(), probed);
  }
  // The parser reads the same table the names come from.
  for (const CpuTier tier : supportedCpuTiers()) {
    ScopedForceKernelEnv env(cpuTierName(tier));
    EXPECT_EQ(resolveCpuTier(), tier);
  }
}

TEST(CpuTierTest, UnknownForceValueThrows) {
  ScopedForceKernelEnv env("turbo9000");
  EXPECT_THROW(resolveCpuTier(), std::runtime_error);
}

TEST(CpuTierTest, ForcingUnsupportedTierThrows) {
  // A forced tier must never silently fall back. A tier value outside
  // the table is never compiled in, on any host.
  EXPECT_THROW(setActiveCpuTier(static_cast<CpuTier>(7)), std::runtime_error);
  if (cpuTierSupported(CpuTier::kAvx512)) {
    EXPECT_TRUE(cpuTierCompiled(CpuTier::kAvx512));
    GTEST_SKIP() << "host supports avx512; cannot exercise the rejection path";
  }
  {
    ScopedForceKernelEnv env("avx512");
    EXPECT_THROW(resolveCpuTier(), std::runtime_error);
  }
  EXPECT_THROW(setActiveCpuTier(CpuTier::kAvx512), std::runtime_error);
}

TEST(CpuTierTest, OnePinMovesBothFamilies) {
  const chem::Scenario sc = chem::buildScenario(chem::ScenarioSpec::tiny());
  const metadock::ReceptorModel receptor(sc.receptor, 12.0);
  const metadock::LigandModel ligand(sc.ligand);
  Rng rng(5);
  nn::Tensor a(5, 70), b(33, 70);
  for (double& v : a.flat()) v = rng.gaussian();
  for (double& v : b.flat()) v = rng.gaussian();

  std::vector<nn::Tensor> perTier;
  for (const CpuTier tier : supportedCpuTiers()) {
    CpuTierGuard pin(tier);
    EXPECT_EQ(activeCpuTier(), tier);
    // Scoring: a ScoringFunction built under the pin takes its tier.
    const metadock::ScoringFunction sf(receptor, ligand, {});
    EXPECT_EQ(sf.kernelTier(), tier) << cpuTierName(tier);
    // GEMM: the next call runs the pinned tier's kernel, bit for bit.
    nn::Tensor dispatched;
    nn::gemmABt(a, b, dispatched);
    nn::Tensor direct(a.rows(), b.rows());
    nn::detail::gemmKernelOps(tier).abtRows(a.data(), b.data(), direct.data(), 0, a.rows(),
                                            b.rows(), a.cols(), nullptr, false, nullptr);
    for (std::size_t i = 0; i < direct.size(); ++i) {
      ASSERT_EQ(dispatched.data()[i], direct.data()[i]) << cpuTierName(tier) << " at " << i;
    }
    perTier.push_back(dispatched);
  }
  if (perTier.size() == 2) {
    // FMA rounds once where generic rounds twice, so the two tiers
    // differ on this input and the matches above tell them apart.
    std::size_t differing = 0;
    for (std::size_t i = 0; i < perTier[0].size(); ++i) {
      differing += perTier[0].data()[i] != perTier[1].data()[i];
    }
    EXPECT_GT(differing, 0u);
  }
}

TEST(CpuTierTest, ActiveTierIsNotReReadFromTheEnvironment) {
  // Once a tier is active, neither GEMMs nor a new ScoringFunction read
  // DQNDOCK_FORCE_KERNEL again; only resolveCpuTier() does.
  CpuTierGuard pin(CpuTier::kGeneric);
  ScopedForceKernelEnv env("turbo9000");
  EXPECT_THROW(resolveCpuTier(), std::runtime_error);
  EXPECT_EQ(activeCpuTier(), CpuTier::kGeneric);
  const chem::Scenario sc = chem::buildScenario(chem::ScenarioSpec::tiny());
  const metadock::ReceptorModel receptor(sc.receptor, 12.0);
  const metadock::LigandModel ligand(sc.ligand);
  const metadock::ScoringFunction sf(receptor, ligand, {});
  EXPECT_EQ(sf.kernelTier(), CpuTier::kGeneric);
}

}  // namespace
}  // namespace dqndock
