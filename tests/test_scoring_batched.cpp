// Golden-equivalence suite for the pose-batched SoA kernel
// (ScoringFunction::energyBatch / scoreBatch) against per-pose packed
// scoring, plus the batched path's own determinism guarantees:
// per-pose results must be bit-identical for any batch split (tiling,
// evaluator chunking) and any thread-pool size.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/chem/synthetic.hpp"
#include "src/metadock/evaluator.hpp"
#include "src/metadock/scoring.hpp"
#include "src/metadock/scoring_kernels.hpp"
#include "tests/cpu_tier_guard.hpp"

namespace dqndock::metadock {
namespace {

/// Relative tolerance for batched-vs-per-pose comparisons. The kernels
/// compute identical pair terms but accumulate them in different orders
/// (straight per-lane vs 8-lane-blocked), so exact equality is not
/// expected; 1e-9 relative matches test_scoring_packed.
double tol(double ref) { return std::max(1e-9, std::fabs(ref) * 1e-9); }

std::vector<Pose> randomPoses(const ReceptorModel& receptor, const LigandModel& ligand,
                              int count, double radius, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Pose> poses;
  for (int i = 0; i < count; ++i) {
    poses.push_back(randomPose(receptor.centerOfMass(), radius, ligand.torsionCount(), rng));
  }
  return poses;
}

/// Per-pose packed reference energies (the PR 2 kernel).
std::vector<ScoreTerms> perPoseEnergies(const ScoringFunction& sf, std::span<const Pose> poses) {
  std::vector<ScoreTerms> out;
  std::vector<Vec3> scratch;
  for (const Pose& p : poses) {
    sf.ligand().applyPose(p, scratch);
    out.push_back(sf.energy(scratch));
  }
  return out;
}

void expectBatchMatchesPerPose(const ScoringFunction& sf, std::span<const Pose> poses,
                               const char* what) {
  const std::vector<ScoreTerms> ref = perPoseEnergies(sf, poses);
  ScoringFunction::BatchScratch scratch;
  std::vector<ScoreTerms> got(poses.size());
  sf.energyBatch(poses, scratch, got);
  for (std::size_t i = 0; i < poses.size(); ++i) {
    EXPECT_NEAR(got[i].electrostatic, ref[i].electrostatic, tol(ref[i].electrostatic))
        << what << " pose " << i << " (electrostatic)";
    EXPECT_NEAR(got[i].vdw, ref[i].vdw, tol(ref[i].vdw)) << what << " pose " << i << " (vdw)";
    // The H-bond pass is the literal per-pose code path: bit-identical.
    EXPECT_EQ(got[i].hbond, ref[i].hbond) << what << " pose " << i << " (hbond)";
    EXPECT_NEAR(got[i].total(), ref[i].total(), tol(ref[i].total()))
        << what << " pose " << i << " (total)";
  }
}

class BatchedScoringFixture : public ::testing::Test {
 protected:
  BatchedScoringFixture()
      : scenario_(chem::buildScenario(chem::ScenarioSpec::tiny())),
        receptor_(scenario_.receptor, 12.0),
        ligand_(scenario_.ligand) {}

  chem::Scenario scenario_;
  ReceptorModel receptor_;
  LigandModel ligand_;
};

TEST_F(BatchedScoringFixture, MatchesPerPoseAcrossBatchSizes) {
  // 1 (degenerate), 2 (small), 32 (exactly one full tile), 33 (tile + 1
  // remainder lane) — the tile-boundary cases of kMaxBatchLanes = 32.
  ScoringFunction sf(receptor_, ligand_, {});
  for (int count : {1, 2, 32, 33}) {
    const auto poses = randomPoses(receptor_, ligand_, count, 15.0, 100 + count);
    expectBatchMatchesPerPose(sf, poses, "grid");
  }
}

TEST_F(BatchedScoringFixture, MatchesPerPoseOnEveryExecutionPath) {
  // grid (union/subcell sweep), cutoff-no-grid (masked full sweep) and
  // brute (no cutoff) all honour the same contract.
  ScoringOptions cutoffOnly;
  cutoffOnly.useGrid = false;
  ScoringOptions brute;
  brute.cutoff = 0.0;
  brute.useGrid = false;
  const auto poses = randomPoses(receptor_, ligand_, 12, 15.0, 21);
  expectBatchMatchesPerPose(ScoringFunction(receptor_, ligand_, {}), poses, "grid");
  expectBatchMatchesPerPose(ScoringFunction(receptor_, ligand_, cutoffOnly), poses, "cutoff");
  expectBatchMatchesPerPose(ScoringFunction(receptor_, ligand_, brute), poses, "brute");
}

TEST_F(BatchedScoringFixture, MixedInAndOutOfBoxPoses) {
  // Poses far outside the receptor's grid box exercise the
  // window-overlap rejection and the divergent-batch fallback; mixing
  // them with in-box poses in one tile must not perturb either group.
  ScoringFunction sf(receptor_, ligand_, {});
  Rng rng(31);
  std::vector<Pose> poses;
  for (int i = 0; i < 12; ++i) {
    Pose p = randomPose(receptor_.centerOfMass(), 10.0, ligand_.torsionCount(), rng);
    if (i % 3 == 1) p.translation.x += 250.0;  // far beyond any cell
    if (i % 3 == 2) p.translation.z -= 400.0;
    poses.push_back(p);
  }
  expectBatchMatchesPerPose(sf, poses, "mixed in/out of box");

  // Out-of-box poses have zero interaction energy on the grid path, same
  // as the per-pose kernel reports.
  ScoringFunction::BatchScratch scratch;
  std::vector<ScoreTerms> got(poses.size());
  sf.energyBatch(poses, scratch, got);
  for (std::size_t i = 0; i < poses.size(); ++i) {
    if (i % 3 != 0) {
      EXPECT_EQ(got[i].total(), 0.0) << "far pose " << i;
    }
  }
}

TEST_F(BatchedScoringFixture, WidelySpreadBatchTriggersFallbackConsistently) {
  // Spread poses across the whole box so the per-atom lane bounding box
  // exceeds kMaxUnionWindowCells and the kernel takes the per-pose
  // fallback: results must stay bit-identical to tight batches of the
  // same poses (the fallback and union paths visit identical nonzero
  // pairs in the same packed order).
  ScoringFunction sf(receptor_, ligand_, {});
  const auto poses = randomPoses(receptor_, ligand_, 16, 60.0, 77);

  ScoringFunction::BatchScratch scratch;
  std::vector<double> wholeBatch(poses.size());
  sf.scoreBatch(poses, scratch, wholeBatch);

  // One pose per call: every atom's "bounding box" is a point, so the
  // union path is taken whenever the pose is near the box.
  for (std::size_t i = 0; i < poses.size(); ++i) {
    double single = 0.0;
    sf.scoreBatch(std::span<const Pose>(&poses[i], 1), scratch,
                  std::span<double>(&single, 1));
    EXPECT_EQ(single, wholeBatch[i]) << "pose " << i << " (batch of 16 vs batch of 1)";
  }
}

TEST_F(BatchedScoringFixture, BitIdenticalAcrossBatchSplits) {
  // Scoring [0, 33) in one call vs arbitrary contiguous splits must give
  // bit-identical per-pose results (the evaluator chunks batches across
  // worker threads, so split-invariance is what makes pool size
  // score-invisible).
  ScoringFunction sf(receptor_, ligand_, {});
  const auto poses = randomPoses(receptor_, ligand_, 33, 15.0, 55);
  ScoringFunction::BatchScratch scratch;
  std::vector<double> whole(poses.size());
  sf.scoreBatch(poses, scratch, whole);

  for (std::size_t split : {1u, 2u, 7u, 32u}) {
    std::vector<double> pieces(poses.size());
    for (std::size_t lo = 0; lo < poses.size(); lo += split) {
      const std::size_t n = std::min(split, poses.size() - lo);
      sf.scoreBatch(std::span<const Pose>(poses).subspan(lo, n), scratch,
                    std::span<double>(pieces).subspan(lo, n));
    }
    for (std::size_t i = 0; i < poses.size(); ++i) {
      EXPECT_EQ(pieces[i], whole[i]) << "pose " << i << " (split " << split << ")";
    }
  }
}

TEST_F(BatchedScoringFixture, EvaluatorBitIdenticalAcrossThreadCounts) {
  // End-to-end: PoseEvaluator::evaluateBatch with 1/2/8-thread pools and
  // no pool at all must return bit-identical scores.
  ScoringFunction sf(receptor_, ligand_, {});
  const auto poses = randomPoses(receptor_, ligand_, 33, 15.0, 99);

  PoseEvaluator serial(sf, nullptr);
  const std::vector<double> reference = serial.evaluateBatch(poses);

  for (std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    PoseEvaluator eval(sf, &pool);
    const std::vector<double> got = eval.evaluateBatch(poses);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < poses.size(); ++i) {
      EXPECT_EQ(got[i], reference[i]) << "pose " << i << ", " << threads << " threads";
    }
  }
}

TEST(BatchedScoringPaperTest, MatchesPerPoseOnPaper2BSM) {
  // The paper's full-size scenario: 3,264 receptor atoms, 45-atom ligand.
  const chem::Scenario sc = chem::buildScenario(chem::ScenarioSpec::paper2bsm());
  ReceptorModel receptor(sc.receptor, 12.0);
  LigandModel ligand(sc.ligand);
  ScoringFunction sf(receptor, ligand, {});
  const auto poses = randomPoses(receptor, ligand, 32, 25.0, 7);
  expectBatchMatchesPerPose(sf, poses, "paper-2BSM");
}

// -- Runtime kernel dispatch matrix ------------------------------------------

class KernelDispatchFixture : public BatchedScoringFixture {};

TEST_F(KernelDispatchFixture, ProbeSelectsBestSupportedTier) {
  // With no override, a process's first ScoringFunction takes the best
  // tier the probe finds, and the bench host stamp (resolveKernelTier)
  // names it.
  const CpuTier best = cpuTierSupported(CpuTier::kAvx512) ? CpuTier::kAvx512 : CpuTier::kGeneric;
  EXPECT_EQ(probeCpuTier(), best);
  ScopedForceKernelEnv env(nullptr);
  expectInFreshProcess([&] {
    const ScoringFunction sf(receptor_, ligand_, {});
    if (sf.kernelTier() != best || resolveKernelTier() != best) {
      std::fprintf(stderr, "ScoringFunction took %s, bench stamp reports %s, best is %s\n",
                   kernelTierName(sf.kernelTier()), kernelTierName(resolveKernelTier()),
                   kernelTierName(best));
      return false;
    }
    return true;
  });
}

TEST_F(KernelDispatchFixture, EquivalenceSuitePerForcedTier) {
  // The full batched-vs-per-pose contract must hold under every tier the
  // host can run, not just the probed one.
  const auto poses = randomPoses(receptor_, ligand_, 33, 15.0, 41);
  for (const CpuTier tier : supportedCpuTiers()) {
    CpuTierGuard pin(tier);
    ScoringFunction sf(receptor_, ligand_, {});
    ASSERT_EQ(sf.kernelTier(), tier);
    expectBatchMatchesPerPose(sf, poses, cpuTierName(tier));
  }
}

TEST_F(KernelDispatchFixture, BitDeterministicPerTierAcrossSplits) {
  // Each tier on its own is bit-deterministic: any batch split gives
  // bit-identical per-pose scores (the cross-thread guarantee reduces to
  // this, since worker threads chunk batches).
  const auto poses = randomPoses(receptor_, ligand_, 33, 15.0, 43);
  for (const CpuTier tier : supportedCpuTiers()) {
    CpuTierGuard pin(tier);
    ScoringFunction sf(receptor_, ligand_, {});
    ScoringFunction::BatchScratch scratch;
    std::vector<double> whole(poses.size());
    sf.scoreBatch(poses, scratch, whole);
    for (std::size_t split : {1u, 5u, 32u}) {
      std::vector<double> pieces(poses.size());
      for (std::size_t lo = 0; lo < poses.size(); lo += split) {
        const std::size_t n = std::min(split, poses.size() - lo);
        sf.scoreBatch(std::span<const Pose>(poses).subspan(lo, n), scratch,
                      std::span<double>(pieces).subspan(lo, n));
      }
      for (std::size_t i = 0; i < poses.size(); ++i) {
        EXPECT_EQ(pieces[i], whole[i])
            << cpuTierName(tier) << " pose " << i << " (split " << split << ")";
      }
    }
  }
}

TEST(KernelDispatchPaperTest, ForcedTiersAgreeOnPaper2BSM) {
  // Acceptance: forced-generic and forced-avx512 agree to <= 1e-9
  // relative on the paper's full-size scenario. The per-pose sweep is
  // bit-identical across tiers; only the batched AVX-512 sweep (rsqrt +
  // Newton-Raphson) may differ from generic in the last bits.
  if (!cpuTierSupported(CpuTier::kAvx512)) {
    GTEST_SKIP() << "host has no AVX-512F; single-tier machine";
  }
  const chem::Scenario sc = chem::buildScenario(chem::ScenarioSpec::paper2bsm());
  ReceptorModel receptor(sc.receptor, 12.0);
  LigandModel ligand(sc.ligand);
  const auto poses = randomPoses(receptor, ligand, 32, 25.0, 11);

  auto scoresForTier = [&](CpuTier tier) {
    CpuTierGuard pin(tier);
    ScoringFunction sf(receptor, ligand, {});
    ScoringFunction::BatchScratch scratch;
    std::vector<double> out(poses.size());
    sf.scoreBatch(poses, scratch, out);
    return out;
  };
  const std::vector<double> generic = scoresForTier(CpuTier::kGeneric);
  const std::vector<double> avx512 = scoresForTier(CpuTier::kAvx512);
  for (std::size_t i = 0; i < poses.size(); ++i) {
    EXPECT_NEAR(avx512[i], generic[i], tol(generic[i])) << "pose " << i;
  }

  // The probed tier on an AVX-512 host IS the avx512 tier, dispatched to
  // the same TU the compile-time (-march=native) build used to select —
  // so probed scores are bit-identical to forced-avx512 scores.
  ASSERT_EQ(probeCpuTier(), CpuTier::kAvx512);
  const std::vector<double> probed = scoresForTier(probeCpuTier());
  for (std::size_t i = 0; i < poses.size(); ++i) {
    EXPECT_EQ(probed[i], avx512[i]) << "pose " << i << " (probed vs forced avx512)";
  }

  // Per-pose (non-batched) sweeps share one IEEE-only body across tiers:
  // bit-identical, not merely within tolerance.
  auto perPoseForTier = [&](CpuTier tier) {
    CpuTierGuard pin(tier);
    ScoringFunction sf(receptor, ligand, {});
    std::vector<Vec3> pos;
    std::vector<double> out;
    for (const Pose& p : poses) {
      ligand.applyPose(p, pos);
      out.push_back(sf.score(pos));
    }
    return out;
  };
  const std::vector<double> perPoseGeneric = perPoseForTier(CpuTier::kGeneric);
  const std::vector<double> perPoseAvx512 = perPoseForTier(CpuTier::kAvx512);
  for (std::size_t i = 0; i < poses.size(); ++i) {
    EXPECT_EQ(perPoseAvx512[i], perPoseGeneric[i]) << "pose " << i << " (per-pose sweep)";
  }
}

TEST(KernelDispatchErrorTest, UnknownForceValueThrows) {
  // An unknown DQNDOCK_FORCE_KERNEL name fails a process's first
  // ScoringFunction instead of falling back to the probe. No tier
  // becomes active, so the bench host stamp (resolveKernelTier) keeps
  // failing too.
  const chem::Scenario sc = chem::buildScenario(chem::ScenarioSpec::tiny());
  const ReceptorModel receptor(sc.receptor, 12.0);
  const LigandModel ligand(sc.ligand);
  ScopedForceKernelEnv env("sse9000");
  expectInFreshProcess([&] {
    auto rejects = [](const char* what, auto&& call) {
      try {
        call();
      } catch (const std::runtime_error& e) {
        if (std::string(e.what()).find("sse9000") != std::string::npos) return true;
      }
      std::fprintf(stderr, "%s did not reject DQNDOCK_FORCE_KERNEL=sse9000\n", what);
      return false;
    };
    const bool scoring =
        rejects("first ScoringFunction", [&] { const ScoringFunction sf(receptor, ligand, {}); });
    const bool stamp = rejects("resolveKernelTier", [] { resolveKernelTier(); });
    return scoring && stamp;
  });
}

TEST(BatchedScoringErrorTest, SizeMismatchThrows) {
  const chem::Scenario sc = chem::buildScenario(chem::ScenarioSpec::tiny());
  ReceptorModel receptor(sc.receptor, 12.0);
  LigandModel ligand(sc.ligand);
  ScoringFunction sf(receptor, ligand, {});
  const auto poses = randomPoses(receptor, ligand, 4, 15.0, 3);
  ScoringFunction::BatchScratch scratch;
  std::vector<ScoreTerms> wrong(3);
  EXPECT_THROW(sf.energyBatch(poses, scratch, wrong), std::invalid_argument);
  std::vector<double> wrongScores(5);
  EXPECT_THROW(sf.scoreBatch(poses, scratch, wrongScores), std::invalid_argument);
}

}  // namespace
}  // namespace dqndock::metadock
