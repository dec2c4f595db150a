// Ablation A5 (paper Sections 2.1/3): the scoring function dominates
// docking cost and METADOCK parallelises it. Measures Equation 1
// throughput across the execution paths the library provides:
//   * brute force, no cutoff (Algorithm 1 of the paper),
//   * cutoff without grid,
//   * cutoff + neighbour-grid pruning,
//   * the per-pose score of the rest pose every episode and dock starts
//     from, where no H-bond site is within the cutoff,
//   * the pose-batched kernel (one receptor sweep scores a whole tile of
//     poses; subcell cutoff-sphere slicing) over a batch-size sweep,
//   * a thread-count sweep over a batch of poses.
//
// google-benchmark harness; reports pairs/second where meaningful.

#include "bench/benchkit.hpp"

#include <memory>

#include "src/chem/synthetic.hpp"
#include "src/common/cpu_tier.hpp"
#include "src/metadock/evaluator.hpp"

using namespace dqndock;
using metadock::LigandModel;
using metadock::Pose;
using metadock::ReceptorModel;
using metadock::ScoringFunction;
using metadock::ScoringOptions;

namespace {

struct Problem {
  chem::Scenario scenario;
  std::unique_ptr<ReceptorModel> receptor;
  std::unique_ptr<LigandModel> ligand;
  Pose surfacePose;

  explicit Problem(double gridCell) : scenario(chem::buildScenario(chem::ScenarioSpec::paper2bsm())) {
    receptor = std::make_unique<ReceptorModel>(scenario.receptor, gridCell);
    ligand = std::make_unique<LigandModel>(scenario.ligand);
    surfacePose = Pose(ligand->torsionCount());
    surfacePose.translation = scenario.pocketCenter;
  }
};

Problem& problemWithGrid() {
  static Problem p(12.0);
  return p;
}

Problem& problemNoGrid() {
  static Problem p(0.0);
  return p;
}

/// Shared body: scores the surface pose repeatedly under `opts`.
void scoreLoop(benchmark::State& state, Problem& p, const ScoringOptions& opts) {
  ScoringFunction sf(*p.receptor, *p.ligand, opts);
  std::vector<Vec3> scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sf.scorePose(p.surfacePose, scratch));
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(p.receptor->atomCount() * p.ligand->atomCount()));
}

ScoringOptions makeOptions(double cutoff, bool useGrid) {
  ScoringOptions opts;
  opts.cutoff = cutoff;
  opts.useGrid = useGrid;
  return opts;
}

}  // namespace

static void BM_ScoreBruteForceNoCutoff(benchmark::State& state) {
  scoreLoop(state, problemNoGrid(), makeOptions(0.0, false));
}
BENCHMARK(BM_ScoreBruteForceNoCutoff);

static void BM_ScoreCutoffNoGrid(benchmark::State& state) {
  scoreLoop(state, problemNoGrid(), makeOptions(12.0, false));
}
BENCHMARK(BM_ScoreCutoffNoGrid);

static void BM_ScoreCutoffWithGrid(benchmark::State& state) {
  scoreLoop(state, problemWithGrid(), makeOptions(12.0, true));
}
BENCHMARK(BM_ScoreCutoffWithGrid);

/// Per-pose score of the scenario's rest pose, where every episode and
/// every dock begins: the ligand at its input centroid, beyond the cutoff
/// of every H-bond site. Items are poses, so items_per_second is
/// poses/s (the other per-pose rows score the pocket pose).
static void BM_ScoreStartPose(benchmark::State& state) {
  Problem& p = problemWithGrid();
  ScoringFunction sf(*p.receptor, *p.ligand, makeOptions(12.0, true));
  const Pose start = p.ligand->restPose();
  std::vector<Vec3> scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sf.scorePose(start, scratch));
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()));
  state.SetLabel("rest pose");
}
BENCHMARK(BM_ScoreStartPose);

/// Pose-batched kernel at batch size B: the local-search shape, B jitters
/// of one pocket pose scored in one receptor sweep. Items are normalised
/// the same way as the per-pose paths (receptor atoms x ligand atoms per
/// pose), so pairs/s here are directly comparable with
/// BM_ScoreCutoffWithGrid: both the receptor-load amortisation and the
/// subcell pruning count toward the ratio.
static void BM_ScorePoseBatched(benchmark::State& state) {
  Problem& p = problemWithGrid();
  const auto batch = static_cast<std::size_t>(state.range(0));
  ScoringFunction sf(*p.receptor, *p.ligand, makeOptions(12.0, true));

  Rng rng(11);
  std::vector<Pose> poses;
  for (std::size_t i = 0; i < batch; ++i) {
    // The default Improve-move scale (1 A / 10 deg / 15 deg): the batch a
    // local-search step actually evaluates around one incumbent.
    poses.push_back(metadock::perturbPose(p.surfacePose, 1.0, 0.1745, 0.2618, rng));
  }
  ScoringFunction::BatchScratch scratch;
  std::vector<double> scores(batch);
  for (auto _ : state) {
    sf.scoreBatch(poses, scratch, scores);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * static_cast<long>(batch) *
                          static_cast<long>(p.receptor->atomCount() * p.ligand->atomCount()));
  state.SetLabel("B=" + std::to_string(batch));
}
BENCHMARK(BM_ScorePoseBatched)->Arg(1)->Arg(8)->Arg(32);

/// Same measurement for a population spread over the whole receptor
/// (random poses, 25 A radius): the global-search shape where lanes
/// diverge and the kernel leans on the fallback heuristic.
static void BM_ScorePoseBatchedSpread(benchmark::State& state) {
  Problem& p = problemWithGrid();
  const auto batch = static_cast<std::size_t>(state.range(0));
  ScoringFunction sf(*p.receptor, *p.ligand, makeOptions(12.0, true));

  Rng rng(13);
  std::vector<Pose> poses;
  for (std::size_t i = 0; i < batch; ++i) {
    poses.push_back(metadock::randomPose(p.receptor->centerOfMass(), 25.0,
                                         p.ligand->torsionCount(), rng));
  }
  ScoringFunction::BatchScratch scratch;
  std::vector<double> scores(batch);
  for (auto _ : state) {
    sf.scoreBatch(poses, scratch, scores);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * static_cast<long>(batch) *
                          static_cast<long>(p.receptor->atomCount() * p.ligand->atomCount()));
  state.SetLabel("B=" + std::to_string(batch));
}
BENCHMARK(BM_ScorePoseBatchedSpread)->Arg(32);

/// Batch of poses fanned across the pool: the METADOCK screening shape.
static void BM_BatchEvaluateThreads(benchmark::State& state) {
  Problem& p = problemWithGrid();
  const auto threads = static_cast<std::size_t>(state.range(0));
  ScoringOptions opts;  // cutoff 12, grid on
  ScoringFunction sf(*p.receptor, *p.ligand, opts);
  std::unique_ptr<ThreadPool> pool =
      threads > 0 ? std::make_unique<ThreadPool>(threads) : nullptr;
  metadock::PoseEvaluator eval(sf, pool.get());

  Rng rng(7);
  std::vector<Pose> poses;
  for (int i = 0; i < 256; ++i) {
    poses.push_back(metadock::randomPose(p.receptor->centerOfMass(), 25.0,
                                         p.ligand->torsionCount(), rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.evaluateBatch(poses));
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * 256);
  state.SetLabel(threads == 0 ? "serial" : std::to_string(threads) + " threads");
}
// UseRealTime: wall-clock is what matters for a parallel sweep (on a
// single-core host all thread counts tie; on a multi-core host the
// speedup shows directly).
BENCHMARK(BM_BatchEvaluateThreads)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

/// Pose application alone (torsions + rigid transform, no scoring).
static void BM_ApplyPose(benchmark::State& state) {
  Problem& p = problemWithGrid();
  Pose pose(p.ligand->torsionCount());
  for (std::size_t k = 0; k < pose.torsions.size(); ++k) pose.torsions[k] = 0.3 * (1.0 + k);
  pose.orientation = Quat::fromAxisAngle(Vec3{1, 2, 3}, 0.7);
  pose.translation = {5, 6, 7};
  std::vector<Vec3> out;
  for (auto _ : state) {
    p.ligand->applyPose(pose, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ApplyPose);

/// Custom main: report the harness build type (and whether asserts were
/// compiled in) in the benchmark context, so scripts/bench_scoring.py can
/// refuse to publish numbers measured from a debug build.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
#ifdef DQNDOCK_BENCH_BUILD_TYPE
  benchmark::AddCustomContext("dqndock_bench_build_type", DQNDOCK_BENCH_BUILD_TYPE);
#endif
#ifdef NDEBUG
  benchmark::AddCustomContext("dqndock_bench_asserts", "off");
#else
  benchmark::AddCustomContext("dqndock_bench_asserts", "on");
#endif
  // Which Eq. 1 sweep-kernel tier the runs dispatched to (CPUID probe,
  // or the DQNDOCK_FORCE_KERNEL override) — the tier the benchmarked
  // ScoringFunction instances take, and fails loudly here if a forced
  // tier is unavailable rather than publishing mislabelled rows.
  benchmark::AddCustomContext("dqndock_kernel_tier", cpuTierName(activeCpuTier()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
