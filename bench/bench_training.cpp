// Vectorized training-loop throughput on the paper-2BSM task: V lockstep
// envs feeding the pose-batched scoring kernel and one tiled Q-forward
// per step, vs the paper's one-env loop. Reports training
// transitions/second (one candidate pose is scored per transition, so
// this is also pose-evals/second) during the collect phase (epsilon =
// 0.05, no SGD: the learn call is identical per transition for any V, so
// collect throughput is where the speedup lives) for the `sequential`
// row (vectorEnvs 0: the trainer's loop at V = 1 over the system's one
// DockingTask) and for V in {1, 8, 32} DockingVectorEnv envs, plus a
// short learning-phase row at V = 32, a sustained row that times one
// long one-env learning run early and late, and a built-in check that
// the `sequential` and V=1 runs are bit-identical. Each collect row is
// the median of kCollectRuns fresh runs, with the slowest and fastest
// run's rates beside it.
//
// Output is a single JSON object on stdout; scripts/bench_training.py
// wraps it into BENCH_training.json with the acceptance gate.
//
// Usage: bench_training [--episodes=8] [--max-steps=50] [--seed=2018]
//                       [--replay=512] [--learn-max-steps=10]
//                       [--sustained-learns=18000] [--skip-identity]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/cli.hpp"
#include "src/common/cpu_tier.hpp"
#include "src/common/stopwatch.hpp"
#include "src/core/dqn_docking.hpp"
#include "src/nn/mlp.hpp"

using namespace dqndock;

namespace {

core::DqnDockingConfig benchConfig(std::size_t vectorEnvs, std::size_t episodes,
                                   std::size_t maxSteps, std::uint64_t seed,
                                   std::size_t replayCapacity, bool learning) {
  core::DqnDockingConfig cfg = core::DqnDockingConfig::paper2bsm();
  cfg.env.maxSteps = maxSteps;
  cfg.trainer.episodes = episodes;
  cfg.trainer.seed = seed;
  // Constant Table-1 floor epsilon: mostly-greedy acting exercises the
  // Q-forward on every step, which is what vectorization amortizes.
  cfg.trainer.epsilon = rl::EpsilonSchedule(0.05, 0.05, 0.0, 0);
  cfg.trainer.learningStart = learning ? cfg.agent.batchSize : (1ull << 40);
  // Raw-state replay (the vectorized path's storage); a small ring keeps
  // the 16,599-double states bounded (~0.27 MB/transition).
  cfg.replayCapacity = replayCapacity;
  cfg.compactReplay = false;
  cfg.vectorEnvs = vectorEnvs;
  return cfg;
}

/// Fresh runs behind each collect row. One run lasts 4-8 ms at the
/// default sizes, and single runs of a row land ~10% apart run to run.
constexpr std::size_t kCollectRuns = 5;

struct ModeResult {
  std::string label;
  std::size_t vectorEnvs = 0;
  std::size_t episodes = 0;
  std::size_t steps = 0;
  std::size_t batchedSteps = 0;
  std::size_t learnCalls = 0;
  double seconds = 0.0;
  std::size_t runs = 1;
  double minRate = 0.0;  ///< steps/s of the slowest run
  double maxRate = 0.0;  ///< steps/s of the fastest run

  double rate() const { return static_cast<double>(steps) / seconds; }
};

ModeResult runMode(const std::string& label, const chem::Scenario& scenario,
                   const core::DqnDockingConfig& cfg, ThreadPool* pool) {
  core::DqnDocking system(cfg, scenario, pool);
  Stopwatch clock;
  system.train();
  ModeResult r;
  r.label = label;
  r.vectorEnvs = cfg.vectorEnvs;
  r.episodes = system.metrics().size();
  r.steps = system.trainer().globalStep();
  r.batchedSteps = system.vectorEnv() ? system.vectorEnv()->batchedSteps() : 0;
  r.learnCalls = system.agent().learnSteps();
  r.seconds = clock.seconds();
  r.minRate = r.maxRate = r.rate();
  std::fprintf(stderr, "  %-16s episodes=%zu steps=%zu learns=%zu %.2fs (%.0f steps/s)\n",
               label.c_str(), r.episodes, r.steps, r.learnCalls, r.seconds, r.rate());
  return r;
}

/// kCollectRuns fresh runs of one collect row: the median run, with the
/// slowest and fastest rates beside it.
ModeResult runCollect(const std::string& label, const chem::Scenario& scenario,
                      const core::DqnDockingConfig& cfg, ThreadPool* pool) {
  std::vector<ModeResult> runs;
  for (std::size_t i = 0; i < kCollectRuns; ++i) {
    runs.push_back(runMode(label, scenario, cfg, pool));
  }
  std::sort(runs.begin(), runs.end(),
            [](const ModeResult& a, const ModeResult& b) { return a.rate() < b.rate(); });
  ModeResult r = runs[kCollectRuns / 2];
  r.runs = kCollectRuns;
  r.minRate = runs.front().rate();
  r.maxRate = runs.back().rate();
  return r;
}

void printMode(const ModeResult& r, bool last) {
  const double batchedFraction =
      r.steps ? static_cast<double>(r.batchedSteps) * static_cast<double>(r.vectorEnvs) /
                    static_cast<double>(r.steps)
              : 0.0;
  std::printf("    {\"label\": \"%s\", \"vector_envs\": %zu, \"episodes\": %zu, "
              "\"steps\": %zu, \"learn_calls\": %zu, \"seconds\": %.4f, "
              "\"steps_per_second\": %.1f, \"pose_evals_per_second\": %.1f, "
              "\"runs\": %zu, \"steps_per_second_min\": %.1f, "
              "\"steps_per_second_max\": %.1f, "
              "\"batched_steps\": %zu, \"batched_fraction\": %.4f}%s\n",
              r.label.c_str(), r.vectorEnvs, r.episodes, r.steps, r.learnCalls, r.seconds,
              r.rate(), r.rate(), r.runs, r.minRate, r.maxRate, r.batchedSteps,
              batchedFraction, last ? "" : ",");
}

/// Learn calls per second over two windows of one long one-env
/// learning run of `learns` calls: calls [n/9, 2n/9) and [8n/9, n), so
/// 2,000-4,000 and 16,000-18,000 at the default n = 18,000. A learn step
/// that slows as the run goes on (mean squares of idle rows decaying into
/// subnormals) shows as a late rate below the early one. Windows snap to
/// episode ends; each rate counts the learn calls between its two ends.
struct SustainedResult {
  std::size_t learnCalls = 0;
  std::size_t episodes = 0;
  std::size_t edges[4] = {};  ///< learn calls at the window ends
  double at[4] = {};          ///< seconds into the run at the window ends

  double rate(std::size_t from) const {
    const double secs = at[from + 1] - at[from];
    return secs > 0.0 ? static_cast<double>(edges[from + 1] - edges[from]) / secs : 0.0;
  }
};

SustainedResult runSustained(const chem::Scenario& scenario, std::size_t learns,
                             std::size_t maxSteps, std::uint64_t seed,
                             std::size_t replayCapacity, ThreadPool* pool) {
  core::DqnDocking system(benchConfig(0, 0, maxSteps, seed, replayCapacity, true), scenario,
                          pool);
  const std::size_t targets[4] = {learns / 9, 2 * learns / 9, 8 * learns / 9, learns};
  SustainedResult r;
  Stopwatch clock;
  for (std::size_t k = 0; k < 4;) {
    system.trainEpisode();
    ++r.episodes;
    const std::size_t n = system.agent().learnSteps();
    for (; k < 4 && n >= targets[k]; ++k) {
      r.edges[k] = n;
      r.at[k] = clock.seconds();
    }
  }
  r.learnCalls = r.edges[3];
  std::fprintf(stderr, "  %-16s episodes=%zu learns=%zu early %.0f/s late %.0f/s\n",
               "learn-sustained", r.episodes, r.learnCalls, r.rate(0), r.rate(2));
  return r;
}

/// The task-based run (vectorEnvs 0) and a one-env DockingVectorEnv
/// (vectorEnvs 1) must match bit-for-bit: same episode records, same
/// final weights (test_vector_env proves it on the scaled task; this
/// reruns the check on the paper-2BSM geometry the numbers ship from).
bool v1BitIdentical(const chem::Scenario& scenario, std::uint64_t seed, ThreadPool* pool) {
  core::DqnDockingConfig seqCfg = benchConfig(0, 2, 30, seed, 512, /*learning=*/true);
  core::DqnDockingConfig vecCfg = seqCfg;
  vecCfg.vectorEnvs = 1;
  core::DqnDocking seq(seqCfg, scenario, pool);
  core::DqnDocking vec(vecCfg, scenario, pool);
  seq.train();
  vec.train();

  const auto& sr = seq.metrics().records();
  const auto& vr = vec.metrics().records();
  if (sr.size() != vr.size()) return false;
  for (std::size_t i = 0; i < sr.size(); ++i) {
    if (sr[i].totalReward != vr[i].totalReward || sr[i].steps != vr[i].steps ||
        sr[i].finalScore != vr[i].finalScore || sr[i].avgMaxQ != vr[i].avgMaxQ) {
      return false;
    }
  }
  auto sp = seq.agent().online().parameters();
  auto vp = vec.agent().online().parameters();
  if (sp.size() != vp.size()) return false;
  for (std::size_t t = 0; t < sp.size(); ++t) {
    const auto a = sp[t]->flat();
    const auto b = vp[t]->flat();
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto episodes = static_cast<std::size_t>(args.getInt("episodes", 8));
  const auto maxSteps = static_cast<std::size_t>(args.getInt("max-steps", 50));
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 2018));
  const auto replayCapacity = static_cast<std::size_t>(args.getInt("replay", 512));
  const auto learnMaxSteps = static_cast<std::size_t>(args.getInt("learn-max-steps", 10));
  const auto sustainedLearns = static_cast<std::size_t>(args.getInt("sustained-learns", 18000));
  const bool skipIdentity = args.has("skip-identity");

  const core::DqnDockingConfig base = core::DqnDockingConfig::paper2bsm();
  const chem::Scenario scenario = chem::buildScenario(base.scenario);
  ThreadPool pool;

  // --- Collect phase: sequential baseline, then V in {1, 8, 32}. -------
  std::vector<ModeResult> modes;
  modes.push_back(runCollect("sequential", scenario,
                             benchConfig(0, episodes, maxSteps, seed, replayCapacity, false),
                             &pool));
  for (std::size_t v : {1u, 8u, 32u}) {
    // Episode quota >= V keeps the lockstep full for most of the run.
    const std::size_t quota = std::max(episodes, v);
    modes.push_back(runCollect("V=" + std::to_string(v), scenario,
                               benchConfig(v, quota, maxSteps, seed, replayCapacity, false),
                               &pool));
  }

  // --- Learning phase at V=32 vs sequential. SGD cost is per-transition
  // identical in both schedules, so this row shows how much of the
  // collect speedup survives end to end. Both rows run the same episode
  // quota (32 x learn-max-steps transitions) so the learn-call counts
  // match and the comparison is apples to apples.
  // Pool workers that sat idle for a while can wake slowly on a shared
  // VM, and a pooled optimizer step then runs near serial speed for about
  // a second: one discarded learn pass warms them before the timed rows.
  runMode("learn-warmup", scenario,
          benchConfig(0, 32, learnMaxSteps, seed, replayCapacity, true), &pool);
  ModeResult learnSeq = runMode(
      "learn-sequential", scenario,
      benchConfig(0, 32, learnMaxSteps, seed, replayCapacity, true), &pool);
  ModeResult learnVec = runMode(
      "learn-V=32", scenario,
      benchConfig(32, 32, learnMaxSteps, seed, replayCapacity, true), &pool);
  const SustainedResult sustained =
      runSustained(scenario, sustainedLearns, learnMaxSteps, seed, replayCapacity, &pool);

  const bool identical = skipIdentity || v1BitIdentical(scenario, seed, &pool);
  if (!skipIdentity) {
    std::fprintf(stderr, "  v1 bit-identity: %s\n", identical ? "PASS" : "FAIL");
  }

  std::printf("{\n");
#ifdef NDEBUG
  std::printf("  \"dqndock_bench_asserts\": \"off\",\n");
#else
  std::printf("  \"dqndock_bench_asserts\": \"on\",\n");
#endif
  std::printf("  \"dqndock_bench_build_type\": \"%s\",\n", DQNDOCK_BENCH_BUILD_TYPE);
  // One tier runs both kernel families; both keys stay for the schema.
  const char* tier = cpuTierName(activeCpuTier());
  std::printf("  \"dqndock_kernel_tier\": \"%s\",\n", tier);
  std::printf("  \"dqndock_gemm_kernel_tier\": \"%s\",\n", tier);
  // Which way the DQNDOCK_FOLD_STATIC gate resolved for these runs: the
  // learn rows fold the receptor prefix out of the input layer iff "on".
  std::printf("  \"dqndock_fold_static\": \"%s\",\n",
              nn::foldStaticEnabled() ? "on" : "off");
  std::printf("  \"scenario\": \"paper-2BSM (%zu receptor atoms x %zu-atom ligand)\",\n",
              base.scenario.receptorAtoms, base.scenario.ligandAtoms);
  std::printf("  \"max_steps\": %zu,\n", maxSteps);
  std::printf("  \"v1_bit_identity_checked\": %s,\n", skipIdentity ? "false" : "true");
  std::printf("  \"v1_bit_identical\": %s,\n", identical ? "true" : "false");
  std::printf("  \"collect_phase\": [\n");
  for (std::size_t i = 0; i < modes.size(); ++i) printMode(modes[i], i + 1 == modes.size());
  std::printf("  ],\n");
  std::printf("  \"learn_phase\": [\n");
  printMode(learnSeq, false);
  printMode(learnVec, true);
  std::printf("  ],\n");
  std::printf("  \"learn_sustained\": {\"label\": \"learn-sustained\", \"episodes\": %zu, "
              "\"learn_calls\": %zu, \"early_window\": [%zu, %zu], "
              "\"early_learns_per_second\": %.1f, \"late_window\": [%zu, %zu], "
              "\"late_learns_per_second\": %.1f}\n}\n",
              sustained.episodes, sustained.learnCalls, sustained.edges[0], sustained.edges[1],
              sustained.rate(0), sustained.edges[2], sustained.edges[3], sustained.rate(2));
  return identical ? 0 : 1;
}
