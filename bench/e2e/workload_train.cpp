// train-learn and collect-v32: the paper-2BSM trainer at Table 1 dims,
// driven by a bench-built rl::Trainer through the forwarding wrappers of
// trace.hpp so every environment step, replay push and replay sample is
// observable. A gate proves the wrappers change nothing: the same
// configuration through DqnDocking::train() gives bit-identical episode
// records and final weights.

#include <algorithm>
#include <memory>

#include "bench/e2e/sweeps.hpp"
#include "bench/e2e/trace.hpp"
#include "bench/e2e/workloads.hpp"
#include "src/core/dqn_docking.hpp"

using namespace dqndock;

namespace e2e {
namespace {

/// A bench-built trainer over one DqnDocking system's env and agent,
/// with a bench-owned replay buffer. `trainer.seed` drives exploration
/// (the system's own seed set its initial weights).
struct WrappedTrainer {
  SpanLog log;
  std::unique_ptr<rl::ReplayBuffer> replay;
  std::unique_ptr<TracedReplay> tracedReplay;
  std::unique_ptr<TracedEnv> env;
  std::unique_ptr<TracedVectorEnv> venv;
  std::unique_ptr<rl::Trainer> trainer;

  // The wrappers hold references to `log` and `replay`: never copied or moved.
  WrappedTrainer(const WrappedTrainer&) = delete;
  WrappedTrainer& operator=(const WrappedTrainer&) = delete;

  WrappedTrainer(core::DqnDocking& system, const core::DqnDockingConfig& cfg,
                 const rl::TrainerConfig& trainerConfig) {
    if (system.vectorEnv() != nullptr) {
      venv = std::make_unique<TracedVectorEnv>(*system.vectorEnv(), log);
      replay = std::make_unique<rl::ReplayBuffer>(cfg.replayCapacity, venv->stateDim());
    } else {
      env = std::make_unique<TracedEnv>(system.task(), log);
      replay = std::make_unique<rl::ReplayBuffer>(cfg.replayCapacity, env->stateDim());
    }
    tracedReplay = std::make_unique<TracedReplay>(*replay, log);
    if (venv) {
      trainer = std::make_unique<rl::Trainer>(*venv, system.agent(), *tracedReplay,
                                              *tracedReplay, trainerConfig);
    } else {
      trainer = std::make_unique<rl::Trainer>(*env, system.agent(), *tracedReplay,
                                              *tracedReplay, trainerConfig);
    }
  }

  /// One unit of trainer progress: an episode (sequential) or one run()
  /// pass of config.episodes episodes (vectorized).
  void advance() {
    if (venv) {
      trainer->run();
    } else {
      trainer->runEpisode();
    }
  }

  /// Start of every env step (sequential) or lockstep step (vectorized).
  const std::vector<Clock::time_point>& stepStarts() const {
    return venv ? venv->stepStarts() : env->stepStarts();
  }
};

/// Step-to-step times within each unit ([begin, end) into `starts`),
/// their p-th percentile per unit, and the median of those over units:
/// robust to the odd slow unit and to how many steps a unit has.
double medianOfUnitPercentiles(const std::vector<Clock::time_point>& starts,
                               const std::vector<std::pair<std::size_t, std::size_t>>& units,
                               double p) {
  std::vector<double> perUnit;
  for (const auto& [begin, end] : units) {
    std::vector<double> ms;
    for (std::size_t i = begin + 1; i < end; ++i) {
      ms.push_back(secondsBetween(starts[i - 1], starts[i]) * 1e3);
    }
    if (!ms.empty()) perUnit.push_back(percentile(std::move(ms), p));
  }
  return median(std::move(perUnit));
}

bool sameRecords(const std::vector<rl::EpisodeRecord>& a,
                 const std::vector<rl::EpisodeRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].episode != b[i].episode || a[i].steps != b[i].steps ||
        a[i].totalReward != b[i].totalReward || a[i].avgMaxQ != b[i].avgMaxQ ||
        a[i].finalScore != b[i].finalScore || a[i].bestScore != b[i].bestScore ||
        a[i].epsilon != b[i].epsilon || a[i].terminationCode != b[i].terminationCode) {
      return false;
    }
  }
  return true;
}

bool sameWeights(const rl::QNetwork& a, const rl::QNetwork& b) {
  // parameters() is non-const; compare deep copies instead.
  const auto ca = a.clone();
  const auto cb = b.clone();
  const auto pa = ca->parameters();
  const auto pb = cb->parameters();
  if (pa.size() != pb.size()) return false;
  for (std::size_t t = 0; t < pa.size(); ++t) {
    const auto fa = pa[t]->flat();
    const auto fb = pb[t]->flat();
    if (fa.size() != fb.size()) return false;
    for (std::size_t i = 0; i < fa.size(); ++i) {
      if (fa[i] != fb[i]) return false;
    }
  }
  return true;
}

/// The wrappers only forward: a recording bench trainer must reproduce
/// DqnDocking::train() bit for bit (episode records, online and target
/// weights).
bool wrappersForwardOnly(const core::DqnDockingConfig& cfg, ThreadPool& pool) {
  core::DqnDocking reference(cfg, &pool);
  reference.train();
  core::DqnDocking subject(cfg, &pool);
  WrappedTrainer wrapped(subject, cfg, cfg.trainer);
  wrapped.log.setRecording(true);
  wrapped.trainer->run();
  return sameRecords(reference.metrics().records(), wrapped.trainer->metrics().records()) &&
         sameWeights(reference.agent().online(), subject.agent().online()) &&
         sameWeights(reference.agent().target(), subject.agent().target());
}

Result runTrainer(const Options& options, ThreadPool& pool, bool vectorized) {
  Result result;
  core::DqnDockingConfig cfg = paperTrainingConfig();
  if (vectorized) {
    cfg.vectorEnvs = 32;
    // Learning off for the whole run: the Table 1 pre-learning prefix.
    cfg.trainer.learningStart = std::size_t{1} << 40;
    // One run() pass = 32 more episodes, ~50 lockstep steps.
    cfg.trainer.episodes = 32;
  }
  if (options.smoke) cfg.env.maxSteps = 10;

  std::unique_ptr<core::DqnDocking> system;
  const double setupSeconds = timedSetup(
      kSetupRepeats, [&] { return std::make_unique<core::DqnDocking>(cfg, &pool); }, system);

  rl::TrainerConfig exploration = cfg.trainer;
  exploration.seed = deriveSeed(options.seed, 1);
  WrappedTrainer wrapped(*system, cfg, exploration);
  // Warm-up outside the timing: the first learn calls allocate the
  // learn-phase buffers and build the fold caches.
  const std::size_t warmupTransitions = vectorized ? 1 : cfg.trainer.learningStart + 32;
  while (wrapped.trainer->globalStep() < warmupTransitions) wrapped.advance();

  // Measured window. A traced run alternates recording per unit of
  // progress, so the unrecorded units give the tracing overhead.
  const std::size_t firstTransition = wrapped.trainer->globalStep();
  double recordedSeconds = 0.0, plainSeconds = 0.0;
  std::size_t recordedTransitions = 0, plainTransitions = 0;
  std::vector<std::pair<std::size_t, std::size_t>> units;  // step ranges
  const auto start = Clock::now();
  auto now = start;
  for (std::size_t unit = 0; secondsBetween(start, now) < options.seconds; ++unit) {
    const bool record = options.traced && unit % 2 == 1;
    wrapped.log.setRecording(record);
    const std::size_t before = wrapped.trainer->globalStep();
    const std::size_t firstStep = wrapped.stepStarts().size();
    const std::uint64_t parent = wrapped.log.open(vectorized ? "collect.pass" : "episode", now);
    wrapped.advance();
    const auto end = Clock::now();
    wrapped.log.close(parent, end);
    const std::size_t done = wrapped.trainer->globalStep() - before;
    (record ? recordedSeconds : plainSeconds) += secondsBetween(now, end);
    (record ? recordedTransitions : plainTransitions) += done;
    units.emplace_back(firstStep, wrapped.stepStarts().size());
    now = end;
  }
  wrapped.log.setRecording(false);
  const double window = secondsBetween(start, now);
  const std::size_t transitions = wrapped.trainer->globalStep() - firstTransition;
  const double rssMb = peakRssMb();

  // Latency of one step: sequential, a trainer step (action selection,
  // env step, replay push, learn call); vectorized, a lockstep step over
  // 32 envs (batched forward, action selection, batched scoring, 32
  // pushes). Percentiles are taken within each episode / collect pass and
  // the median over them is reported: single ~0.3 ms lockstep steps swing
  // with pool wake-ups, and a pooled tail with the odd slow pass.
  const double p50 = medianOfUnitPercentiles(wrapped.stepStarts(), units, 50.0);
  const double p90 = medianOfUnitPercentiles(wrapped.stepStarts(), units, 90.0);

  result.attempted = transitions;
  result.note("window_s", std::to_string(window));
  result.note("transitions", std::to_string(transitions));
  result.note("latency_units", std::to_string(units.size()));
  result.note("learn_calls", std::to_string(system->agent().learnSteps()));
  result.note("fold_active", system->foldActive() ? "true" : "false");
  result.note("state_dim", std::to_string(system->stateDim()));

  // Gate on a short fixed run: same config, fresh systems.
  core::DqnDockingConfig gateCfg = cfg;
  gateCfg.trainer.episodes = vectorized ? 32 : 2;
  if (vectorized) gateCfg.env.maxSteps = options.smoke ? 5 : 10;
  result.gate("trainer_wrappers_bit_identical", wrappersForwardOnly(gateCfg, pool));

  result.metric("setup_s", setupSeconds, "s");
  result.metric("peak_rss_mb", rssMb, "MB");
  result.metric("work_per_s", static_cast<double>(transitions) / window, "1/s");
  result.metric("latency_p50_ms", p50, "ms");
  result.metric("latency_tail_ms", p90, "ms");
  result.note("tail_percentile", "90");

  if (options.traced) {
    SweepInputs inputs;
    inputs.system = system.get();
    inputs.replay = wrapped.replay.get();
    const LayerTimes layers = runLayerSweeps(options, pool, inputs);
    reportLayerTimes(layers, result);

    const SpanLog& log = wrapped.log;
    const auto share = [&](double seconds) {
      return recordedSeconds > 0.0 ? seconds / recordedSeconds : 0.0;
    };
    const double envSeconds = log.totalSeconds("env.step") + log.totalSeconds("env.reset") +
                              log.totalSeconds("venv.step") + log.totalSeconds("venv.reset");
    const double replaySeconds =
        log.totalSeconds("replay.push") + log.totalSeconds("replay.sample");
    // Counted calls x swept cost: the learn compute outside sampling, and
    // the action-selection forwards (sequential: maxQ plus the greedy
    // forward on the 1 - epsilon share of steps; vectorized: one batched
    // forward per lockstep step).
    const double learnSeconds =
        static_cast<double>(log.count("replay.sample")) *
        std::max(0.0, layers.learnMs * 1e-3 - layers.replaySampleUs * 1e-6);
    const double epsilon = cfg.trainer.epsilon.end();
    const double forwardSeconds =
        vectorized ? static_cast<double>(log.count("venv.step")) * layers.batch32PredictUs * 1e-6
                   : static_cast<double>(log.count("env.step")) * (2.0 - epsilon) *
                         layers.predict1Us * 1e-6;
    result.metric("core.env_share", share(envSeconds), "share");
    result.metric("rl.replay_share", share(replaySeconds), "share");
    result.metric("rl.learn_share", share(learnSeconds), "share");
    result.metric("nn.qforward_share", share(forwardSeconds), "share");
    result.metric("trace.attributed_share",
                  share(envSeconds + replaySeconds + learnSeconds + forwardSeconds), "share");
    const auto rate = [](std::size_t n, double s) { return s > 0.0 ? n / s : 0.0; };
    const double plainRate = rate(plainTransitions, plainSeconds);
    const double recordedRate = rate(recordedTransitions, recordedSeconds);
    result.metric("trace.overhead_share",
                  recordedRate > 0.0 && plainRate > 0.0 ? plainRate / recordedRate - 1.0 : 0.0,
                  "share");
    if (!options.traceOut.empty()) log.dump(options.traceOut);
  }
  return result;
}

}  // namespace

Result runTrainLearn(const Options& options, ThreadPool& pool) {
  return runTrainer(options, pool, /*vectorized=*/false);
}

Result runCollectV32(const Options& options, ThreadPool& pool) {
  return runTrainer(options, pool, /*vectorized=*/true);
}

}  // namespace e2e
