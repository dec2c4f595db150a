#include "bench/e2e/sweeps.hpp"

#include <algorithm>
#include <memory>

#include "bench/e2e/serving.hpp"
#include "src/chem/library_io.hpp"
#include "src/core/docking_vector_env.hpp"
#include "src/metadock/vs_pipeline.hpp"
#include "src/nn/optimizer.hpp"

using namespace dqndock;

namespace e2e {
namespace {

/// Median wall time of `fn`, called `n` times, in microseconds.
template <class Fn>
double medianUs(std::size_t n, Fn&& fn) {
  std::vector<double> us;
  us.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    fn(i);
    us.push_back(secondsBetween(t0, Clock::now()) * 1e6);
  }
  return median(std::move(us));
}

void sweepTraining(const Options& options, ThreadPool& pool, SweepInputs& inputs,
                   LayerTimes& out) {
  const std::size_t scale = options.smoke ? 10 : 1;
  std::unique_ptr<core::DqnDocking> ownSystem;
  core::DqnDocking* system = inputs.system;
  if (system == nullptr) {
    ownSystem = std::make_unique<core::DqnDocking>(paperTrainingConfig(), &pool);
    system = ownSystem.get();
  }
  rl::DqnAgent& agent = system->agent();
  core::DockingTask& task = system->task();
  Rng rng(deriveSeed(options.seed, 10));

  // The sequential trainer's step loop with random actions: one-state
  // forward, DockingTask::step, ReplayBuffer::push into a spare ring.
  // Interleaved as in the trainer, so each call sees the caches the
  // others leave behind rather than a hot loop's.
  rl::ReplayBuffer spare(4096, task.stateDim());
  std::vector<double> state, next;
  task.reset(state);
  std::vector<double> forwardUs, stepUs, pushUs;
  for (std::size_t i = 0; i < 400 / scale; ++i) {
    const int action =
        static_cast<int>(rng.uniformInt(static_cast<std::uint64_t>(task.actionCount())));
    const auto t0 = Clock::now();
    (void)agent.qValues(state);
    const auto t1 = Clock::now();
    const rl::EnvStep step = task.step(action, next);
    const auto t2 = Clock::now();
    spare.push(state, action, step.reward, next, step.terminal);
    const auto t3 = Clock::now();
    forwardUs.push_back(secondsBetween(t0, t1) * 1e6);
    stepUs.push_back(secondsBetween(t1, t2) * 1e6);
    pushUs.push_back(secondsBetween(t2, t3) * 1e6);
    state = next;
    if (step.terminal) task.reset(state);
  }
  out.predict1Us = median(forwardUs);
  out.envStepUs = median(stepUs);
  out.replayPushUs = median(pushUs);

  rl::ReplayBuffer& source = inputs.replay != nullptr ? *inputs.replay : spare;
  const std::size_t batch = agent.config().batchSize;
  rl::Minibatch mb;
  out.replaySampleUs =
      medianUs(1000 / scale, [&](std::size_t) { source.sampleInto(mb, batch, rng); });

  // Learn-stage sweep on a clone of the online net with a fresh optimizer
  // of the agent's kind: target predict, online forward, backward,
  // optimizer step — the stages DqnAgent::learn runs.
  std::unique_ptr<rl::QNetwork> net = agent.online().clone();
  std::unique_ptr<nn::Optimizer> optimizer =
      nn::makeOptimizer(agent.config().optimizer, agent.config().learningRate);
  nn::Tensor nextQ;
  nn::Tensor dq(batch, static_cast<std::size_t>(agent.actionCount()));
  std::vector<double> targetUs, onlineUs, backwardUs, optimizerUs;
  const std::size_t warm = 3;
  for (std::size_t it = 0; it < warm + 60 / scale; ++it) {
    const auto t0 = Clock::now();
    agent.target().predict(mb.nextStates, nextQ);
    const auto t1 = Clock::now();
    const nn::Tensor& qOnline = net->forward(mb.states);
    const auto t2 = Clock::now();
    dq.fill(0.0);
    for (std::size_t b = 0; b < batch; ++b) {
      double best = nextQ(b, 0);
      for (std::size_t c = 1; c < nextQ.cols(); ++c) best = std::max(best, nextQ(b, c));
      const auto a = static_cast<std::size_t>(mb.actions[b]);
      const double y = mb.rewards[b] + (mb.terminals[b] ? 0.0 : agent.config().gamma * best);
      dq(b, a) = std::clamp(qOnline(b, a) - y, -1.0, 1.0) / static_cast<double>(batch);
    }
    const auto t3 = Clock::now();
    net->zeroGrad();
    net->backward(dq);
    const auto t4 = Clock::now();
    optimizer->step(net->parameters(), net->gradients(), net->factoredGrad());
    const auto t5 = Clock::now();
    if (it < warm) continue;  // first steps allocate optimizer state
    targetUs.push_back(secondsBetween(t0, t1) * 1e6);
    onlineUs.push_back(secondsBetween(t1, t2) * 1e6);
    backwardUs.push_back(secondsBetween(t3, t4) * 1e6);
    optimizerUs.push_back(secondsBetween(t4, t5) * 1e6);
  }
  out.targetPredictMs = median(targetUs) * 1e-3;
  out.onlineForwardMs = median(onlineUs) * 1e-3;
  out.backwardMs = median(backwardUs) * 1e-3;
  out.optimizerStepMs = median(optimizerUs) * 1e-3;

  // Whole learn calls on the agent itself (after the measured window, so
  // mutating it is harmless).
  for (std::size_t i = 0; i < warm; ++i) agent.learn(source, rng);
  out.learnMs = medianUs(150 / scale, [&](std::size_t) { agent.learn(source, rng); }) * 1e-3;

  // The vectorized trainer's lockstep loop with random actions: one
  // batched forward over the 32 current states, then the lockstep step.
  std::unique_ptr<core::DockingVectorEnv> ownVenv;
  core::DockingVectorEnv* venv = system->vectorEnv();
  if (venv == nullptr) {
    ownVenv = std::make_unique<core::DockingVectorEnv>(system->scenario(), system->config().env,
                                                       system->encoder(), 32, &pool);
    ownVenv->setDynamicStates(system->foldActive());
    venv = ownVenv.get();
  }
  const std::size_t v = venv->size();
  nn::Tensor states(v, venv->stateDim());
  std::vector<int> actions(v);
  std::vector<rl::EnvStep> results(v);
  nn::Tensor q;
  for (std::size_t i = 0; i < v; ++i) venv->reset(i, states.row(i));
  std::vector<double> batchUs, venvUs;
  for (std::size_t it = 0; it < warm + 100 / scale; ++it) {
    for (int& a : actions) {
      a = static_cast<int>(rng.uniformInt(static_cast<std::uint64_t>(venv->actionCount())));
    }
    const auto t0 = Clock::now();
    agent.qValuesBatch(states, q);
    const auto t1 = Clock::now();
    venv->step(actions, states, results);
    const auto t2 = Clock::now();
    for (std::size_t i = 0; i < v; ++i) {
      if (results[i].terminal) venv->reset(i, states.row(i));
    }
    if (it < warm) continue;
    batchUs.push_back(secondsBetween(t0, t1) * 1e6);
    venvUs.push_back(secondsBetween(t1, t2) * 1e6);
  }
  out.batch32PredictUs = median(batchUs);
  out.venvStepUs = median(venvUs);

  // A dock step's environment work as the service runs it: scoring fanned
  // out over the pool, then the dynamic-suffix encode.
  metadock::EnvConfig serveEnv = core::DqnDockingConfig::paper2bsm().env;
  serveEnv.scoring.pool = &pool;
  metadock::DockingEnv env(system->scenario(), serveEnv);
  env.reset();
  out.serveEnvStepUs = medianUs(400 / scale, [&](std::size_t) {
    if (env.terminated()) env.reset();
    env.step(static_cast<int>(rng.uniformInt(static_cast<std::uint64_t>(env.actionCount()))));
    system->encoder().encodeDynamicFromPositions(env.ligandPositions(), state);
  });
}

void sweepServing(const Options& options, ThreadPool& pool, SweepInputs& inputs,
                  LayerTimes& out) {
  std::unique_ptr<ServingStack> ownStack;
  serve::DockingService* service = inputs.service;
  if (service == nullptr) {
    const chem::Scenario scenario = chem::buildScenario(chem::ScenarioSpec::paper2bsm());
    ownStack = buildServingStack(scenario, {"sweep"}, /*withGateway=*/false, pool);
    service = ownStack->pools.front().service.get();
  }
  if (inputs.directDockMs.empty()) {
    for (std::size_t i = 0; i < (options.smoke ? 2u : 16u); ++i) {
      const auto t0 = Clock::now();
      const serve::SubmitResult submitted =
          service->submitDock(dockRequest(deriveSeed(options.seed, 1000 + i)));
      if (submitted.accepted()) service->wait(submitted.jobId);
      inputs.directDockMs.push_back(secondsBetween(t0, Clock::now()) * 1e3);
    }
  }
  out.directDockMs = median(inputs.directDockMs);

  out.directScreenMs = medianUs(options.smoke ? 1 : 3, [&](std::size_t i) {
    const serve::SubmitResult submitted =
        service->submitScreen(screenRequest(deriveSeed(options.seed, 2000 + i), options.smoke));
    if (submitted.accepted()) service->wait(submitted.jobId);
  }) * 1e-3;
}

void sweepScreening(const Options& options, SweepInputs& inputs, LayerTimes& out) {
  constexpr std::size_t kChunk = 8;
  // Per-ligand cost varies several-fold with ligand size, so windows are
  // spread evenly over the library and the mean (what a worker's busy
  // time sums) is reported, not the median.
  const std::size_t windows = options.smoke ? 2 : 16;
  std::string path = inputs.libraryPath;
  if (path.empty()) {
    path = options.workDir + "/sweep-library.smi";
    chem::writeSyntheticLibraryFile(path, windows * kChunk, 8, 20, deriveSeed(options.seed, 12));
  }
  const screen::ScreenJobConfig config = screenJobConfig(path);
  metadock::ScreeningOptions screening = config.screeningOptions();
  if (options.smoke) screening.evaluationsPerLigand = 20;
  const chem::Molecule receptor = screen::loadReceptor(config);
  chem::LigandLibraryReader reader(path);
  const std::size_t stride = std::max<std::size_t>(1, reader.size() / kChunk / windows) * kChunk;

  // Forward reads in screen order, and the pool shape (2 threads) of a
  // screen-dist worker.
  ThreadPool workerPool(2);
  std::vector<double> readMs, screenMs;
  for (std::size_t begin = 0; begin + kChunk <= reader.size() && readMs.size() < windows;
       begin += stride) {
    const auto t0 = Clock::now();
    const std::vector<chem::Molecule> window = reader.read(begin, begin + kChunk);
    const auto t1 = Clock::now();
    (void)metadock::screenLibrarySlice(receptor, window, begin, screening, &workerPool);
    const auto t2 = Clock::now();
    readMs.push_back(secondsBetween(t0, t1) * 1e3);
    screenMs.push_back(secondsBetween(t1, t2) * 1e3 / static_cast<double>(kChunk));
  }
  out.libraryReadMsPerChunk = mean(readMs);
  out.screenMsPerLigand = mean(screenMs);
}

}  // namespace

LayerTimes runLayerSweeps(const Options& options, ThreadPool& pool, SweepInputs& inputs) {
  LayerTimes out;
  sweepTraining(options, pool, inputs, out);
  sweepServing(options, pool, inputs, out);
  sweepScreening(options, inputs, out);
  return out;
}

void reportLayerTimes(const LayerTimes& layers, Result& result) {
  result.metric("rl.learn_ms", layers.learnMs, "ms");
  result.metric("rl.replay_sample_us", layers.replaySampleUs, "us");
  result.metric("rl.replay_push_us", layers.replayPushUs, "us");
  result.metric("nn.target_predict_ms", layers.targetPredictMs, "ms");
  result.metric("nn.online_forward_ms", layers.onlineForwardMs, "ms");
  result.metric("nn.backward_ms", layers.backwardMs, "ms");
  result.metric("nn.optimizer_step_ms", layers.optimizerStepMs, "ms");
  const double stages = layers.replaySampleUs * 1e-3 + layers.targetPredictMs +
                        layers.onlineForwardMs + layers.backwardMs + layers.optimizerStepMs;
  result.metric("nn.learn_stage_coverage", layers.learnMs > 0.0 ? stages / layers.learnMs : 0.0,
                "share");
  result.metric("nn.predict1_us", layers.predict1Us, "us");
  result.metric("nn.batch32_predict_us", layers.batch32PredictUs, "us");
  result.metric("core.env_step_us", layers.envStepUs, "us");
  result.metric("core.venv_step_us", layers.venvStepUs, "us");
  result.metric("serve.env_step_us", layers.serveEnvStepUs, "us");
  result.metric("serve.direct_dock_ms", layers.directDockMs, "ms");
  result.metric("serve.direct_screen_ms", layers.directScreenMs, "ms");
  result.metric("chem.library_read_ms_per_chunk", layers.libraryReadMsPerChunk, "ms");
  result.metric("metadock.screen_ms_per_ligand", layers.screenMsPerLigand, "ms");
}

}  // namespace e2e
