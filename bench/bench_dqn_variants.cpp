// Ablation A4 (paper Section 5, limitation 4): "there exists new versions
// of this algorithm ... such as DDQN, distributional DQN, dueling DDQN";
// the authors leave exploring them as future work. Trains each variant on
// the same scaled docking task through the same rl::Trainer, so the rows
// differ only in the agent, and reports the Figure 4 quartile shape,
// best docking score and greedy-policy outcome per variant.
//
// Usage: bench_dqn_variants [--episodes=60] [--seed=3]

#include <cstdio>

#include "src/common/cli.hpp"
#include "src/common/stopwatch.hpp"
#include "src/core/dqn_docking.hpp"
#include "src/rl/c51_agent.hpp"

using namespace dqndock;

namespace {

struct VariantSpec {
  const char* name;
  rl::DqnVariant variant;
  bool dueling;
};

void printRow(const char* name, const rl::MetricsLog& log, const rl::EpisodeRecord& greedy,
              double seconds) {
  const std::size_t n = log.size();
  std::printf("%-14s %12.4f %12.4f %12.4f %12.2f %12.2f %8.1f\n", name,
              log.meanAvgMaxQ(0, n / 4), log.meanAvgMaxQ(n / 4, 3 * n / 4),
              log.meanAvgMaxQ(3 * n / 4, n), log.bestScoreOverall(), greedy.bestScore, seconds);
}

/// Distributional DQN (the third Section 5 variant): C51Agent on the task,
/// replay and Trainer schedule the DQN rows get from core::DqnDocking.
void runC51Row(const core::DqnDockingConfig& cfg, ThreadPool* pool) {
  Stopwatch clock;
  const chem::Scenario scenario = chem::buildScenario(cfg.scenario);
  metadock::DockingEnv env(scenario, cfg.env);
  core::StateEncoder encoder(scenario, cfg.stateMode, cfg.normalizeStates);
  core::DockingTask task(env, encoder);

  Rng rng(cfg.trainer.seed);
  rl::C51Config c51;
  c51.hiddenSizes = cfg.agent.hiddenSizes;
  c51.batchSize = cfg.agent.batchSize;
  c51.gamma = cfg.agent.gamma;
  c51.targetSyncInterval = cfg.agent.targetSyncInterval;
  c51.optimizer = "adam";
  c51.learningRate = 0.001;
  c51.vMin = -10.0;
  c51.vMax = 10.0;
  rl::C51Agent agent(encoder.dim(), env.actionCount(), c51, rng, pool);
  core::PoseReplayBuffer replay(cfg.replayCapacity, task);

  rl::Trainer trainer(task, agent, replay, replay, cfg.trainer);
  trainer.run();
  const rl::EpisodeRecord greedy = trainer.evaluateGreedy();
  printRow("c51", trainer.metrics(), greedy, clock.seconds());
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto episodes = static_cast<std::size_t>(args.getInt("episodes", 60));
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 3));

  const VariantSpec variants[] = {
      {"dqn (paper)", rl::DqnVariant::kVanilla, false},
      {"double-dqn", rl::DqnVariant::kDouble, false},
      {"dueling-dqn", rl::DqnVariant::kVanilla, true},
      {"dueling-ddqn", rl::DqnVariant::kDouble, true},
  };

  ThreadPool pool;
  std::printf("# DQN variant ablation on the scaled docking task (%zu episodes, seed %zu)\n",
              episodes, static_cast<std::size_t>(seed));
  std::printf("%-14s %12s %12s %12s %12s %12s %8s\n", "variant", "earlyQ", "midQ", "lateQ",
              "bestScore", "greedyBest", "sec");

  core::DqnDockingConfig cfg = core::DqnDockingConfig::scaled();
  cfg.trainer.episodes = episodes;
  cfg.trainer.seed = seed;
  for (const auto& spec : variants) {
    core::DqnDockingConfig variantCfg = cfg;
    variantCfg.agent.variant = spec.variant;
    variantCfg.agent.dueling = spec.dueling;

    Stopwatch clock;
    core::DqnDocking system(variantCfg, &pool);
    system.train();
    const rl::EpisodeRecord greedy = system.evaluateGreedy();
    printRow(spec.name, system.metrics(), greedy, clock.seconds());
  }
  runC51Row(cfg, &pool);

  std::printf("# paper context: only vanilla DQN was evaluated; the variants are the\n"
              "# Section 5 future-work candidates, reproduced here as an ablation.\n");
  return 0;
}
