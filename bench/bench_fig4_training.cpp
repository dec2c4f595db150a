// Reproduces paper Figure 4: "Training curve tracking the average
// predicted action-value" — the average maximum predicted Q per episode
// over the whole training run.
//
// Paper result (GPU, 1,800 episodes, 2BSM): the series rises to ~35,000
// around episode 500 and then declines to ~27,000 by episode 1,800 — i.e.
// learning clearly happens but convergence is not established.
//
// Expected reproduction shape (CPU, scaled preset): avgMaxQ rises from ~0
// during the pure-exploration phase, peaks after learning kicks in, and
// then plateaus or declines rather than converging monotonically. The
// absolute magnitude differs (it is set by the reward scale and episode
// lengths), but rise-then-non-convergence is the Figure 4 signature.
//
// Usage:
//   bench_fig4_training                    # scaled preset (seconds)
//   bench_fig4_training --episodes=300     # longer run
//   bench_fig4_training --paper-scale      # full Table 1 configuration
//   bench_fig4_training --vector-envs=8    # lockstep vectorized trainer
//   bench_fig4_training --csv=fig4.csv     # dump the series

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/cli.hpp"
#include "src/common/stopwatch.hpp"
#include "src/core/dqn_docking.hpp"

using namespace dqndock;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);

  core::DqnDockingConfig cfg = args.getBool("paper-scale", false)
                                   ? core::DqnDockingConfig::paper2bsm()
                                   : core::DqnDockingConfig::scaled();
  cfg.trainer.episodes =
      static_cast<std::size_t>(args.getInt("episodes", static_cast<long>(cfg.trainer.episodes)));
  cfg.trainer.seed = static_cast<std::uint64_t>(args.getInt("seed", 2018));
  cfg.vectorEnvs =
      static_cast<std::size_t>(args.getInt("vector-envs", static_cast<long>(cfg.vectorEnvs)));
  if (cfg.vectorEnvs >= 1) cfg.compactReplay = false;  // vectorized needs raw-state replay

  std::printf("# Figure 4 reproduction: avg max predicted Q per episode\n");
  std::printf("# preset=%s episodes=%zu stateDim mode=%s\n",
              args.getBool("paper-scale", false) ? "paper2bsm" : "scaled", cfg.trainer.episodes,
              core::stateModeName(cfg.stateMode));

  ThreadPool pool;
  core::DqnDocking system(cfg, &pool);
  std::printf("# state=%zu actions=%d agentParams=%zu\n", system.stateDim(),
              system.actionCount(), system.agent().online().parameterCountTotal());

  Stopwatch clock;
  const std::size_t logEvery = std::max<std::size_t>(1, cfg.trainer.episodes / 30);
  std::printf("%8s %14s %14s %12s %10s %8s\n", "episode", "avgMaxQ", "reward", "bestScore",
              "steps", "eps");
  const auto printRecord = [&](const rl::EpisodeRecord& r) {
    if (r.episode % logEvery == 0 || r.episode + 1 == cfg.trainer.episodes) {
      std::printf("%8zu %14.4f %14.2f %12.2f %10zu %8.3f\n", r.episode, r.avgMaxQ, r.totalReward,
                  r.bestScore, r.steps, r.epsilon);
    }
  };
  // Records stream out of train() in completion order, for any V.
  system.trainer().setEpisodeCallback(printRecord);
  system.train();
  const double elapsed = clock.seconds();

  const rl::MetricsLog& log = system.metrics();
  const std::size_t n = log.size();
  const double early = log.meanAvgMaxQ(0, n / 4);
  const double mid = log.meanAvgMaxQ(n / 4, 3 * n / 4);
  const double late = log.meanAvgMaxQ(3 * n / 4, n);
  std::printf("\n# Figure 4 shape summary (quartile means of avgMaxQ):\n");
  std::printf("#   early  (first quarter): %10.4f\n", early);
  std::printf("#   middle (mid half):      %10.4f\n", mid);
  std::printf("#   late   (last quarter):  %10.4f\n", late);
  std::printf("#   paper shape: rise from start, then plateau/decline (no convergence)\n");
  std::printf("#   reproduced rise:        %s (middle > early)\n", mid > early ? "yes" : "no");
  // The decline: the highest full-window moving mean (the leading partial
  // windows skipped) must end before the last quarter begins. A curve
  // that still climbs at the end peaks inside the last quarter.
  const std::size_t window = std::max<std::size_t>(5, n / 36);
  const std::size_t lastQuarter = 3 * n / 4;
  if (n >= window) {
    const std::vector<double> smoothed = log.smoothedAvgMaxQ(window);
    const auto peak = std::max_element(smoothed.begin() + static_cast<long>(window - 1),
                                       smoothed.end());
    const auto peakEnd = static_cast<std::size_t>(peak - smoothed.begin());
    std::printf("#   peak %zu-episode mean:   %10.4f (episodes %zu-%zu)\n", window, *peak,
                peakEnd + 1 - window, peakEnd);
    std::printf("#   late drop from peak:    %9.1f%%\n", 100.0 * (*peak - late) / std::fabs(*peak));
    std::printf("#   peak before last quarter: %s (the last quarter starts at episode %zu)\n",
                peakEnd < lastQuarter ? "yes" : "no", lastQuarter);
  } else {
    std::printf("#   peak before last quarter: no (fewer than %zu episodes)\n", window);
  }
  std::printf("# best docking score over training: %.2f\n", log.bestScoreOverall());

  const rl::EpisodeRecord greedy = system.evaluateGreedy();
  std::printf("# greedy policy after training: steps=%zu bestScore=%.2f reward=%.1f\n",
              greedy.steps, greedy.bestScore, greedy.totalReward);
  std::printf("# wall-clock: %.1f s (%zu env steps)\n", elapsed, system.trainer().globalStep());

  const std::string csv = args.getString("csv", "");
  if (!csv.empty()) {
    log.writeCsv(csv);
    std::printf("# series written to %s\n", csv.c_str());
  }
  return 0;
}
