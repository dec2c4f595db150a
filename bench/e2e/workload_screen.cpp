// screen-dist: an in-process ScreenCoordinator and two ScreenWorkers
// (each with its own 2-thread pool) over loopback, fault-free, screening
// a synthetic SMILES library generated from the seed. Latency is the
// completion time of the library's ligands, counted from job start: the
// time by which half, and nine tenths, of the library were screened.
// The merged report must be byte-identical to a single-process screen.

#include <cmath>
#include <memory>
#include <thread>

#include "bench/e2e/serving.hpp"
#include "bench/e2e/sweeps.hpp"
#include "bench/e2e/workloads.hpp"
#include "src/chem/library_io.hpp"
#include "src/screen/coordinator.hpp"
#include "src/screen/hit_codec.hpp"
#include "src/screen/worker.hpp"

using namespace dqndock;

namespace e2e {

screen::ScreenJobConfig screenJobConfig(const std::string& libraryPath) {
  screen::ScreenJobConfig config;
  config.libraryPath = libraryPath;
  config.scenario = "paper2bsm";
  config.searchPreset = "monte-carlo";
  config.evaluationsPerLigand = 150;
  config.refineWithGradient = true;
  config.clusterModes = true;
  config.hitThreshold = 200.0;
  config.topK = 0;  // full ranking, so the whole report is compared
  config.shardSize = 64;
  config.chunkSize = 8;
  // Fault-free workload: no lease may lapse on a loaded host.
  config.leaseTimeoutSeconds = 60.0;
  return config;
}

namespace {

constexpr std::size_t kWorkers = 2;
/// Library ligands per measured second (1,500 at 10 s).
constexpr double kLigandsPerSecond = 150.0;

bool sameReport(const metadock::ScreeningReport& a, const metadock::ScreeningReport& b) {
  if (a.ranked.size() != b.ranked.size() || a.hitCount != b.hitCount ||
      a.totalEvaluations != b.totalEvaluations) {
    return false;
  }
  for (std::size_t i = 0; i < a.ranked.size(); ++i) {
    // encodeHit is the lossless (%.17g) codec the journal and the wire use.
    if (screen::encodeHit(a.ranked[i]) != screen::encodeHit(b.ranked[i])) return false;
  }
  return true;
}

/// Time (from job start) by which `share` of the library was done.
double completionMs(const std::vector<std::pair<double, std::size_t>>& progress,
                    std::size_t library, double share) {
  const auto needed = static_cast<std::size_t>(std::ceil(share * static_cast<double>(library)));
  for (const auto& [ms, done] : progress) {
    if (done >= needed) return ms;
  }
  return progress.empty() ? 0.0 : progress.back().first;
}

}  // namespace

Result runScreenDist(const Options& options, ThreadPool& pool) {
  Result result;
  const std::size_t ligands =
      options.smoke ? 48 : static_cast<std::size_t>(kLigandsPerSecond * options.seconds);
  const std::string path =
      options.workDir + "/screen-dist-" + std::to_string(options.seed) + ".smi";
  screen::ScreenJobConfig config = screenJobConfig(path);
  if (options.smoke) {
    config.evaluationsPerLigand = 20;
    config.shardSize = 16;
  }

  // Set-up: generate and write the library, open the coordinator (which
  // scans the library and builds the shard set).
  std::unique_ptr<screen::ScreenCoordinator> coordinator;
  const double setupSeconds = timedSetup(
      kSetupRepeats,
      [&] {
        chem::writeSyntheticLibraryFile(path, ligands, 8, 20, deriveSeed(options.seed, 5));
        return std::make_unique<screen::ScreenCoordinator>(config);
      },
      coordinator);

  std::vector<std::unique_ptr<ThreadPool>> workerPools;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workerPools.push_back(std::make_unique<ThreadPool>(2));
  }

  const auto start = Clock::now();
  std::vector<screen::WorkerStats> workerStats(kWorkers);
  std::vector<std::jthread> workers;  // joined on every exit path
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      screen::WorkerOptions workerOptions;
      workerOptions.id = "bench-" + std::to_string(w);
      workerOptions.pool = workerPools[w].get();
      workerStats[w] = screen::ScreenWorker(coordinator->port(), workerOptions).run();
    });
  }
  // Progress polling: (ms since start, ligands covered) at each change.
  std::vector<std::pair<double, std::size_t>> progress;
  std::size_t lastDone = 0;
  for (bool done = false; !done;) {
    done = coordinator->waitUntilDone(0.002);
    const std::size_t covered = coordinator->stats().ligandsDone;
    if (covered != lastDone) {
      progress.emplace_back(secondsBetween(start, Clock::now()) * 1e3, covered);
      lastDone = covered;
    }
  }
  const double window = secondsBetween(start, Clock::now());
  for (std::jthread& t : workers) t.join();
  const double rssMb = peakRssMb();
  const screen::CoordinatorStats stats = coordinator->stats();
  const metadock::ScreeningReport distributed = coordinator->report();
  coordinator->stop();

  result.attempted = ligands;
  result.failed = ligands - std::min(ligands, stats.ligandsDone);
  bool workersClean = true;
  std::size_t chunks = 0;
  for (const screen::WorkerStats& s : workerStats) {
    workersClean = workersClean && s.error.empty() && s.finished && !s.aborted;
    chunks += s.chunksScreened;
  }
  result.note("ligands", std::to_string(ligands));
  result.note("window_s", std::to_string(window));
  result.note("shards_done", std::to_string(stats.shardsDone));
  result.gate("workers_finished_cleanly", workersClean);

  // The merged report must equal a single-process screen of the same
  // library byte for byte (after the timed window).
  {
    const auto t0 = Clock::now();
    chem::LigandLibraryReader reader(path);
    const std::vector<chem::Molecule> library = reader.readAll();
    const metadock::ScreeningReport single = metadock::screenLibrary(
        screen::loadReceptor(config), library, config.screeningOptions(), &pool);
    result.note("single_process_s", std::to_string(secondsBetween(t0, Clock::now())));
    result.gate("distributed_report_identical_to_single_process",
                sameReport(distributed, single));
  }

  result.metric("setup_s", setupSeconds, "s");
  result.metric("peak_rss_mb", rssMb, "MB");
  result.metric("work_per_s", static_cast<double>(ligands) / window, "1/s");
  result.metric("latency_p50_ms", completionMs(progress, ligands, 0.5), "ms");
  result.metric("latency_tail_ms", completionMs(progress, ligands, 0.9), "ms");
  result.note("tail_percentile", "90");

  if (options.traced) {
    SweepInputs inputs;
    inputs.libraryPath = path;
    const LayerTimes layers = runLayerSweeps(options, pool, inputs);
    reportLayerTimes(layers, result);
    // Worker busy time = ligands x swept screen cost + chunks x swept read
    // cost (counted x swept, not spans); the rest is protocol and idle.
    const double busy = static_cast<double>(ligands) * layers.screenMsPerLigand * 1e-3 +
                        static_cast<double>(chunks) * layers.libraryReadMsPerChunk * 1e-3;
    const double busyShare = busy / (static_cast<double>(kWorkers) * window);
    result.metric("screen.worker_busy_share", busyShare, "share");
    result.metric("trace.attributed_share", busyShare, "share");
    result.metric("screen.requests_per_ligand",
                  static_cast<double>(stats.requests) / static_cast<double>(ligands), "count");
    result.metric("screen.shards_stolen", static_cast<double>(stats.shardsStolen), "count");
    result.metric("screen.leases_expired", static_cast<double>(stats.leasesExpired), "count");
    result.metric("screen.results_stale", static_cast<double>(stats.resultsStale), "count");
    // Progress polling is the same traced or not.
    result.metric("trace.overhead_share", 0.0, "share");
  }
  return result;
}

}  // namespace e2e
