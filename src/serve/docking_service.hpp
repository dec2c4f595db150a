#pragma once

/// \file docking_service.hpp
/// Docking-as-a-service: a worker pool executing dock (greedy/epsilon
/// policy rollout) and screen (vs_pipeline) jobs against the current
/// registry model. Admission goes through the bounded JobQueue
/// (backpressure + priorities); per-step Q evaluation goes through the
/// shared InferenceBatcher, inside an InferenceBatcher::Rollout, so
/// concurrent rollouts coalesce their forward passes into GEMM-friendly
/// batches that flush as soon as every rollout in progress has a row
/// queued. A dock step scores its one pose on its own worker thread;
/// only screens fan out over the thread pool. Workers poll job
/// cancellation flags and per-job deadlines between environment steps,
/// so a stuck or abandoned request never pins a worker.

#include <memory>
#include <thread>
#include <unordered_map>

#include "src/common/stopwatch.hpp"
#include "src/core/state_encoder.hpp"
#include "src/metadock/docking_env.hpp"
#include "src/metadock/vs_pipeline.hpp"
#include "src/serve/inference_batcher.hpp"
#include "src/serve/job_queue.hpp"
#include "src/serve/model_registry.hpp"

namespace dqndock::serve {

struct ServiceOptions {
  std::size_t workers = 2;
  std::size_t queueCapacity = 64;
  /// State encoding the published networks were trained with; the
  /// registry's input dim must match the resulting encoder dim.
  core::StateMode stateMode = core::StateMode::kLigandPositions;
  bool normalizeStates = true;
  metadock::EnvConfig env;     ///< per-worker environment config (scoring runs serially)
  BatcherOptions batcher;
};

/// Roll the registry policy out from the scenario's initial pose.
struct DockRequest {
  int maxSteps = 200;
  /// Exploration noise; 0 = pure greedy (deterministic given the model).
  double epsilon = 0.0;
  std::uint64_t seed = 1;
  JobPriority priority = JobPriority::kNormal;
  /// Wall-clock budget in seconds; 0 = unlimited. Checked between steps.
  double timeoutSeconds = 0.0;
};

struct DockResult {
  double initialScore = 0.0;
  double bestScore = 0.0;
  double finalScore = 0.0;
  double bestRmsd = 0.0;  ///< lowest RMSD-to-crystal seen
  std::size_t steps = 0;
  std::string termination;  ///< env termination reason (or "step_budget")
  std::uint64_t modelVersion = 0;
  double seconds = 0.0;
};

/// Metaheuristic screen of a generated ligand library (the classical
/// METADOCK workload, served). Cancellation/timeout apply while queued;
/// a running screen completes its library.
struct ScreenRequest {
  std::size_t librarySize = 4;
  std::size_t minAtoms = 8;
  std::size_t maxAtoms = 14;
  std::size_t evaluationsPerLigand = 400;
  std::uint64_t seed = 2020;
  JobPriority priority = JobPriority::kNormal;
  double timeoutSeconds = 0.0;
};

struct ScreenResult {
  std::size_t ligands = 0;
  std::size_t hitCount = 0;
  double bestScore = 0.0;
  std::string bestLigand;
  std::size_t totalEvaluations = 0;
  double seconds = 0.0;
};

/// Terminal report for one job. For dock jobs interrupted by
/// cancel/timeout, `dock` holds the partial rollout up to the
/// interruption point.
struct JobOutcome {
  enum class Kind : unsigned char { kDock = 0, kScreen };
  std::uint64_t jobId = 0;
  Kind kind = Kind::kDock;
  JobStatus status = JobStatus::kQueued;
  std::string error;
  DockResult dock;
  ScreenResult screen;
};

struct ServiceStats {
  JobQueueStats queue;
  BatcherStats batcher;
  std::size_t workers = 0;
  std::size_t queueDepth = 0;
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t timedOut = 0;
};

class DockingService {
 public:
  /// The registry's network architecture must match the encoder dim and
  /// the env action count (throws std::invalid_argument otherwise).
  /// `pool` (may be nullptr) runs screens; dock steps score serially,
  /// since one pose is too little work to split, and any pool set in
  /// `options.env.scoring` is ignored.
  DockingService(const chem::Scenario& scenario, ModelRegistry& registry,
                 ServiceOptions options = {}, ThreadPool* pool = nullptr);
  ~DockingService();

  DockingService(const DockingService&) = delete;
  DockingService& operator=(const DockingService&) = delete;

  SubmitResult submitDock(const DockRequest& request);
  SubmitResult submitScreen(const ScreenRequest& request);

  /// Block until the job is terminal and collect its outcome (the ticket
  /// is released — a second wait on the same id throws
  /// std::out_of_range). Rejected submissions have no ticket; check
  /// SubmitResult::accepted() first.
  JobOutcome wait(std::uint64_t jobId);

  /// Cancel a queued or running job; returns false for unknown ids
  /// (e.g. already collected).
  bool cancel(std::uint64_t jobId);

  /// Graceful: stop admission, let workers drain queued jobs, join.
  /// Idempotent; also run by the destructor.
  void shutdown();

  ServiceStats stats() const;
  const core::StateEncoder& encoder() const { return encoder_; }
  const ServiceOptions& options() const { return options_; }
  /// True when the registry's networks run the folded input-layer path
  /// and dock rollouts materialise only the dynamic state suffix.
  bool foldActive() const { return foldActive_; }

 private:
  struct Ticket {
    std::shared_ptr<Job> job;
    std::shared_ptr<JobOutcome> outcome;  ///< written by the worker before finish()
  };

  void workerLoop(std::size_t workerIndex);
  void runDock(Job& job, const DockRequest& request, JobOutcome& outcome,
               metadock::DockingEnv& env);
  void runScreen(Job& job, const ScreenRequest& request, JobOutcome& outcome);
  static void finishPartial(Job& job, DockResult& r, const Stopwatch& clock, int steps,
                            metadock::DockingEnv& env, JobStatus status, std::string error);
  SubmitResult submit(std::shared_ptr<Job> job, std::shared_ptr<JobOutcome> outcome);
  void recordTerminal(JobStatus status);

  chem::Scenario scenario_;
  ModelRegistry& registry_;
  ServiceOptions options_;
  ThreadPool* pool_;  ///< screens only
  core::StateEncoder encoder_;
  /// Decided after encoder_, before batcher_ (the batcher's row width
  /// depends on it) — member order is load-bearing.
  bool foldActive_;
  InferenceBatcher batcher_;
  JobQueue queue_;
  std::vector<std::unique_ptr<metadock::DockingEnv>> envs_;

  mutable std::mutex ticketsMu_;
  std::unordered_map<std::uint64_t, Ticket> tickets_;
  std::uint64_t nextJobId_ = 1;
  std::uint64_t done_ = 0, failed_ = 0, cancelled_ = 0, timedOut_ = 0;

  std::vector<std::thread> workers_;
  bool shutdown_ = false;
};

}  // namespace dqndock::serve
