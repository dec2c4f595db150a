#include "src/serve/docking_service.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/chem/synthetic.hpp"
#include "src/common/logging.hpp"
#include "src/common/stopwatch.hpp"

namespace dqndock::serve {

namespace {
/// Worker threads park their environment here so job closures (which
/// only see the Job) can reach it.
thread_local metadock::DockingEnv* t_workerEnv = nullptr;

int argmax(const std::vector<double>& q) {
  return static_cast<int>(std::max_element(q.begin(), q.end()) - q.begin());
}
}  // namespace

DockingService::DockingService(const chem::Scenario& scenario, ModelRegistry& registry,
                               ServiceOptions options, ThreadPool* pool)
    : scenario_(scenario),
      registry_(registry),
      options_(options),
      pool_(pool),
      encoder_(scenario_, options_.stateMode, options_.normalizeStates),
      // Fold the constant receptor block out of every published network
      // before any worker serves traffic: batched and single-state
      // inference then both ride the small dynamic-column GEMM, and each
      // hot-swapped model version folds lazily exactly once.
      foldActive_(options_.foldStatic.value_or(nn::foldStaticEnabled()) &&
                  encoder_.staticPrefixLen() > 0 &&
                  registry.enableStaticPrefixFold(encoder_.staticPrefix())),
      batcher_(
          [this](const nn::Tensor& states, nn::Tensor& q) {
            registry_.current()->net->predict(states, q);
          },
          foldActive_ ? encoder_.dynamicDim() : registry.inputDim(), registry.actionCount(),
          options.batcher),
      queue_(options.queueCapacity) {
  if (options_.workers == 0) options_.workers = 1;
  // One pose is too little work to split, and a pooled caller helps
  // drain the shared queue while it waits, so a dock step could end up
  // running a chunk of a screen. The serial sum adds the same per-atom
  // terms in the same order, so scores are bitwise those of the pool.
  options_.env.scoring.pool = nullptr;
  if (encoder_.dim() != registry_.inputDim()) {
    throw std::invalid_argument("DockingService: registry input dim " +
                                std::to_string(registry_.inputDim()) +
                                " != encoder dim " + std::to_string(encoder_.dim()));
  }
  // One environment per worker: envs are stateful and not thread-safe.
  envs_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    envs_.push_back(std::make_unique<metadock::DockingEnv>(scenario_, options_.env));
  }
  if (envs_.front()->actionCount() != registry_.actionCount()) {
    throw std::invalid_argument("DockingService: registry action count " +
                                std::to_string(registry_.actionCount()) + " != env actions " +
                                std::to_string(envs_.front()->actionCount()));
  }
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this, i] { workerLoop(i); });
  }
}

DockingService::~DockingService() { shutdown(); }

void DockingService::shutdown() {
  {
    std::lock_guard lock(ticketsMu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  queue_.close();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  // After the workers (the only batcher clients) are gone.
  batcher_.shutdown();
  logInfo() << "DockingService: shut down (" << done_ << " done, " << failed_ << " failed, "
            << cancelled_ << " cancelled, " << timedOut_ << " timed out)";
}

SubmitResult DockingService::submit(std::shared_ptr<Job> job,
                                    std::shared_ptr<JobOutcome> outcome) {
  // Id grabbed up front: the assignment's RHS moves `job` out before the
  // subscript would run (RHS is sequenced first since C++17).
  const std::uint64_t id = job->id();
  const SubmitResult result = queue_.push(job);
  if (result.accepted()) {
    std::lock_guard lock(ticketsMu_);
    tickets_[id] = Ticket{std::move(job), std::move(outcome)};
  }
  return result;
}

SubmitResult DockingService::submitDock(const DockRequest& request) {
  auto outcome = std::make_shared<JobOutcome>();
  outcome->kind = JobOutcome::Kind::kDock;
  std::uint64_t id;
  {
    std::lock_guard lock(ticketsMu_);
    id = nextJobId_++;
  }
  outcome->jobId = id;
  auto job = std::make_shared<Job>(
      id, request.priority,
      [this, request, outcome](Job& j) {
        if (t_workerEnv == nullptr) {
          throw std::runtime_error("dock jobs must run on a service worker thread");
        }
        runDock(j, request, *outcome, *t_workerEnv);
      },
      request.timeoutSeconds);
  return submit(std::move(job), std::move(outcome));
}

SubmitResult DockingService::submitScreen(const ScreenRequest& request) {
  auto outcome = std::make_shared<JobOutcome>();
  outcome->kind = JobOutcome::Kind::kScreen;
  std::uint64_t id;
  {
    std::lock_guard lock(ticketsMu_);
    id = nextJobId_++;
  }
  outcome->jobId = id;
  auto job = std::make_shared<Job>(
      id, request.priority, [this, request, outcome](Job& j) { runScreen(j, request, *outcome); },
      request.timeoutSeconds);
  return submit(std::move(job), std::move(outcome));
}

JobOutcome DockingService::wait(std::uint64_t jobId) {
  Ticket ticket;
  {
    std::lock_guard lock(ticketsMu_);
    auto it = tickets_.find(jobId);
    if (it == tickets_.end()) {
      throw std::out_of_range("DockingService::wait: unknown job id " + std::to_string(jobId));
    }
    ticket = it->second;
    tickets_.erase(it);
  }
  const JobStatus status = ticket.job->wait();
  JobOutcome outcome = *ticket.outcome;  // worker writes happen-before terminal status
  outcome.status = status;
  outcome.error = ticket.job->error();
  recordTerminal(status);
  return outcome;
}

bool DockingService::cancel(std::uint64_t jobId) {
  std::shared_ptr<Job> job;
  {
    std::lock_guard lock(ticketsMu_);
    auto it = tickets_.find(jobId);
    if (it == tickets_.end()) return false;
    job = it->second.job;
  }
  // Remove from the queue when still waiting; otherwise flag the running
  // job and let its worker observe the flag between steps.
  if (!queue_.cancelQueued(jobId)) job->requestCancel();
  return true;
}

void DockingService::recordTerminal(JobStatus status) {
  std::lock_guard lock(ticketsMu_);
  switch (status) {
    case JobStatus::kDone: ++done_; break;
    case JobStatus::kFailed: ++failed_; break;
    case JobStatus::kCancelled: ++cancelled_; break;
    case JobStatus::kTimedOut: ++timedOut_; break;
    default: break;
  }
}

ServiceStats DockingService::stats() const {
  ServiceStats s;
  s.queue = queue_.stats();
  s.batcher = batcher_.stats();
  s.workers = workers_.size();
  s.queueDepth = queue_.size();
  std::lock_guard lock(ticketsMu_);
  s.done = done_;
  s.failed = failed_;
  s.cancelled = cancelled_;
  s.timedOut = timedOut_;
  return s;
}

void DockingService::workerLoop(std::size_t workerIndex) {
  t_workerEnv = envs_[workerIndex].get();
  while (std::shared_ptr<Job> job = queue_.pop()) {
    job->run();
  }
  t_workerEnv = nullptr;
}

void DockingService::runDock(Job& job, const DockRequest& request, JobOutcome& outcome,
                             metadock::DockingEnv& env) {
  Stopwatch clock;
  Rng rng(request.seed);
  DockResult& r = outcome.dock;
  r.modelVersion = registry_.currentVersion();

  env.reset();
  r.initialScore = env.score();
  r.bestScore = r.initialScore;
  r.finalScore = r.initialScore;
  r.bestRmsd = env.rmsdToCrystal();

  std::vector<double> state;
  InferenceBatcher::Rollout rollout(batcher_);
  int t = 0;
  for (; t < request.maxSteps && !env.terminated(); ++t) {
    if (job.cancelRequested()) {
      finishPartial(job, r, clock, t, env, JobStatus::kCancelled, "cancelled mid-rollout");
      return;
    }
    if (request.timeoutSeconds > 0.0 && clock.seconds() > request.timeoutSeconds) {
      finishPartial(job, r, clock, t, env, JobStatus::kTimedOut,
                    "exceeded " + std::to_string(request.timeoutSeconds) + " s budget");
      return;
    }
    int action;
    if (request.epsilon > 0.0 && rng.uniform() < request.epsilon) {
      action = static_cast<int>(rng.uniformInt(static_cast<std::uint64_t>(env.actionCount())));
    } else {
      if (foldActive_) {
        encoder_.encodeDynamicFromPositions(env.ligandPositions(), state);
      } else {
        encoder_.encodeFromPositions(env.ligandPositions(), state);
      }
      action = argmax(batcher_.infer(state));
    }
    const metadock::StepResult step = env.step(action);
    r.bestScore = std::max(r.bestScore, step.score);
    r.bestRmsd = std::min(r.bestRmsd, env.rmsdToCrystal());
  }
  r.finalScore = env.score();
  r.steps = static_cast<std::size_t>(t);
  r.termination =
      env.terminated() ? metadock::terminationName(env.terminationReason()) : "step_budget";
  r.seconds = clock.seconds();
}

void DockingService::finishPartial(Job& job, DockResult& r, const Stopwatch& clock, int steps,
                                   metadock::DockingEnv& env, JobStatus status,
                                   std::string error) {
  r.finalScore = env.score();
  r.steps = static_cast<std::size_t>(steps);
  r.termination = jobStatusName(status);
  r.seconds = clock.seconds();
  job.finish(status, std::move(error));
}

void DockingService::runScreen(Job& job, const ScreenRequest& request, JobOutcome& outcome) {
  Stopwatch clock;
  if (job.cancelRequested()) {
    job.finish(JobStatus::kCancelled, "cancelled before screen start");
    return;
  }
  Rng rng(request.seed);
  const std::vector<chem::Molecule> library = chem::buildLigandLibrary(
      request.librarySize, request.minAtoms, std::max(request.minAtoms, request.maxAtoms), rng);
  metadock::ScreeningOptions opts;
  opts.evaluationsPerLigand = request.evaluationsPerLigand;
  opts.refineWithGradient = false;
  opts.clusterModes = false;
  opts.seed = request.seed;
  const metadock::ScreeningReport report =
      metadock::screenLibrary(scenario_.receptor, library, opts, pool_);

  ScreenResult& r = outcome.screen;
  r.ligands = report.ranked.size();
  r.hitCount = report.hitCount;
  r.totalEvaluations = report.totalEvaluations;
  if (!report.ranked.empty()) {
    r.bestScore = report.ranked.front().refinedScore;
    r.bestLigand = report.ranked.front().ligandName;
  }
  r.seconds = clock.seconds();
}

}  // namespace dqndock::serve
