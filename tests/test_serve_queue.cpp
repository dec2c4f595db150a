// Tests for the bounded MPMC job queue (backpressure, priorities,
// cancellation) and the docking service worker pool built on it
// (timeouts, cancellation mid-rollout, graceful shutdown, served docks
// equal to a hand-rolled reference rollout).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <thread>

#include "src/chem/synthetic.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/state_encoder.hpp"
#include "src/serve/docking_service.hpp"
#include "src/serve/job_queue.hpp"

namespace dqndock::serve {
namespace {

std::shared_ptr<Job> makeJob(std::uint64_t id, JobPriority priority,
                             std::function<void(Job&)> work = [](Job&) {}) {
  return std::make_shared<Job>(id, priority, std::move(work));
}

TEST(JobQueueTest, PushPopRunLifecycle) {
  JobQueue queue(4);
  std::atomic<int> ran{0};
  auto job = makeJob(1, JobPriority::kNormal, [&](Job&) { ++ran; });
  ASSERT_TRUE(queue.push(job).accepted());
  EXPECT_EQ(queue.size(), 1u);
  auto popped = queue.pop();
  ASSERT_EQ(popped, job);
  popped->run();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(job->wait(), JobStatus::kDone);
}

TEST(JobQueueTest, BackpressureRejectsWhenFull) {
  JobQueue queue(2);
  ASSERT_TRUE(queue.push(makeJob(1, JobPriority::kNormal)).accepted());
  ASSERT_TRUE(queue.push(makeJob(2, JobPriority::kNormal)).accepted());
  auto overflow = makeJob(3, JobPriority::kHigh);
  const SubmitResult rejected = queue.push(overflow);
  EXPECT_FALSE(rejected.accepted());
  EXPECT_EQ(rejected.status, SubmitStatus::kQueueFull);
  EXPECT_NE(rejected.reason().find("queue full"), std::string::npos);
  // The rejected job resolves immediately: nobody hangs on it.
  EXPECT_EQ(overflow->wait(), JobStatus::kCancelled);
  EXPECT_EQ(overflow->error(), rejected.reason());
  EXPECT_EQ(queue.stats().rejectedFull, 1u);
}

TEST(JobQueueTest, PopHonorsPriorityThenFifo) {
  JobQueue queue(8);
  queue.push(makeJob(1, JobPriority::kLow));
  queue.push(makeJob(2, JobPriority::kNormal));
  queue.push(makeJob(3, JobPriority::kHigh));
  queue.push(makeJob(4, JobPriority::kHigh));
  queue.push(makeJob(5, JobPriority::kNormal));
  EXPECT_EQ(queue.pop()->id(), 3u);
  EXPECT_EQ(queue.pop()->id(), 4u);
  EXPECT_EQ(queue.pop()->id(), 2u);
  EXPECT_EQ(queue.pop()->id(), 5u);
  EXPECT_EQ(queue.pop()->id(), 1u);
}

TEST(JobQueueTest, CancelQueuedJobNeverRuns) {
  JobQueue queue(4);
  std::atomic<int> ran{0};
  auto job = makeJob(9, JobPriority::kNormal, [&](Job&) { ++ran; });
  queue.push(job);
  EXPECT_TRUE(queue.cancelQueued(9));
  EXPECT_EQ(job->status(), JobStatus::kCancelled);
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_FALSE(queue.cancelQueued(9));  // already gone
}

TEST(JobQueueTest, PopDiscardsJobsCancelledViaHandle) {
  JobQueue queue(4);
  auto first = makeJob(1, JobPriority::kNormal);
  auto second = makeJob(2, JobPriority::kNormal);
  queue.push(first);
  queue.push(second);
  first->requestCancel();
  EXPECT_EQ(queue.pop()->id(), 2u);  // 1 was skipped and resolved
  EXPECT_EQ(first->wait(), JobStatus::kCancelled);
  EXPECT_EQ(queue.stats().cancelledQueued, 1u);
}

TEST(JobQueueTest, CloseWakesBlockedPopAndRejectsPushes) {
  JobQueue queue(4);
  std::thread popper([&] { EXPECT_EQ(queue.pop(), nullptr); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  popper.join();
  const SubmitResult rejected = queue.push(makeJob(1, JobPriority::kNormal));
  EXPECT_EQ(rejected.status, SubmitStatus::kShutdown);
}

TEST(JobQueueTest, WorkExceptionBecomesFailedStatus) {
  auto job = makeJob(5, JobPriority::kNormal,
                     [](Job&) { throw std::runtime_error("scoring blew up"); });
  job->run();
  EXPECT_EQ(job->status(), JobStatus::kFailed);
  EXPECT_EQ(job->error(), "scoring blew up");
}

// ---------------------------------------------------------------------------

/// Delegates to `inner`, except that predict() first waits until `ready`
/// holds. A predict runs inside a batch, so a rollout held there keeps
/// that batch in flight while another worker takes a job.
class GatedNet : public rl::QNetwork {
 public:
  explicit GatedNet(std::unique_ptr<rl::QNetwork> inner) : inner_(std::move(inner)) {}

  std::function<bool()> ready;  ///< set before the first job is submitted

  std::size_t inputDim() const override { return inner_->inputDim(); }
  int actionCount() const override { return inner_->actionCount(); }
  const nn::Tensor& forward(const nn::Tensor& states) override { return inner_->forward(states); }
  void predict(const nn::Tensor& states, nn::Tensor& q) const override {
    while (ready && !ready()) std::this_thread::yield();
    inner_->predict(states, q);
  }
  void backward(const nn::Tensor& dq) override { inner_->backward(dq); }
  void zeroGrad() override { inner_->zeroGrad(); }
  std::vector<nn::Tensor*> parameters() override { return inner_->parameters(); }
  std::vector<nn::Tensor*> gradients() override { return inner_->gradients(); }
  std::unique_ptr<rl::QNetwork> clone() const override { return inner_->clone(); }
  void copyWeightsFrom(const rl::QNetwork& other) override { inner_->copyWeightsFrom(other); }

 private:
  std::unique_ptr<rl::QNetwork> inner_;
};

class ServiceFixture : public ::testing::Test {
 protected:
  ServiceFixture() : scenario_(chem::buildScenario(chem::ScenarioSpec::tiny())) {}

  /// Same weights on every call.
  std::unique_ptr<rl::MlpQNetwork> makeNet() const {
    Rng rng(11);
    const std::size_t dim = scenario_.ligand.atomCount() * 3;
    return std::make_unique<rl::MlpQNetwork>(dim, std::vector<std::size_t>{16}, 12, rng);
  }

  std::unique_ptr<ModelRegistry> makeRegistry() {
    return std::make_unique<ModelRegistry>(makeNet());
  }

  /// The dock the service should serve, rolled out by hand: an env with
  /// no pool, one per-row predict per greedy step, and the service's Rng
  /// draw order (one uniform per step when epsilon > 0, then one
  /// uniformInt when it explores).
  DockResult referenceDock(const ServiceOptions& opts, const rl::QNetwork& net,
                           const DockRequest& request) const {
    metadock::EnvConfig envConfig = opts.env;
    envConfig.scoring.pool = nullptr;
    metadock::DockingEnv env(scenario_, envConfig);
    const core::StateEncoder encoder(scenario_, opts.stateMode, opts.normalizeStates);
    Rng rng(request.seed);
    DockResult r;
    env.reset();
    r.initialScore = env.score();
    r.bestScore = r.initialScore;
    r.bestRmsd = env.rmsdToCrystal();
    nn::Tensor state(1, encoder.dim());
    nn::Tensor q;
    int t = 0;
    for (; t < request.maxSteps && !env.terminated(); ++t) {
      int action;
      if (request.epsilon > 0.0 && rng.uniform() < request.epsilon) {
        action = static_cast<int>(rng.uniformInt(static_cast<std::uint64_t>(env.actionCount())));
      } else {
        encoder.encodeFromPositions(env.ligandPositions(), state.row(0));
        net.predict(state, q);
        const auto row = q.row(0);
        action = static_cast<int>(std::max_element(row.begin(), row.end()) - row.begin());
      }
      const metadock::StepResult step = env.step(action);
      r.bestScore = std::max(r.bestScore, step.score);
      r.bestRmsd = std::min(r.bestRmsd, env.rmsdToCrystal());
    }
    r.finalScore = env.score();
    r.steps = static_cast<std::size_t>(t);
    r.termination =
        env.terminated() ? metadock::terminationName(env.terminationReason()) : "step_budget";
    return r;
  }

  ServiceOptions fastOptions(std::size_t workers, std::size_t capacity) const {
    ServiceOptions opts;
    opts.workers = workers;
    opts.queueCapacity = capacity;
    opts.batcher.flushDeadline = std::chrono::microseconds(50);
    return opts;
  }

  /// Environment bounds relaxed so a rollout only ends when the service
  /// ends it (for cancellation/timeout tests).
  static void makeEndless(ServiceOptions& opts) {
    opts.env.maxSteps = 1 << 30;
    opts.env.boundaryFactor = 1e9;
    opts.env.floorPatience = 1 << 30;
  }

  chem::Scenario scenario_;
};

TEST_F(ServiceFixture, DockJobCompletes) {
  auto registry = makeRegistry();
  DockingService service(scenario_, *registry, fastOptions(2, 8));
  DockRequest request;
  request.maxSteps = 5;
  const SubmitResult submitted = service.submitDock(request);
  ASSERT_TRUE(submitted.accepted());
  const JobOutcome outcome = service.wait(submitted.jobId);
  EXPECT_EQ(outcome.status, JobStatus::kDone);
  EXPECT_EQ(outcome.kind, JobOutcome::Kind::kDock);
  EXPECT_GT(outcome.dock.steps, 0u);
  EXPECT_LE(outcome.dock.steps, 5u);
  EXPECT_GE(outcome.dock.bestScore, outcome.dock.initialScore);
  EXPECT_GE(outcome.dock.bestScore, outcome.dock.finalScore);
  EXPECT_EQ(outcome.dock.modelVersion, 1u);
  EXPECT_FALSE(outcome.dock.termination.empty());
}

TEST_F(ServiceFixture, ManyConcurrentDocksAllComplete) {
  auto registry = makeRegistry();
  DockingService service(scenario_, *registry, fastOptions(3, 32));
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 12; ++i) {
    DockRequest request;
    request.maxSteps = 8;
    request.epsilon = 0.3;
    request.seed = static_cast<std::uint64_t>(i + 1);
    const SubmitResult submitted = service.submitDock(request);
    ASSERT_TRUE(submitted.accepted());
    ids.push_back(submitted.jobId);
  }
  for (const std::uint64_t id : ids) {
    EXPECT_EQ(service.wait(id).status, JobStatus::kDone);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.done, 12u);
  EXPECT_GE(stats.batcher.requests, 1u);
}

TEST_F(ServiceFixture, ServedDocksEqualAReferenceRolloutBitForBit) {
  auto gated = std::make_unique<GatedNet>(makeNet());
  GatedNet& gate = *gated;
  ModelRegistry registry(std::move(gated));
  const auto net = makeNet();
  ServiceOptions opts = fastOptions(2, 16);
  // Rows wait for each other: two docks in flight share 2-row batches,
  // and a step that waited out the deadline would show in the stats.
  opts.batcher.flushDeadline = std::chrono::seconds(1);
  ThreadPool pool(4);
  DockingService service(scenario_, registry, opts, &pool);
  ASSERT_FALSE(service.foldActive());  // the reference encodes the full state
  // A freshly started worker can wake after the other has served a whole
  // round alone. So each round's first forward waits until both workers
  // have taken a job of the round, and rounds repeat until two rollouts
  // have shared a batch.
  std::atomic<std::uint64_t> roundStart{0};
  gate.ready = [&] { return service.stats().queue.popped >= roundStart + 2; };

  std::vector<DockRequest> requests;
  std::vector<DockResult> expected;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    DockRequest request;
    request.maxSteps = 40;
    request.epsilon = 0.25;
    request.seed = seed;
    requests.push_back(request);
    expected.push_back(referenceDock(opts, *net, request));
    EXPECT_GT(expected.back().steps, 0u);
  }
  const auto sameBits = [](double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; };
  for (int round = 0; round < 20 && service.stats().batcher.maxBatchRows < 2; ++round) {
    roundStart = service.stats().queue.popped;
    std::vector<std::uint64_t> ids;
    for (const DockRequest& request : requests) {
      const SubmitResult submitted = service.submitDock(request);
      ASSERT_TRUE(submitted.accepted());
      ids.push_back(submitted.jobId);
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const JobOutcome outcome = service.wait(ids[i]);
      ASSERT_EQ(outcome.status, JobStatus::kDone) << outcome.error;
      const DockResult& served = outcome.dock;
      SCOPED_TRACE("round " + std::to_string(round) + ", seed " +
                   std::to_string(requests[i].seed));
      EXPECT_EQ(served.steps, expected[i].steps);
      EXPECT_EQ(served.termination, expected[i].termination);
      EXPECT_EQ(served.modelVersion, 1u);
      EXPECT_TRUE(sameBits(served.initialScore, expected[i].initialScore));
      EXPECT_TRUE(sameBits(served.bestScore, expected[i].bestScore));
      EXPECT_TRUE(sameBits(served.finalScore, expected[i].finalScore));
      EXPECT_TRUE(sameBits(served.bestRmsd, expected[i].bestRmsd));
    }
  }
  const BatcherStats batcher = service.stats().batcher;
  EXPECT_EQ(batcher.maxBatchRows, 2u);
  EXPECT_EQ(batcher.deadlineFlushes, 0u);
}

TEST_F(ServiceFixture, ScreenJobCompletes) {
  auto registry = makeRegistry();
  DockingService service(scenario_, *registry, fastOptions(2, 8));
  ScreenRequest request;
  request.librarySize = 2;
  request.minAtoms = 6;
  request.maxAtoms = 8;
  request.evaluationsPerLigand = 50;
  const SubmitResult submitted = service.submitScreen(request);
  ASSERT_TRUE(submitted.accepted());
  const JobOutcome outcome = service.wait(submitted.jobId);
  EXPECT_EQ(outcome.status, JobStatus::kDone);
  EXPECT_EQ(outcome.kind, JobOutcome::Kind::kScreen);
  EXPECT_EQ(outcome.screen.ligands, 2u);
  EXPECT_FALSE(outcome.screen.bestLigand.empty());
  EXPECT_GT(outcome.screen.totalEvaluations, 0u);
}

TEST_F(ServiceFixture, DockTimeoutReportsPartialResult) {
  auto registry = makeRegistry();
  ServiceOptions opts = fastOptions(1, 4);
  makeEndless(opts);
  DockingService service(scenario_, *registry, opts);
  DockRequest request;
  request.maxSteps = 1 << 30;
  request.timeoutSeconds = 0.02;
  const SubmitResult submitted = service.submitDock(request);
  ASSERT_TRUE(submitted.accepted());
  const JobOutcome outcome = service.wait(submitted.jobId);
  EXPECT_EQ(outcome.status, JobStatus::kTimedOut);
  EXPECT_NE(outcome.error.find("budget"), std::string::npos);
  EXPECT_EQ(outcome.dock.termination, "timed_out");
}

TEST_F(ServiceFixture, CancelRunningDock) {
  auto registry = makeRegistry();
  ServiceOptions opts = fastOptions(1, 4);
  makeEndless(opts);
  DockingService service(scenario_, *registry, opts);
  DockRequest request;
  request.maxSteps = 1 << 30;
  const SubmitResult submitted = service.submitDock(request);
  ASSERT_TRUE(submitted.accepted());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));  // let it start stepping
  EXPECT_TRUE(service.cancel(submitted.jobId));
  const JobOutcome outcome = service.wait(submitted.jobId);
  EXPECT_EQ(outcome.status, JobStatus::kCancelled);
}

TEST_F(ServiceFixture, CancelQueuedJobAndBackpressure) {
  auto registry = makeRegistry();
  ServiceOptions opts = fastOptions(1, 2);
  makeEndless(opts);
  DockingService service(scenario_, *registry, opts);

  DockRequest endless;
  endless.maxSteps = 1 << 30;
  const SubmitResult running = service.submitDock(endless);
  ASSERT_TRUE(running.accepted());
  // Give the single worker time to pop the job so the queue is empty.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  DockRequest quick;
  quick.maxSteps = 3;
  const SubmitResult queuedA = service.submitDock(quick);
  const SubmitResult queuedB = service.submitDock(quick);
  ASSERT_TRUE(queuedA.accepted());
  ASSERT_TRUE(queuedB.accepted());
  const SubmitResult rejected = service.submitDock(quick);
  EXPECT_EQ(rejected.status, SubmitStatus::kQueueFull);

  // Cancel one queued job: it resolves without running.
  EXPECT_TRUE(service.cancel(queuedA.jobId));
  EXPECT_EQ(service.wait(queuedA.jobId).status, JobStatus::kCancelled);

  // Unblock the worker; the remaining queued job then completes.
  EXPECT_TRUE(service.cancel(running.jobId));
  EXPECT_EQ(service.wait(running.jobId).status, JobStatus::kCancelled);
  EXPECT_EQ(service.wait(queuedB.jobId).status, JobStatus::kDone);
}

TEST_F(ServiceFixture, WaitOnUnknownOrCollectedIdThrows) {
  auto registry = makeRegistry();
  DockingService service(scenario_, *registry, fastOptions(1, 4));
  EXPECT_THROW(service.wait(12345), std::out_of_range);
  EXPECT_FALSE(service.cancel(12345));
  DockRequest request;
  request.maxSteps = 2;
  const SubmitResult submitted = service.submitDock(request);
  ASSERT_TRUE(submitted.accepted());
  service.wait(submitted.jobId);
  EXPECT_THROW(service.wait(submitted.jobId), std::out_of_range);  // collect-once
}

TEST_F(ServiceFixture, ShutdownDrainsQueuedJobsAndRejectsNewOnes) {
  auto registry = makeRegistry();
  DockingService service(scenario_, *registry, fastOptions(2, 16));
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    DockRequest request;
    request.maxSteps = 4;
    const SubmitResult submitted = service.submitDock(request);
    ASSERT_TRUE(submitted.accepted());
    ids.push_back(submitted.jobId);
  }
  service.shutdown();
  for (const std::uint64_t id : ids) {
    EXPECT_EQ(service.wait(id).status, JobStatus::kDone);  // drained, not dropped
  }
  DockRequest request;
  const SubmitResult afterShutdown = service.submitDock(request);
  EXPECT_EQ(afterShutdown.status, SubmitStatus::kShutdown);
  service.shutdown();  // idempotent
}

TEST_F(ServiceFixture, RegistryDimensionMismatchThrows) {
  Rng rng(3);
  ModelRegistry wrongDims(
      std::make_unique<rl::MlpQNetwork>(7, std::vector<std::size_t>{8}, 12, rng));
  EXPECT_THROW(DockingService(scenario_, wrongDims, fastOptions(1, 4)), std::invalid_argument);
  const std::size_t dim = scenario_.ligand.atomCount() * 3;
  ModelRegistry wrongActions(
      std::make_unique<rl::MlpQNetwork>(dim, std::vector<std::size_t>{8}, 3, rng));
  EXPECT_THROW(DockingService(scenario_, wrongActions, fastOptions(1, 4)),
               std::invalid_argument);
}

}  // namespace
}  // namespace dqndock::serve
