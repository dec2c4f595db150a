// Tests for the micro-batching inference scheduler: coalesced batches
// must reproduce per-row predict() results bit-for-bit, deadlines must
// flush partial batches, open rollouts must flush as soon as each has a
// row queued, and shutdown must be clean.

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "src/common/rng.hpp"
#include "src/rl/qnetwork.hpp"
#include "src/serve/inference_batcher.hpp"

namespace dqndock::serve {
namespace {

constexpr std::size_t kDim = 24;
constexpr int kActions = 5;

class BatcherFixture : public ::testing::Test {
 protected:
  BatcherFixture() : rng_(404), net_(kDim, {18, 18}, kActions, rng_) {}

  InferenceBatcher::ForwardFn forward() {
    return [this](const nn::Tensor& states, nn::Tensor& q) { net_.predict(states, q); };
  }

  static std::vector<double> makeState(std::uint64_t seed) {
    Rng r(seed);
    std::vector<double> s(kDim);
    for (double& v : s) v = r.uniform(-2.0, 2.0);
    return s;
  }

  std::vector<double> referenceRow(const std::vector<double>& state) const {
    nn::Tensor in(1, kDim);
    std::copy(state.begin(), state.end(), in.row(0).begin());
    nn::Tensor out;
    net_.predict(in, out);
    return {out.row(0).begin(), out.row(0).end()};
  }

  Rng rng_;
  rl::MlpQNetwork net_;
};

TEST_F(BatcherFixture, CoalescedResultsMatchPerRowBitForBit) {
  BatcherOptions opts;
  opts.maxBatch = 8;
  opts.flushDeadline = std::chrono::microseconds(500);
  InferenceBatcher batcher(forward(), kDim, kActions, opts);

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 16;
  std::vector<std::vector<std::vector<double>>> results(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        results[t].push_back(batcher.infer(makeState(t * 1000 + i)));
      }
    });
  }
  for (auto& th : threads) th.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      const std::vector<double> expected = referenceRow(makeState(t * 1000 + i));
      ASSERT_EQ(results[t][i].size(), expected.size());
      for (std::size_t k = 0; k < expected.size(); ++k) {
        // Bit-for-bit: the GEMM accumulates each output element in a
        // fixed k-order independent of batch height.
        EXPECT_EQ(results[t][i][k], expected[k]) << "t=" << t << " i=" << i << " k=" << k;
      }
    }
  }
  const BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.requests, kThreads * kPerThread);
  EXPECT_LE(stats.maxBatchRows, opts.maxBatch);
  EXPECT_GE(stats.batches, (kThreads * kPerThread) / opts.maxBatch);
}

TEST_F(BatcherFixture, DeadlineFlushesPartialBatch) {
  BatcherOptions opts;
  opts.maxBatch = 32;
  opts.flushDeadline = std::chrono::microseconds(1000);
  InferenceBatcher batcher(forward(), kDim, kActions, opts);

  const auto q = batcher.infer(makeState(7));  // alone: can only flush by deadline
  EXPECT_EQ(q.size(), static_cast<std::size_t>(kActions));
  const BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.deadlineFlushes, 1u);
  EXPECT_EQ(stats.fullBatches, 0u);
}

TEST_F(BatcherFixture, ConcurrentRequestsCoalesce) {
  BatcherOptions opts;
  opts.maxBatch = 8;
  opts.flushDeadline = std::chrono::milliseconds(500);  // generous: let all 8 arrive
  InferenceBatcher batcher(forward(), kDim, kActions, opts);

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] { batcher.infer(makeState(t)); });
  }
  for (auto& th : threads) th.join();
  const BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.requests, 8u);
  // With a 500 ms window the 8 requests land in far fewer than 8 batches.
  EXPECT_LE(stats.batches, 4u);
  EXPECT_GE(stats.maxBatchRows, 2u);
}

TEST_F(BatcherFixture, ZeroDeadlineStillServes) {
  BatcherOptions opts;
  opts.maxBatch = 4;
  opts.flushDeadline = std::chrono::microseconds(0);
  InferenceBatcher batcher(forward(), kDim, kActions, opts);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(batcher.infer(makeState(i)).size(), static_cast<std::size_t>(kActions));
  }
  EXPECT_EQ(batcher.stats().requests, 10u);
}

TEST_F(BatcherFixture, DeadlineAnchoredToEnqueueNotDispatcherWakeup) {
  // Regression: the flush deadline used to be computed as now() +
  // flushDeadline when the DISPATCHER got around to looking at the
  // queue. A request that arrived while the dispatcher was busy in a
  // long forward pass then waited the busy time AND another full
  // deadline. Anchoring to the first queued request's enqueue time means
  // a request whose deadline already expired during the busy period is
  // flushed as soon as the dispatcher frees up.
  using Clock = std::chrono::steady_clock;
  BatcherOptions opts;
  opts.maxBatch = 32;  // never fills: deadline is the only flush trigger
  opts.flushDeadline = std::chrono::milliseconds(300);

  std::atomic<int> batches{0};
  std::atomic<std::int64_t> firstForwardEndNs{0};
  InferenceBatcher batcher(
      [&](const nn::Tensor& states, nn::Tensor& q) {
        if (batches.fetch_add(1) == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(800));
          firstForwardEndNs = Clock::now().time_since_epoch().count();
        }
        net_.predict(states, q);
      },
      kDim, kActions, opts);

  std::thread first([&] { batcher.infer(makeState(1)); });
  // Let request 1's batch flush (at ~300 ms) and enter the slow forward
  // pass, then enqueue request 2 while the dispatcher is busy. Its
  // deadline (enqueue + 300 ms) expires before the forward pass ends at
  // ~1100 ms, so it must be dispatched the moment the dispatcher frees.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  batcher.infer(makeState(2));
  const auto done = Clock::now();
  first.join();

  ASSERT_GT(batches.load(), 0);
  if (batches.load() == 1) {
    // Very slow machine: both requests coalesced into the slow batch and
    // the latency property holds trivially. Nothing left to measure.
    GTEST_SKIP() << "requests coalesced; dispatcher was never busy-with-backlog";
  }
  ASSERT_NE(firstForwardEndNs.load(), 0);
  const auto waitedAfterFree =
      done - Clock::time_point(Clock::duration(firstForwardEndNs.load()));
  // Buggy anchoring waits another full flushDeadline (300 ms) here; the
  // fix dispatches immediately. 150 ms of slack for scheduler noise.
  EXPECT_LT(waitedAfterFree, std::chrono::milliseconds(150));
}

TEST_F(BatcherFixture, StateDimMismatchThrows) {
  InferenceBatcher batcher(forward(), kDim, kActions, {});
  std::vector<double> wrong(kDim + 1, 0.0);
  EXPECT_THROW(batcher.infer(wrong), std::invalid_argument);
}

TEST_F(BatcherFixture, InferAfterShutdownThrows) {
  InferenceBatcher batcher(forward(), kDim, kActions, {});
  batcher.shutdown();
  EXPECT_THROW(batcher.infer(makeState(1)), std::runtime_error);
  batcher.shutdown();  // idempotent
}

TEST_F(BatcherFixture, ForwardErrorsPropagateToCallers) {
  InferenceBatcher batcher(
      [](const nn::Tensor&, nn::Tensor&) { throw std::runtime_error("model exploded"); }, kDim,
      kActions, {});
  EXPECT_THROW(batcher.infer(makeState(1)), std::runtime_error);
  // The batcher survives a failing batch.
  EXPECT_THROW(batcher.infer(makeState(2)), std::runtime_error);
}

TEST_F(BatcherFixture, WrongShapeFromForwardIsAnError) {
  InferenceBatcher batcher(
      [](const nn::Tensor& in, nn::Tensor& out) { out.resize(in.rows(), 1); }, kDim, kActions,
      {});
  EXPECT_THROW(batcher.infer(makeState(1)), std::runtime_error);
}

TEST_F(BatcherFixture, LoneRolloutNeverWaitsForTheDeadline) {
  BatcherOptions opts;
  opts.flushDeadline = std::chrono::seconds(1);
  InferenceBatcher batcher(forward(), kDim, kActions, opts);

  const auto start = std::chrono::steady_clock::now();
  {
    InferenceBatcher::Rollout rollout(batcher);
    for (std::uint64_t i = 0; i < 20; ++i) {
      ASSERT_EQ(batcher.infer(makeState(i)), referenceRow(makeState(i))) << "i=" << i;
    }
  }
  // One deadline flush alone would cost a full second.
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(500));
  const BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.batches, 20u);
  EXPECT_EQ(stats.rolloutFlushes, 20u);
  EXPECT_EQ(stats.deadlineFlushes, 0u);
  EXPECT_EQ(stats.fullBatches, 0u);
}

TEST_F(BatcherFixture, LockstepRolloutsShareOneBatchPerStep) {
  constexpr std::size_t kRollouts = 4;
  constexpr std::size_t kSteps = 25;
  BatcherOptions opts;
  opts.flushDeadline = std::chrono::seconds(1);
  InferenceBatcher batcher(forward(), kDim, kActions, opts);

  // The barrier holds each step until every rollout is open and has its
  // previous row back, so a step's K rows are all that can arrive.
  std::barrier step(static_cast<std::ptrdiff_t>(kRollouts));
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kRollouts; ++k) {
    threads.emplace_back([&, k] {
      InferenceBatcher::Rollout rollout(batcher);
      for (std::size_t i = 0; i < kSteps; ++i) {
        step.arrive_and_wait();
        batcher.infer(makeState(k * 1000 + i));
      }
    });
  }
  for (auto& th : threads) th.join();

  const BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.requests, kRollouts * kSteps);
  EXPECT_EQ(stats.batches, kSteps);  // with the two below: every batch has K rows
  EXPECT_EQ(stats.maxBatchRows, kRollouts);
  EXPECT_EQ(stats.rolloutFlushes, kSteps);
  EXPECT_EQ(stats.deadlineFlushes, 0u);
}

TEST_F(BatcherFixture, EndingRolloutFlushesAnotherRolloutsQueuedRow) {
  using Clock = std::chrono::steady_clock;
  BatcherOptions opts;
  opts.flushDeadline = std::chrono::seconds(1);
  InferenceBatcher batcher(forward(), kDim, kActions, opts);

  std::optional<InferenceBatcher::Rollout> ending(std::in_place, batcher);
  std::atomic<bool> inferring{false};
  Clock::time_point returned;
  std::thread other([&] {
    InferenceBatcher::Rollout rollout(batcher);
    inferring = true;
    batcher.infer(makeState(1));  // 1 row for 2 open rollouts: stays queued
    returned = Clock::now();
  });
  while (!inferring) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // let the row queue
  const auto ended = Clock::now();
  ending.reset();
  other.join();

  EXPECT_GE(returned, ended);  // the row waited for the other rollout to end...
  EXPECT_LT(returned - ended, std::chrono::milliseconds(500));  // ...not for the deadline
  const BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.rolloutFlushes, 1u);
  EXPECT_EQ(stats.deadlineFlushes, 0u);
}

TEST_F(BatcherFixture, MixedRolloutAndPlainCallersMatchPerRowAndNeverOverlap) {
  BatcherOptions opts;
  opts.maxBatch = 8;
  opts.flushDeadline = std::chrono::microseconds(200);
  std::atomic<int> inForward{0};
  std::atomic<int> overlaps{0};
  InferenceBatcher batcher(
      [&](const nn::Tensor& states, nn::Tensor& q) {
        if (inForward.fetch_add(1) != 0) overlaps.fetch_add(1);
        net_.predict(states, q);
        inForward.fetch_sub(1);
      },
      kDim, kActions, opts);

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 60;
  constexpr std::size_t kStepsPerRollout = 6;
  std::vector<std::vector<std::vector<double>>> results(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Even threads dock: a fresh rollout every few rows. Odd threads
      // are plain callers.
      std::optional<InferenceBatcher::Rollout> rollout;
      for (std::size_t i = 0; i < kPerThread; ++i) {
        if (t % 2 == 0 && i % kStepsPerRollout == 0) rollout.emplace(batcher);
        results[t].push_back(batcher.infer(makeState(t * 1000 + i)));
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(overlaps.load(), 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      ASSERT_EQ(results[t][i], referenceRow(makeState(t * 1000 + i))) << "t=" << t << " i=" << i;
    }
  }
  const BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.requests, kThreads * kPerThread);
  EXPECT_EQ(stats.fullBatches + stats.rolloutFlushes + stats.deadlineFlushes, stats.batches);
  EXPECT_GE(stats.rolloutFlushes, 1u);
  EXPECT_LE(stats.maxBatchRows, opts.maxBatch);
}

}  // namespace
}  // namespace dqndock::serve
