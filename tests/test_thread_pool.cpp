// Tests for the work-sharing thread pool and its nested parallelFor.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "src/common/thread_pool.hpp"

namespace dqndock {
namespace {

TEST(ThreadPoolTest, DefaultHasAtLeastOneThread) {
  ThreadPool pool;
  EXPECT_GE(pool.threadCount(), 1u);
}

TEST(ThreadPoolTest, ExplicitThreadCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.threadCount(), 3u);
}

TEST(ThreadPoolTest, SubmitRunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.waitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallelFor(0, hits.size(), [&hits](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallelFor(5, 5, [&called](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForSingleElement) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallelFor(7, 8, [&calls](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(lo, 7u);
    EXPECT_EQ(hi, 8u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, ParallelSumMatchesSerial) {
  ThreadPool pool(8);
  std::vector<double> data(100000);
  std::iota(data.begin(), data.end(), 0.0);
  std::atomic<long long> acc{0};
  pool.parallelFor(0, data.size(), [&](std::size_t lo, std::size_t hi) {
    long long part = 0;
    for (std::size_t i = lo; i < hi; ++i) part += static_cast<long long>(data[i]);
    acc.fetch_add(part);
  });
  const long long expected = 100000LL * 99999LL / 2;
  EXPECT_EQ(acc.load(), expected);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);  // few threads stress the helping path
  std::atomic<int> counter{0};
  pool.parallelFor(0, 8, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      pool.parallelFor(0, 16, [&counter](std::size_t l2, std::size_t h2) {
        counter.fetch_add(static_cast<int>(h2 - l2));
      });
    }
  });
  EXPECT_EQ(counter.load(), 8 * 16);
}

TEST(ThreadPoolTest, ForEachIndexRunsEveryIndexOnce) {
  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    for (std::size_t count : {0u, 1u, 2u, 17u, 256u}) {
      for (std::size_t parts : {0u, 1u, 2u, 4u, 64u}) {
        std::vector<std::atomic<int>> hits(count);
        forEachIndex(p, count, parts, [&hits](std::size_t i) { hits[i].fetch_add(1); });
        for (std::size_t i = 0; i < count; ++i) {
          EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << count << ", parts " << parts;
        }
      }
    }
  }
}

TEST(ThreadPoolTest, GlobalPoolIsSingleton) {
  ThreadPool& a = ThreadPool::global();
  ThreadPool& b = ThreadPool::global();
  EXPECT_EQ(&a, &b);
}

TEST(ThreadPoolTest, ManyConcurrentParallelFors) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallelFor(0, 64, [&total](std::size_t lo, std::size_t hi) {
      total.fetch_add(static_cast<int>(hi - lo));
    });
  }
  EXPECT_EQ(total.load(), 50 * 64);
}

}  // namespace
}  // namespace dqndock
