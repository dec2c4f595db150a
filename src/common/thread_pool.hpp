#pragma once

/// \file thread_pool.hpp
/// Work-sharing thread pool with a blocking parallel-for.
///
/// This is the CPU stand-in for METADOCK's GPU executor: the scoring
/// function fans receptor-atom tiles out across the pool, and the
/// metaheuristic schema evaluates pose populations in parallel. The pool
/// is created once and reused (no per-call thread spawn), following the
/// OpenMP worksharing model.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dqndock {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threadCount() const { return workers_.size(); }

  /// Enqueue a task; returns immediately.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void waitIdle();

  /// Static-schedule parallel for over [begin, end): the range is split
  /// into ~threadCount() contiguous chunks, each handed to a worker as
  /// fn(chunkBegin, chunkEnd). Blocks until all chunks complete. The
  /// calling thread also executes one chunk, so the pool never deadlocks
  /// when parallelFor is (accidentally) called from a worker.
  void parallelFor(std::size_t begin, std::size_t end,
                   const std::function<void(std::size_t, std::size_t)>& fn);

  /// Same, but split into at most `maxParts` chunks (>= 1). Callers that
  /// know the per-chunk work is too small to amortize fan-out overhead
  /// (the backward GEMMs below their per-worker work floor, the factored
  /// optimizer sweep and the Q-forward below their per-participant
  /// floors) cap the partition count instead of going fully serial;
  /// maxParts == 1 degenerates to an inline call.
  void parallelFor(std::size_t begin, std::size_t end, std::size_t maxParts,
                   const std::function<void(std::size_t, std::size_t)>& fn);

  /// Process-wide shared pool (lazily constructed with default size).
  static ThreadPool& global();

 private:
  void workerLoop();
  /// Pop and run one queued task if available; returns false when the
  /// queue is empty. Lets threads blocked in parallelFor() help drain the
  /// queue, which makes nested parallelFor deadlock-free.
  bool tryRunOneTask();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idleCv_;
  std::size_t inFlight_ = 0;
  bool stop_ = false;
};

/// Self-scheduled parallel loop: fn(i) once for every i in [0, count).
/// The caller and up to `parts` - 1 of `pool`'s workers enter one
/// parallelFor, and each pulls the next index from one shared atomic
/// counter until none is left. A worker that wakes late or is
/// descheduled then delays at most the one index it holds, where a
/// static split would hold the whole call on its fixed share. Runs
/// inline on the caller when `pool` is null or parts <= 1; parts is
/// capped at count and at threadCount() + 1. Blocks until every index
/// has run. fn must not throw: a queued participant still references
/// the counter when the caller would unwind.
void forEachIndex(ThreadPool* pool, std::size_t count, std::size_t parts,
                  const std::function<void(std::size_t)>& fn);

}  // namespace dqndock
