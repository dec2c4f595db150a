#include "src/common/thread_pool.hpp"

#include <algorithm>
#include <atomic>

namespace dqndock {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mu_);
    tasks_.push(std::move(task));
    ++inFlight_;
  }
  cv_.notify_one();
}

void ThreadPool::waitIdle() {
  std::unique_lock lock(mu_);
  idleCv_.wait(lock, [this] { return inFlight_ == 0; });
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard lock(mu_);
      if (--inFlight_ == 0) idleCv_.notify_all();
    }
  }
}

bool ThreadPool::tryRunOneTask() {
  std::function<void()> task;
  {
    std::lock_guard lock(mu_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop();
  }
  task();
  {
    std::lock_guard lock(mu_);
    if (--inFlight_ == 0) idleCv_.notify_all();
  }
  return true;
}

void ThreadPool::parallelFor(std::size_t begin, std::size_t end,
                             const std::function<void(std::size_t, std::size_t)>& fn) {
  parallelFor(begin, end, threadCount() + 1, fn);
}

void ThreadPool::parallelFor(std::size_t begin, std::size_t end, std::size_t maxParts,
                             const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t parts = std::min({n, threadCount() + 1, std::max<std::size_t>(1, maxParts)});
  if (parts <= 1) {
    fn(begin, end);
    return;
  }
  const std::size_t chunk = (n + parts - 1) / parts;
  // The caller runs the first chunk itself; remaining chunks go to the
  // pool. While waiting it helps drain the queue, so nested parallelFor
  // calls from worker threads cannot deadlock.
  std::atomic<std::size_t> remaining{0};
  for (std::size_t p = 1; p < parts; ++p) {
    const std::size_t lo = begin + p * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    if (lo >= hi) continue;
    remaining.fetch_add(1, std::memory_order_relaxed);
    submit([&fn, lo, hi, &remaining] {
      fn(lo, hi);
      remaining.fetch_sub(1, std::memory_order_release);
    });
  }
  fn(begin, std::min(end, begin + chunk));
  while (remaining.load(std::memory_order_acquire) > 0) {
    if (!tryRunOneTask()) std::this_thread::yield();
  }
}

void forEachIndex(ThreadPool* pool, std::size_t count, std::size_t parts,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  auto participate = [&](std::size_t, std::size_t) {
    for (std::size_t i; (i = next.fetch_add(1)) < count;) fn(i);
  };
  parts = std::min(parts, count);
  if (pool == nullptr || parts <= 1) {
    participate(0, 1);
    return;
  }
  pool->parallelFor(0, parts, parts, participate);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace dqndock
