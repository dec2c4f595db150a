#pragma once

// The five workloads. Each runs its own set-up (timed, repeated), a
// warm-up outside the timing, the measured window of Options::seconds,
// its correctness gates and — in a traced run — the layer sweeps, and
// fills a Result. README.md says why each workload exists.

#include "bench/e2e/common.hpp"

namespace e2e {

Result runTrainLearn(const Options& options, dqndock::ThreadPool& pool);
Result runCollectV32(const Options& options, dqndock::ThreadPool& pool);
Result runDockOpen(const Options& options, dqndock::ThreadPool& pool);
Result runDockScreenMix(const Options& options, dqndock::ThreadPool& pool);
Result runScreenDist(const Options& options, dqndock::ThreadPool& pool);

}  // namespace e2e
