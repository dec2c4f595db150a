// dock-open and dock-screen-mix: an in-process HttpGateway over the
// gateway_server serving stack, loaded by the single-threaded generator
// of http_load.hpp. Each run: a warm-up, an open-loop phase at a fixed
// rate (latency, timed from each request's due time), then a closed-loop
// phase on every dock connection (capacity). Sampled replies must match
// direct DockingService calls at %.17g.

#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <stdexcept>

#include "bench/e2e/http_load.hpp"
#include "bench/e2e/serving.hpp"
#include "bench/e2e/sweeps.hpp"
#include "bench/e2e/workloads.hpp"
#include "src/core/state_encoder.hpp"
#include "src/rl/qnetwork.hpp"

using namespace dqndock;

namespace e2e {

ServingStack::~ServingStack() {
  if (gateway) gateway->stop();
  for (Pool& p : pools) p.service->shutdown();
}

std::unique_ptr<ServingStack> buildServingStack(const chem::Scenario& scenario,
                                                const std::vector<std::string>& names,
                                                bool withGateway, ThreadPool& pool) {
  const core::DqnDockingConfig paper = core::DqnDockingConfig::paper2bsm();
  serve::ServiceOptions options;
  options.workers = 2;
  options.queueCapacity = 64;
  options.batcher.maxBatch = 32;
  options.batcher.flushDeadline = std::chrono::microseconds(200);
  options.stateMode = paper.stateMode;  // kFullWithBonds: the 16,599-real state
  options.env = paper.env;

  constexpr std::uint64_t kWeightSeeds[] = {2022, 2028};
  if (names.size() > std::size(kWeightSeeds)) {
    throw std::invalid_argument("buildServingStack: at most two tenants");
  }
  const core::StateEncoder probe(scenario, options.stateMode, options.normalizeStates);
  const metadock::DockingEnv probeEnv(scenario, options.env);
  auto stack = std::make_unique<ServingStack>();
  stack->names = names;
  for (std::size_t i = 0; i < names.size(); ++i) {
    Rng rng(kWeightSeeds[i]);
    auto net = std::make_unique<rl::MlpQNetwork>(probe.dim(), paper.agent.hiddenSizes,
                                                 probeEnv.actionCount(), rng);
    ServingStack::Pool p;
    p.registry = std::make_unique<serve::ModelRegistry>(std::move(net), names[i] + "-bench");
    p.service = std::make_unique<serve::DockingService>(scenario, *p.registry, options, &pool);
    stack->pools.push_back(std::move(p));
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    stack->directory.add(names[i], *stack->pools[i].service, *stack->pools[i].registry);
  }
  if (withGateway) stack->gateway = std::make_unique<gateway::HttpGateway>(stack->directory, 0);
  return stack;
}

serve::DockRequest dockRequest(std::uint64_t requestSeed) {
  serve::DockRequest request;
  request.maxSteps = 200;
  request.epsilon = 0.1;
  request.seed = requestSeed;
  return request;
}

serve::ScreenRequest screenRequest(std::uint64_t requestSeed, bool smoke) {
  serve::ScreenRequest request;
  request.librarySize = 8;
  // One ligand size: the work per screen then does not depend on which
  // sizes a request's library happened to draw.
  request.minAtoms = 12;
  request.maxAtoms = 12;
  request.evaluationsPerLigand = smoke ? 40 : 400;
  request.seed = requestSeed;
  return request;
}

namespace {

/// dock-open rate, frozen at the nearest 10/s below 70% of the
/// closed-loop capacity measured at the commit that defined the
/// benchmark (README.md, seed baseline).
constexpr double kDockOpenRate = 100.0;
/// dock-screen-mix: docks split evenly over two tenants, plus screens.
constexpr double kMixDockRate = 70.0;
constexpr double kMixScreenRate = 3.0;
constexpr std::size_t kSampledDocks = 32;
constexpr std::size_t kSampledScreens = 3;

constexpr int kDockLane = 0;
constexpr int kScreenLane = 1;

struct Traffic {
  std::vector<std::string> tenants;
  double dockRate = 0.0;
  double screenRate = 0.0;  ///< 0 = no screen lane
  std::size_t dockConnections = 4;
  /// Percentile reported as latency_tail_ms (README.md, "Metrics").
  double tailPercentile = 90.0;
};

std::string format17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Request seeds stay below 2^53 so they travel exactly as JSON numbers.
std::uint64_t requestSeed(Rng& rng) { return 1 + rng.uniformInt(std::uint64_t{1} << 40); }

class TrafficSource {
 public:
  TrafficSource(const Traffic& traffic, std::uint64_t seed, bool smoke)
      : traffic_(traffic), arrivals_(deriveSeed(seed, 3)), seeds_(deriveSeed(seed, 4)),
        smoke_(smoke) {}

  HttpCall dock() {
    const std::uint64_t s = requestSeed(seeds_);
    const serve::DockRequest r = dockRequest(s);
    HttpCall call;
    call.lane = kDockLane;
    call.tag = s;
    call.path = "/v1/models/" + traffic_.tenants[docks_++ % traffic_.tenants.size()] + "/dock";
    call.body = "{\"max_steps\":" + std::to_string(r.maxSteps) +
                ",\"epsilon\":" + format17(r.epsilon) + ",\"seed\":" + std::to_string(s) + "}";
    return call;
  }

  HttpCall screen() {
    const std::uint64_t s = requestSeed(seeds_);
    const serve::ScreenRequest r = screenRequest(s, smoke_);
    HttpCall call;
    call.lane = kScreenLane;
    call.tag = s;
    call.path =
        "/v1/models/" + traffic_.tenants[screens_++ % traffic_.tenants.size()] + "/screen";
    call.body = "{\"library_size\":" + std::to_string(r.librarySize) +
                ",\"min_atoms\":" + std::to_string(r.minAtoms) +
                ",\"max_atoms\":" + std::to_string(r.maxAtoms) +
                ",\"evals\":" + std::to_string(r.evaluationsPerLigand) +
                ",\"seed\":" + std::to_string(s) + "}";
    return call;
  }

  /// Arrivals over [t0, t0 + seconds). Docks (when `docks`) are a paced
  /// open loop, one every 1/dockRate seconds from a seeded phase
  /// (constant rate, wrk2-style): at ~70% load the bursts of a Poisson
  /// stream decide the tail, and the tail of one 10 s window then swings
  /// by a quarter from seed to seed. Screens come one per 1/screenRate
  /// slot at a seeded uniform offset inside the slot: a fixed count per
  /// window, but no fixed phase against the dock stream — two strictly
  /// periodic streams would hit the same docks with every screen.
  std::vector<HttpCall> schedule(Clock::time_point t0, double seconds, bool docks) {
    std::vector<HttpCall> calls;
    if (docks && traffic_.dockRate > 0.0) {
      const double period = 1.0 / traffic_.dockRate;
      for (double t = arrivals_.uniform() * period; t < seconds; t += period) {
        calls.push_back(at(t0, t, dock()));
      }
    }
    if (traffic_.screenRate > 0.0) {
      const double period = 1.0 / traffic_.screenRate;
      for (double slot = 0.0; slot < seconds; slot += period) {
        const double t = slot + arrivals_.uniform() * period;
        if (t < seconds) calls.push_back(at(t0, t, screen()));
      }
    }
    return calls;
  }

 private:
  static HttpCall at(Clock::time_point t0, double seconds, HttpCall call) {
    call.due = t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
    return call;
  }

  const Traffic& traffic_;
  Rng arrivals_;
  Rng seeds_;
  bool smoke_;
  std::size_t docks_ = 0;
  std::size_t screens_ = 0;
};

bool succeeded(const HttpCall& call) {
  if (call.status != 200) return false;
  try {
    const gateway::JsonValue reply = gateway::jsonParse(call.reply);
    return reply.stringOr("status", "") == "done";
  } catch (const std::exception&) {
    return false;
  }
}

std::size_t tenantOf(const ServingStack& stack, const HttpCall& call) {
  for (std::size_t i = 0; i < stack.names.size(); ++i) {
    if (call.path.rfind("/v1/models/" + stack.names[i] + "/", 0) == 0) return i;
  }
  throw std::logic_error("call for an unknown tenant: " + call.path);
}

/// Replies must carry exactly what a direct service call returns.
bool dockMatchesDirect(ServingStack& stack, const HttpCall& call, std::vector<double>& directMs) {
  const gateway::JsonValue reply = gateway::jsonParse(call.reply);
  serve::DockingService& service = *stack.pools[tenantOf(stack, call)].service;
  const auto t0 = Clock::now();
  const serve::SubmitResult submitted = service.submitDock(dockRequest(call.tag));
  if (!submitted.accepted()) return false;
  const serve::JobOutcome direct = service.wait(submitted.jobId);
  directMs.push_back(secondsBetween(t0, Clock::now()) * 1e3);
  const auto number = [&](const char* key) { return format17(reply.numberOr(key, NAN)); };
  return direct.status == serve::JobStatus::kDone &&
         number("initial_score") == format17(direct.dock.initialScore) &&
         number("best_score") == format17(direct.dock.bestScore) &&
         number("final_score") == format17(direct.dock.finalScore) &&
         number("best_rmsd") == format17(direct.dock.bestRmsd) &&
         reply.numberOr("steps", -1.0) == static_cast<double>(direct.dock.steps) &&
         reply.stringOr("termination", "") == direct.dock.termination;
}

bool screenMatchesDirect(ServingStack& stack, const HttpCall& call, bool smoke) {
  const gateway::JsonValue reply = gateway::jsonParse(call.reply);
  serve::DockingService& service = *stack.pools[tenantOf(stack, call)].service;
  const serve::SubmitResult submitted = service.submitScreen(screenRequest(call.tag, smoke));
  if (!submitted.accepted()) return false;
  const serve::JobOutcome direct = service.wait(submitted.jobId);
  return direct.status == serve::JobStatus::kDone &&
         reply.numberOr("ligands", -1.0) == static_cast<double>(direct.screen.ligands) &&
         reply.numberOr("hit_count", -1.0) == static_cast<double>(direct.screen.hitCount) &&
         format17(reply.numberOr("best_score", NAN)) == format17(direct.screen.bestScore) &&
         reply.stringOr("best_ligand", "") == direct.screen.bestLigand &&
         reply.numberOr("evaluations", -1.0) ==
             static_cast<double>(direct.screen.totalEvaluations);
}

struct BatcherTotals {
  double rows = 0.0;
  double batches = 0.0;
};

BatcherTotals batcherTotals(const ServingStack& stack) {
  BatcherTotals t;
  for (const auto& p : stack.pools) {
    const serve::BatcherStats s = p.service->stats().batcher;
    t.rows += static_cast<double>(s.requests);
    t.batches += static_cast<double>(s.batches);
  }
  return t;
}

Result runServing(const Options& options, ThreadPool& pool, const Traffic& traffic) {
  Result result;
  std::unique_ptr<ServingStack> stack;
  const double setupSeconds = timedSetup(
      kSetupRepeats,
      [&] {
        const chem::Scenario scenario = chem::buildScenario(chem::ScenarioSpec::paper2bsm());
        return buildServingStack(scenario, traffic.tenants, /*withGateway=*/true, pool);
      },
      stack);

  const bool screens = traffic.screenRate > 0.0;
  std::vector<std::size_t> lanes{traffic.dockConnections};
  if (screens) lanes.push_back(1);
  LoadGenerator generator(stack->gateway->port(), lanes);
  TrafficSource source(traffic, options.seed, options.smoke);

  // Phases: warm-up (not timed), open loop (latency), closed loop on the
  // dock connections with the screen stream still arriving (capacity).
  const double warmup = options.smoke ? 0.2 : 1.0;
  const double openSeconds = options.seconds * 0.6;
  const double closedSeconds = options.seconds * 0.4;
  generator.run(source.schedule(Clock::now(), warmup, /*docks=*/true));

  const BatcherTotals before = batcherTotals(*stack);
  const std::vector<HttpCall> open =
      generator.run(source.schedule(Clock::now(), openSeconds, /*docks=*/true));
  const BatcherTotals after = batcherTotals(*stack);

  const auto closedStart = Clock::now();
  ClosedLoop loop{kDockLane, closedStart + std::chrono::duration_cast<Clock::duration>(
                                               std::chrono::duration<double>(closedSeconds)),
                  [&source] { return source.dock(); }};
  const std::vector<HttpCall> closed =
      generator.run(source.schedule(closedStart, closedSeconds, /*docks=*/false), &loop);
  const double rssMb = peakRssMb();

  std::vector<double> dockLatency, screenLatency, lateness;
  std::vector<const HttpCall*> okDocks, okScreens;
  std::size_t closedDocks = 0;
  Clock::time_point closedEnd = closedStart;
  for (const auto* phase : {&open, &closed}) {
    for (const HttpCall& call : *phase) {
      ++result.attempted;
      const bool ok = succeeded(call);
      if (!ok) ++result.failed;
      lateness.push_back(call.latenessMs());
      if (phase == &closed && call.lane == kDockLane) {
        ++closedDocks;
        closedEnd = std::max(closedEnd, call.done);
      }
      if (phase != &open || !ok) continue;
      if (call.lane == kDockLane) {
        dockLatency.push_back(call.latencyMs());
        okDocks.push_back(&call);
      } else {
        screenLatency.push_back(call.latencyMs());
        okScreens.push_back(&call);
      }
    }
  }
  const double closedWall = secondsBetween(closedStart, closedEnd);
  const double capacity = closedWall > 0.0 ? static_cast<double>(closedDocks) / closedWall : 0.0;

  result.note("open_docks", std::to_string(dockLatency.size()));
  result.note("open_screens", std::to_string(screenLatency.size()));
  result.note("closed_docks", std::to_string(closedDocks));
  result.note("lateness_ms_p99", std::to_string(percentile(lateness, 99.0)));
  result.note("dock_p99_ms", std::to_string(percentile(dockLatency, 99.0)));
  if (screens) result.note("screen_p50_ms", std::to_string(percentile(screenLatency, 50.0)));

  // Correctness, after the timed window.
  result.gate("gateway_parse_errors_zero", stack->gateway->stats().parseErrors == 0);
  std::vector<double> directMs;
  bool docksMatch = !okDocks.empty();
  const std::size_t samples = std::min(kSampledDocks, okDocks.size());
  for (std::size_t i = 0; i < samples && docksMatch; ++i) {
    docksMatch = dockMatchesDirect(*stack, *okDocks[i * okDocks.size() / samples], directMs);
  }
  result.gate("docks_match_direct_service", docksMatch);
  if (screens) {
    bool screensMatch = !okScreens.empty();
    const std::size_t n = std::min(kSampledScreens, okScreens.size());
    for (std::size_t i = 0; i < n && screensMatch; ++i) {
      screensMatch = screenMatchesDirect(*stack, *okScreens[i * okScreens.size() / n],
                                         options.smoke);
    }
    result.gate("screens_match_direct_service", screensMatch);
  }

  result.metric("setup_s", setupSeconds, "s");
  result.metric("peak_rss_mb", rssMb, "MB");
  result.metric("work_per_s", capacity, "1/s");
  result.metric("latency_p50_ms", percentile(dockLatency, 50.0), "ms");
  result.metric("latency_tail_ms", percentile(dockLatency, traffic.tailPercentile), "ms");
  result.note("tail_percentile", std::to_string(static_cast<int>(traffic.tailPercentile)));

  if (options.traced) {
    SweepInputs inputs;
    inputs.service = stack->pools.front().service.get();
    inputs.directDockMs = directMs;
    const LayerTimes layers = runLayerSweeps(options, pool, inputs);
    reportLayerTimes(layers, result);

    // Where an open-loop dock's latency (from its due time) goes: waiting
    // in the generator for a free connection, outside the service
    // (gateway queue, HTTP, socket), and inside it. Inside splits into
    // env steps + greedy forwards (counted x swept) and the remainder,
    // which is labelled batcher wait and is derived, not measured.
    const double greedyShare = 1.0 - dockRequest(0).epsilon;
    double total = 0.0, wait = 0.0, outside = 0.0, exec = 0.0, compute = 0.0, steps = 0.0;
    std::size_t late = 0;
    for (const HttpCall* call : okDocks) {
      const gateway::JsonValue reply = gateway::jsonParse(call->reply);
      const double seconds = reply.numberOr("seconds", 0.0);
      const double n = reply.numberOr("steps", 0.0);
      total += secondsBetween(call->due, call->done);
      wait += secondsBetween(call->due, call->sent);
      outside += secondsBetween(call->sent, call->done) - seconds;
      exec += seconds;
      compute += n * (layers.serveEnvStepUs + greedyShare * layers.predict1Us) * 1e-6;
      steps += n;
      if (call->latenessMs() > 1.0) ++late;
    }
    const auto share = [&](double s) { return total > 0.0 ? s / total : 0.0; };
    result.metric("loadgen.wait_share", share(wait), "share");
    result.metric("loadgen.late_share",
                  okDocks.empty() ? 0.0 : static_cast<double>(late) / okDocks.size(), "share");
    result.metric("serve.outside_exec_share", share(outside), "share");
    result.metric("serve.exec_share", share(exec), "share");
    result.metric("serve.batcher_wait_share", share(exec - compute), "share");
    result.metric("trace.attributed_share", share(wait + outside + compute), "share");
    const double rows = after.rows - before.rows;
    const double batches = after.batches - before.batches;
    result.metric("serve.batch_rows_mean", batches > 0.0 ? rows / batches : 0.0, "count");
    result.metric("serve.batches_per_step", steps > 0.0 ? batches / steps : 0.0, "count");
    result.metric("dock.steps_mean", okDocks.empty() ? 0.0 : steps / okDocks.size(), "count");
    if (screens) {
      result.metric("serve.screen_slowdown",
                    layers.directScreenMs > 0.0
                        ? percentile(screenLatency, 50.0) / layers.directScreenMs
                        : 0.0,
                    "x");
    }
    // The generator records the same timestamps traced or not; the
    // breakdown above is computed after the window.
    result.metric("trace.overhead_share", 0.0, "share");
  }
  return result;
}

}  // namespace

Result runDockOpen(const Options& options, ThreadPool& pool) {
  Traffic traffic;
  traffic.tenants = {"alpha"};
  traffic.dockRate = kDockOpenRate;
  traffic.dockConnections = 4;
  return runServing(options, pool, traffic);
}

Result runDockScreenMix(const Options& options, ThreadPool& pool) {
  Traffic traffic;
  traffic.tenants = {"alpha", "beta"};
  traffic.dockRate = kMixDockRate;
  traffic.screenRate = kMixScreenRate;
  traffic.dockConnections = 3;  // plus one dedicated screen connection
  // Screen cost varies ~5x between requests and the docks a screen
  // overlaps are slowed several-fold, so p90 sits on the knee between
  // slowed and unslowed docks and flips from run to run; p75 repeats.
  traffic.tailPercentile = 75.0;
  return runServing(options, pool, traffic);
}

}  // namespace e2e
