// HTTP/JSON gateway: one REST front-end hosting MANY registered
// networks. Every --models name gets its own DockingService worker pool
// backed by a versioned, hot-swappable ModelRegistry; requests route by
// model name (POST /v1/models/<name>/dock). Runs until SIGINT/SIGTERM.
//
//   ./gateway_server [--port=0] [--models=alpha,beta] [--scenario=tiny|paper]
//                    [--workers=2] [--queue=64] [--batch=32] [--flush-us=200]
//                    [--hidden=64,64] [--seed=2018]
//
// Quickstart against a running gateway (or see scripts/gateway_curl.sh):
//   curl -s localhost:PORT/v1/models
//   curl -s -X POST localhost:PORT/v1/models/alpha/dock -d '{"max_steps": 50, "seed": 7}'
//   curl -s localhost:PORT/v1/stats
//
// To serve a trained policy, start with the --scenario and --hidden it was
// trained with, then publish its checkpoint (a path on the server's disk):
//   curl -s -X POST localhost:PORT/v1/models/alpha/publish -d '{"path": "/abs/policy.bin"}'

#include <csignal>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include <unistd.h>

#include "src/chem/synthetic.hpp"
#include "src/common/cli.hpp"
#include "src/gateway/gateway.hpp"

using namespace dqndock;

namespace {

void printUsage() {
  std::fprintf(stderr,
               "usage: gateway_server [--port=0] [--models=alpha,beta]\n"
               "                      [--scenario=tiny|paper] [--workers=2] [--queue=64]\n"
               "                      [--batch=32] [--flush-us=200] [--hidden=64,64]\n"
               "                      [--seed=2018]\n");
}

std::vector<std::string> splitNames(const std::string& spec) {
  std::vector<std::string> names;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    if (comma > pos) names.push_back(spec.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return names;
}

int run(const CliArgs& args) {
  const std::string scenarioName = args.getString("scenario", "tiny");
  const chem::ScenarioSpec spec =
      scenarioName == "paper" ? chem::ScenarioSpec::paper2bsm() : chem::ScenarioSpec::tiny();
  const chem::Scenario scenario = chem::buildScenario(spec);

  serve::ServiceOptions opts;
  opts.workers = static_cast<std::size_t>(args.getInt("workers", 2));
  opts.queueCapacity = static_cast<std::size_t>(args.getInt("queue", 64));
  opts.batcher.maxBatch = static_cast<std::size_t>(args.getInt("batch", 32));
  opts.batcher.flushDeadline = std::chrono::microseconds(args.getInt("flush-us", 200));

  const std::vector<std::string> names = splitNames(args.getString("models", "alpha,beta"));
  if (names.empty()) {
    std::fprintf(stderr, "gateway_server: --models needs at least one name\n");
    printUsage();
    return 1;
  }
  const std::vector<std::size_t> hidden =
      parseSizeList(args.getString("hidden", "64,64"), "hidden");
  const long seed = args.getInt("seed", 2018);

  const core::StateEncoder probe(scenario, opts.stateMode, opts.normalizeStates);
  metadock::DockingEnv probeEnv(scenario, opts.env);

  // Route SIGINT/SIGTERM through a sigwait() thread instead of a signal
  // handler: requestStop() takes locks, which a handler must not. The
  // mask must be in place BEFORE any worker thread spawns — threads
  // inherit it, and a process-directed signal delivered to a thread with
  // the default mask would kill the process.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  // One pool per registered model: distinct weights (per-model seed), a
  // private worker pool + queue, one shared scenario.
  std::vector<std::unique_ptr<serve::ModelRegistry>> registries;
  std::vector<std::unique_ptr<serve::DockingService>> services;
  serve::TenantDirectory directory;
  for (std::size_t i = 0; i < names.size(); ++i) {
    Rng rng(static_cast<std::uint64_t>(seed) + i);
    auto net = std::make_unique<rl::MlpQNetwork>(probe.dim(), hidden,
                                                 probeEnv.actionCount(), rng);
    registries.push_back(
        std::make_unique<serve::ModelRegistry>(std::move(net), names[i] + "-init"));
    services.push_back(std::make_unique<serve::DockingService>(scenario, *registries.back(),
                                                               opts, &ThreadPool::global()));
    directory.add(names[i], *services.back(), *registries.back());
  }

  gateway::HttpGateway gw(directory, static_cast<std::uint16_t>(args.getUint16("port", 0)));

  std::thread signalThread([&] {
    int sig = 0;
    sigwait(&signals, &sig);
    gw.requestStop();
  });

  std::printf("gateway on http://127.0.0.1:%u — scenario=%s state_dim=%zu actions=%d\n",
              gw.port(), scenarioName.c_str(), probe.dim(), probeEnv.actionCount());
  std::printf("  %zu model(s):", names.size());
  for (const auto& name : names) std::printf(" %s", name.c_str());
  std::printf("  (%zu workers, queue %zu each)\n", opts.workers, opts.queueCapacity);
  std::printf("try: curl -s 127.0.0.1:%u/v1/models\n", gw.port());
  std::printf("     curl -s -X POST 127.0.0.1:%u/v1/models/%s/dock -d '{\"max_steps\":50}'\n",
              gw.port(), names.front().c_str());

  gw.waitUntilStopped();
  std::printf("stop requested, draining...\n");
  ::kill(::getpid(), SIGTERM);  // unblock the sigwait thread
  signalThread.join();
  gw.stop();
  for (auto& service : services) service->shutdown();

  const gateway::GatewayStats stats = gw.stats();
  std::printf("gateway served %llu requests on %llu connections "
              "(%llu parse errors, %llu peer hangups)\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.connections),
              static_cast<unsigned long long>(stats.parseErrors),
              static_cast<unsigned long long>(stats.peerHangups));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Malformed flag values print usage and exit 1, never abort.
  try {
    return run(CliArgs(argc, argv));
  } catch (const CliError& e) {
    std::fprintf(stderr, "gateway_server: %s\n", e.what());
    printUsage();
    return 1;
  } catch (const std::exception& e) {
    // Startup failures (e.g. the port is already in use) exit with a
    // message instead of SIGABRT from an uncaught exception.
    std::fprintf(stderr, "gateway_server: fatal: %s\n", e.what());
    return 1;
  }
}
