// bench_e2e: runs ONE workload of the end-to-end benchmark per process
// (so peak RSS is per workload) and prints one JSON object on stdout:
// stamps, attempted/failed counts, correctness gates and metrics. run.py
// builds this binary, runs it per workload and checks the output.
//
//   bench_e2e --workload=<name> --seed=<n> [--seconds=10] [--traced]
//             [--smoke] [--trace-out=spans.jsonl] [--work-dir=DIR]
//
// Workloads: train-learn, collect-v32, dock-open, dock-screen-mix,
// screen-dist. Exit status: 0 all gates passed, 1 a gate failed or an
// operation failed, 2 usage or runtime error.

#include <cstdio>
#include <functional>
#include <map>
#include <set>

#include "bench/e2e/workloads.hpp"
#include "src/common/cli.hpp"
#include "src/common/logging.hpp"

using namespace dqndock;

namespace {

const std::map<std::string, std::function<e2e::Result(const e2e::Options&, ThreadPool&)>>&
workloads() {
  static const std::map<std::string,
                        std::function<e2e::Result(const e2e::Options&, ThreadPool&)>>
      table{{"train-learn", e2e::runTrainLearn},
            {"collect-v32", e2e::runCollectV32},
            {"dock-open", e2e::runDockOpen},
            {"dock-screen-mix", e2e::runDockScreenMix},
            {"screen-dist", e2e::runScreenDist}};
  return table;
}

/// Per-layer shares and counts of layers a workload does not run read 0
/// (every traced run reports the full per-layer set; per-layer times are
/// swept on every workload, so they are never filled here).
void fillOffPath(e2e::Result& result) {
  static const std::pair<const char*, const char*> kOffPath[] = {
      {"core.env_share", "share"},         {"rl.replay_share", "share"},
      {"rl.learn_share", "share"},         {"nn.qforward_share", "share"},
      {"loadgen.wait_share", "share"},     {"loadgen.late_share", "share"},
      {"serve.outside_exec_share", "share"}, {"serve.exec_share", "share"},
      {"serve.batcher_wait_share", "share"}, {"serve.batch_rows_mean", "count"},
      {"serve.batches_per_step", "count"}, {"dock.steps_mean", "count"},
      {"serve.screen_slowdown", "x"},      {"screen.worker_busy_share", "share"},
      {"screen.requests_per_ligand", "count"}, {"screen.shards_stolen", "count"},
      {"screen.leases_expired", "count"},  {"screen.results_stale", "count"}};
  std::set<std::string> present;
  for (const auto& m : result.metrics) present.insert(m.name);
  for (const auto& [name, unit] : kOffPath) {
    if (present.count(name) == 0) result.metric(name, 0.0, unit);
  }
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

void printResult(const e2e::Options& options, const e2e::Result& result) {
  std::printf("{\"workload\":%s,\"seed\":%llu,\"seconds\":%.17g,\"traced\":%s,\"smoke\":%s,",
              jsonString(options.workload).c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.traced ? "true" : "false", options.smoke ? "true" : "false");
  std::printf("\"stamp\":{");
  for (std::size_t i = 0; i < result.info.size(); ++i) {
    std::printf("%s%s:%s", i ? "," : "", jsonString(result.info[i].first).c_str(),
                jsonString(result.info[i].second).c_str());
  }
  std::printf("},\"attempted\":%llu,\"failed\":%llu,\"gates\":{",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.gates.size(); ++i) {
    std::printf("%s%s:%s", i ? "," : "", jsonString(result.gates[i].first).c_str(),
                result.gates[i].second ? "true" : "false");
  }
  std::printf("},\"metrics\":{");
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    std::printf("%s%s:{\"value\":%.17g,\"unit\":%s}", i ? "," : "", jsonString(m.name).c_str(),
                m.value, jsonString(m.unit).c_str());
  }
  std::printf("}}\n");
}

void printUsage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload=<train-learn|collect-v32|dock-open|"
               "dock-screen-mix|screen-dist>\n"
               "                 --seed=<n> [--seconds=10] [--traced] [--smoke]\n"
               "                 [--trace-out=spans.jsonl] [--work-dir=DIR]\n");
}

int run(const CliArgs& args) {
  e2e::Options options;
  options.workload = args.getString("workload", "");
  const long seed = args.getInt("seed", -1);
  options.seconds = args.getDouble("seconds", 10.0);
  options.traced = args.has("traced");
  options.smoke = args.has("smoke");
  options.traceOut = args.getString("trace-out", "");
  options.workDir = args.getString("work-dir", ".");
  const auto it = workloads().find(options.workload);
  if (it == workloads().end() || seed < 0 || !(options.seconds > 0.0)) {
    printUsage();
    return 2;
  }
  options.seed = static_cast<std::uint64_t>(seed);
  if (options.smoke) options.seconds = std::min(options.seconds, 1.0);

  setLogLevel(LogLevel::kWarn);  // keep stderr to what matters
  ThreadPool pool(e2e::harnessThreads());
  e2e::Result result = it->second(options, pool);
  e2e::stampHost(result);
  if (options.traced) fillOffPath(result);
  printResult(options, result);

  bool ok = result.failed == 0;
  for (const auto& gate : result.gates) ok = ok && gate.second;
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(CliArgs(argc, argv));
  } catch (const CliError& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    printUsage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: fatal: %s\n", e.what());
    return 2;
  }
}
