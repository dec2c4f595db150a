#include "bench/benchkit.hpp"

#include <ctime>
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

namespace benchmark {
namespace {

struct Flags {
  std::string filter;
  double minTimeSeconds = 0.5;
  std::string format = "console";  // "console" | "json"
};

Flags& flags() {
  static Flags f;
  return f;
}

std::vector<internal::Benchmark*>& registry() {
  static std::vector<internal::Benchmark*> r;
  return r;
}

std::vector<std::pair<std::string, std::string>>& customContext() {
  static std::vector<std::pair<std::string, std::string>> c;
  return c;
}

double wallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double processCpuSeconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return wallSeconds();
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// "0.5" or "0.5s" -> 0.5; mirrors google-benchmark's flag syntax.
double parseMinTime(const std::string& text) {
  std::string trimmed = text;
  if (!trimmed.empty() && (trimmed.back() == 's' || trimmed.back() == 'x')) {
    if (trimmed.back() == 'x')
      throw std::invalid_argument("benchkit: --benchmark_min_time=<N>x is not supported");
    trimmed.pop_back();
  }
  std::size_t consumed = 0;
  const double value = std::stod(trimmed, &consumed);
  if (consumed != trimmed.size() || value < 0.0)
    throw std::invalid_argument("benchkit: bad --benchmark_min_time value: " + text);
  return value;
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

std::string localDate() {
  const std::time_t now = std::time(nullptr);
  char buf[64];
  std::tm tm{};
  localtime_r(&now, &tm);
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%S%z", &tm);
  return buf;
}

struct RunResult {
  std::string name;
  std::size_t iterations = 0;
  double realNsPerIter = 0.0;
  double cpuNsPerIter = 0.0;
  double itemsPerSecond = 0.0;  // 0 when SetItemsProcessed was not called
  std::string label;
};

/// Runs one (benchmark, arg-set) pair, growing the iteration count until
/// the timed region covers --benchmark_min_time; reports the final run.
RunResult runOne(internal::Benchmark* bench, const std::vector<std::int64_t>& args) {
  std::string name = bench->name();
  for (const std::int64_t a : args) {
    name += '/';
    name += std::to_string(a);
  }
  if (bench->useRealTime()) name += "/real_time";

  std::size_t iterations = 1;
  for (;;) {
    State state(iterations, args);
    bench->function()(state);
    const double measured = bench->useRealTime() ? state.realSeconds() : state.cpuSeconds();
    if (measured >= flags().minTimeSeconds || iterations >= (1ull << 30)) {
      RunResult result;
      result.name = std::move(name);
      result.iterations = iterations;
      const double iters = static_cast<double>(iterations);
      result.realNsPerIter = state.realSeconds() * 1e9 / iters;
      result.cpuNsPerIter = state.cpuSeconds() * 1e9 / iters;
      if (state.itemsProcessed() > 0 && measured > 0.0)
        result.itemsPerSecond = static_cast<double>(state.itemsProcessed()) / measured;
      result.label = state.label();
      return result;
    }
    // Aim ~1.4x past the target so the final run rarely undershoots.
    const double grow = measured > 0.0
                            ? 1.4 * flags().minTimeSeconds / measured
                            : 10.0;
    iterations = std::max(iterations + 1,
                          static_cast<std::size_t>(static_cast<double>(iterations) *
                                                   std::min(grow, 10.0)));
  }
}

void printJson(const std::vector<RunResult>& results) {
  std::ostringstream out;
  out << "{\n  \"context\": {\n";
  out << "    \"date\": \"" << jsonEscape(localDate()) << "\",\n";
  out << "    \"num_cpus\": " << std::thread::hardware_concurrency() << ",\n";
  out << "    \"cpu_scaling_enabled\": false,\n";
#ifdef NDEBUG
  out << "    \"library_build_type\": \"release\"";
#else
  out << "    \"library_build_type\": \"debug\"";
#endif
  for (const auto& [key, value] : customContext())
    out << ",\n    \"" << jsonEscape(key) << "\": \"" << jsonEscape(value) << "\"";
  out << "\n  },\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    out << "    {\n";
    out << "      \"name\": \"" << jsonEscape(r.name) << "\",\n";
    out << "      \"run_name\": \"" << jsonEscape(r.name) << "\",\n";
    out << "      \"run_type\": \"iteration\",\n";
    out << "      \"iterations\": " << r.iterations << ",\n";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", r.realNsPerIter);
    out << "      \"real_time\": " << buf << ",\n";
    std::snprintf(buf, sizeof buf, "%.6g", r.cpuNsPerIter);
    out << "      \"cpu_time\": " << buf << ",\n";
    out << "      \"time_unit\": \"ns\"";
    if (r.itemsPerSecond > 0.0) {
      std::snprintf(buf, sizeof buf, "%.6g", r.itemsPerSecond);
      out << ",\n      \"items_per_second\": " << buf;
    }
    if (!r.label.empty()) out << ",\n      \"label\": \"" << jsonEscape(r.label) << "\"";
    out << "\n    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::fputs(out.str().c_str(), stdout);
}

void printConsole(const std::vector<RunResult>& results) {
  std::printf("%-44s %14s %14s %12s\n", "Benchmark", "Time", "CPU", "Iterations");
  std::printf("%s\n", std::string(88, '-').c_str());
  for (const RunResult& r : results) {
    std::printf("%-44s %11.0f ns %11.0f ns %12zu", r.name.c_str(), r.realNsPerIter,
                r.cpuNsPerIter, r.iterations);
    if (r.itemsPerSecond > 0.0) std::printf("  items/s=%.4g", r.itemsPerSecond);
    if (!r.label.empty()) std::printf("  %s", r.label.c_str());
    std::printf("\n");
  }
}

}  // namespace

State::State(std::size_t maxIterations, std::vector<std::int64_t> args)
    : maxIterations_(maxIterations), args_(std::move(args)) {}

std::int64_t State::range(std::size_t i) const {
  if (i >= args_.size())
    throw std::out_of_range("benchkit: State::range(" + std::to_string(i) +
                            ") but benchmark has " + std::to_string(args_.size()) + " arg(s)");
  return args_[i];
}

void State::startTiming() {
  timing_ = true;
  cpuStart_ = processCpuSeconds();
  realStart_ = wallSeconds();
}

void State::finishTiming() {
  if (!timing_) return;
  realSeconds_ = wallSeconds() - realStart_;
  cpuSeconds_ = processCpuSeconds() - cpuStart_;
  timing_ = false;
}

namespace internal {

Benchmark* RegisterBenchmark(const char* name, Function fn) {
  // Leaked intentionally: registration objects live for the process.
  auto* bench = new Benchmark(name, fn);
  registry().push_back(bench);
  return bench;
}

}  // namespace internal

void Initialize(int* argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    const auto valueOf = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = valueOf("--benchmark_filter=")) {
      flags().filter = v;
    } else if (const char* v = valueOf("--benchmark_min_time=")) {
      flags().minTimeSeconds = parseMinTime(v);
    } else if (const char* v = valueOf("--benchmark_format=")) {
      if (std::string(v) != "console" && std::string(v) != "json")
        throw std::invalid_argument("benchkit: unsupported --benchmark_format: " + std::string(v));
      flags().format = v;
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
}

bool ReportUnrecognizedArguments(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    std::fprintf(stderr, "benchkit: unrecognized argument: %s\n", argv[i]);
  return argc > 1;
}

void AddCustomContext(const std::string& key, const std::string& value) {
  customContext().emplace_back(key, value);
}

std::size_t RunSpecifiedBenchmarks() {
  std::vector<RunResult> results;
  const std::regex filter(flags().filter.empty() ? std::string(".") : flags().filter);
  for (internal::Benchmark* bench : registry()) {
    for (const std::vector<std::int64_t>& args : bench->runs()) {
      std::string fullName = bench->name();
      for (const std::int64_t a : args) {
        fullName += '/';
        fullName += std::to_string(a);
      }
      if (!std::regex_search(fullName, filter)) continue;
      results.push_back(runOne(bench, args));
    }
  }
  if (flags().format == "json")
    printJson(results);
  else
    printConsole(results);
  return results.size();
}

void Shutdown() {}

}  // namespace benchmark
