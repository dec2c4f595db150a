#include "bench/e2e/trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace e2e {

double SpanLog::micros(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

std::uint64_t SpanLog::open(const char* name, Clock::time_point start) {
  if (!recording_) return 0;
  const std::uint64_t id = nextId_++;
  spans_.push_back({name, micros(start), micros(start), id, parent_});
  parent_ = id;
  return id;
}

void SpanLog::close(std::uint64_t id, Clock::time_point end) {
  if (id == 0) return;
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      it->endUs = micros(end);
      parent_ = it->parent;
      Total& total = totals_[it->name];
      ++total.count;
      total.seconds += (it->endUs - it->startUs) * 1e-6;
      return;
    }
  }
}

void SpanLog::record(const char* name, Clock::time_point start, Clock::time_point end) {
  if (!recording_) return;
  spans_.push_back({name, micros(start), micros(end), nextId_++, parent_});
  Total& total = totals_[name];
  ++total.count;
  total.seconds += secondsBetween(start, end);
}

double SpanLog::totalSeconds(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second.seconds;
}

std::size_t SpanLog::count(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0 : it->second.count;
}

void SpanLog::dump(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write span dump " + path);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,\"id\":%llu,"
                 "\"parent\":%llu}\n",
                 s.name, s.startUs, s.endUs, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fclose(f);
}

void TracedEnv::reset(std::vector<double>& state) {
  const auto t0 = Clock::now();
  inner_.reset(state);
  log_.record("env.reset", t0, Clock::now());
}

dqndock::rl::EnvStep TracedEnv::step(int action, std::vector<double>& nextState) {
  const auto t0 = Clock::now();
  stepStarts_.push_back(t0);
  const dqndock::rl::EnvStep result = inner_.step(action, nextState);
  log_.record("env.step", t0, Clock::now());
  return result;
}

void TracedVectorEnv::reset(std::size_t i, std::span<double> state) {
  const auto t0 = Clock::now();
  inner_.reset(i, state);
  log_.record("venv.reset", t0, Clock::now());
}

void TracedVectorEnv::step(std::span<const int> actions, dqndock::nn::Tensor& nextStates,
                           std::span<dqndock::rl::EnvStep> results) {
  const auto t0 = Clock::now();
  stepStarts_.push_back(t0);
  inner_.step(actions, nextStates, results);
  log_.record("venv.step", t0, Clock::now());
}

void TracedReplay::push(std::span<const double> state, int action, double reward,
                        std::span<const double> nextState, bool terminal) {
  if (!log_.recording()) {
    inner_.push(state, action, reward, nextState, terminal);
    return;
  }
  const auto t0 = Clock::now();
  inner_.push(state, action, reward, nextState, terminal);
  log_.record("replay.push", t0, Clock::now());
}

dqndock::rl::Minibatch TracedReplay::sample(std::size_t batch, dqndock::Rng& rng) const {
  const auto t0 = Clock::now();
  dqndock::rl::Minibatch mb = inner_.sample(batch, rng);
  log_.record("replay.sample", t0, Clock::now());
  return mb;
}

void TracedReplay::sampleInto(dqndock::rl::Minibatch& mb, std::size_t batch,
                              dqndock::Rng& rng) const {
  const auto t0 = Clock::now();
  inner_.sampleInto(mb, batch, rng);
  log_.record("replay.sample", t0, Clock::now());
}

}  // namespace e2e
