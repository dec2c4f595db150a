#include "src/metadock/file_env.hpp"

#include <atomic>
#include <fstream>
#include <stdexcept>

#include "src/common/rng.hpp"

namespace dqndock::metadock {

namespace fs = std::filesystem;

namespace {

/// Deterministic auto-generated exchange-dir name for instance `n`. The
/// configured seed (not std::random_device) drives the name so runs are
/// reproducible; the instance index keeps simultaneous FileEnvs in one
/// process on distinct directories even with equal seeds.
std::string exchangeDirName(std::uint64_t seed, std::uint64_t n) {
  Rng rng(seed ^ (n * 0x9e3779b97f4a7c15ULL));
  return "dqndock-ipc-" + std::to_string(rng()) + "-" + std::to_string(n);
}

/// Create and claim a fresh auto-named directory under the temp dir. A
/// name that already exists belongs to someone else — another process
/// counting instances from the same seed — so move on to the next
/// instance index rather than share (and later delete) it.
fs::path claimExchangeDir(std::uint64_t seed) {
  static std::atomic<std::uint64_t> instance{0};
  const fs::path root = fs::temp_directory_path();
  for (;;) {
    const std::uint64_t n = instance.fetch_add(1, std::memory_order_relaxed);
    fs::path dir = root / exchangeDirName(seed, n);
    if (fs::create_directory(dir)) return dir;
  }
}

}  // namespace

FileEnv::FileEnv(DockingEnv& env, fs::path exchangeDir, std::uint64_t seed)
    : env_(env), dir_(std::move(exchangeDir)) {
  if (dir_.empty()) {
    dir_ = claimExchangeDir(seed);
    ownsDir_ = true;
  } else {
    fs::create_directories(dir_);
  }
}

FileEnv::~FileEnv() {
  if (ownsDir_) {
    std::error_code ec;
    fs::remove_all(dir_, ec);  // best-effort cleanup
  }
}

double FileEnv::reset() {
  const double score = env_.reset();
  StepResult initial;
  initial.score = score;
  writeStateAndScore(initial);
  const StepResult parsed = readStateAndScore();
  return parsed.score;
}

StepResult FileEnv::step(int action) {
  // Agent side: persist the chosen action.
  writeAction(action);
  // METADOCK side: read the action file, advance the simulation, persist
  // the new state and its score as two separate files (paper Section 5).
  const int parsedAction = readAction();
  const StepResult result = env_.step(parsedAction);
  writeStateAndScore(result);
  // Agent side again: load both files back.
  return readStateAndScore();
}

void FileEnv::writeAction(int action) const {
  std::ofstream out(dir_ / "action.txt", std::ios::trunc);
  if (!out) throw std::runtime_error("FileEnv: cannot write action.txt");
  out << action << '\n';
  out.flush();
}

int FileEnv::readAction() const {
  std::ifstream in(dir_ / "action.txt");
  if (!in) throw std::runtime_error("FileEnv: cannot read action.txt");
  int action = -1;
  in >> action;
  if (!in) throw std::runtime_error("FileEnv: malformed action.txt");
  return action;
}

void FileEnv::writeStateAndScore(const StepResult& result) const {
  {
    std::ofstream out(dir_ / "state.txt", std::ios::trunc);
    if (!out) throw std::runtime_error("FileEnv: cannot write state.txt");
    out.precision(17);
    const auto positions = env_.ligandPositions();
    out << positions.size() << '\n';
    for (const auto& p : positions) out << p.x << ' ' << p.y << ' ' << p.z << '\n';
    out.flush();
  }
  {
    std::ofstream out(dir_ / "score.txt", std::ios::trunc);
    if (!out) throw std::runtime_error("FileEnv: cannot write score.txt");
    out.precision(17);
    out << result.score << ' ' << result.reward << ' ' << (result.terminal ? 1 : 0) << ' '
        << static_cast<int>(result.reason) << '\n';
    out.flush();
  }
}

StepResult FileEnv::readStateAndScore() {
  {
    std::ifstream in(dir_ / "state.txt");
    if (!in) throw std::runtime_error("FileEnv: cannot read state.txt");
    std::size_t n = 0;
    in >> n;
    parsedPositions_.resize(n);
    for (auto& p : parsedPositions_) in >> p.x >> p.y >> p.z;
    if (!in) throw std::runtime_error("FileEnv: malformed state.txt");
  }
  StepResult result;
  {
    std::ifstream in(dir_ / "score.txt");
    if (!in) throw std::runtime_error("FileEnv: cannot read score.txt");
    int terminal = 0, reason = 0;
    in >> result.score >> result.reward >> terminal >> reason;
    if (!in) throw std::runtime_error("FileEnv: malformed score.txt");
    result.terminal = terminal != 0;
    result.reason = static_cast<Termination>(reason);
  }
  return result;
}

}  // namespace dqndock::metadock
