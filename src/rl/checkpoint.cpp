#include "src/rl/checkpoint.hpp"

#include <cstdint>
#include <fstream>
#include <stdexcept>

namespace dqndock::rl {

namespace {
constexpr std::uint64_t kMagic = 0x44514e574549ULL;  // "DQNWEI"

void writeU64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

std::uint64_t readU64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!in) throw std::runtime_error("loadWeights: truncated stream");
  return v;
}
}  // namespace

void saveWeights(std::ostream& out, const QNetwork& net) {
  const auto params = net.parameters();
  writeU64(out, kMagic);
  writeU64(out, params.size());
  for (const nn::Tensor* t : params) {
    writeU64(out, t->rows());
    writeU64(out, t->cols());
    out.write(reinterpret_cast<const char*>(t->data()),
              static_cast<std::streamsize>(t->size() * sizeof(double)));
  }
  if (!out) throw std::runtime_error("saveWeights: write failure");
}

void loadWeights(std::istream& in, QNetwork& net) {
  if (readU64(in) != kMagic) throw std::runtime_error("loadWeights: bad magic");
  const auto params = net.parameters();
  if (readU64(in) != params.size()) {
    throw std::runtime_error("loadWeights: parameter-count mismatch");
  }
  for (nn::Tensor* t : params) {
    const std::uint64_t rows = readU64(in);
    const std::uint64_t cols = readU64(in);
    if (rows != t->rows() || cols != t->cols()) {
      throw std::runtime_error("loadWeights: tensor shape mismatch");
    }
    in.read(reinterpret_cast<char*>(t->data()),
            static_cast<std::streamsize>(t->size() * sizeof(double)));
    if (!in) throw std::runtime_error("loadWeights: truncated weights");
  }
}

void saveWeightsFile(const std::string& path, const QNetwork& net) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("saveWeightsFile: cannot open " + path);
  saveWeights(out, net);
}

void loadWeightsFile(const std::string& path, QNetwork& net) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("loadWeightsFile: cannot open " + path);
  loadWeights(in, net);
}

void saveAgent(const std::string& path, const DqnAgent& agent) {
  saveWeightsFile(path, agent.online());
}

void loadAgent(const std::string& path, DqnAgent& agent) {
  loadWeightsFile(path, agent.online());
  agent.syncTarget();
}

}  // namespace dqndock::rl
