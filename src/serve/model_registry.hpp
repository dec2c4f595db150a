#pragma once

/// \file model_registry.hpp
/// Versioned Q-network storage for the serving layer. A long-running
/// docking server must pick up freshly-trained weights without dropping
/// in-flight requests; the registry gives every reader an immutable
/// snapshot (shared_ptr pin) and swaps the "current" pointer atomically
/// under a mutex, so a hot-swap never invalidates a network another
/// thread is predicting with.

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/rl/qnetwork.hpp"

namespace dqndock::serve {

/// One published model. Immutable after publish(); the network is only
/// ever used through const predict(), which is reentrant.
struct ModelVersion {
  std::uint64_t version = 0;
  std::string tag;  ///< free-form provenance (checkpoint path, run id, ...)
  std::unique_ptr<rl::QNetwork> net;
};

class ModelRegistry {
 public:
  /// Seeds version 1 with `initial` (must be non-null).
  ModelRegistry(std::unique_ptr<rl::QNetwork> initial, std::string tag = "initial");

  /// Publish new weights; becomes current() immediately. Readers holding
  /// the previous snapshot keep it alive until they drop it. Throws
  /// std::invalid_argument on null or architecture mismatch with the
  /// seed network.
  std::uint64_t publish(std::unique_ptr<rl::QNetwork> net, std::string tag = "");

  /// Clone the current architecture, load a weight checkpoint
  /// (rl::saveWeightsFile format) into the clone, publish it. Throws on
  /// I/O or shape errors, leaving current() untouched.
  std::uint64_t publishFromFile(const std::string& path);

  /// Snapshot of the newest model; never null. The caller may use
  /// ->net->predict() concurrently with publishes.
  std::shared_ptr<const ModelVersion> current() const;

  std::uint64_t currentVersion() const;
  std::size_t publishCount() const;

  std::size_t inputDim() const { return inputDim_; }
  int actionCount() const { return actionCount_; }

  /// Fold the given constant input prefix out of the current network and
  /// every future publish (nn::Mlp static-prefix factorization; the plain
  /// and the dueling Q-network both fold). Each published network folds
  /// its own weights lazily on first predict, so a hot-swap folds exactly
  /// once per model version. Returns false (and stores nothing) when the
  /// current network rejects the fold (a degenerate prefix, or a network
  /// without fold support); subsequent publishes then stay unfolded too.
  /// Call before serving traffic: it mutates the current network's fold
  /// configuration (not its weights).
  bool enableStaticPrefixFold(std::span<const double> staticPrefix);
  bool foldActive() const;
  /// Input width folded networks accept in addition to inputDim().
  std::size_t dynamicInputDim() const;

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const ModelVersion> current_;
  std::uint64_t nextVersion_ = 1;
  std::size_t publishes_ = 0;
  std::size_t inputDim_ = 0;
  int actionCount_ = 0;
  std::vector<double> foldPrefix_;  ///< non-empty once folding is enabled
};

}  // namespace dqndock::serve
