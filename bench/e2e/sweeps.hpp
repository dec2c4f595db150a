#pragma once

// Layer sweeps: after a traced run's measured window, time the public
// calls each layer exposes at the workloads' exact shapes (Table 1 net
// with the fold as resolved, minibatch 32, the 2BSM scenario, 8-ligand
// screen windows). Every traced run sweeps every layer, reusing the
// workload's own objects where it has them, so each per-layer time is a
// measured number on every workload; README.md maps each one to the
// end-to-end metric and workload it should move.

#include <string>
#include <vector>

#include "bench/e2e/common.hpp"
#include "src/core/dqn_docking.hpp"
#include "src/rl/replay_buffer.hpp"
#include "src/serve/docking_service.hpp"

namespace e2e {

struct LayerTimes {
  double learnMs = 0.0;           ///< DqnAgent::learn, B = 32
  double replaySampleUs = 0.0;    ///< ReplayBuffer::sampleInto, B = 32
  double replayPushUs = 0.0;      ///< ReplayBuffer::push
  double targetPredictMs = 0.0;   ///< target predict on next states, B = 32
  double onlineForwardMs = 0.0;   ///< online training forward, B = 32
  double backwardMs = 0.0;        ///< zeroGrad + backward
  double optimizerStepMs = 0.0;   ///< RMSprop step (factored input layer when folded)
  double predict1Us = 0.0;        ///< DqnAgent::qValues, one state
  double batch32PredictUs = 0.0;  ///< DqnAgent::qValuesBatch, 32 states
  double envStepUs = 0.0;         ///< DockingTask::step (serial scoring + encode)
  double venvStepUs = 0.0;        ///< DockingVectorEnv::step, V = 32
  double serveEnvStepUs = 0.0;    ///< a dock step's env work: pooled scoring + encode
  double directDockMs = 0.0;      ///< DockingService submitDock + wait, unloaded
  double directScreenMs = 0.0;    ///< DockingService submitScreen + wait, unloaded
  double libraryReadMsPerChunk = 0.0;  ///< LigandLibraryReader::read, 8 ligands
  double screenMsPerLigand = 0.0;      ///< screenLibrarySlice on an 8-ligand window
};

/// Objects a workload already holds; the sweeps build whatever is null.
struct SweepInputs {
  dqndock::core::DqnDocking* system = nullptr;
  dqndock::rl::ReplayBuffer* replay = nullptr;
  dqndock::serve::DockingService* service = nullptr;
  /// Direct dock times the dock gate already measured (ms).
  std::vector<double> directDockMs;
  std::string libraryPath;
};

LayerTimes runLayerSweeps(const Options& options, dqndock::ThreadPool& pool,
                          SweepInputs& inputs);
void reportLayerTimes(const LayerTimes& layers, Result& result);

}  // namespace e2e
