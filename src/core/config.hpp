#pragma once

/// \file config.hpp
/// Bundled configuration for a full DQN-Docking run: the scenario, the
/// METADOCK environment, the state encoding, the agent, and the trainer.
/// `paper2bsm()` reproduces Table 1 of the paper verbatim; `scaled()` is
/// the CPU-budget preset benches default to (same algorithm, smaller
/// molecule/episode counts so a training run finishes in seconds rather
/// than GPU-days). Both resolve from the same code paths, so the flag
/// `--paper-scale` in the benches switches presets without touching code.

#include <optional>

#include "src/chem/synthetic.hpp"
#include "src/core/state_encoder.hpp"
#include "src/metadock/docking_env.hpp"
#include "src/rl/dqn_agent.hpp"
#include "src/rl/trainer.hpp"

namespace dqndock::core {

struct DqnDockingConfig {
  chem::ScenarioSpec scenario;
  metadock::EnvConfig env;
  StateMode stateMode = StateMode::kLigandPositions;
  bool normalizeStates = true;
  rl::DqnConfig agent;
  rl::TrainerConfig trainer;
  /// Replay capacity (paper Table 1: N = 400,000).
  std::size_t replayCapacity = 400000;
  /// Use the compact pose-based replay instead of raw state storage.
  bool compactReplay = false;
  /// Proportional prioritized replay (Rainbow component, paper Section 5
  /// future work). Mutually exclusive with compactReplay.
  bool prioritizedReplay = false;
  /// n-step returns (>= 1); transitions carry n-step rewards and the
  /// agent bootstraps with gamma^n.
  int nStep = 1;
  /// Vectorized training: V lockstep envs batching action selection and
  /// pose scoring per step (trainer.hpp documents the one loop). 0 trains
  /// on the system's own task() (the loop at V = 1); 1 on a one-env
  /// DockingVectorEnv, bit-identical to 0. Values >= 1 require raw-state
  /// replay (compactReplay re-derives poses from task() at push time,
  /// so the two are exclusive).
  std::size_t vectorEnvs = 0;
  /// Static-prefix input-layer fold override. Unset defers to the
  /// DQNDOCK_FOLD_STATIC environment gate (default on); an explicit
  /// value wins over the environment. Only takes effect when the state
  /// mode has a constant prefix (kFullPositions / kFullWithBonds); the
  /// plain and the dueling Q-network both fold.
  std::optional<bool> foldStatic{};

  /// Table 1 verbatim: 2BSM-sized scenario, 16,599-real state, 12
  /// actions, hidden 135x135, eps 1 -> 0.05 at 4.5e-5/step, N = 400k,
  /// learning start 10k, pure exploration 20k, C = 1,000, RMSprop
  /// 2.5e-4, batch 32, gamma 0.99, M = 1,800 episodes of <= 1,000 steps.
  static DqnDockingConfig paper2bsm();

  /// Same pipeline at laptop scale: tiny scenario, ligand-only state,
  /// compact replay, tens of episodes. Intended for tests/benches.
  static DqnDockingConfig scaled();
};

}  // namespace dqndock::core
