#pragma once

/// \file file_env.hpp
/// File-based DQN <-> METADOCK coupling.
///
/// The paper (Section 5, limitation 1) describes its implementation as
/// exchanging data through files on disk: the agent writes the chosen
/// action, METADOCK writes "two separate files ... with the new state and
/// the score respectively", and DQN-Docking reads them back. This class
/// reproduces that protocol faithfully — every step round-trips through
/// three real files — so bench_env_comm can quantify exactly how much the
/// RAM-based coupling (plain DockingEnv) buys, which is the refinement
/// the authors say they are working on.

#include <cstdint>
#include <filesystem>
#include <string>

#include "src/metadock/docking_env.hpp"

namespace dqndock::metadock {

class FileEnv {
 public:
  /// Wraps `env`. Files live under `exchangeDir` (created if missing);
  /// pass an empty path for an auto-named directory under the system temp
  /// dir. Auto-naming is deterministic: the name is derived from `seed`
  /// via the project Rng plus a process-wide instance counter, not from
  /// std::random_device — the same seed reproduces the same directory
  /// sequence run to run. The auto-named directory must be newly created
  /// by this instance; a name that already exists is skipped for the next
  /// instance index. Only a directory this instance created is removed
  /// on destruction.
  explicit FileEnv(DockingEnv& env, std::filesystem::path exchangeDir = {},
                   std::uint64_t seed = 0);
  ~FileEnv();

  FileEnv(const FileEnv&) = delete;
  FileEnv& operator=(const FileEnv&) = delete;

  int actionCount() const { return env_.actionCount(); }

  double reset();

  /// One step through the file protocol:
  ///  1. write action.txt,
  ///  2. "METADOCK" reads it, steps, writes state.txt + score.txt,
  ///  3. read both files back and parse them.
  StepResult step(int action);

  /// Ligand coordinates as parsed back from state.txt (not from memory).
  const std::vector<Vec3>& ligandPositionsFromFile() const { return parsedPositions_; }

  const std::filesystem::path& exchangeDir() const { return dir_; }
  DockingEnv& inner() { return env_; }

 private:
  void writeAction(int action) const;
  int readAction() const;
  void writeStateAndScore(const StepResult& result) const;
  StepResult readStateAndScore();

  DockingEnv& env_;
  std::filesystem::path dir_;
  bool ownsDir_ = false;
  std::vector<Vec3> parsedPositions_;
};

}  // namespace dqndock::metadock
