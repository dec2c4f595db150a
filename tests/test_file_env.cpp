// Tests for the file-based DQN <-> METADOCK coupling (paper Section 5).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "src/chem/synthetic.hpp"
#include "src/common/rng.hpp"
#include "src/metadock/file_env.hpp"

namespace dqndock::metadock {
namespace {

namespace fs = std::filesystem;

class FileEnvFixture : public ::testing::Test {
 protected:
  FileEnvFixture()
      : scenario_(chem::buildScenario(chem::ScenarioSpec::tiny())), env_(scenario_, {}) {}

  chem::Scenario scenario_;
  DockingEnv env_;
};

TEST_F(FileEnvFixture, StepMatchesDirectEnvironment) {
  DockingEnv direct(scenario_, {});
  FileEnv file(env_);
  direct.reset();
  file.reset();
  const int actions[] = {4, 4, 1, 7, 4, 4};
  for (int a : actions) {
    const StepResult rd = direct.step(a);
    const StepResult rf = file.step(a);
    EXPECT_DOUBLE_EQ(rf.score, rd.score);
    EXPECT_DOUBLE_EQ(rf.reward, rd.reward);
    EXPECT_EQ(rf.terminal, rd.terminal);
    EXPECT_EQ(rf.reason, rd.reason);
  }
}

TEST_F(FileEnvFixture, ExchangeFilesExistAfterStep) {
  FileEnv file(env_);
  file.reset();
  file.step(4);
  EXPECT_TRUE(fs::exists(file.exchangeDir() / "action.txt"));
  EXPECT_TRUE(fs::exists(file.exchangeDir() / "state.txt"));
  EXPECT_TRUE(fs::exists(file.exchangeDir() / "score.txt"));
}

TEST_F(FileEnvFixture, ParsedStateMatchesLigandPositions) {
  FileEnv file(env_);
  file.reset();
  file.step(4);
  const auto& parsed = file.ligandPositionsFromFile();
  const auto direct = env_.ligandPositions();
  ASSERT_EQ(parsed.size(), direct.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_NEAR(distance(parsed[i], direct[i]), 0.0, 1e-12);
  }
}

TEST_F(FileEnvFixture, ResetRoundTripsScore) {
  FileEnv file(env_);
  const double parsed = file.reset();
  EXPECT_DOUBLE_EQ(parsed, env_.score());
}

TEST_F(FileEnvFixture, TemporaryDirectoryCleanedUpOnDestruction) {
  fs::path dir;
  {
    FileEnv file(env_);
    file.reset();
    dir = file.exchangeDir();
    EXPECT_TRUE(fs::exists(dir));
  }
  EXPECT_FALSE(fs::exists(dir));
}

TEST_F(FileEnvFixture, AutoDirectoryNameIsSeedDeterministic) {
  // The auto-generated exchange dir is a pure function of (seed, per-
  // process instance index) — routed through the project Rng, never
  // std::random_device — so a run is reproducible from its seed. The
  // name format is "dqndock-ipc-<rng64>-<instance>"; recompute the rng64
  // part from the recorded instance index and the constructor's mixing
  // formula and it must match exactly.
  FileEnv file(env_, {}, /*seed=*/1234);
  const std::string name = file.exchangeDir().filename().string();
  const std::size_t lastDash = name.rfind('-');
  const std::size_t prevDash = name.rfind('-', lastDash - 1);
  ASSERT_NE(lastDash, std::string::npos);
  ASSERT_NE(prevDash, std::string::npos);
  const std::uint64_t instance = std::stoull(name.substr(lastDash + 1));
  const std::uint64_t token = std::stoull(name.substr(prevDash + 1, lastDash - prevDash - 1));
  Rng expected(1234 ^ (instance * 0x9e3779b97f4a7c15ULL));
  EXPECT_EQ(token, expected());
}

TEST_F(FileEnvFixture, AutoDirectorySkipsNamesThatAlreadyExist) {
  // Another process counting instances from the same seed computes the
  // same names. Pre-create the directory the next instance would pick
  // (same formula as above): the new FileEnv must claim a different one
  // and leave the existing directory, and its contents, alone.
  constexpr std::uint64_t kSeed = 4321;
  std::uint64_t next = 0;
  {
    FileEnv probe(env_, {}, kSeed);
    const std::string name = probe.exchangeDir().filename().string();
    next = std::stoull(name.substr(name.rfind('-') + 1)) + 1;
  }
  Rng token(kSeed ^ (next * 0x9e3779b97f4a7c15ULL));
  const fs::path taken = fs::temp_directory_path() /
                         ("dqndock-ipc-" + std::to_string(token()) + "-" + std::to_string(next));
  fs::create_directories(taken);
  ASSERT_TRUE(fs::is_directory(taken)) << taken;
  std::ofstream(taken / "score.txt") << "not yours\n";
  {
    FileEnv file(env_, {}, kSeed);
    EXPECT_NE(file.exchangeDir(), taken);
    EXPECT_TRUE(fs::exists(file.exchangeDir()));
    file.reset();
  }
  EXPECT_TRUE(fs::exists(taken / "score.txt"));
  std::ifstream in(taken / "score.txt");
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "not yours");
  fs::remove_all(taken);
}

TEST_F(FileEnvFixture, EqualSeedsInOneProcessGetDistinctDirectories) {
  DockingEnv other(scenario_, {});
  FileEnv a(env_, {}, 42);
  FileEnv b(other, {}, 42);
  EXPECT_NE(a.exchangeDir(), b.exchangeDir());
  EXPECT_TRUE(fs::exists(a.exchangeDir()));
  EXPECT_TRUE(fs::exists(b.exchangeDir()));
}

TEST_F(FileEnvFixture, ExplicitDirectoryIsKept) {
  const fs::path dir = fs::temp_directory_path() / "dqndock-fileenv-test";
  {
    FileEnv file(env_, dir);
    file.reset();
  }
  EXPECT_TRUE(fs::exists(dir));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dqndock::metadock
