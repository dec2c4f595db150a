#pragma once

/// \file coordinator.hpp
/// ScreenCoordinator: the serving side of the distributed
/// virtual-screening service. It shards the ligand library into bounded
/// index ranges, leases shards to pulling workers over the framed wire
/// protocol, extends each lease chunk-by-chunk through granted windows
/// (the heartbeat), journals every completed shard for checkpoint
/// resume, re-queues shards whose heartbeats lapse (worker death), and
/// steals work from stragglers by splitting the un-granted tail of their
/// shards into fresh shards for idle workers.
///
/// Shard lifecycle:
///
///       +---------+   LEASE    +--------+  RESULT accepted  +------+
///   --> | pending | ---------> | leased | ----------------> | done |
///       +---------+            +--------+   (journaled)     +------+
///            ^                    |   |
///            |   lease timeout    |   |  split: end trimmed to the
///            +--------------------+   |  granted frontier + half the
///            |                        v  remainder; the tail becomes
///            |                 +-------------+  a new pending shard
///            +---------------- | stolen tail |
///                              +-------------+
///
/// Invariant: live shards partition the uncovered library ranges at all
/// times — splits conserve the partition, expiries re-queue the exact
/// leased range — and a worker can only screen granted indices, so no
/// ligand is ever double-counted in the journal or the merged report.

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/stopwatch.hpp"
#include "src/metadock/vs_pipeline.hpp"
#include "src/screen/journal.hpp"
#include "src/screen/protocol.hpp"
#include "src/screen/topk.hpp"
#include "src/serve/listener.hpp"
#include "src/serve/wire.hpp"

namespace dqndock::screen {

struct CoordinatorOptions {
  std::uint16_t port = 0;        ///< 0 = ephemeral; read back via port()
  std::string journalPath;       ///< empty = no checkpointing
  bool resume = false;           ///< seed state from an existing journal
  /// Test/fault-injection hook: simulate a coordinator crash by halting
  /// (listener closed, connections dropped, no joins) after this many
  /// shard results have been journaled. 0 = never.
  std::size_t haltAfterShards = 0;
};

struct CoordinatorStats {
  std::size_t shardsTotal = 0;     ///< ever created (initial + splits), incl. resumed
  std::size_t shardsDone = 0;      ///< results accepted this run
  std::size_t shardsResumed = 0;   ///< records loaded from the journal
  std::size_t shardsStolen = 0;    ///< splits of straggler shards
  std::size_t leasesExpired = 0;   ///< heartbeat lapses -> re-queued
  std::size_t resultsStale = 0;    ///< RESULTs rejected for dead leases
  std::size_t ligandsDone = 0;     ///< covered library indices (incl. resumed)
  std::size_t workersSeen = 0;     ///< distinct worker ids that said HELLO
  std::uint64_t requests = 0;
};

class ScreenCoordinator {
 public:
  /// Opens (and counts) the library named by `config`, builds or resumes
  /// the shard set, and starts accepting workers on 127.0.0.1. Throws
  /// std::runtime_error on unreadable library/journal or a journal whose
  /// config fingerprint does not match.
  ScreenCoordinator(ScreenJobConfig config, CoordinatorOptions options = {});
  ~ScreenCoordinator();

  ScreenCoordinator(const ScreenCoordinator&) = delete;
  ScreenCoordinator& operator=(const ScreenCoordinator&) = delete;

  std::uint16_t port() const { return listener_->port(); }
  const ScreenJobConfig& config() const { return config_; }

  bool done() const;
  bool halted() const;

  /// Block until every shard is done (returns true) or the coordinator
  /// halts (simulated crash; returns false). timeoutSeconds 0 = forever.
  bool waitUntilDone(double timeoutSeconds = 0.0);

  /// The merged report. Valid once done(); the ranking holds the global
  /// top-K under the stable total order, and the aggregate counters sum
  /// over every journaled shard.
  metadock::ScreeningReport report() const;

  CoordinatorStats stats() const;

  /// Stop serving without joining handler threads: close the listener,
  /// shut down live connections. This is what the haltAfterShards hook
  /// calls — to a worker it is indistinguishable from a crash.
  void halt();

  /// Graceful full stop: halt, then join every thread. Idempotent; also
  /// run by the destructor.
  void stop();

 private:
  enum class ShardStatus { kPending, kLeased, kDone };

  struct Shard {
    std::uint64_t id = 0;
    std::size_t begin = 0;
    std::size_t end = 0;        ///< exclusive; may shrink when the tail is stolen
    std::size_t grantEnd = 0;   ///< frontier of granted (screenable) indices
    ShardStatus status = ShardStatus::kPending;
    std::uint64_t lease = 0;    ///< current lease token (0 = none)
    std::string worker;
    std::chrono::steady_clock::time_point lastBeat;
  };

  void handleConnection(int fd);
  serve::Message handleRequest(const serve::Message& request);
  serve::Message handleLease(const serve::Message& request);
  serve::Message handleProgress(const serve::Message& request);
  serve::Message handleResult(const serve::Message& request);
  serve::Message handleStatus() const;

  // All six below require mu_ held.
  void reclaimExpiredLeases();
  Shard* findShard(std::uint64_t id);
  Shard* splitStraggler();
  void recordResult(Shard& shard, ShardRecord record);
  serve::Message leaseShard(Shard& shard, const std::string& worker);
  void haltLocked();

  ScreenJobConfig config_;
  CoordinatorOptions options_;
  Stopwatch clock_;

  mutable std::mutex mu_;
  std::condition_variable doneCv_;
  std::vector<Shard> shards_;
  std::uint64_t nextShardId_ = 1;
  std::uint64_t nextLease_ = 1;
  TopKMerger merger_;
  std::size_t hitCount_ = 0;
  std::size_t totalEvaluations_ = 0;
  CoordinatorStats stats_;
  std::vector<std::string> knownWorkers_;
  std::unique_ptr<ScreenJournal> journal_;
  bool done_ = false;
  bool halted_ = false;

  std::optional<serve::LoopbackListener> listener_;  ///< emplaced once the shards exist
};

}  // namespace dqndock::screen
