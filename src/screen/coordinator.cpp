#include "src/screen/coordinator.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/chem/library_io.hpp"
#include "src/common/logging.hpp"
#include "src/screen/hit_codec.hpp"

namespace dqndock::screen {

using serve::Message;

ScreenCoordinator::ScreenCoordinator(ScreenJobConfig config, CoordinatorOptions options)
    : config_(std::move(config)), options_(std::move(options)), merger_(config_.topK) {
  // The library file is the shared source of truth; its count defines the
  // index space every shard, journal record and worker agrees on.
  chem::LigandLibraryReader reader(config_.libraryPath);
  config_.librarySize = reader.size();

  const std::string fingerprint = configFingerprint(config_);

  // Resume: accept journaled shards as already-covered ranges.
  std::vector<std::pair<std::size_t, std::size_t>> covered;
  bool journalExists = false;
  if (!options_.journalPath.empty() && options_.resume) {
    ScreenJournal::LoadResult loaded = ScreenJournal::load(options_.journalPath);
    journalExists = loaded.exists;
    if (loaded.exists) {
      if (loaded.fingerprint != fingerprint) {
        throw std::runtime_error(
            "ScreenCoordinator: journal " + options_.journalPath +
            " was written by an incompatible run (fingerprint mismatch); "
            "refusing to resume");
      }
      std::sort(loaded.records.begin(), loaded.records.end(),
                [](const ShardRecord& a, const ShardRecord& b) { return a.begin < b.begin; });
      std::size_t frontier = 0;
      for (ShardRecord& record : loaded.records) {
        // Overlapping or out-of-range records would double-count
        // aggregates; a well-formed journal never has them, so skip
        // defensively rather than corrupt the resumed report.
        if (record.begin < frontier || record.end > config_.librarySize) continue;
        merger_.add(record.hits);
        hitCount_ += record.hitCount;
        totalEvaluations_ += record.evaluations;
        stats_.ligandsDone += record.end - record.begin;
        ++stats_.shardsResumed;
        ++stats_.shardsTotal;
        covered.emplace_back(record.begin, record.end);
        frontier = record.end;
      }
      if (loaded.skippedLines > 0) {
        logWarn() << "ScreenCoordinator: ignored " << loaded.skippedLines
                  << " torn/garbled journal line(s) in " << options_.journalPath;
      }
    }
  }
  if (!options_.journalPath.empty()) {
    const bool truncate = !(options_.resume && journalExists);
    journal_ = std::make_unique<ScreenJournal>(options_.journalPath, fingerprint, truncate);
  }

  // Queue shards over the uncovered complement of [0, librarySize).
  auto queueRange = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t s = lo; s < hi; s += config_.shardSize) {
      Shard shard;
      shard.id = nextShardId_++;
      shard.begin = s;
      shard.end = std::min(s + config_.shardSize, hi);
      shard.grantEnd = shard.begin;
      shards_.push_back(shard);
      ++stats_.shardsTotal;
    }
  };
  std::size_t pos = 0;
  for (const auto& [lo, hi] : covered) {
    queueRange(pos, lo);
    pos = hi;
  }
  queueRange(pos, config_.librarySize);
  done_ = stats_.ligandsDone == config_.librarySize;

  logInfo() << "ScreenCoordinator: " << config_.librarySize << " ligands, " << shards_.size()
            << " shard(s) queued (" << stats_.shardsResumed << " resumed)";
  listener_.emplace("ScreenCoordinator", options_.port,
                    [this](int fd) { handleConnection(fd); });
}

ScreenCoordinator::~ScreenCoordinator() { stop(); }

void ScreenCoordinator::handleConnection(int fd) {
  Message request;
  for (;;) {
    try {
      if (!serve::recvMessage(fd, request)) break;
    } catch (const std::exception&) {
      break;  // framing violation or transport failure — drop the peer
    }
    Message reply;
    try {
      reply = handleRequest(request);
    } catch (const std::exception& e) {
      reply = Message::error(e.what());
    }
    {
      std::lock_guard lock(mu_);
      ++stats_.requests;
    }
    try {
      serve::sendMessage(fd, reply);
    } catch (const std::exception&) {
      break;
    }
  }
}

Message ScreenCoordinator::handleRequest(const Message& request) {
  if (request.type == kMsgHello) {
    std::lock_guard lock(mu_);
    const std::string worker = request.get("worker", "anonymous");
    if (std::find(knownWorkers_.begin(), knownWorkers_.end(), worker) == knownWorkers_.end()) {
      knownWorkers_.push_back(worker);
      stats_.workersSeen = knownWorkers_.size();
    }
    return configToMessage(config_);
  }
  if (request.type == kMsgLease) return handleLease(request);
  if (request.type == kMsgProgress) return handleProgress(request);
  if (request.type == kMsgResult) return handleResult(request);
  if (request.type == kMsgStatus) return handleStatus();
  return Message::error("unknown request type: " + request.type);
}

void ScreenCoordinator::reclaimExpiredLeases() {
  const auto now = std::chrono::steady_clock::now();
  const auto timeout = std::chrono::duration<double>(config_.leaseTimeoutSeconds);
  for (Shard& shard : shards_) {
    if (shard.status != ShardStatus::kLeased) continue;
    if (now - shard.lastBeat < timeout) continue;
    // Nothing from this shard was journaled (results arrive whole-shard),
    // so the full range goes back in the queue.
    logWarn() << "ScreenCoordinator: lease on shard " << shard.id << " [" << shard.begin
              << "," << shard.end << ") by '" << shard.worker << "' lapsed; re-queuing";
    shard.status = ShardStatus::kPending;
    shard.lease = 0;
    shard.worker.clear();
    shard.grantEnd = shard.begin;
    ++stats_.leasesExpired;
  }
}

ScreenCoordinator::Shard* ScreenCoordinator::findShard(std::uint64_t id) {
  for (Shard& shard : shards_) {
    if (shard.id == id) return &shard;
  }
  return nullptr;
}

ScreenCoordinator::Shard* ScreenCoordinator::splitStraggler() {
  // Steal the un-granted tail of the busiest leased shard. The split
  // point sits past the granted frontier, so the straggler's next claim
  // simply stops at its trimmed end — no message to it required, and no
  // index can be screened under two live leases.
  Shard* victim = nullptr;
  std::size_t bestRemaining = 0;
  for (Shard& shard : shards_) {
    if (shard.status != ShardStatus::kLeased) continue;
    const std::size_t remaining = shard.end - shard.grantEnd;
    if (remaining > bestRemaining) {
      bestRemaining = remaining;
      victim = &shard;
    }
  }
  if (victim == nullptr || bestRemaining < 2 * config_.chunkSize) return nullptr;
  const std::size_t mid = victim->grantEnd + (bestRemaining + 1) / 2;
  Shard stolen;
  stolen.id = nextShardId_++;
  stolen.begin = mid;
  stolen.end = victim->end;
  stolen.grantEnd = stolen.begin;
  victim->end = mid;
  ++stats_.shardsStolen;
  ++stats_.shardsTotal;
  logInfo() << "ScreenCoordinator: stole [" << stolen.begin << "," << stolen.end
            << ") from straggler shard " << victim->id << " (worker '" << victim->worker
            << "')";
  shards_.push_back(stolen);
  return &shards_.back();
}

Message ScreenCoordinator::leaseShard(Shard& shard, const std::string& worker) {
  shard.status = ShardStatus::kLeased;
  shard.lease = nextLease_++;
  shard.worker = worker;
  shard.lastBeat = std::chrono::steady_clock::now();
  shard.grantEnd = std::min(shard.begin + config_.chunkSize, shard.end);
  Message reply{kMsgShard, {}};
  reply.set("shard", shard.id)
      .set("lease", shard.lease)
      .set("begin", static_cast<std::uint64_t>(shard.begin))
      .set("end", static_cast<std::uint64_t>(shard.end))
      .set("grant_end", static_cast<std::uint64_t>(shard.grantEnd));
  return reply;
}

Message ScreenCoordinator::handleLease(const Message& request) {
  std::lock_guard lock(mu_);
  if (halted_) return Message::error("coordinator halted");
  if (done_) return Message{kMsgFinished, {}};
  reclaimExpiredLeases();
  const std::string worker = request.get("worker", "anonymous");
  for (Shard& shard : shards_) {
    if (shard.status == ShardStatus::kPending) return leaseShard(shard, worker);
  }
  if (Shard* stolen = splitStraggler()) return leaseShard(*stolen, worker);
  Message wait{kMsgWait, {}};
  const long retryMs = std::clamp<long>(
      static_cast<long>(config_.leaseTimeoutSeconds * 1000.0 / 4.0), 10, 500);
  wait.set("retry_ms", retryMs);
  return wait;
}

Message ScreenCoordinator::handleProgress(const Message& request) {
  std::lock_guard lock(mu_);
  if (halted_) return Message{kMsgAbandon, {}};
  const auto id = static_cast<std::uint64_t>(request.getInt("shard", 0));
  const auto lease = static_cast<std::uint64_t>(request.getInt("lease", 0));
  const auto done = static_cast<std::size_t>(request.getInt("done", 0));
  const auto claim = static_cast<std::size_t>(request.getInt("claim", 0));
  Shard* shard = findShard(id);
  if (shard == nullptr || shard->status != ShardStatus::kLeased || shard->lease != lease ||
      done > shard->grantEnd) {
    return Message{kMsgAbandon, {}};
  }
  shard->lastBeat = std::chrono::steady_clock::now();
  const std::size_t grant = std::min(std::max(claim, done), shard->end);
  shard->grantEnd = std::max(shard->grantEnd, grant);
  Message reply{kMsgGrant, {}};
  reply.set("grant_end", static_cast<std::uint64_t>(grant));
  return reply;
}

Message ScreenCoordinator::handleResult(const Message& request) {
  std::lock_guard lock(mu_);
  if (halted_) {
    // A halted coordinator must not accept (or journal) anything more —
    // haltAfterShards tests rely on the journal holding exactly N records.
    ++stats_.resultsStale;
    return Message{kMsgStale, {}};
  }
  const auto id = static_cast<std::uint64_t>(request.getInt("shard", 0));
  const auto lease = static_cast<std::uint64_t>(request.getInt("lease", 0));
  Shard* shard = findShard(id);
  if (shard == nullptr || shard->status != ShardStatus::kLeased || shard->lease != lease) {
    ++stats_.resultsStale;
    return Message{kMsgStale, {}};
  }
  ShardRecord record;
  record.begin = static_cast<std::size_t>(request.getInt("begin", 0));
  record.end = static_cast<std::size_t>(request.getInt("end", 0));
  record.hitCount = static_cast<std::size_t>(request.getInt("hit_count", 0));
  record.evaluations = static_cast<std::size_t>(request.getInt("evals", 0));
  if (record.begin != shard->begin || record.end != shard->end ||
      shard->grantEnd != shard->end) {
    // A result that does not cover exactly the shard's current range can
    // only come from a lease that raced a split — reject it; the range
    // stays owned and consistent.
    ++stats_.resultsStale;
    return Message{kMsgStale, {}};
  }
  const auto count = static_cast<std::size_t>(request.getInt("n", 0));
  for (std::size_t i = 0; i < count; ++i) {
    std::string field = "h";
    field += std::to_string(i);
    const std::string token = request.get(field);
    if (token.empty()) return Message::error("RESULT missing hit field " + field);
    try {
      record.hits.push_back(decodeHit(token));
    } catch (const std::exception& e) {
      return Message::error(std::string("RESULT hit decode failed: ") + e.what());
    }
  }
  recordResult(*shard, std::move(record));
  return Message::ok();
}

void ScreenCoordinator::recordResult(Shard& shard, ShardRecord record) {
  if (journal_) journal_->append(record);
  merger_.add(record.hits);
  hitCount_ += record.hitCount;
  totalEvaluations_ += record.evaluations;
  stats_.ligandsDone += record.end - record.begin;
  ++stats_.shardsDone;
  shard.status = ShardStatus::kDone;
  shard.lease = 0;
  if (stats_.ligandsDone == config_.librarySize) {
    done_ = true;
    doneCv_.notify_all();
    logInfo() << "ScreenCoordinator: all " << config_.librarySize << " ligands screened ("
              << stats_.shardsDone << " shards this run, " << stats_.shardsResumed
              << " resumed)";
  }
  if (options_.haltAfterShards > 0 && stats_.shardsDone >= options_.haltAfterShards &&
      !halted_) {
    // Simulated crash for checkpoint-resume tests: stop serving with
    // shards still outstanding, leaving only the journal behind.
    logWarn() << "ScreenCoordinator: haltAfterShards=" << options_.haltAfterShards
              << " reached; simulating coordinator crash";
    haltLocked();
  }
}

Message ScreenCoordinator::handleStatus() const {
  std::lock_guard lock(mu_);
  Message reply = Message::ok();
  const double elapsed = clock_.seconds();
  reply.set("done", static_cast<long>(done_ ? 1 : 0))
      .set("halted", static_cast<long>(halted_ ? 1 : 0))
      .set("library_size", static_cast<std::uint64_t>(config_.librarySize))
      .set("ligands_done", static_cast<std::uint64_t>(stats_.ligandsDone))
      .set("shards_total", static_cast<std::uint64_t>(stats_.shardsTotal))
      .set("shards_done", static_cast<std::uint64_t>(stats_.shardsDone))
      .set("shards_resumed", static_cast<std::uint64_t>(stats_.shardsResumed))
      .set("shards_stolen", static_cast<std::uint64_t>(stats_.shardsStolen))
      .set("leases_expired", static_cast<std::uint64_t>(stats_.leasesExpired))
      .set("results_stale", static_cast<std::uint64_t>(stats_.resultsStale))
      .set("workers", static_cast<std::uint64_t>(stats_.workersSeen))
      .set("requests", stats_.requests)
      .set("elapsed_s", elapsed)
      .set("ligands_per_s", elapsed > 0.0 ? stats_.ligandsDone / elapsed : 0.0);
  return reply;
}

bool ScreenCoordinator::done() const {
  std::lock_guard lock(mu_);
  return done_;
}

bool ScreenCoordinator::halted() const {
  std::lock_guard lock(mu_);
  return halted_;
}

bool ScreenCoordinator::waitUntilDone(double timeoutSeconds) {
  std::unique_lock lock(mu_);
  const auto pred = [&] { return done_ || halted_; };
  if (timeoutSeconds > 0.0) {
    doneCv_.wait_for(lock, std::chrono::duration<double>(timeoutSeconds), pred);
  } else {
    doneCv_.wait(lock, pred);
  }
  return done_;
}

metadock::ScreeningReport ScreenCoordinator::report() const {
  std::lock_guard lock(mu_);
  metadock::ScreeningReport report;
  report.ranked = merger_.sorted();
  report.hitCount = hitCount_;
  report.totalEvaluations = totalEvaluations_;
  report.hitRate = config_.librarySize == 0
                       ? 0.0
                       : static_cast<double>(hitCount_) / config_.librarySize;
  report.totalSeconds = clock_.seconds();
  return report;
}

CoordinatorStats ScreenCoordinator::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

void ScreenCoordinator::halt() {
  std::lock_guard lock(mu_);
  haltLocked();
}

void ScreenCoordinator::haltLocked() {
  if (halted_) return;
  halted_ = true;
  listener_->halt();  // the listener never takes mu_, so calling it under mu_ is safe
  doneCv_.notify_all();
}

void ScreenCoordinator::stop() {
  halt();
  listener_->stop();
}

}  // namespace dqndock::screen
