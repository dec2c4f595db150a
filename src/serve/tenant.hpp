#pragma once

/// \file tenant.hpp
/// Multi-tenant routing for the serving layer: one front-end (the HTTP
/// gateway, or any future transport) hosts many named models, each
/// backed by its own DockingService worker pool and versioned
/// ModelRegistry. The directory is the route table — "scenario name" ->
/// {service, registry} — plus per-tenant, per-route observability:
/// request/error counters and a sliding latency window with
/// percentile queries, so pool sizes can later be scaled from observed
/// load (ROADMAP item). Batcher flush deadlines need no such tuning:
/// batches flush once every dock in progress has a row queued, and the
/// deadline is only an upper bound.
///
/// Registration happens once, before traffic: add() every tenant, then
/// hand the directory to the front-end. Lookups after that point are
/// lock-free reads of an immutable map; only the stats counters take a
/// per-tenant mutex.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/serve/docking_service.hpp"
#include "src/serve/model_registry.hpp"

namespace dqndock::serve {

/// Fixed-capacity ring of recent request latencies. record() overwrites
/// the oldest sample once full, so percentiles always describe the last
/// `capacity` requests — stale startup latencies age out instead of
/// dragging the tail forever.
class LatencyWindow {
 public:
  explicit LatencyWindow(std::size_t capacity = 512);

  void record(double seconds);
  std::uint64_t count() const { return total_; }

  /// Nearest-rank percentile (p in [0, 100]) over the retained window;
  /// 0.0 when no sample has been recorded yet.
  double percentileSeconds(double p) const;

 private:
  std::vector<double> ring_;
  std::size_t capacity_;
  std::size_t next_ = 0;
  std::uint64_t total_ = 0;
};

/// One route's counters, snapshotted.
struct RouteStats {
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;  ///< rejected, failed, or timed-out outcomes
  std::uint64_t latencySamples = 0;
  double p50Seconds = 0.0;
  double p90Seconds = 0.0;
  double p99Seconds = 0.0;
};

/// Per-tenant snapshot for /v1/stats: gateway-side route counters plus
/// the backing pool's live queue depth (the autoscaling signals).
struct TenantStats {
  std::string name;
  RouteStats dock;
  RouteStats screen;
  std::size_t queueDepth = 0;
  std::size_t queueCapacity = 0;
  std::size_t workers = 0;
  ServiceStats service;
};

class TenantDirectory {
 public:
  struct Tenant {
    std::string name;
    DockingService* service = nullptr;
    ModelRegistry* registry = nullptr;

    void recordDock(double seconds, bool ok);
    void recordScreen(double seconds, bool ok);
    TenantStats stats() const;

   private:
    friend class TenantDirectory;
    mutable std::mutex mu_;
    std::uint64_t dockRequests_ = 0, dockErrors_ = 0;
    std::uint64_t screenRequests_ = 0, screenErrors_ = 0;
    LatencyWindow dockLatency_;
    LatencyWindow screenLatency_;
  };

  /// Register a named model pool. Throws std::invalid_argument on an
  /// empty/duplicate name or a name with characters that cannot appear
  /// verbatim in a URL path segment. Not thread-safe — call before
  /// serving traffic.
  void add(const std::string& name, DockingService& service, ModelRegistry& registry);

  /// nullptr when the name is not registered. The pointer stays valid
  /// for the directory's lifetime (tenants are never removed).
  Tenant* find(const std::string& name) const;

  std::size_t size() const { return tenants_.size(); }
  /// Registered names in lexicographic order (stable discovery output).
  std::vector<std::string> names() const;
  std::vector<TenantStats> stats() const;

 private:
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
};

}  // namespace dqndock::serve
