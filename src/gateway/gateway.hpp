#pragma once

/// \file gateway.hpp
/// HTTP/JSON front-end for the docking service: browsers and standard
/// tooling (curl, python-requests) submit dock/screen jobs and publish
/// weights as JSON over HTTP/1.1. One gateway hosts many registered
/// networks via a TenantDirectory: requests route by model name onto
/// that tenant's DockingService worker pool, each backed by its own
/// hot-swappable ModelRegistry.
///
/// Routes (JSON in, JSON out; no other formats):
///   GET  /v1/healthz                 liveness -> {"status":"ok",...}
///   GET  /v1/models                  discovery: every registered model
///   GET  /v1/stats                   per-pool queue depth + latency
///                                    percentiles (autoscaling signals)
///   POST /v1/models/<name>/dock      body: {"max_steps","epsilon","seed",
///                                    "priority","timeout_s"} (all optional)
///   POST /v1/models/<name>/screen    body: {"library_size","min_atoms",
///                                    "max_atoms","evals","seed",...}
///   POST /v1/models/<name>/publish   body: {"path"}: hot-swap weights from
///                                    a server-side checkpoint file
///
/// Error contract: unknown model -> 404, wrong method -> 405, malformed
/// JSON/HTTP -> 400-class with a JSON {"error": ...} body, queue
/// backpressure -> 503 with the rejection code, a checkpoint the registry
/// will not publish -> 422 with the served version unchanged. A malformed
/// or hostile byte stream can produce a 4xx and a closed connection —
/// never a crash, hang, or SIGPIPE exit.

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "src/gateway/http.hpp"
#include "src/gateway/json.hpp"
#include "src/serve/listener.hpp"
#include "src/serve/tenant.hpp"

namespace dqndock::gateway {

struct GatewayStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;       ///< HTTP requests answered (any status)
  std::uint64_t parseErrors = 0;    ///< malformed HTTP rejected with a 4xx/5xx
  std::uint64_t peerHangups = 0;    ///< clients gone before reading the reply
};

class HttpGateway {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral; read the chosen one via
  /// port()) and starts accepting. The directory must outlive the
  /// gateway and have every tenant registered up front. Throws
  /// std::runtime_error on bind failure.
  HttpGateway(const serve::TenantDirectory& directory, std::uint16_t port = 0);
  ~HttpGateway();

  HttpGateway(const HttpGateway&) = delete;
  HttpGateway& operator=(const HttpGateway&) = delete;

  std::uint16_t port() const { return listener_->port(); }

  /// The listener's stop levels (listener.hpp): requestStop() refuses
  /// new connections and wakes waitUntilStopped(); stop() also joins
  /// every handler thread. The destructor stops too.
  void requestStop() { listener_->requestStop(); }
  bool stopRequested() const { return listener_->stopRequested(); }
  void waitUntilStopped() { listener_->waitUntilStopped(); }
  void stop() { listener_->stop(); }

  GatewayStats stats() const;

 private:
  struct Reply {
    int status = 200;
    JsonValue body;
    Reply(int s, JsonValue b) : status(s), body(std::move(b)) {}
  };

  void handleConnection(int fd);
  /// Route + execute one parsed request. Exceptions never escape: every
  /// outcome is a status + JSON body.
  Reply dispatch(const HttpRequest& request);
  Reply handleHealthz() const;
  Reply handleModels() const;
  Reply handleStats() const;
  Reply handleDock(serve::TenantDirectory::Tenant& tenant, const JsonValue& body);
  Reply handleScreen(serve::TenantDirectory::Tenant& tenant, const JsonValue& body);
  Reply handlePublish(serve::TenantDirectory::Tenant& tenant, const JsonValue& body);
  /// serve::writeAll; false when the peer hung up (counted) or the
  /// transport failed (the connection is then abandoned).
  bool sendAll(int fd, std::string_view bytes);

  const serve::TenantDirectory& directory_;

  mutable std::mutex mu_;
  GatewayStats stats_;  ///< connections is read from the listener

  std::optional<serve::LoopbackListener> listener_;  ///< emplaced last in the constructor
};

}  // namespace dqndock::gateway
