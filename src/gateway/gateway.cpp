#include "src/gateway/gateway.hpp"

#include <cerrno>
#include <cmath>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>

#include <sys/socket.h>

#include "src/common/stopwatch.hpp"
#include "src/serve/wire.hpp"

namespace dqndock::gateway {

namespace {

serve::JobPriority priorityFromName(const std::string& name) {
  if (name == "high") return serve::JobPriority::kHigh;
  if (name == "low") return serve::JobPriority::kLow;
  return serve::JobPriority::kNormal;
}

JsonValue errorBody(const std::string& message) {
  JsonValue body = JsonValue::object();
  body.set("error", message);
  return body;
}

/// Count or seed field, range-checked before the cast: "max_steps": 12.5
/// must 400 rather than truncate to 12, and -1, 1e300, 1e400 (strtod's
/// inf) or 4294967297 for an int must 400 rather than wrap or reach an
/// undefined cast. Accepts the integers in [0, max of T].
template <typename T>
T countField(const JsonValue& body, const std::string& key, T fallback) {
  const double raw = body.numberOr(key, static_cast<double>(fallback));
  // 2^digits is max + 1 and exact in a double, unlike max itself for
  // 64-bit T.
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (!(raw >= 0.0 && raw < limit) || std::trunc(raw) != raw) {
    throw JsonError("field \"" + key + "\" must be an integer in [0, " +
                    std::to_string(std::numeric_limits<T>::max()) + "]");
  }
  return static_cast<T>(raw);
}

JsonValue latencyJson(const serve::RouteStats& route) {
  JsonValue out = JsonValue::object();
  out.set("requests", static_cast<double>(route.requests));
  out.set("errors", static_cast<double>(route.errors));
  out.set("latency_samples", static_cast<double>(route.latencySamples));
  JsonValue percentiles = JsonValue::object();
  percentiles.set("p50", route.p50Seconds * 1e3);
  percentiles.set("p90", route.p90Seconds * 1e3);
  percentiles.set("p99", route.p99Seconds * 1e3);
  out.set("latency_ms", std::move(percentiles));
  return out;
}

void fillDockJson(JsonValue& out, const serve::JobOutcome& outcome) {
  out.set("job_id", static_cast<double>(outcome.jobId));
  out.set("status", std::string(serve::jobStatusName(outcome.status)));
  out.set("initial_score", outcome.dock.initialScore);
  out.set("best_score", outcome.dock.bestScore);
  out.set("final_score", outcome.dock.finalScore);
  out.set("best_rmsd", outcome.dock.bestRmsd);
  out.set("steps", static_cast<double>(outcome.dock.steps));
  out.set("termination", outcome.dock.termination);
  out.set("model_version", static_cast<double>(outcome.dock.modelVersion));
  out.set("seconds", outcome.dock.seconds);
  if (!outcome.error.empty()) out.set("error", outcome.error);
}

void fillScreenJson(JsonValue& out, const serve::JobOutcome& outcome) {
  out.set("job_id", static_cast<double>(outcome.jobId));
  out.set("status", std::string(serve::jobStatusName(outcome.status)));
  out.set("ligands", static_cast<double>(outcome.screen.ligands));
  out.set("hit_count", static_cast<double>(outcome.screen.hitCount));
  out.set("best_score", outcome.screen.bestScore);
  out.set("best_ligand", outcome.screen.bestLigand);
  out.set("evaluations", static_cast<double>(outcome.screen.totalEvaluations));
  out.set("seconds", outcome.screen.seconds);
  if (!outcome.error.empty()) out.set("error", outcome.error);
}

}  // namespace

HttpGateway::HttpGateway(const serve::TenantDirectory& directory, std::uint16_t port)
    : directory_(directory) {
  listener_.emplace("HttpGateway", port, [this](int fd) { handleConnection(fd); });
}

HttpGateway::~HttpGateway() { stop(); }

bool HttpGateway::sendAll(int fd, std::string_view bytes) {
  try {
    serve::writeAll(fd, bytes);
    return true;
  } catch (const serve::PeerClosedError&) {
    std::lock_guard lock(mu_);
    ++stats_.peerHangups;
  } catch (const std::exception&) {
  }
  return false;
}

void HttpGateway::handleConnection(int fd) {
  HttpParser parser;
  char buf[16384];
  bool close = false;
  while (!close) {
    while (parser.status() == HttpParser::Status::kNeedMore) {
      const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
      if (r < 0) {
        if (errno == EINTR) continue;
        close = true;  // transport fault (or stop() shutdown)
        break;
      }
      if (r == 0) {
        // EOF. Between requests this is the normal end of a keep-alive
        // connection; mid-request it is a truncated request (including
        // mid-body hangup) — either way: clean close, nothing to answer.
        close = true;
        break;
      }
      parser.feed(std::string_view(buf, static_cast<std::size_t>(r)));
    }
    if (close) break;

    if (parser.status() == HttpParser::Status::kError) {
      {
        std::lock_guard lock(mu_);
        ++stats_.parseErrors;
        ++stats_.requests;
      }
      // Framing is unrecoverable after a parse error; answer and close.
      sendAll(fd, buildHttpResponse(parser.errorStatus(), "application/json",
                                    jsonEncode(errorBody(parser.errorReason())),
                                    /*close=*/true));
      break;
    }

    const HttpRequest& request = parser.request();
    close = request.wantsClose();
    const Reply reply = dispatch(request);
    {
      std::lock_guard lock(mu_);
      ++stats_.requests;
    }
    if (!sendAll(fd, buildHttpResponse(reply.status, "application/json",
                                       jsonEncode(reply.body), close))) {
      break;
    }
    if (!close) parser.reset();  // may complete instantly on pipelined surplus
  }
}

HttpGateway::Reply HttpGateway::dispatch(const HttpRequest& request) {
  try {
    const std::string path = request.path();
    if (path == "/v1/healthz" || path == "/v1/models" || path == "/v1/stats") {
      if (request.method != "GET") {
        return Reply(405, errorBody("use GET for " + path));
      }
      if (path == "/v1/healthz") return handleHealthz();
      if (path == "/v1/models") return handleModels();
      return handleStats();
    }

    // /v1/models/<name>/dock|screen|publish
    const std::string prefix = "/v1/models/";
    if (path.rfind(prefix, 0) == 0) {
      const std::string rest = path.substr(prefix.size());
      const std::size_t slash = rest.find('/');
      if (slash == std::string::npos || slash == 0 || slash + 1 >= rest.size()) {
        return Reply(404, errorBody("expected /v1/models/<name>/dock, .../screen or .../publish"));
      }
      const std::string name = rest.substr(0, slash);
      const std::string verb = rest.substr(slash + 1);
      if (verb != "dock" && verb != "screen" && verb != "publish") {
        return Reply(404, errorBody("unknown action \"" + verb + "\""));
      }
      serve::TenantDirectory::Tenant* tenant = directory_.find(name);
      if (tenant == nullptr) {
        return Reply(404, errorBody("unknown model \"" + name + "\""));
      }
      if (request.method != "POST") {
        return Reply(405, errorBody("use POST for " + path));
      }
      JsonValue body;
      try {
        body = jsonParse(request.body);
      } catch (const JsonError& e) {
        return Reply(400, errorBody(std::string("bad JSON body: ") + e.what()));
      }
      if (!body.isObject()) {
        return Reply(400, errorBody("request body must be a JSON object"));
      }
      if (verb == "dock") return handleDock(*tenant, body);
      return verb == "screen" ? handleScreen(*tenant, body) : handlePublish(*tenant, body);
    }

    return Reply(404, errorBody("no route for " + path));
  } catch (const JsonError& e) {
    return Reply(400, errorBody(e.what()));
  } catch (const std::exception& e) {
    return Reply(500, errorBody(e.what()));
  }
}

HttpGateway::Reply HttpGateway::handleHealthz() const {
  JsonValue body = JsonValue::object();
  body.set("status", "ok");
  body.set("models", static_cast<double>(directory_.size()));
  return Reply(200, std::move(body));
}

HttpGateway::Reply HttpGateway::handleModels() const {
  JsonValue models = JsonValue::array();
  for (const std::string& name : directory_.names()) {
    const serve::TenantDirectory::Tenant* tenant = directory_.find(name);
    JsonValue entry = JsonValue::object();
    entry.set("name", name);
    entry.set("model_version", static_cast<double>(tenant->registry->currentVersion()));
    entry.set("state_dim", static_cast<double>(tenant->registry->inputDim()));
    entry.set("actions", static_cast<double>(tenant->registry->actionCount()));
    entry.set("workers", static_cast<double>(tenant->service->options().workers));
    entry.set("queue_capacity",
              static_cast<double>(tenant->service->options().queueCapacity));
    entry.set("fold_active", tenant->service->foldActive());
    models.push(std::move(entry));
  }
  JsonValue body = JsonValue::object();
  body.set("models", std::move(models));
  return Reply(200, std::move(body));
}

HttpGateway::Reply HttpGateway::handleStats() const {
  JsonValue body = JsonValue::object();
  {
    const GatewayStats snapshot = stats();
    JsonValue gw = JsonValue::object();
    gw.set("connections", static_cast<double>(snapshot.connections));
    gw.set("requests", static_cast<double>(snapshot.requests));
    gw.set("parse_errors", static_cast<double>(snapshot.parseErrors));
    gw.set("peer_hangups", static_cast<double>(snapshot.peerHangups));
    body.set("gateway", std::move(gw));
  }
  JsonValue models = JsonValue::array();
  for (const serve::TenantStats& tenant : directory_.stats()) {
    JsonValue entry = JsonValue::object();
    entry.set("name", tenant.name);
    entry.set("queue_depth", static_cast<double>(tenant.queueDepth));
    entry.set("queue_capacity", static_cast<double>(tenant.queueCapacity));
    entry.set("workers", static_cast<double>(tenant.workers));
    entry.set("dock", latencyJson(tenant.dock));
    entry.set("screen", latencyJson(tenant.screen));
    JsonValue jobs = JsonValue::object();
    jobs.set("done", static_cast<double>(tenant.service.done));
    jobs.set("failed", static_cast<double>(tenant.service.failed));
    jobs.set("cancelled", static_cast<double>(tenant.service.cancelled));
    jobs.set("timed_out", static_cast<double>(tenant.service.timedOut));
    entry.set("jobs", std::move(jobs));
    const serve::BatcherStats& batcher = tenant.service.batcher;
    entry.set("batches", static_cast<double>(batcher.batches));
    entry.set("mean_batch_rows", batcher.meanBatchRows());
    entry.set("full_batches", static_cast<double>(batcher.fullBatches));
    entry.set("rollout_flushes", static_cast<double>(batcher.rolloutFlushes));
    entry.set("deadline_flushes", static_cast<double>(batcher.deadlineFlushes));
    models.push(std::move(entry));
  }
  body.set("models", std::move(models));
  return Reply(200, std::move(body));
}

HttpGateway::Reply HttpGateway::handleDock(serve::TenantDirectory::Tenant& tenant,
                                           const JsonValue& body) {
  serve::DockRequest dock;
  dock.maxSteps = countField<int>(body, "max_steps", dock.maxSteps);
  dock.epsilon = body.numberOr("epsilon", dock.epsilon);
  dock.seed = countField<std::uint64_t>(body, "seed", 1);
  dock.priority = priorityFromName(body.stringOr("priority", "normal"));
  dock.timeoutSeconds = body.numberOr("timeout_s", 0.0);

  Stopwatch clock;
  const serve::SubmitResult submitted = tenant.service->submitDock(dock);
  if (!submitted.accepted()) {
    tenant.recordDock(clock.seconds(), /*ok=*/false);
    JsonValue out = errorBody(submitted.reason());
    out.set("code", std::string(serve::submitStatusName(submitted.status)));
    return Reply(503, std::move(out));
  }
  const serve::JobOutcome outcome = tenant.service->wait(submitted.jobId);
  tenant.recordDock(clock.seconds(), outcome.status == serve::JobStatus::kDone);

  JsonValue out = JsonValue::object();
  out.set("model", tenant.name);
  fillDockJson(out, outcome);
  return Reply(200, std::move(out));
}

HttpGateway::Reply HttpGateway::handleScreen(serve::TenantDirectory::Tenant& tenant,
                                             const JsonValue& body) {
  serve::ScreenRequest screen;
  screen.librarySize = countField<std::size_t>(body, "library_size", screen.librarySize);
  screen.minAtoms = countField<std::size_t>(body, "min_atoms", 8);
  screen.maxAtoms = countField<std::size_t>(body, "max_atoms", 14);
  screen.evaluationsPerLigand = countField<std::size_t>(body, "evals", 400);
  screen.seed = countField<std::uint64_t>(body, "seed", 2020);
  screen.priority = priorityFromName(body.stringOr("priority", "normal"));
  screen.timeoutSeconds = body.numberOr("timeout_s", 0.0);

  Stopwatch clock;
  const serve::SubmitResult submitted = tenant.service->submitScreen(screen);
  if (!submitted.accepted()) {
    tenant.recordScreen(clock.seconds(), /*ok=*/false);
    JsonValue out = errorBody(submitted.reason());
    out.set("code", std::string(serve::submitStatusName(submitted.status)));
    return Reply(503, std::move(out));
  }
  const serve::JobOutcome outcome = tenant.service->wait(submitted.jobId);
  tenant.recordScreen(clock.seconds(), outcome.status == serve::JobStatus::kDone);

  JsonValue out = JsonValue::object();
  out.set("model", tenant.name);
  fillScreenJson(out, outcome);
  return Reply(200, std::move(out));
}

HttpGateway::Reply HttpGateway::handlePublish(serve::TenantDirectory::Tenant& tenant,
                                              const JsonValue& body) {
  const std::string path = body.stringOr("path", "");
  if (path.empty()) return Reply(400, errorBody("field \"path\" is required"));
  std::uint64_t version = 0;
  try {
    version = tenant.registry->publishFromFile(path);
  } catch (const std::runtime_error& e) {
    // Unreadable, truncated, bad magic or another architecture: the
    // registry threw before swapping, so the served version is unchanged.
    return Reply(422, errorBody(e.what()));
  }
  JsonValue out = JsonValue::object();
  out.set("model", tenant.name);
  out.set("model_version", static_cast<double>(version));
  return Reply(200, std::move(out));
}

GatewayStats HttpGateway::stats() const {
  std::lock_guard lock(mu_);
  GatewayStats stats = stats_;
  stats.connections = listener_->connections();
  return stats;
}

}  // namespace dqndock::gateway
