#!/usr/bin/env python3
"""End-to-end smoke test for the HTTP/JSON gateway (CI e2e-gateway job).

Starts ./gateway_server with TWO registered models, then drives the full
REST surface with the standard library's http.client — no third-party
dependency, the same bytes curl would send:

  * GET  /v1/healthz            -> {"status": "ok", "models": 2}
  * GET  /v1/models             -> both names, schema-checked
  * POST /v1/models/<n>/dock    -> routed per model; schema-checked;
                                   deterministic repeat must be
                                   BIT-identical (same JSON number text)
  * POST /v1/models/<n>/screen  -> routed; schema-checked
  * GET  /v1/stats              -> per-model counters reflect exactly the
                                   traffic each model received
  * error contract              -> 404 unknown model, 400 bad JSON,
                                   422 publish of a missing checkpoint
                                   with model_version unchanged

Exits non-zero on the first violation, printing what failed.

Usage: gateway_smoke.py /path/to/gateway_server
"""

import http.client
import json
import subprocess
import sys
import time

MODELS = ["alpha", "beta"]


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def expect(condition, message):
    if not condition:
        fail(message)


def request(port, method, path, body=None):
    """One HTTP exchange; returns (status, raw_body_text)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"} if body else {})
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


def expect_keys(obj, keys, context):
    for key in keys:
        expect(key in obj, f"{context}: missing key {key!r} in {obj}")


def main():
    if len(sys.argv) != 2:
        fail("usage: gateway_smoke.py /path/to/gateway_server")
    server = subprocess.Popen(
        [sys.argv[1], "--port=18490", "--models=" + ",".join(MODELS), "--workers=2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    port = 18490
    try:
        # Wait for the listener.
        for _ in range(100):
            try:
                status, _ = request(port, "GET", "/v1/healthz")
                if status == 200:
                    break
            except OSError:
                time.sleep(0.1)
        else:
            fail("gateway never came up on port 18490")

        # healthz
        status, text = request(port, "GET", "/v1/healthz")
        health = json.loads(text)
        expect(health["status"] == "ok", f"healthz status: {text}")
        expect(health["models"] == len(MODELS), f"healthz model count: {text}")

        # discovery
        status, text = request(port, "GET", "/v1/models")
        expect(status == 200, f"/v1/models -> {status}")
        listing = json.loads(text)["models"]
        expect([m["name"] for m in listing] == sorted(MODELS),
               f"model listing mismatch: {text}")
        for entry in listing:
            expect_keys(entry, ["name", "model_version", "state_dim", "actions",
                                "workers", "queue_capacity", "fold_active"], "/v1/models")

        # dock on each model, with a bit-identical deterministic repeat
        dock_body = json.dumps({"max_steps": 12, "epsilon": 0, "seed": 11})
        for name in MODELS:
            path = f"/v1/models/{name}/dock"
            status, first = request(port, "POST", path, dock_body)
            expect(status == 200, f"{path} -> {status}: {first}")
            result = json.loads(first)
            expect_keys(result, ["model", "job_id", "status", "initial_score",
                                 "best_score", "final_score", "best_rmsd", "steps",
                                 "termination", "model_version", "seconds"], path)
            expect(result["model"] == name, f"{path} routed to {result['model']}")
            expect(result["status"] == "done", f"{path} status {result['status']}")

            status, second = request(port, "POST", path, dock_body)
            a, b = json.loads(first), json.loads(second)
            for field in ("initial_score", "best_score", "final_score", "best_rmsd"):
                # Compare the raw repr: %.17g round-trips doubles exactly,
                # so a deterministic rollout must serialize identically.
                expect(repr(a[field]) == repr(b[field]),
                       f"{path} {field} not bit-stable: {a[field]!r} vs {b[field]!r}")

        # screen on one model only (alpha) — the stats check below pins
        # per-model attribution.
        status, text = request(port, "POST", "/v1/models/alpha/screen",
                               json.dumps({"library_size": 2, "min_atoms": 6,
                                           "max_atoms": 8, "evals": 30}))
        expect(status == 200, f"screen -> {status}: {text}")
        screen = json.loads(text)
        expect_keys(screen, ["model", "job_id", "status", "ligands", "hit_count",
                             "best_score", "best_ligand", "evaluations", "seconds"],
                    "screen")
        expect(screen["ligands"] == 2, f"screen ligand count: {text}")

        # error contract
        status, _ = request(port, "GET", "/v1/nope")
        expect(status == 404, f"unknown route -> {status}")
        status, _ = request(port, "POST", "/v1/models/gamma/dock", "{}")
        expect(status == 404, f"unknown model -> {status}")
        status, _ = request(port, "POST", "/v1/models/alpha/dock", "{broken")
        expect(status == 400, f"bad JSON -> {status}")
        status, _ = request(port, "POST", "/v1/models/alpha/dock",
                            json.dumps({"max_steps": "lots"}))
        expect(status == 400, f"mistyped field -> {status}")
        status, text = request(port, "POST", "/v1/models/alpha/publish",
                               json.dumps({"path": "/nonexistent/weights.bin"}))
        expect(status == 422, f"publish of a missing checkpoint -> {status}: {text}")
        status, text = request(port, "GET", "/v1/models")
        versions = {m["name"]: m["model_version"] for m in json.loads(text)["models"]}
        expect(versions == {name: 1 for name in MODELS},
               f"a refused publish changed a model version: {versions}")

        # stats: per-model routing must be visible in the counters
        status, text = request(port, "GET", "/v1/stats")
        expect(status == 200, f"/v1/stats -> {status}")
        stats = json.loads(text)
        expect_keys(stats, ["gateway", "models"], "/v1/stats")
        expect_keys(stats["gateway"], ["connections", "requests", "parse_errors",
                                       "peer_hangups"], "/v1/stats gateway")
        by_name = {entry["name"]: entry for entry in stats["models"]}
        expect(set(by_name) == set(MODELS), f"stats models: {text}")
        for name in MODELS:
            expect_keys(by_name[name], ["queue_depth", "queue_capacity", "workers",
                                        "dock", "screen", "jobs", "batches",
                                        "mean_batch_rows", "full_batches",
                                        "rollout_flushes", "deadline_flushes"],
                        f"stats[{name}]")
            expect_keys(by_name[name]["dock"], ["requests", "errors", "latency_samples",
                                                "latency_ms"], f"stats[{name}].dock")
            expect_keys(by_name[name]["dock"]["latency_ms"], ["p50", "p90", "p99"],
                        f"stats[{name}].dock.latency_ms")
            expect(by_name[name]["dock"]["requests"] == 2,
                   f"{name} dock request count: {by_name[name]['dock']}")
        expect(by_name["alpha"]["screen"]["requests"] == 1,
               f"alpha screen count: {by_name['alpha']['screen']}")
        expect(by_name["beta"]["screen"]["requests"] == 0,
               f"beta screen count: {by_name['beta']['screen']}")
        expect(by_name["alpha"]["dock"]["latency_ms"]["p50"] > 0,
               "alpha dock p50 should be positive after traffic")

        print("gateway smoke: all checks passed")
    finally:
        server.terminate()
        try:
            output = server.communicate(timeout=15)[0]
        except subprocess.TimeoutExpired:
            server.kill()
            output = server.communicate()[0]
        print(output or "", end="")
    if server.returncode not in (0, -15):
        fail(f"gateway_server exited {server.returncode}")


if __name__ == "__main__":
    main()
