#!/usr/bin/env bash
# Curl quickstart for the HTTP/JSON gateway. Start a gateway first:
#
#   ./build/examples/gateway_server --port=8080 --models=alpha,beta
#
# then run:  scripts/gateway_curl.sh 8080
set -euo pipefail

PORT="${1:-8080}"
BASE="http://127.0.0.1:${PORT}"

echo "== liveness =="
curl -sf "${BASE}/v1/healthz"; echo

echo "== registered models =="
curl -sf "${BASE}/v1/models"; echo

echo "== dock on model 'alpha' (deterministic: epsilon=0) =="
curl -sf -X POST "${BASE}/v1/models/alpha/dock" \
     -H 'Content-Type: application/json' \
     -d '{"max_steps": 50, "epsilon": 0, "seed": 7, "priority": "high"}'; echo

echo "== screen a small generated library on model 'beta' =="
curl -sf -X POST "${BASE}/v1/models/beta/screen" \
     -d '{"library_size": 4, "min_atoms": 8, "max_atoms": 12, "evals": 200}'; echo

echo "== hot-swap 'alpha' from ./policy.bin (422 if missing or of another shape) =="
curl -s -X POST "${BASE}/v1/models/alpha/publish" \
     -d "{\"path\": \"${PWD}/policy.bin\"}"; echo

echo "== per-model queue depth + latency percentiles =="
curl -sf "${BASE}/v1/stats"; echo
