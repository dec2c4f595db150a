#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of DQN-Docking: the one command.

Builds bench_e2e from the checkout it sits in (standalone CMake project
in bench/e2e, build tree under .bench_build/), runs each workload in its
own process, checks every correctness gate and the output schema against
BENCHMARK.json, and prints every metric by name with its unit.

Stdlib only. Usage, from the repository root:

    python3 bench/e2e/run.py                 # every workload, end-to-end metrics
    python3 bench/e2e/run.py --traced        # every workload, per-layer metrics
    python3 bench/e2e/run.py --smoke         # ~1/20 scale: schema + gates only
    python3 bench/e2e/run.py --workload dock-open --seed 7 --seconds 10 --trace 0

With --workload the last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}},
holding the end-to-end metrics (--trace 0) or the per-layer ones
(--trace 1). The exit status is 0 only when every gate passed and no
operation failed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"
DEBUG_BUILD_TYPES = {"", "debug"}
RUN_TIMEOUT_S = 170


def die(message: str, code: int = 2) -> None:
    sys.stderr.write(f"run.py: {message}\n")
    raise SystemExit(code)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"{path} not found")
    return json.loads(path.read_text())


def build() -> Path:
    """Configure once, then (re)build bench_e2e; returns the binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"{ROOT} is not a DQN-Docking checkout (no CMakeLists.txt / src/): nothing to build")
    tree = BUILD / "e2e"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", str(tree), "--target", "bench_e2e", "-j", jobs]]
    if not (tree / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(tree),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die(f"build step failed: {' '.join(step)}")
    return tree / "bench_e2e"


def check_build_type(stamp: dict) -> None:
    """Refuse debug or asserts-on harness builds: their numbers are meaningless."""
    build_type = stamp.get("build_type", "")
    if build_type.lower() in DEBUG_BUILD_TYPES or stamp.get("asserts") != "off":
        die(f"refusing numbers from a {build_type or 'unknown'!r} harness build "
            f"(asserts {stamp.get('asserts', 'unknown')}); build RelWithDebInfo or Release", 1)


def run_workload(binary: Path, workload: str, seed: int, seconds: float, traced: bool,
                 smoke: bool) -> dict:
    work = BUILD / "e2e-work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}",
           f"--work-dir={work}"]
    if traced:
        traces = BUILD / "e2e-traces"
        traces.mkdir(parents=True, exist_ok=True)
        span_file = traces / f"{workload}-{seed}.jsonl"
        cmd += ["--traced", f"--trace-out={span_file}"]
        sys.stderr.write(f"spans: {span_file}\n")
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload}: no result within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(proc.stderr)
    if proc.returncode not in (0, 1):
        die(f"{workload}: bench_e2e exited {proc.returncode}", 1)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as err:
        die(f"{workload}: unparseable bench_e2e output ({err})", 1)


def verdict(raw: dict, wanted: list) -> dict:
    """The one-line JSON result: the wanted metrics, gates folded into `correct`."""
    check_build_type(raw.get("stamp", {}))
    missing = [m["name"] for m in wanted if m["name"] not in raw["metrics"]]
    if missing:
        die(f"{raw['workload']}: metrics missing from the output: {', '.join(missing)}", 1)
    for m in wanted:
        unit = raw["metrics"][m["name"]]["unit"]
        if unit != m["unit"]:
            die(f"{raw['workload']}: {m['name']} reported in {unit!r}, "
                f"BENCHMARK.json says {m['unit']!r}", 1)
    failed_gates = [name for name, ok in raw["gates"].items() if not ok]
    for name in failed_gates:
        sys.stderr.write(f"GATE FAILED: {raw['workload']}: {name}\n")
    return {
        "correct": not failed_gates and raw["failed"] == 0 and raw["attempted"] >= 1,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {m["name"]: raw["metrics"][m["name"]] for m in wanted},
    }


def print_table(workload: str, raw: dict, result: dict) -> None:
    stamp = raw.get("stamp", {})
    print(f"== {workload} (seed {raw['seed']}, {raw['seconds']:g} s"
          f"{', traced' if raw['traced'] else ''}) — {stamp.get('cpu_model', '?')}, "
          f"nproc {stamp.get('nproc', '?')}, scoring {stamp.get('scoring_kernel_tier', '?')}, "
          f"gemm {stamp.get('gemm_kernel_tier', '?')}, fold {stamp.get('fold_static', '?')}, "
          f"{stamp.get('build_type', '?')}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    gates = ", ".join(f"{k}={'ok' if v else 'FAILED'}" for k, v in raw["gates"].items())
    print(f"  attempted {result['attempted']}, failed {result['failed']}; gates: {gates}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="run only this workload and end with a JSON line")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured window per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="1 = traced run reporting the per-layer metrics")
    ap.add_argument("--traced", action="store_true", help="same as --trace 1")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at ~1/20 scale, traced: schema and gates only")
    ap.add_argument("--binary", type=Path,
                    help="use this bench_e2e instead of building one (ctest)")
    args = ap.parse_args()

    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in workloads:
        die(f"unknown workload {args.workload!r}; BENCHMARK.json lists {', '.join(workloads)}")
    traced = args.traced or args.trace == 1 or args.smoke
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    binary = args.binary if args.binary is not None else build()

    if args.workload is not None:
        raw = run_workload(binary, args.workload, args.seed, seconds, traced, args.smoke)
        result = verdict(raw, spec["per_layer"] if traced else spec["end_to_end"])
        print_table(args.workload, raw, result)
        print(json.dumps(result))
        raise SystemExit(0 if result["correct"] else 1)

    ok = True
    for workload in workloads:
        raw = run_workload(binary, workload, args.seed, seconds, traced, args.smoke)
        wanted = spec["end_to_end"] + (spec["per_layer"] if traced else [])
        result = verdict(raw, wanted)
        print_table(workload, raw, result)
        ok = ok and result["correct"]
    if not ok:
        die("a correctness gate failed or an operation failed (see above)", 1)


if __name__ == "__main__":
    main()
