#!/usr/bin/env python3
"""Run the Eq. 1 scoring benchmarks and emit BENCH_scoring.json.

Covers the packed-vs-scalar A/B per execution path, the per-pose score of
the rest pose every episode and dock starts from (poses/second), and the
pose-batched kernel (pairs/second at several batch sizes). Refuses to publish numbers
measured from a debug harness build unless --allow-debug is passed.

Stdlib only. Usage:

    python3 scripts/bench_scoring.py [--build-dir build] [--out BENCH_scoring.json]
                                     [--min-time 0.5] [--allow-debug]

Expects the bench harness at <build-dir>/bench/bench_scoring (built with
-DDQNDOCK_BUILD_BENCH=ON, the default; use a Release build dir). The
measured paths map to the benchmark pairs:

    brute_force_no_cutoff : BM_ScoreBruteForceNoCutoff[Scalar]
    cutoff_no_grid        : BM_ScoreCutoffNoGrid[Scalar]
    cutoff_with_grid      : BM_ScoreCutoffWithGrid[Scalar]
    start_pose            : BM_ScoreStartPose (poses_per_second)
    pose_batched          : BM_ScorePoseBatched/{1,8,32}, BM_ScorePoseBatchedSpread/32

items_per_second is poses * receptor_atoms * ligand_atoms * iterations /
time, i.e. scored (pose, pair) combinations per second on the paper-2BSM
surrogate — so pair pruning the batched kernel earns counts toward its
throughput.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

# benchmark name -> (path key, kernel key)
BENCH_MAP = {
    "BM_ScoreBruteForceNoCutoff": ("brute_force_no_cutoff", "packed"),
    "BM_ScoreBruteForceNoCutoffScalar": ("brute_force_no_cutoff", "scalar"),
    "BM_ScoreCutoffNoGrid": ("cutoff_no_grid", "packed"),
    "BM_ScoreCutoffNoGridScalar": ("cutoff_no_grid", "scalar"),
    "BM_ScoreCutoffWithGrid": ("cutoff_with_grid", "packed"),
    "BM_ScoreCutoffWithGridScalar": ("cutoff_with_grid", "scalar"),
}

# pose-batched benchmark name (with google-benchmark /Arg suffix) -> key
BATCHED_MAP = {
    "BM_ScorePoseBatched/1": "batch_1",
    "BM_ScorePoseBatched/8": "batch_8",
    "BM_ScorePoseBatched/32": "batch_32",
    "BM_ScorePoseBatchedSpread/32": "spread_batch_32",
}

# per-pose rest-pose benchmark; its items are poses, not pairs
START_POSE_BENCH = "BM_ScoreStartPose"

DEBUG_BUILD_TYPES = {"", "debug"}


def run_bench(binary: Path, min_time: float) -> dict:
    cmd = [
        str(binary),
        "--benchmark_filter=BM_Score",
        f"--benchmark_min_time={min_time}",
        "--benchmark_format=json",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark run failed (exit {proc.returncode})")
    return json.loads(proc.stdout)


def check_build_type(ctx: dict, allow_debug: bool) -> str:
    """Refuse debug harness OR debug benchmark-library builds.

    The harness build type covers the code under test; the benchmark
    library build type covers the timing loop itself. Either one being a
    debug build (or unknown) makes the published numbers untrustworthy,
    so both gates hard-fail unless --allow-debug.
    """
    harness = ctx.get("dqndock_bench_build_type", "")
    if harness.lower() in DEBUG_BUILD_TYPES or ctx.get("dqndock_bench_asserts") == "on":
        msg = (f"refusing to publish: bench harness build type is "
               f"{harness or 'unknown'!r} (asserts "
               f"{ctx.get('dqndock_bench_asserts', 'unknown')}); "
               f"rebuild with -DCMAKE_BUILD_TYPE=Release")
        if not allow_debug:
            raise SystemExit(msg)
        sys.stderr.write(f"WARNING (--allow-debug): {msg}\n")
    library = ctx.get("library_build_type", "")
    if library.lower() != "release":
        msg = (f"refusing to publish: benchmark library build type is "
               f"{library or 'unknown'!r}; the in-tree benchkit library is "
               f"forced -O3/NDEBUG (bench/CMakeLists.txt) - rebuild the "
               f"bench tree instead of linking a debug libbenchmark")
        if not allow_debug:
            raise SystemExit(msg)
        sys.stderr.write(f"WARNING (--allow-debug): {msg}\n")
    return harness


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build", type=Path)
    ap.add_argument("--out", default="BENCH_scoring.json", type=Path)
    ap.add_argument("--min-time", default=0.5, type=float,
                    help="seconds per benchmark (google-benchmark min time)")
    ap.add_argument("--allow-debug", action="store_true",
                    help="emit JSON even from a debug harness build (flagged, for smoke tests)")
    args = ap.parse_args()

    binary = args.build_dir / "bench" / "bench_scoring"
    if not binary.exists():
        raise SystemExit(f"{binary} not found - build with -DDQNDOCK_BUILD_BENCH=ON first")

    raw = run_bench(binary, args.min_time)
    ctx = raw.get("context", {})
    harness_build_type = check_build_type(ctx, args.allow_debug)

    paths: dict = {}
    batched: dict = {}
    start_pose: dict = {}
    for bench in raw.get("benchmarks", []):
        name = bench.get("name", "")
        if name == START_POSE_BENCH:
            start_pose["poses_per_second"] = bench["items_per_second"]
            continue
        if name in BATCHED_MAP:
            batched[BATCHED_MAP[name]] = bench["items_per_second"]
            continue
        mapping = BENCH_MAP.get(name.split("/")[0])
        if mapping is None:
            continue
        path_key, kernel = mapping
        paths.setdefault(path_key, {})[kernel] = bench["items_per_second"]

    missing = [k for k in {p for p, _ in BENCH_MAP.values()}
               if len(paths.get(k, {})) != 2]
    missing += [k for k in BATCHED_MAP.values() if k not in batched]
    if not start_pose:
        missing.append("start_pose")
    if missing:
        raise SystemExit(f"incomplete benchmark output: {sorted(missing)}")

    for stats in paths.values():
        stats["packed_over_scalar"] = stats["packed"] / stats["scalar"]
    per_pose = paths["cutoff_with_grid"]["packed"]
    batched["batched_over_per_pose_b32"] = batched["batch_32"] / per_pose

    report = {
        "benchmark": "bench_scoring",
        "scenario": "paper-2BSM surrogate (3264 receptor atoms x 45-atom ligand)",
        "metric": "pairs_per_second",
        "date": ctx.get("date"),
        "num_cpus": ctx.get("num_cpus"),
        "cpu_scaling_enabled": ctx.get("cpu_scaling_enabled"),
        "harness_build_type": harness_build_type,
        "benchmark_library_build_type": ctx.get("library_build_type"),
        # Eq. 1 sweep tier the harness dispatched to at runtime (CPUID
        # probe or DQNDOCK_FORCE_KERNEL): "avx512" or "generic".
        "kernel_tier": ctx.get("dqndock_kernel_tier"),
        "paths": paths,
        # poses/s, not pairs/s: the rest pose every episode and dock
        # starts from, scored per pose on the grid path.
        "start_pose": start_pose,
        "pose_batched": batched,
        "acceptance": {
            "required_speedup_pose_batched_b32": 2.0,
            "measured_speedup_pose_batched_b32":
                round(batched["batched_over_per_pose_b32"], 2),
        },
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    for path_key in sorted(paths):
        s = paths[path_key]
        print(f"  {path_key:22s} packed {s['packed'] / 1e6:8.1f} M pairs/s  "
              f"scalar {s['scalar'] / 1e6:8.1f} M pairs/s  "
              f"({s['packed_over_scalar']:.2f}x)")
    print(f"  {'start_pose':22s} {start_pose['poses_per_second'] / 1e3:8.1f} k poses/s")
    print(f"  {'pose_batched B=32':22s} batched {batched['batch_32'] / 1e6:7.1f} M pairs/s  "
          f"({batched['batched_over_per_pose_b32']:.2f}x per-pose grid)")


if __name__ == "__main__":
    main()
