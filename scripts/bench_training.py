#!/usr/bin/env python3
"""Benchmark the vectorized training loop and emit BENCH_training.json.

Runs bench_training (paper-2BSM task). Every row goes through the
trainer's one lockstep loop: the `sequential` row is that loop at V = 1
over the system's own DockingTask (vectorEnvs 0, the paper's one-env
Algorithm 2), the V in {1, 8, 32} rows run DockingVectorEnv envs feeding
the pose-batched scoring kernel and one tiled Q-forward per step. The
binary reports collect-phase and learning-phase transitions/second (one
candidate pose is scored per transition, so steps/s == pose-evals/s;
each collect and learn row is the median of 5 fresh runs, with the
slowest and fastest run's rates as steps_per_second_min/_max beside
it), a
learn-sustained row (one long one-env learning run timed over learn
calls 2,000-4,000 and 16,000-18,000) and a built-in check that the
`sequential` and V=1 runs are bit-identical.

Gates (mirroring bench_scoring.py): refuses a debug harness build,
refuses if the V=1 run is not bit-identical to the `sequential` row's
run, and enforces the acceptance floor of a 2x collect-phase speedup at
V=32 over the `sequential` row (1.5x with the static-prefix fold on).
The learn-sustained late/early ratio is recorded, not gated.

Stdlib only. Usage:

    python3 scripts/bench_training.py [--build-dir build] [--out BENCH_training.json]
                                      [--episodes 8] [--max-steps 50]
                                      [--learn-max-steps 10] [--replay 512]
                                      [--sustained-learns 18000]
                                      [--seed 2018] [--skip-identity] [--allow-debug]
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

DEBUG_BUILD_TYPES = {"", "debug"}
REQUIRED_SPEEDUP_V32 = 2.0
# With the static-prefix fold on (the default), the per-step Q-forward
# that V-lockstep amortizes is ~50x cheaper, so the collect phase is
# dominated by the scoring kernel and the reachable V=32 speedup drops
# (Amdahl). The fold's own acceptance is the learn-phase floor below;
# the unfolded 2x collect floor still applies when the fold is off.
REQUIRED_SPEEDUP_V32_FOLDED = 1.5
# PR-6 learn-sequential rate on the reference host (scalar ikj GEMM,
# Release, avx512 scoring tier) — the baseline the SIMD GEMM tier's
# >= 2x learn-phase acceptance is measured against.
SCALAR_GEMM_LEARN_BASELINE = 9.9
# PR-7 learn-sequential rate on the reference host (SIMD GEMM tier,
# full-width input layer) — the baseline the static-prefix fold's
# >= 2x learn-phase acceptance is measured against.
UNFOLDED_LEARN_BASELINE = 26.5
REQUIRED_FOLD_LEARN_SPEEDUP = 2.0


def run_bench(binary: Path, args) -> dict:
    cmd = [
        str(binary),
        f"--episodes={args.episodes}",
        f"--max-steps={args.max_steps}",
        f"--learn-max-steps={args.learn_max_steps}",
        f"--replay={args.replay}",
        f"--sustained-learns={args.sustained_learns}",
        f"--seed={args.seed}",
    ]
    if args.skip_identity:
        cmd.append("--skip-identity")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    # Exit code 1 signals a failed bit-identity check; the JSON still
    # carries the flag, so parse first and fail on the flag below.
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark run failed (exit {proc.returncode})")
    sys.stderr.write(proc.stderr)
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as err:
        raise SystemExit(f"bench_training emitted unparseable JSON: {err}")


def check_build_type(raw: dict, allow_debug: bool) -> str:
    """Refuse debug harness builds: their numbers are meaningless."""
    harness = raw.get("dqndock_bench_build_type", "")
    if harness.lower() in DEBUG_BUILD_TYPES or raw.get("dqndock_bench_asserts") == "on":
        msg = (f"refusing to publish: bench harness build type is "
               f"{harness or 'unknown'!r} (asserts "
               f"{raw.get('dqndock_bench_asserts', 'unknown')}); "
               f"rebuild with -DCMAKE_BUILD_TYPE=Release")
        if not allow_debug:
            raise SystemExit(msg)
        sys.stderr.write(f"WARNING (--allow-debug): {msg}\n")
    return harness


def rate(rows: list, label: str) -> float:
    for row in rows:
        if row["label"] == label:
            return row["steps_per_second"]
    raise SystemExit(f"bench_training JSON is missing the {label!r} row")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build", type=Path)
    ap.add_argument("--out", default="BENCH_training.json", type=Path)
    ap.add_argument("--episodes", default=8, type=int)
    ap.add_argument("--max-steps", default=50, type=int,
                    help="episode length for the collect-phase rows")
    ap.add_argument("--learn-max-steps", default=10, type=int,
                    help="episode length for the learning-phase rows")
    ap.add_argument("--replay", default=512, type=int)
    ap.add_argument("--sustained-learns", default=18000, type=int,
                    help="length in learn calls of the learn-sustained run; its "
                         "windows are calls [n/9, 2n/9) and [8n/9, n)")
    ap.add_argument("--seed", default=2018, type=int)
    ap.add_argument("--skip-identity", action="store_true",
                    help="skip the built-in sequential-vs-V=1 bit-identity run")
    ap.add_argument("--min-speedup", default=None, type=float,
                    help="acceptance floor for the V=32 collect speedup "
                         f"(default {REQUIRED_SPEEDUP_V32} unfolded, "
                         f"{REQUIRED_SPEEDUP_V32_FOLDED} with the static-prefix "
                         "fold on); CI smoke runs pass a lower bar (tiny configs "
                         "on shared runners measure schema and bit-identity, not "
                         "throughput)")
    ap.add_argument("--learn-baseline", default=SCALAR_GEMM_LEARN_BASELINE, type=float,
                    help="scalar-GEMM learn-sequential steps/s to compute the "
                         "learn-phase speedup against (PR-6 reference-host rate)")
    ap.add_argument("--min-learn-speedup", default=0.0, type=float,
                    help="acceptance floor for learn-sequential vs the scalar-GEMM "
                         "baseline; 0 records the ratio without gating (the "
                         "baseline rate is host-specific, so only the reference "
                         "host enforces the 2x floor)")
    ap.add_argument("--fold-learn-baseline", default=UNFOLDED_LEARN_BASELINE, type=float,
                    help="unfolded (PR-7) learn-sequential steps/s to compute the "
                         "static-prefix-fold speedup against (reference-host rate)")
    ap.add_argument("--min-fold-learn-speedup", default=REQUIRED_FOLD_LEARN_SPEEDUP,
                    type=float,
                    help="acceptance floor for learn-sequential vs the unfolded "
                         "baseline when the fold is on; pass 0 to record the ratio "
                         "without gating (e.g. on hosts slower than the reference)")
    ap.add_argument("--allow-debug", action="store_true",
                    help="emit JSON even from a debug harness build (flagged, for smoke tests)")
    args = ap.parse_args()

    binary = args.build_dir / "bench" / "bench_training"
    if not binary.exists():
        raise SystemExit(f"{binary} not found - build with -DDQNDOCK_BUILD_BENCH=ON first")

    raw = run_bench(binary, args)
    harness = check_build_type(raw, args.allow_debug)

    if raw.get("v1_bit_identity_checked") and not raw.get("v1_bit_identical"):
        raise SystemExit("refusing to publish: V=1 vectorized training is NOT "
                         "bit-identical to the sequential baseline")

    # Schema gate: the harness must report which GEMM tier the learn
    # phase dispatched to — a row without it cannot be compared against
    # the scalar baseline or across tiers.
    gemm_tier = raw.get("dqndock_gemm_kernel_tier")
    if gemm_tier not in ("generic", "avx512"):
        raise SystemExit(f"refusing to publish: bench_training reported GEMM "
                         f"kernel tier {gemm_tier!r} (expected 'generic' or "
                         f"'avx512'); rebuild the bench tree")

    # Schema gate: the harness must also report how the static-prefix
    # fold gate (DQNDOCK_FOLD_STATIC) resolved — a learn-phase row that
    # does not say whether the input layer was folded cannot be compared
    # against either baseline.
    fold_static = raw.get("dqndock_fold_static")
    if fold_static not in ("on", "off"):
        raise SystemExit(f"refusing to publish: bench_training reported "
                         f"fold_static {fold_static!r} (expected 'on' or 'off'); "
                         f"rebuild the bench tree")
    if args.min_speedup is None:
        args.min_speedup = (REQUIRED_SPEEDUP_V32_FOLDED if fold_static == "on"
                            else REQUIRED_SPEEDUP_V32)

    sequential = rate(raw["collect_phase"], "sequential")
    v32 = rate(raw["collect_phase"], "V=32")
    speedup_v32 = v32 / sequential
    speedup_v8 = rate(raw["collect_phase"], "V=8") / sequential
    ratio_v1 = rate(raw["collect_phase"], "V=1") / sequential
    learn_seq = rate(raw["learn_phase"], "learn-sequential")
    learn_v32 = rate(raw["learn_phase"], "learn-V=32")
    sustained = raw.get("learn_sustained")
    if not sustained or sustained.get("early_learns_per_second", 0) <= 0:
        raise SystemExit("bench_training JSON is missing the learn-sustained row")
    sustained_ratio = (sustained["late_learns_per_second"]
                       / sustained["early_learns_per_second"])

    doc = {
        "benchmark": "bench_training",
        "scenario": raw.get("scenario", ""),
        "metric": "training_transitions_per_second",
        "harness_build_type": harness,
        "kernel_tier": raw.get("dqndock_kernel_tier", ""),
        "gemm_kernel_tier": gemm_tier,
        "fold_static": fold_static,
        "host_cpus": os.cpu_count(),
        "episodes": args.episodes,
        "max_steps": raw.get("max_steps"),
        "v1_bit_identity_checked": raw.get("v1_bit_identity_checked", False),
        "v1_bit_identical": raw.get("v1_bit_identical", False),
        "collect_phase": raw["collect_phase"],
        "learn_phase": raw["learn_phase"],
        "learn_sustained": sustained,
        "acceptance": {
            "required_speedup_collect_v32": args.min_speedup,
            "measured_speedup_collect_v32": round(speedup_v32, 2),
            "measured_speedup_collect_v8": round(speedup_v8, 2),
            "v1_over_sequential": round(ratio_v1, 2),
            "learn_phase_speedup_v32": round(learn_v32 / learn_seq, 2),
            "scalar_gemm_learn_baseline_steps_per_sec": args.learn_baseline,
            "learn_phase_speedup_vs_scalar_baseline":
                round(learn_seq / args.learn_baseline, 2),
            "unfolded_learn_baseline_steps_per_sec": args.fold_learn_baseline,
            "learn_phase_speedup_vs_unfolded_baseline":
                round(learn_seq / args.fold_learn_baseline, 2),
            "learn_sustained_over_early": round(sustained_ratio, 2),
        },
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")
    print(f"  collect: sequential {sequential:.0f} steps/s | "
          f"V=8 {speedup_v8:.2f}x | V=32 {speedup_v32:.2f}x")
    print(f"  learn:   sequential {learn_seq:.1f} steps/s "
          f"({learn_seq / args.learn_baseline:.2f}x scalar-GEMM baseline, "
          f"{learn_seq / args.fold_learn_baseline:.2f}x unfolded baseline, "
          f"tier {gemm_tier}, fold {fold_static}) | "
          f"V=32 {learn_v32 / learn_seq:.2f}x")
    print(f"  learn-sustained: calls {sustained['early_window']} "
          f"{sustained['early_learns_per_second']:.1f}/s -> calls "
          f"{sustained['late_window']} {sustained['late_learns_per_second']:.1f}/s "
          f"({sustained_ratio:.2f}x)")
    if speedup_v32 < args.min_speedup:
        raise SystemExit(f"acceptance FAILED: V=32 collect speedup {speedup_v32:.2f}x "
                         f"< required {args.min_speedup}x")
    if args.min_learn_speedup > 0 and learn_seq / args.learn_baseline < args.min_learn_speedup:
        raise SystemExit(f"acceptance FAILED: learn-phase speedup "
                         f"{learn_seq / args.learn_baseline:.2f}x vs scalar-GEMM "
                         f"baseline < required {args.min_learn_speedup}x")
    # Fold acceptance floor: only meaningful when the fold actually ran
    # (an off run measures the escape hatch, not the optimisation).
    if (fold_static == "on" and args.min_fold_learn_speedup > 0
            and learn_seq / args.fold_learn_baseline < args.min_fold_learn_speedup):
        raise SystemExit(f"acceptance FAILED: folded learn-phase speedup "
                         f"{learn_seq / args.fold_learn_baseline:.2f}x vs unfolded "
                         f"baseline < required {args.min_fold_learn_speedup}x")
    print(f"  acceptance OK: {speedup_v32:.2f}x >= {args.min_speedup}x"
          + ("" if raw.get("v1_bit_identity_checked") else "  (identity check skipped)"))


if __name__ == "__main__":
    main()
