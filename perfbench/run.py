"""docexpand benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload quickstart --seed 3 --seconds 42 --trace 0

Run from the root of a checkout. Each repetition runs in a fresh
interpreter (``worker.py``) that imports the CLI, generates its inputs from
the seed and runs the workload's timed part. Repetitions continue while
another one still fits in ``--seconds``; the end-to-end metrics are
medians over them.
With ``--trace 1`` the run makes one untraced and one traced repetition
and reports the per-layer metrics, including the tracing overhead. Every
repetition's outputs are checked against the values the seed commit
produced (``expected.json``); a mismatch makes the run exit 1.
"""

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import common

DEADLINE_S = 170.0   # the whole run must end within 180 s


def end_to_end(reps) -> tuple:
    """Medians over repetitions (and over every set-up sample)."""
    setups = [s for r in reps for s in r["setup_s"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "items_per_s": statistics.median(r["items"] / r["wall_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    samples = {name: len(reps) for name in metrics}
    samples["setup_s"] = len(setups)
    return metrics, samples


def run_reps(args, start, workdir_base):
    """Repetitions until the next would overrun --seconds (exactly two when tracing)."""
    seed = common.input_seed(args.seed, args.scale)
    trace_out = common.RUNS_DIR / "traces" / f"{args.workload}-{args.scale}-seed{args.seed}.json"
    reps, durations, problems, crashed = [], [], [], 0
    while True:
        traced = bool(args.trace) and len(reps) == 1
        rep_start = time.perf_counter()
        timeout = max(1.0, DEADLINE_S - (rep_start - start))
        try:
            result, stderr = common.run_worker(
                args.workload, seed, args.scale, traced, workdir_base / f"rep{len(reps)}",
                trace_out=trace_out if traced else None, timeout=timeout)
        except subprocess.TimeoutExpired:
            result, stderr = None, f"repetition timed out after {timeout:.0f} s"
        durations.append(time.perf_counter() - rep_start)
        if result is None or result["failed"]:
            problems.append(f"repetition {len(reps)} failed:\n{stderr}"
                            + "".join(result["errors"] if result else []))
            if result is None:
                crashed += 1
            else:
                reps.append(result)
            break
        reps.append(result)
        if args.trace:
            if len(reps) == 2:
                break
            continue
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > args.seconds:
            break
    return reps, problems, crashed, trace_out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=common.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(common.SIZES), default="full",
                        help="input size; 'tiny' is for the self-test")
    args = parser.parse_args(argv)
    start = time.perf_counter()

    if not (common.SRC / "docexpand" / "cli.py").is_file():
        print(f"perfbench: no docexpand sources under {common.SRC}", file=sys.stderr)
        return 2
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    expected = (common.load_expected().get(args.scale, {}).get(args.workload, {})
                .get(str(common.input_seed(args.seed, args.scale))))
    compileall.compile_dir(str(common.SRC / "docexpand"), quiet=1)

    workdir_base = common.RUNS_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        reps, problems, crashed, trace_out = run_reps(args, start, workdir_base)
    finally:
        shutil.rmtree(workdir_base, ignore_errors=True)

    # A repetition that died without a result counts as one failed operation.
    attempted = crashed + sum(r["attempted"] for r in reps)
    failed = crashed + sum(r["failed"] for r in reps)
    for i, rep in enumerate(reps):
        attempted += 1
        mismatches = common.compare(expected, rep)
        if mismatches:
            failed += 1
            problems.append(f"repetition {i} output check failed:\n  " + "\n  ".join(mismatches))
    correct = not problems

    if not correct:
        metrics, samples = {}, {}
    elif args.trace:
        untraced, traced = reps
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        metrics["cli.import_s"] = untraced["import_s"]
        samples = {name: 1 for name in metrics}
        print(f"traced wall_s {traced['wall_s']:.4f} s, untraced wall_s {untraced['wall_s']:.4f} s; "
              f"stage spans cover {metrics['trace.stage_coverage']:.1%} of the traced run; "
              f"spans in {trace_out}")
        timed = {k: v for k, v in traced["spans"].items() if k.startswith("timed:")}
        print("largest self times in the timed part:")
        for name, v in sorted(timed.items(), key=lambda kv: -kv[1]["self_s"])[:10]:
            print(f"  {name[6:]:28s} self {v['self_s']:9.4f} s  total {v['total_s']:9.4f} s  "
                  f"calls {v['calls']}")
    else:
        metrics, samples = end_to_end(reps)

    for problem in problems:
        print(problem, file=sys.stderr)
    missing = sorted(set(units) - set(metrics))
    if correct and missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 2
    for name in units:
        if name in metrics:
            print(f"{name:45s} {metrics[name]:>14.6g} {units[name]:6s} (n={samples[name]})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
