"""Measure the baseline: two sets of ten-seed runs per workload, plus traced runs.

    python3 perfbench/measure_baseline.py

Runs ``run.py`` exactly as the benchmark's users do, one run at a time, on
seeds 0-9. Those are ten different catalogs, so a spread mixes differences
between catalogs with run-to-run noise. Each set records, for every
end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (quartile distance
over median), and the per-layer values of one traced run on seed 0. The
second set runs after the first has finished on every workload.
``agreement`` holds, per workload and metric, how far the second median
moved from the first, whether that stays within the metric's bound, and
the exact-repeat counts that differ between the two traced runs. Writes
``perfbench/baseline.json``.
"""

import json
import statistics
import subprocess
import sys

import common

SEEDS = list(range(10))
OUT = common.BENCH_DIR / "baseline.json"


def run(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=common.ROOT, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return result


def summarize(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def measure_set(spec, label) -> dict:
    workloads = {}
    for workload in common.WORKLOADS:
        runs = [run(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
        traced = run(workload, SEEDS[0], spec["run_seconds"], 1)
        workloads[workload] = {
            "end_to_end": {
                m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs])
                for m in spec["end_to_end"]
            },
            "per_layer": {name: v["value"] for name, v in traced["metrics"].items()},
        }
        for name, s in workloads[workload]["end_to_end"].items():
            print(f"{label} {workload:14s} {name:12s} median {s['median']:10.4g}  "
                  f"q1 {s['q1']:10.4g}  q3 {s['q3']:10.4g}  spread {s['spread']:.1%}", flush=True)
    return workloads


def agreement(spec, first, second) -> dict:
    out = {}
    for workload in common.WORKLOADS:
        medians = {}
        for m in spec["end_to_end"]:
            a = first[workload]["end_to_end"][m["name"]]["median"]
            b = second[workload]["end_to_end"][m["name"]]["median"]
            medians[m["name"]] = {"change": (b - a) / a, "bound": m["bound"],
                                  "within_bound": abs(b - a) / a <= m["bound"]}
        out[workload] = {
            "medians": medians,
            "differing_counts": [name for name in common.EXACT_COUNTS
                                 if first[workload]["per_layer"][name]
                                 != second[workload]["per_layer"][name]],
        }
    return out


def main() -> int:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    first = measure_set(spec, "set 1")
    second = measure_set(spec, "set 2")
    agree = agreement(spec, first, second)
    for workload, a in agree.items():
        moves = ", ".join(f"{name} {m['change']:+.1%}" for name, m in a["medians"].items())
        print(f"{workload:14s} median moves: {moves}; differing counts: {a['differing_counts']}")
    baseline = {"seeds": SEEDS, "run_seconds": spec["run_seconds"],
                "sets": [first, second], "agreement": agree}
    OUT.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
