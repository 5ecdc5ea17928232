"""Alternating parent/change pairs of perfbench runs, recorded as BENCH_<pr>.json.

    python3 bench/pairs.py --pr 6 --parent abbc87d --change HEAD \\
        --workload search_mix quickstart --pairs 10

Both commits are exported with ``git archive`` into ``.perfbench_runs/pairs/``,
so each side runs its committed files only, with its own ``perfbench/``.
Pair i runs ``perfbench/run.py --workload W --seed i --seconds S --trace 0``
on both sides, with S the ``run_seconds`` of the change's BENCHMARK.json.
The parent runs first in even pairs and the change in odd ones, so CPU
speed drifting over a long run does not favour either side.
The file at the repository root is rewritten after every pair. It holds
every run's metrics, ``correct``, ``attempted`` and ``failed``, and per
workload and metric each side's median and quartiles, the change's median
over the parent's, how many pairs the change won (ties count for neither
side; "better" comes from BENCHMARK.json), the median and quartiles of the
per-pair ratios change / parent, and the exact two-sided sign-test p-value
of the win count with ties dropped. Both sides of a pair run the same seed
one right after the other, so a pair's ratio cancels slow CPU drift.
A second run for the same ``--pr`` keeps the file's sets and appends its
own to the file's ``sets`` list.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPORTS = ROOT / ".perfbench_runs" / "pairs"


def git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str) -> tuple:
    """The full commit id of ``rev`` and a fresh directory holding its committed files."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    target = EXPORTS / commit
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(target)], input=git("archive", commit), check=True)
    return commit, target


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": None, "failed": None, "metrics": {},
                "exit_code": proc.returncode, "stderr": proc.stderr[-2000:]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "exit_code": proc.returncode,
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def spread(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided binomial p-value of ``wins`` against ``losses`` at even odds."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def summarize(runs: list, better: dict) -> dict:
    pairs = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    summary = {}
    for name, direction in better.items():
        both = [(p["parent"][name], p["change"][name]) for p in pairs.values()
                if name in p.get("parent", {}) and name in p.get("change", {})]
        if not both:
            continue
        parent, change = spread([a for a, _ in both]), spread([b for _, b in both])
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (b - a) < 0 for a, b in both)
        losses = sum(sign * (b - a) > 0 for a, b in both)
        summary[name] = {
            "parent": parent,
            "change": change,
            "change_over_parent": change["median"] / parent["median"],
            "change_wins": wins,
            "pairs": len(both),
            "pair_ratio": spread([b / a for a, b in both if a]),
            "sign_test_p": sign_test_p(wins, losses),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    sides = {}
    for side in ("parent", "change"):
        sides[side] = export(getattr(args, side))
    spec = json.loads((sides["change"][1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    out = ROOT / f"BENCH_{args.pr}.json"
    earlier = json.loads(out.read_text(encoding="utf-8")) if out.exists() else None
    record = {
        "pr": args.pr,
        "parent": sides["parent"][0],
        "change": sides["change"][0],
        "command": f"perfbench/run.py --workload W --seed PAIR --seconds {seconds:g} "
                   "--trace 0",
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version()},
        "workloads": {},
    }
    for workload in args.workload:
        runs = []
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order):
                result = run_once(sides[side][1], workload, pair, seconds)
                runs.append({"pair": pair, "seed": pair, "side": side, "ran": position, **result})
                print(f"{workload} pair {pair} {side}: correct={result['correct']} "
                      f"wall_s={result['metrics'].get('wall_s')}", flush=True)
            record["workloads"][workload] = {"runs": runs, "summary": summarize(runs, better)}
            kept = record if earlier is None else {
                **earlier, "sets": [*earlier.get("sets", []), record]}
            out.write_text(json.dumps(kept, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for _, checkout in sides.values():
        shutil.rmtree(checkout, ignore_errors=True)
    return 0 if all(r["correct"] and r["failed"] == 0
                    for w in record["workloads"].values() for r in w["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
