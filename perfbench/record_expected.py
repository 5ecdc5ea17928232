"""Record the outputs the output check compares against (``expected.json``).

    python3 perfbench/record_expected.py --scale full

Runs one untraced repetition of every workload on every catalog of the
seed pool, two at a time, and stores its artifact hashes, ``nrouge_f1``
and ``recall_at_10``. Run it only on a commit whose outputs are the
reference; a commit that is meant to keep its outputs must pass the check
unchanged.
"""

import argparse
import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

import common


def record(scale, workload, seed):
    workdir = common.RUNS_DIR / f"record-{scale}-{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        result, stderr = common.run_worker(workload, seed, scale, False, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result is None or result["errors"] or result["failed"]:
        raise RuntimeError(f"{scale}/{workload}/seed {seed} failed:\n{stderr}"
                           + "".join(result["errors"] if result else []))
    return {"artifacts": result["artifacts"], "nrouge_f1": result.get("nrouge_f1"),
            "recall_at_10": result.get("recall_at_10")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(common.SIZES), required=True)
    args = parser.parse_args(argv)
    jobs = [(args.scale, w, seed) for w in common.WORKLOADS
            for seed in range(common.POOL[args.scale])]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda job: record(*job), jobs))
    expected = common.load_expected()
    for (scale, workload, seed), values in zip(jobs, results):
        expected.setdefault(scale, {}).setdefault(workload, {})[str(seed)] = values
    common.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                                    encoding="utf-8")
    print(f"recorded {len(jobs)} outputs in {common.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
