"""The README chain for one checkout and one catalog size, one subprocess per subcommand.

    python3 bench/chain.py --products 2000
    python3 bench/chain.py --products 20000 --checkout ../parent

The chain is the ``docexpand`` lines of the checkout's README ``## Quickstart``
block, with ``gen-synthetic --products N --heldout N/5``. Each line runs as
``python -m docexpand.cli`` in a fresh temporary directory, with the
checkout's ``src`` first on PYTHONPATH. For each stage it prints the exit
code, the wall time, the child's peak RSS (``os.wait4``: that child only, so
this script's own memory is not in it), and the sha256 of the stage's stdout
and of every file the stage created or changed. The chain stops at the
first stage that exits non-zero. Two checkouts whose hash lines are equal
wrote the same bytes.
"""

import argparse
import hashlib
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def chain_commands(checkout: Path, products: int) -> list:
    """The Quickstart's ``docexpand`` argument lists, the catalog resized to ``products``."""
    readme = (checkout / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```bash\n(.*?)```", readme.split("\n## Quickstart", 1)[1], re.S).group(1)
    commands = [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
                if line.strip().startswith("docexpand ")]
    for argv in commands:
        if argv[0] == "gen-synthetic":
            argv[argv.index("--products") + 1] = str(products)
            argv[argv.index("--heldout") + 1] = str(max(1, products // 5))
    return commands


def file_hashes(work: Path) -> dict:
    return {str(path.relative_to(work)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(work.rglob("*")) if path.is_file()}


def run_stage(checkout: Path, argv: list, work: Path) -> dict:
    """One subcommand in its own interpreter: exit code, wall time, peak RSS, stdout hash."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(checkout / "src"), os.environ.get("PYTHONPATH"))))}
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "docexpand.cli", *argv],
                                 cwd=work, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        wall_s = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {"stage": argv[0], "exit": child.returncode, "wall_s": wall_s,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,    # Linux reports KiB
                "stdout": hashlib.sha256(out.read()).hexdigest(),
                "stderr": err.read().decode(errors="replace")}


def run_chain(checkout: Path, products: int, work: Path) -> list:
    """Run the chain in ``work``; each stage's record gains the files it created or changed."""
    stages, before = [], {}
    for argv in chain_commands(checkout, products):
        stage = run_stage(checkout, argv, work)
        after = file_hashes(work)
        stage["artifacts"] = {name: digest for name, digest in after.items()
                              if before.get(name) != digest}
        stages.append(stage)
        before = after
        if stage["exit"] != 0:
            break
    return stages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--products", type=int, required=True, help="synthetic catalog size")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="root of the checkout to run (default: this one)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="docexpand-chain-") as work:
        stages = run_chain(args.checkout.resolve(), args.products, Path(work))
    print(f"{'stage':<15} {'exit':>4} {'wall_s':>8} {'peak_rss_mb':>11}")
    for stage in stages:
        print(f"{stage['stage']:<15} {stage['exit']:>4} {stage['wall_s']:>8.3f} "
              f"{stage['peak_rss_mb']:>11.1f}")
    for stage in stages:
        print(f"{stage['stage']}  stdout  {stage['stdout']}")
        for name, digest in stage["artifacts"].items():
            print(f"{stage['stage']}  {name}  {digest}")
        if stage["exit"] != 0:
            print(stage["stderr"], end="", file=sys.stderr)
    return 0 if all(stage["exit"] == 0 for stage in stages) else 1


if __name__ == "__main__":
    sys.exit(main())
