"""The README chain for one checkout and one catalog size, one subprocess per subcommand.

    python3 bench/chain.py --products 2000
    python3 bench/chain.py --products 20000 --checkout ../parent

The chain is the ``docexpand`` lines of the checkout's README ``## Quickstart``
block, with ``gen-synthetic --products N --heldout N/5``. Each line runs as
``python -m docexpand.cli`` in a fresh temporary directory, with the
checkout's ``src`` first on PYTHONPATH. The checkout's package is byte-compiled
first, as ``perfbench/run.py`` does, so that no stage compiles its modules
while it is measured (under PYTHONDONTWRITEBYTECODE an exported checkout
would otherwise recompile them in every stage). For each stage it prints the
exit code, the wall time, the child's CPU time (user plus system) and peak RSS
(both from ``os.wait4``), and the sha256 of the stage's stdout and of every
file the stage created or changed. The
chain stops at the first stage that exits non-zero. Two checkouts whose hash
lines are equal wrote the same bytes. The last line, ``chain  sha256  <digest>``,
hashes all the hash lines, so two checkouts compare by that one line.

A child started with vfork, as subprocess does, counts this script's own
peak RSS in its ``ru_maxrss``. So this script keeps its peak below any
stage's: it compiles in a child of its own and hashes files in blocks.
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
    return {str(path.relative_to(work)): sha256_of(path)
            for path in sorted(work.rglob("*")) if path.is_file()}


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_stage(checkout: Path, argv: list, work: Path) -> dict:
    """One subcommand in its own interpreter: exit code, wall and CPU time, peak RSS, stdout
    hash."""
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
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,    # Linux reports KiB
                "stdout": hashlib.sha256(out.read()).hexdigest(),
                "stderr": err.read().decode(errors="replace")}


def run_chain(checkout: Path, products: int, work: Path) -> list:
    """Run the chain in ``work``; each stage's record gains the files it created or changed."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(checkout / "src" / "docexpand")],
                   check=True)
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


def hash_lines(stages: list) -> list:
    """One ``stage  name  sha256`` line for each stage's stdout and each file it wrote."""
    return [f"{stage['stage']}  {name}  {digest}" for stage in stages
            for name, digest in (("stdout", stage["stdout"]), *stage["artifacts"].items())]


def chain_digest(lines: list) -> str:
    """The sha256 of the hash lines, one per line: equal digests mean equal hash lines."""
    return hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--products", type=int, required=True, help="synthetic catalog size")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="root of the checkout to run (default: this one)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="docexpand-chain-") as work:
        stages = run_chain(args.checkout.resolve(), args.products, Path(work))
    print(f"{'stage':<15} {'exit':>4} {'wall_s':>8} {'cpu_s':>8} {'peak_rss_mb':>11}")
    for stage in stages:
        print(f"{stage['stage']:<15} {stage['exit']:>4} {stage['wall_s']:>8.3f} "
              f"{stage['cpu_s']:>8.3f} {stage['peak_rss_mb']:>11.1f}")
    lines = hash_lines(stages)
    print(*lines, sep="\n")
    print(f"chain  sha256  {chain_digest(lines)}")
    for stage in stages:
        if stage["exit"] != 0:
            print(stage["stderr"], end="", file=sys.stderr)
    return 0 if all(stage["exit"] == 0 for stage in stages) else 1


if __name__ == "__main__":
    sys.exit(main())
