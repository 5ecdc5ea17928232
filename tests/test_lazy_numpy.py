"""numpy loads only in the calls that use it, so the stages that never call it never pay for it.

Each check runs in a fresh interpreter: this one has imported numpy long before.
"""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from test_readme import quickstart_commands

SRC = Path(__file__).resolve().parents[1] / "src"

IMPORTS = """
import json, sys
import docexpand
loaded = ["numpy" in sys.modules]
import docexpand.cli
loaded.append("numpy" in sys.modules)
print(json.dumps(loaded))
"""

# runs each argument list given as JSON through cli.main, noting after each whether numpy is loaded
STAGES = """
import json, sys
from docexpand.cli import main
loaded = []
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
    loaded.append("numpy" in sys.modules)
print(json.dumps(loaded))
"""

NUMPY_FREE = ("gen-synthetic", "ingest", "filter", "build-targets", "train", "index", "report")


def numpy_loaded(script: str, cwd, *args) -> list:
    """The JSON list that ``script`` prints last, run with this checkout's ``src`` first."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_and_the_cli_leaves_numpy_unloaded(tmp_path):
    assert numpy_loaded(IMPORTS, tmp_path) == [False, False]


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """The README chain's commands and a directory where the build ran through ``predict``,
    with whether numpy was loaded after each stage of the build."""
    cwd = tmp_path_factory.mktemp("chain")
    commands = {argv[0]: argv for argv in (shlex.split(line)[1:] for line in quickstart_commands())}
    generate = commands["gen-synthetic"]
    generate[generate.index("--products") + 1] = "120"
    generate[generate.index("--heldout") + 1] = "24"
    stages = [argv for name, argv in commands.items() if name in NUMPY_FREE]
    assert [argv[0] for argv in stages] == list(NUMPY_FREE)
    return commands, cwd, numpy_loaded(STAGES, cwd, json.dumps(stages + [commands["predict"]]))


def test_only_predict_loads_numpy_in_the_build_chain(built):
    _, _, loaded = built
    assert loaded == [False] * len(NUMPY_FREE) + [True]


def test_evaluate_without_bootstrap_and_tune_cutoff_leave_numpy_unloaded(built):
    commands, cwd, _ = built
    evaluate, tune = commands["evaluate"], commands["tune-cutoff"]
    at = evaluate.index("--bootstrap")
    del evaluate[at:at + 2]
    assert numpy_loaded(STAGES, cwd, json.dumps([evaluate, tune])) == [False, False]
