"""The program runs on numpy alone: scipy is a test-only oracle.

The scipy check runs in a fresh interpreter, because this test session
imports scipy itself.  It imports ``risopt.cli`` and runs two commands
through ``cli.main``, so an import moved inside a function is caught too.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_the_declared_numpy_has_the_numpy_2_api():
    # the library uses ndarray.mT and np.vecdot, and the stacked assembly
    # relies on numpy 2's rule that only a 1-D b of np.linalg.solve is a
    # vector, so an install that allowed numpy 1.x would fail at run time
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        dependencies = tomllib.load(handle)["project"]["dependencies"]
    (numpy,) = [d for d in dependencies if re.match(r"numpy\b", d)]
    floor = re.fullmatch(r"numpy>=(\d+)(\.\d+)*", numpy)
    assert floor and int(floor[1]) >= 2, numpy


PROBE = """
import json, sys
from risopt import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({
    "codes": codes,
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
}))
"""


def test_scipy_is_never_imported(tmp_path):
    calls = [
        ["exhaustive", "--power-dbm", "30", "--reproducible",
         "--out", str(tmp_path / "exhaustive")],
        ["optimize", "--seed", "0", "--max-sweeps", "1", "--reproducible",
         "--out", str(tmp_path / "optimize")],
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(calls)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0, 0]
    assert report["scipy"] == []
