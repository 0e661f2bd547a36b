"""The benchmark's ``optimize`` workload, run through its own checks.

``perfbench/run.py`` exits non-zero when a workload's written files fail the
checks in ``perfbench/workloads.py``, and then measures nothing.  This runs
the ``optimize`` workload's CLI calls (cold starts from seeds 0, 1 and 2 on
the built-in scene at 30 dBm) and its ``check``, so such a failure shows up
in the tests.  This module only reads ``perfbench/``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import load_perfbench

from risopt import cli


@pytest.fixture(scope="module")
def workloads():
    return load_perfbench("workloads")


def read_json(path):
    return json.loads(Path(path).read_text())


def test_optimize_workload_passes_its_checks(workloads, tmp_path):
    workload = workloads.Optimize(str(tmp_path))
    workload.prepare()
    out = tmp_path / "out"
    for argv in workload.calls(str(out)):
        assert cli.main(argv) == 0, argv
    checks = workloads.Checks()
    workload.check(str(out), [], np.random.default_rng(1), checks)
    assert checks.problems == []

    best = tmp_path / "best"
    assert cli.main(
        ["optimize", "--mode", "onebit-exhaustive", "--power-dbm", "30",
         "--reproducible", "--out", str(best)]
    ) == 0
    best_onebit = read_json(best / "optimize_report.json")["best_min_rate_bps_hz"]
    for seed in workload.seeds:
        report = read_json(out / f"seed{seed}" / "optimize_report.json")
        assert report["report"]["min_rate"] >= best_onebit, seed
