"""The benchmark's ``optimize`` and ``perturb`` workloads, run through their
own checks.

``perfbench/run.py`` exits non-zero when a workload's written files fail the
checks in ``perfbench/workloads.py``, and exits 2, measuring nothing, when
its worker (``perfbench/worker.py``) raises out of ``cli.main`` or a check.
This runs the ``optimize`` workload's CLI calls (cold starts from seeds 0, 1
and 2 on the built-in scene at 30 dBm) and the ``perturb`` workload the way
the worker does, once as it is and once with a skipped combination, so such
a failure shows up in the tests.  This module only reads ``perfbench/``.
"""

import itertools
import json
import logging
from pathlib import Path

import numpy as np
import pytest

from conftest import fail_states, load_perfbench, solved_channels

from risopt import cli, optimizer
from risopt.errors import DualityError


@pytest.fixture(scope="module")
def workloads():
    return load_perfbench("workloads")


def read_json(path):
    return json.loads(Path(path).read_text())


class Records(logging.Handler):
    """The program's WARNING records, kept as the worker keeps them."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append(record)


def run_round(workload, out):
    """One round of the workload's CLI calls; returns (files by relative
    path, the WARNING records of the ``risopt`` logger)."""
    records = Records()
    logger = logging.getLogger("risopt")
    logger.addHandler(records)
    try:
        for argv in workload.calls(str(out)):
            assert cli.main(argv) == 0, argv
    finally:
        logger.removeHandler(records)
    files = {
        str(path.relative_to(out)): path.read_bytes()
        for path in sorted(Path(out).rglob("*"))
        if path.is_file()
    }
    return files, records.records


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


def test_perturb_workload_runs_as_the_worker_runs_it(workloads, tmp_path):
    workload = workloads.Perturb(str(tmp_path))
    workload.prepare()
    out = tmp_path / "out"
    files, records = run_round(workload, out)
    for seed in range(1, 11):
        checks = workloads.Checks()
        workload.check(str(out), records, np.random.default_rng(seed), checks)
        assert checks.problems == [], seed

    tracer = load_perfbench("tracing").Tracer()
    tracer.install()
    try:
        traced_files, _ = run_round(workload, tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert traced_files == files
    tracer.write(tmp_path / "spans.json")
    json.dumps(tracer.metrics())


def test_perturb_check_reads_a_skipped_combination(workloads, tmp_path, monkeypatch):
    # one failed state skips combination (1, 2, 1); the check reads that
    # combination from its log record's arguments
    workload = workloads.Perturb(str(tmp_path))
    workload.prepare()
    offsets = len(workload.offsets_x) * len(workload.offsets_y)
    combos = list(itertools.product(range(offsets), repeat=workload.n_users))
    skipped = (1, 2, 1)
    per_combination = 1 + 2  # the baseline and both states of the one group
    channels = solved_channels(monkeypatch, optimizer)
    run_round(workload, tmp_path / "reference")
    target = channels[combos.index(skipped) * per_combination + 1]
    fail_states(
        monkeypatch, optimizer, ("duality_stack", "duality_beamformer"),
        lambda h: np.array_equal(h, target), DualityError("synthetic failure"),
    )
    out = tmp_path / "out"
    _, records = run_round(workload, out)
    assert [(r.args[0], r.getMessage()) for r in records] == [
        (skipped, f"combination {skipped} skipped: synthetic failure")
    ]
    assert read_json(out / "summary.json")["skipped"] == 1
    for seed in range(1, 11):
        checks = workloads.Checks()
        workload.check(str(out), records, np.random.default_rng(seed), checks)
        assert checks.problems == [], seed
