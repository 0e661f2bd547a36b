"""Every member the benchmark's tracer wraps exists, and tracing leaves the
program as it found it.

``perfbench/tracing.py`` names the traced members by string, so renaming or
deleting one would otherwise surface only in a traced benchmark run
(``perfbench/run.py --trace 1``).  This module only reads ``perfbench/``.
"""

import importlib
import json
import sys

import numpy as np
import pytest

from conftest import load_perfbench

import risopt.cli  # noqa: F401  (imports every risopt module the targets name)

tracing = load_perfbench("tracing")


def _owner_and_name(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _bindings():
    """Every attribute of every risopt module and traced class, by identity."""
    owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "risopt"]
    owners += [
        _owner_and_name(module_name, attr)[0]
        for module_name, attr, _ in tracing.TARGETS
        if "." in attr
    ]
    return {(id(o), key): value for o in owners for key, value in vars(o).items()}


@pytest.mark.parametrize(
    "module_name, attr", [t[:2] for t in tracing.TARGETS], ids=[t[2] for t in tracing.TARGETS]
)
def test_target_resolves_to_a_callable(module_name, attr):
    owner, name = _owner_and_name(module_name, attr)
    assert callable(getattr(owner, name, None)), f"{module_name}.{attr} is gone"


def test_install_wraps_every_target_and_uninstall_restores_all():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module_name, attr, span in tracing.TARGETS:
            owner, name = _owner_and_name(module_name, attr)
            assert hasattr(getattr(owner, name), "__wrapped__"), f"{span} not wrapped"
        # the balance hook reads BalanceResult.iterations and .converged
        h = np.array([[1.0 + 0.5j, 0.2], [0.1j, 0.9]])
        risopt.beamforming.duality_beamformer(h, 1.0, 1e-2)
        assert tracer.counts["beamforming.balance_iters"] >= 1
        assert tracer.metrics()["beamforming.duality_calls"] == 1
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed, f"{len(changed)} bindings not restored"


def test_a_stacked_solve_is_one_duality_call_that_the_balance_hook_skips():
    # the stacked balance runs outside fixed_point_power_balance, whose hook
    # sums Python ints and bools, so the counts stay JSON numbers
    h = np.random.default_rng(2).standard_normal((4, 2, 3)) + 0j
    tracer = tracing.Tracer()
    tracer.install()
    try:
        before = tracer.metrics()
        risopt.beamforming.duality_beamformer(h, 1.0, 1e-2)
        after = tracer.metrics()
    finally:
        tracer.uninstall()
    json.dumps(after)
    assert after["beamforming.balance_iters"] == before["beamforming.balance_iters"]
    assert after["beamforming.duality_calls"] == before["beamforming.duality_calls"] + 1


def test_gradient_span_counts_the_ascent_gradient(tmp_path):
    # one gradient per group visited, one channel derivative per element of
    # the optimizer's one-element groups
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = risopt.cli.main(
            ["optimize", "--seed", "1", "--power-dbm", "30", "--reproducible",
             "--out", str(tmp_path)]
        )
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = tracer.metrics()
    assert metrics["optimizer.grad_calls"] > 0
    assert metrics["optimizer.grad_calls"] == metrics["channel.deriv_calls"]
    assert 0 < metrics["optimizer.accept_ratio"] <= 1
