import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from risopt.channel import ChannelComponents
from risopt.coupling import synthesize_mutual_impedance

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

FREQ = 5.8e9
SPACING = 0.0258  # ~ half wavelength at 5.8 GHz


def complex_normal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_components(rng, k=3, m=3, n=20, frequency=FREQ) -> ChannelComponents:
    """Random channel substrate with a physically structured coupling matrix."""
    z_ll = synthesize_mutual_impedance(n, SPACING, frequency)
    return ChannelComponents(
        h_u=complex_normal(rng, k, m),
        h_0=complex_normal(rng, n, m),
        g_l=complex_normal(rng, k, n),
        z_ll=z_ll,
        frequency=frequency,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def load_perfbench(name):
    """The benchmark's module ``perfbench/<name>.py``, loaded read-only as
    ``perfbench_<name>``.

    Those modules import their siblings by plain name, so ``perfbench/`` is
    on ``sys.path`` only while the file loads, and a sibling that the load
    imported is dropped from ``sys.modules`` afterwards.
    """
    siblings = {path.stem for path in PERFBENCH.glob("*.py")} - set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", PERFBENCH / f"{name}.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        for sibling in siblings:
            sys.modules.pop(sibling, None)
    return module


def fail_states(monkeypatch, module, names, failing, error, at=0):
    """Fail the states that ``failing`` picks on both solver paths.

    ``names`` are a stacked function of ``module`` and its one-channel
    oracle, which take their states, or their one state, as positional
    argument ``at``; or the one name of the assembly, which takes a (B, N)
    stack of load vectors or one (N,) vector there.  A stacked call refuses
    a chunk that holds a picked state with the class of ``error``, as the
    stacked core refuses a chunk with a failed state, and a one-state call
    raises ``error`` for a picked state, as it names that state's failure.
    """
    if isinstance(names, str):
        names = (names, names)
    stacked, single = (getattr(module, name) for name in names)

    def refusing(*args, **kwargs):
        if any(failing(state) for state in args[at]):
            raise type(error)("a state of the chunk failed")
        return stacked(*args, **kwargs)

    def raising(*args, **kwargs):
        if failing(args[at]):
            raise error
        return single(*args, **kwargs)

    def either(*args, **kwargs):
        return (refusing if np.ndim(args[at]) == 2 else raising)(*args, **kwargs)

    if names[0] == names[1]:
        monkeypatch.setattr(module, names[0], either)
    else:
        monkeypatch.setattr(module, names[0], refusing)
        monkeypatch.setattr(module, names[1], raising)


def solved_channels(monkeypatch, module):
    """The channel of every state that ``module`` solves from here on, in
    solve order: one per state of a ``duality_stack`` call that returns, and
    one per ``duality_beamformer`` call."""
    solved = []
    stacked, single = module.duality_stack, module.duality_beamformer

    def stack(h, *args):
        solution = stacked(h, *args)
        solved.extend(np.asarray(h))
        return solution

    def one(h, *args):
        solved.append(getattr(h, "matrix", h))
        return single(h, *args)

    monkeypatch.setattr(module, "duality_stack", stack)
    monkeypatch.setattr(module, "duality_beamformer", one)
    return solved
