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


# Where each solver entry of the 1-bit sweeps takes its states: (positional
# argument, number of dimensions of a stack of states there).
STATES_AT = {"assemble_effective_channel": (1, 2), "duality_beamformer": (0, 3)}


def call_states(args, name):
    """The states argument of a call to ``name``, an EffectiveChannel read
    as its channel matrix, and whether it is a stack."""
    at, stack_ndim = STATES_AT[name]
    states = getattr(args[at], "matrix", args[at])
    return states, np.ndim(states) == stack_ndim


def fail_states(monkeypatch, module, name, failing, error):
    """Fail the states that ``failing`` picks on both paths of ``name``.

    ``name`` is the assembly (a (B, N) stack of load vectors or one (N,)
    vector) or the duality solve (a (B, K, M) stack of channels or one
    (K, M) channel) as ``module`` calls it; ``failing`` sees one state's
    array.  A stacked call refuses a chunk that holds a picked state with
    the class of ``error``, as the stacked core refuses a chunk with a
    failed state, and a one-state call raises ``error`` for a picked state,
    as it names that state's failure.
    """
    real = getattr(module, name)

    def failing_states(*args, **kwargs):
        states, stacked = call_states(args, name)
        if stacked and any(failing(state) for state in states):
            raise type(error)("a state of the chunk failed")
        if not stacked and failing(states):
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, failing_states)


def solved_channels(monkeypatch, module):
    """The channel of every state that ``module`` solves from here on, in
    solve order: one per state of a stacked ``duality_beamformer`` call that
    returns, and one per one-channel call."""
    solved = []
    real = module.duality_beamformer

    def solving(*args):
        channels, stacked = call_states(args, "duality_beamformer")
        if not stacked:
            solved.append(channels)
            return real(*args)
        solution = real(*args)
        solved.extend(channels)
        return solution

    monkeypatch.setattr(module, "duality_beamformer", solving)
    return solved
