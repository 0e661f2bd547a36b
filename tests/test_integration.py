"""End-to-end properties of the shipped default experiment."""

import numpy as np
import pytest

import risopt as ro
from risopt.optimizer import BcdSettings, alternating_optimize
from risopt.ris import DEFAULT_VARACTOR, identity_grouping
from risopt.scene import default_scene, synthesize_components, with_users

SIGMA2 = ro.noise_power(900.0, 40e6)
P_BS = 1.0


@pytest.fixture(scope="module")
def optimized_default():
    comps = synthesize_components(default_scene())
    trace = alternating_optimize(
        comps, DEFAULT_VARACTOR, None, P_BS, SIGMA2,
        BcdSettings(t_g=2, rng_seed=0),
        grouping=identity_grouping(20),
    )
    return comps, trace


def test_each_beam_serves_its_own_user(optimized_default):
    comps, trace = optimized_default
    z = ro.load_impedances(DEFAULT_VARACTOR, trace.final_config.capacitances, comps.frequency)
    effective = ro.assemble_effective_channel(comps, z)
    power = np.abs(effective.matrix @ trace.final_beamformer.weights) ** 2
    for k in range(3):
        # beam k is strongest at its own user, and user k hears beam k loudest
        assert np.argmax(power[k, :]) == k
        assert np.argmax(power[:, k]) == k


def test_gain_map_peaks_at_intended_user(optimized_default):
    comps, trace = optimized_default
    # virtual users at the exact user positions stand in for grid cells
    scene = default_scene()
    z = ro.load_impedances(DEFAULT_VARACTOR, trace.final_config.capacitances, comps.frequency)
    user_grid_components = synthesize_components(
        with_users(scene, scene.user_positions)
    )
    h = ro.assemble_effective_channel(user_grid_components, z).matrix
    for beam in range(3):
        gains = ro.evaluate_gain_map(h, trace.final_beamformer, beam)
        assert np.argmax(gains) == beam


def test_min_rate_improves_over_initial(optimized_default):
    _, trace = optimized_default
    assert trace.final_sinr_min >= trace.initial_sinr_min
