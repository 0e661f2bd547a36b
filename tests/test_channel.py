"""Effective-channel assembly, derivatives, and gain maps."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from conftest import complex_normal, random_components

import risopt as ro
from risopt.beamforming import BeamformerMatrix
from risopt.channel import (
    ChannelComponents,
    assemble_effective_channel,
    assemble_from_config,
    capacitance_impedance_slope,
    channel_derivative,
    evaluate_gain_map,
    gain_map_db,
    group_channel_derivative,
)
from risopt.ris import (
    DEFAULT_VARACTOR,
    RisConfiguration,
    column_paired_grouping,
    enumerate_1bit_configs,
    identity_grouping,
    load_impedances,
    onebit_capacitances,
)
from risopt.scene import default_scene, synthesize_components

FREQ = 5.8e9


def scalar_components(h_u, g_l, h_0, z_ll):
    return ChannelComponents(
        h_u=[[h_u]], h_0=[[h_0]], g_l=[[g_l]], z_ll=[[z_ll]], frequency=FREQ
    )


class TestAssembly:
    def test_scalar_hand_arithmetic(self):
        comps = scalar_components(1.0, 2.0, 3.0, 1.0 + 0j)
        h = assemble_effective_channel(comps, np.array([5.0 + 0j]))
        # 1 + 2*3/(5-1) = 2.5
        assert h.matrix[0, 0] == pytest.approx(2.5, rel=1e-15)

    def test_zero_coupling_returns_baseline(self, rng):
        comps = random_components(rng)
        comps = ChannelComponents(
            h_u=comps.h_u,
            h_0=comps.h_0,
            g_l=np.zeros_like(comps.g_l),
            z_ll=comps.z_ll,
            frequency=FREQ,
        )
        z_loads = complex_normal(rng, 20) + 60.0
        h = assemble_effective_channel(comps, z_loads)
        assert np.array_equal(h.matrix, comps.h_u)

    def test_matches_dense_inverse_oracle(self, rng):
        for _ in range(10):
            comps = random_components(rng)
            z_loads = complex_normal(rng, 20) * 10 + 40.0
            h = assemble_effective_channel(comps, z_loads)
            z = np.diag(z_loads) - comps.z_ll
            oracle = comps.h_u + comps.g_l @ np.linalg.inv(z) @ comps.h_0
            rel = np.linalg.norm(h.matrix - oracle) / np.linalg.norm(oracle)
            assert rel <= 1e-10

    def test_dense_inverse_oracle_n40(self, rng):
        comps = random_components(rng, k=4, m=4, n=40)
        z_loads = complex_normal(rng, 40) * 10 + 40.0
        h = assemble_effective_channel(comps, z_loads)
        z = np.diag(z_loads) - comps.z_ll
        oracle = comps.h_u + comps.g_l @ np.linalg.inv(z) @ comps.h_0
        assert np.linalg.norm(h.matrix - oracle) / np.linalg.norm(oracle) <= 1e-10

    def test_singular_system_raises(self):
        comps = scalar_components(1.0, 2.0, 3.0, 1.0 + 0j)
        with pytest.raises(ro.SingularChannelError):
            assemble_effective_channel(comps, np.array([1.0 + 0j]))

    def test_a_refused_stack_reports_its_largest_condition_number(self, rng):
        # one assembly rule: the stack's message is that of its worst load
        # vector assembled alone
        comps = random_components(rng)
        z_loads = complex_normal(rng, 3, 20) * 10 + 40.0
        z_loads[1] = np.linalg.eigvals(comps.z_ll)[0]  # diag(Z_L) - Z_ll singular
        with pytest.raises(ro.SingularChannelError) as alone:
            assemble_effective_channel(comps, z_loads[1])
        with pytest.raises(ro.SingularChannelError) as stacked:
            assemble_effective_channel(comps, z_loads)
        assert str(stacked.value) == str(alone.value)
        assert str(alone.value).startswith("load/coupling system condition number")

    def test_a_stack_is_each_row_assembled_alone(self, rng):
        comps = random_components(rng)
        z_loads = complex_normal(rng, 5, 20) * 10 + 40.0
        stacked = assemble_effective_channel(comps, z_loads)
        for i, row in enumerate(z_loads):
            alone = assemble_effective_channel(comps, row)
            for field in ("matrix", "z", "solved_h0"):
                assert np.array_equal(getattr(stacked, field)[i], getattr(alone, field))

    @pytest.mark.parametrize("shape", [(2, 3, 20), (19,), (4, 21)])
    def test_load_array_of_the_wrong_shape_raises(self, rng, shape):
        comps = random_components(rng)
        with pytest.raises(ValueError, match="load impedances"):
            assemble_effective_channel(comps, np.full(shape, 50.0 + 0j))

    def test_unloaded_limit_returns_baseline(self, rng):
        comps = random_components(rng)
        model = DEFAULT_VARACTOR
        omega = 2 * np.pi * FREQ
        caps = np.full(20, 1e-18)
        z_loads = model.r_v + 1j * omega * model.l_v + 1.0 / (1j * omega * caps)
        h = assemble_effective_channel(comps, z_loads)
        rel = np.linalg.norm(h.matrix - comps.h_u) / np.linalg.norm(comps.h_u)
        assert rel <= 1e-6


class TestChannelDerivative:
    def test_finite_difference_agreement_100_seeds(self):
        model = DEFAULT_VARACTOR
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            comps = random_components(rng)
            caps = rng.uniform(0.25e-12, 1.1e-12, 20)
            config = RisConfiguration(caps, grouping=identity_grouping(20))
            n = int(rng.integers(0, 20))
            analytic = channel_derivative(
                comps, config, n, assemble_from_config(comps, model, config)
            )
            h = 1e-4 * caps[n]
            up, down = caps.copy(), caps.copy()
            up[n] += h
            down[n] -= h
            up, down = (
                RisConfiguration(c, grouping=config.grouping) for c in (up, down)
            )
            fd = (
                assemble_from_config(comps, model, up).matrix
                - assemble_from_config(comps, model, down).matrix
            ) / (2 * h)
            rel = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
            worst = max(worst, rel)
        assert worst <= 1e-5

    def test_zero_coupling_zero_derivative(self, rng):
        comps = random_components(rng)
        comps = ChannelComponents(
            h_u=comps.h_u,
            h_0=comps.h_0,
            g_l=np.zeros_like(comps.g_l),
            z_ll=comps.z_ll,
            frequency=FREQ,
        )
        config = RisConfiguration(
            rng.uniform(0.3e-12, 1.1e-12, 20), grouping=identity_grouping(20)
        )
        d = channel_derivative(
            comps, config, 7, assemble_from_config(comps, DEFAULT_VARACTOR, config)
        )
        assert np.all(d == 0)

    def test_group_derivative_sums_members(self, rng):
        comps = random_components(rng)
        grouping = column_paired_grouping(20)
        caps = rng.uniform(0.3e-12, 1.1e-12, 10)
        config = RisConfiguration(
            np.repeat(caps, 2),
            control_mode="continuous-per-column",
            grouping=grouping,
        )
        effective = assemble_from_config(comps, DEFAULT_VARACTOR, config)
        total = group_channel_derivative(comps, config, 3, effective)
        by_hand = sum(
            channel_derivative(comps, config, e, effective) for e in grouping[3]
        )
        assert np.allclose(total, by_hand, rtol=0, atol=0)

    def test_element_out_of_range(self, rng):
        comps = random_components(rng)
        config = RisConfiguration(
            rng.uniform(0.3e-12, 1.1e-12, 20), grouping=identity_grouping(20)
        )
        with pytest.raises(ValueError):
            channel_derivative(
                comps, config, 20, assemble_from_config(comps, DEFAULT_VARACTOR, config)
            )

    def test_group_derivative_matches_fd_on_element_grid(self, rng):
        # 6 columns x 3 rows of elements, adjacent columns paired: moving one
        # group value shifts 6 element capacitances at once (chain rule)
        n_cols, n_rows = 6, 3
        n = n_cols * n_rows
        comps = random_components(rng, k=2, m=2, n=n)
        grouping = column_paired_grouping(n_cols, n_rows=n_rows)
        group_caps = rng.uniform(0.3e-12, 1.1e-12, len(grouping))
        caps = np.empty(n)
        for value, g in zip(group_caps, sorted(grouping)):
            caps[list(grouping[g])] = value
        config = RisConfiguration(
            caps, control_mode="continuous-per-column", grouping=grouping
        )
        group = 1
        analytic = group_channel_derivative(
            comps, config, group, assemble_from_config(comps, DEFAULT_VARACTOR, config)
        )
        h = 1e-4 * group_caps[group]

        def assembled(value):
            moved = caps.copy()
            moved[list(grouping[group])] = value
            return assemble_from_config(
                comps,
                DEFAULT_VARACTOR,
                RisConfiguration(
                    moved, control_mode="continuous-per-column", grouping=grouping
                ),
            ).matrix

        fd = (assembled(group_caps[group] + h) - assembled(group_caps[group] - h)) / (
            2 * h
        )
        rel = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
        assert rel <= 1e-5


@pytest.fixture(scope="module")
def default_components():
    return synthesize_components(default_scene(with_grid=False))


class TestLuSolveOracle:
    """The assembly and its derivative against the scipy LU-factorized form."""

    @staticmethod
    def assert_solved_h0_matches(comps, caps):
        for z_loads in load_impedances(DEFAULT_VARACTOR, caps, comps.frequency):
            solved = assemble_effective_channel(comps, z_loads).solved_h0
            oracle = lu_solve(lu_factor(np.diag(z_loads) - comps.z_ll), comps.h_0)
            assert np.array_equal(solved, oracle)

    def test_solved_h0_on_every_onebit_state(self, default_components):
        states = list(enumerate_1bit_configs(10))
        assert len(states) == 1024
        caps = onebit_capacitances(column_paired_grouping(20), states, 20)
        self.assert_solved_h0_matches(default_components, caps)

    def test_solved_h0_on_continuous_configurations(self, default_components):
        rng = np.random.default_rng(7)
        model = DEFAULT_VARACTOR
        caps = rng.uniform(model.c_min, model.c_max, (200, 20))
        self.assert_solved_h0_matches(default_components, caps)

    def test_derivative_on_every_element(self, default_components):
        comps = default_components
        rng = np.random.default_rng(11)
        model = DEFAULT_VARACTOR
        worst = 0.0
        for _ in range(20):
            config = RisConfiguration(
                rng.uniform(model.c_min, model.c_max, 20),
                grouping=identity_grouping(20),
            )
            effective = assemble_from_config(comps, model, config)
            z_loads = load_impedances(model, config.capacitances, comps.frequency)
            lu = lu_factor(np.diag(z_loads) - comps.z_ll)
            for n in range(20):
                e_n = np.zeros(20, dtype=complex)
                e_n[n] = 1.0
                slope = capacitance_impedance_slope(
                    config.capacitances[n], comps.frequency
                )
                oracle = -slope * np.outer(
                    comps.g_l @ lu_solve(lu, e_n), effective.solved_h0[n]
                )
                d = channel_derivative(comps, config, n, effective)
                rel = np.linalg.norm(d - oracle) / np.linalg.norm(oracle)
                worst = max(worst, rel)
        assert worst <= 1e-13, f"worst relative gap {worst:.3e}"


class TestGainMap:
    def test_free_space_inverse_square_decay(self):
        # virtual users along a ray from a single free-space antenna
        distances = np.linspace(1.0, 5.0, 9)
        scene = ro.SceneDescription(
            walls=(),
            bs_elements=[(0.0, 0.0)],
            ris_ports=[(0.0, -1.0)],
            user_positions=[(d, 0.0) for d in distances],
            frequency=FREQ,
            max_reflection_order=0,
            grid=None,
            unloaded_panel=None,
        )
        comps = ro.synthesize_components(scene)
        w = BeamformerMatrix(np.array([[1.0 + 0j]]), power_budget=1.0)
        gains = evaluate_gain_map(comps.h_u, w, 0)
        assert np.all(np.diff(gains) < 0)
        assert gains[0] / gains[-1] == pytest.approx(
            (distances[-1] / distances[0]) ** 2, rel=1e-12
        )

    def test_zero_beamformer_all_zero_map(self, rng):
        comps = random_components(rng, k=5)
        w = BeamformerMatrix(np.zeros((3, 2), dtype=complex), power_budget=0.0)
        gains = evaluate_gain_map(comps.h_u, w, 0)
        assert np.all(gains == 0.0)
        assert np.all(gain_map_db(gains) == -300.0)

    def test_zero_gain_floored_when_numpy_errors_raise(self):
        gains = np.array([0.0, 1e-3, 1.0])
        with np.errstate(all="raise"):
            db = gain_map_db(gains)
        assert db.tolist() == [-300.0, -30.0, 0.0]

    def test_beam_index_out_of_range(self, rng):
        comps = random_components(rng)
        w = BeamformerMatrix(complex_normal(rng, 3, 3), power_budget=1.0)
        with pytest.raises(ValueError):
            evaluate_gain_map(comps.h_u, w, 3)


class TestComponentValidation:
    def test_dimension_consistency(self, rng):
        with pytest.raises(ValueError):
            ChannelComponents(
                h_u=complex_normal(rng, 3, 3),
                h_0=complex_normal(rng, 5, 3),
                g_l=complex_normal(rng, 3, 4),  # N mismatch
                z_ll=np.eye(5) * (50 + 1j),
                frequency=FREQ,
            )

    def test_asymmetric_z_rejected(self, rng):
        z = np.eye(4) * (50 + 1j)
        z[0, 1] = 5.0
        with pytest.raises(ValueError, match="symmetric"):
            ChannelComponents(
                h_u=complex_normal(rng, 2, 2),
                h_0=complex_normal(rng, 4, 2),
                g_l=complex_normal(rng, 2, 4),
                z_ll=z,
                frequency=FREQ,
            )

    def test_nonpositive_diagonal_rejected(self, rng):
        z = np.eye(4) * (50 + 1j)
        z[2, 2] = -3.0 + 1j
        with pytest.raises(ValueError, match="positive real"):
            ChannelComponents(
                h_u=complex_normal(rng, 2, 2),
                h_0=complex_normal(rng, 4, 2),
                g_l=complex_normal(rng, 2, 4),
                z_ll=z,
                frequency=FREQ,
            )

    @pytest.mark.parametrize("frequency", [0.0, -5.8e9, np.nan])
    def test_nonpositive_or_nan_frequency_rejected(self, rng, frequency):
        # the scene's one frequency check, naming the file field
        comps = random_components(rng)
        with pytest.raises(ValueError, match="^frequency_hz must be positive"):
            replace(comps, frequency=frequency)
