"""Noise, SINR metrics, and the uplink-downlink duality beamformer."""

import numpy as np
import pytest

from conftest import complex_normal, load_perfbench, random_components

import risopt as ro
import risopt.beamforming as bf
from risopt.beamforming import (
    downlink_power_recovery,
    downlink_sinr,
    duality_beamformer,
    extended_coupling_matrix,
    fixed_point_power_balance,
    mmse_combiner,
    noise_power,
    perron,
    uplink_sinr,
)

# the benchmark's bisection max-min solver, an oracle written apart from
# risopt; loaded read-only from perfbench/
reference = load_perfbench("reference")


class TestNoisePower:
    def test_thermal_noise_frozen_values(self):
        # k*T*B with k = 1.380649e-23 J/K, T = 900 K, B = 40 MHz
        p = noise_power(900.0, 40e6)
        assert p == pytest.approx(4.9703364e-13, rel=1e-12)
        assert p == pytest.approx(4.970e-13, rel=1e-3)
        assert 10 * np.log10(p / 1e-3) == pytest.approx(-93.036, abs=1e-3)
        density_dbm_hz = 10 * np.log10(p / 40e6 / 1e-3)
        assert density_dbm_hz == pytest.approx(-169.057, abs=1e-3)

    def test_linearity_in_bandwidth(self):
        assert noise_power(900.0, 80e6) == pytest.approx(
            2 * noise_power(900.0, 40e6), rel=1e-15
        )

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            noise_power(0.0, 40e6)
        with pytest.raises(ValueError):
            noise_power(290.0, 0.0)

    @pytest.mark.parametrize("factors", [(1e300, 1e300), (1e-300, 1e-300)])
    def test_a_product_that_overflows_or_underflows_is_rejected(self, factors):
        # k*T*B of two positive finite factors can still round to inf or 0
        with pytest.raises(ValueError, match="not a positive finite number"):
            noise_power(*factors)

    def test_an_overflow_is_reported_as_a_python_float(self):
        # k*T*B is computed in Python floats: no numpy overflow warning (which
        # fails the suite) and no numpy repr in the message
        with pytest.raises(ValueError) as caught:
            noise_power(np.float64(1e300), 1e300)
        assert str(caught.value) == "noise power k*T*B = inf W is not a positive finite number"


class TestDownlinkSinr:
    def test_single_user_unit_snr(self):
        sigma2 = 2.5e-13
        y = np.array([[np.sqrt(sigma2) + 0j]])
        sinr = downlink_sinr(y, sigma2)
        assert sinr[0] == pytest.approx(1.0, rel=1e-12)
        assert ro.rates_from_sinr(sinr)[0] == pytest.approx(1.0)  # bps/Hz

    def test_diagonal_y_no_interference(self, rng):
        d = complex_normal(rng, 4)
        sigma2 = 0.3
        sinr = downlink_sinr(np.diag(d), sigma2)
        assert np.allclose(sinr, np.abs(d) ** 2 / sigma2, rtol=1e-14)

    def test_matches_scalar_loop_oracle(self, rng):
        y = complex_normal(rng, 3, 3)
        sigma2 = 0.7
        sinr = downlink_sinr(y, sigma2)
        for k in range(3):
            interference = sum(abs(y[k, j]) ** 2 for j in range(3) if j != k)
            expected = abs(y[k, k]) ** 2 / (interference + sigma2)
            assert sinr[k] == pytest.approx(expected, rel=1e-14)


class TestMmseCombiner:
    def test_single_user_matched_filter_direction(self, rng):
        h = complex_normal(rng, 1, 4)
        w = mmse_combiner(h, np.array([2.0]), sigma2=0.5)
        matched = h.conj().T[:, 0]
        cos = abs(np.vdot(w[:, 0], matched)) / (
            np.linalg.norm(w) * np.linalg.norm(matched)
        )
        assert cos == pytest.approx(1.0, rel=1e-12)

    def test_noise_dominated_limit_is_matched_filter(self, rng):
        h = complex_normal(rng, 3, 4)
        q = np.array([1.0, 2.0, 0.5])
        w = mmse_combiner(h, q, sigma2=1e9)
        for k in range(3):
            matched = np.sqrt(q[k]) * h[k].conj()
            cos = abs(np.vdot(w[:, k], matched)) / (
                np.linalg.norm(w[:, k]) * np.linalg.norm(matched)
            )
            assert cos == pytest.approx(1.0, abs=1e-6)

    def test_matches_dense_inverse_oracle(self, rng):
        h = complex_normal(rng, 3, 5)
        q = rng.uniform(0.1, 2.0, 3)
        sigma2 = 0.4
        w = mmse_combiner(h, q, sigma2)
        gram = sigma2 * np.eye(5, dtype=complex)
        for k in range(3):
            gram += q[k] * np.outer(h[k].conj(), h[k])
        oracle = np.zeros_like(w)
        inv = np.linalg.inv(gram)
        for k in range(3):
            oracle[:, k] = np.sqrt(q[k]) * inv @ h[k].conj()
        assert np.linalg.norm(w - oracle) / np.linalg.norm(oracle) <= 1e-12


class TestUplinkSinr:
    def test_single_user_matched_filter(self, rng):
        h = complex_normal(rng, 1, 4)
        p, sigma2 = 2.0, 0.3
        w = h.conj().T
        sinr = uplink_sinr(h, w, np.array([p]), sigma2)
        assert sinr[0] == pytest.approx(
            p * np.linalg.norm(h) ** 2 / sigma2, rel=1e-12
        )

    def test_orthogonal_equal_norm_users_get_equal_sinr(self):
        h = np.array([[1.0, 0.0, 0j], [0.0, 1.0, 0j]])
        q = np.array([0.5, 0.5])
        w = mmse_combiner(h, q, 0.1)
        sinr = uplink_sinr(h, w, q, 0.1)
        assert sinr[0] == pytest.approx(sinr[1], rel=1e-12)

    def test_matches_loop_oracle(self, rng):
        h = complex_normal(rng, 3, 4)
        w = complex_normal(rng, 4, 3)
        q = rng.uniform(0.2, 1.0, 3)
        sigma2 = 0.25
        sinr = uplink_sinr(h, w, q, sigma2)
        for k in range(3):
            desired = q[k] * abs(h[k] @ w[:, k]) ** 2
            interference = sum(
                q[j] * abs(h[j] @ w[:, k]) ** 2 for j in range(3) if j != k
            )
            noise = sigma2 * np.linalg.norm(w[:, k]) ** 2
            assert sinr[k] == pytest.approx(
                desired / (interference + noise), rel=1e-13
            )

    def test_zero_combiner_gives_zero_sinr(self, rng):
        h = complex_normal(rng, 2, 3)
        w = np.zeros((3, 2), dtype=complex)
        assert np.all(uplink_sinr(h, w, np.array([1.0, 1.0]), 0.1) == 0.0)


def refined_grid_search(h, p_bs, sigma2, points=41, levels=4):
    """Brute-force max-min search over the 2-simplex of uplink power splits.

    Stage one sweeps the printed 41-per-axis grid; subsequent stages re-grid a
    shrinking box around the incumbent so the oracle resolves the optimum to
    well inside the comparison tolerance.
    """

    def value(q):
        if q.min() <= 0:
            return -np.inf
        w = mmse_combiner(h, q, sigma2)
        return uplink_sinr(h, w, q, sigma2).min()

    best, best_q = -np.inf, None
    for i in range(points):
        for j in range(points - i):
            q = np.array([i, j, points - 1 - i - j], float) / (points - 1) * p_bs
            s = value(q)
            if s > best:
                best, best_q = s, q
    half = p_bs / (points - 1)
    for _ in range(levels):
        q0 = best_q
        for a in np.linspace(q0[0] - half, q0[0] + half, 21):
            for b in np.linspace(q0[1] - half, q0[1] + half, 21):
                q = np.array([a, b, p_bs - a - b])
                s = value(q)
                if s > best:
                    best, best_q = s, q
        half /= 8.0
    return best


class TestExtendedCouplingMatrix:
    @pytest.mark.parametrize("p_bs", [1e-43, 1e-3, 1.0, 1e3])
    def test_perron_vector_balances_the_downlink_at_any_power(self, rng, p_bs):
        gains = rng.uniform(0.01, 1.0, (3, 3)) * 1e-6
        sigma2 = 5e-13
        root, right = perron(extended_coupling_matrix(gains, sigma2, p_bs))
        p = p_bs * right[:3] / right[3]
        assert p.sum() == pytest.approx(p_bs, rel=1e-12)
        assert np.all(right > 0)
        received = gains * p  # [k, j]: beam j at user k
        sinr = downlink_sinr(np.sqrt(received), sigma2)
        assert np.allclose(sinr, 1.0 / root, rtol=1e-10)

    def test_layout(self):
        gains = np.array([[2.0, 1.0], [3.0, 4.0]])
        x = extended_coupling_matrix(gains, 0.5, 0.25)
        expected = np.array(
            [[0.0, 0.5, 1.0], [0.75, 0.0, 0.5], [0.75, 0.5, 1.5]]
        )
        assert np.array_equal(x, expected)


class TestFixedPointBalance:
    def test_single_user_gets_full_budget(self, rng):
        h = complex_normal(rng, 1, 3)
        result = fixed_point_power_balance(h, 2.0, 0.1)
        assert result.powers[0] == pytest.approx(2.0, rel=1e-12)

    def test_symmetric_users_split_evenly(self):
        # two users whose channels differ by a unitary relabeling
        h = np.array([[1.0, 0.2j, 0.0], [0.0, 0.2j, 1.0]])
        result = fixed_point_power_balance(h, 1.0, 0.05)
        assert result.powers[0] == pytest.approx(0.5, rel=1e-6)
        spread = result.sinr.max() - result.sinr.min()
        assert spread <= 1e-6 * result.sinr.min()

    def test_matches_simplex_grid_search(self, rng):
        for _ in range(3):
            h = complex_normal(rng, 3, 3)
            p_bs, sigma2 = 1.0, 0.5
            fp = fixed_point_power_balance(h, p_bs, sigma2).sinr.min()
            oracle = refined_grid_search(h, p_bs, sigma2)
            assert fp == pytest.approx(oracle, rel=1e-4)
            assert fp >= oracle * (1 - 1e-6)  # fixed point attains the max

    def test_balanced_at_fixed_point(self, rng):
        for _ in range(10):
            h = complex_normal(rng, 3, 4)
            result = fixed_point_power_balance(h, 1.0, 0.5)
            spread = result.sinr.max() - result.sinr.min()
            assert spread <= 1e-5 * result.sinr.min()

    def test_budget_preserved(self, rng):
        h = complex_normal(rng, 4, 5)
        result = fixed_point_power_balance(h, 3.7, 0.2)
        assert result.powers.sum() == pytest.approx(3.7, rel=1e-10)

    def test_zero_channel_row_is_infeasible(self, rng):
        h = complex_normal(rng, 3, 3)
        h[1, :] = 0.0
        with pytest.raises(ro.InfeasibleUserError):
            fixed_point_power_balance(h, 1.0, 0.1)

    def test_invalid_budget_and_iterations(self, rng):
        h = complex_normal(rng, 2, 2)
        with pytest.raises(ValueError):
            fixed_point_power_balance(h, 0.0, 0.1)

    def test_a_stack_is_refused(self, rng):
        # a stack balances through duality_beamformer, not the one-channel entry
        refused = r"expected one \(K, M\) channel, got \(2, 3, 3\)"
        with pytest.raises(ValueError, match=refused):
            fixed_point_power_balance(complex_normal(rng, 2, 3, 3), 1.0, 0.1)

    def test_more_users_than_antennas_warns(self, rng, caplog):
        bf._warn_users_exceed_antennas.cache_clear()
        h = complex_normal(rng, 4, 2)
        fixed_point_power_balance(h, 1.0, 0.5)
        assert any("exceed" in m for m in caplog.messages)

    def test_more_users_than_antennas_logs_once_per_shape(self, rng, caplog):
        # one-channel solves and stacks of one (K, M) share the one record
        bf._warn_users_exceed_antennas.cache_clear()
        for shape in ((4, 2), (4, 2), (2, 4, 2), (3, 2), (3, 3)):
            duality_beamformer(complex_normal(rng, *shape), 1.0, 0.5)
        assert [m for m in caplog.messages if "exceed" in m] == [
            "K=4 users exceed M=2 antennas; balancing may converge to low SINRs",
            "K=3 users exceed M=2 antennas; balancing may converge to low SINRs",
        ]

    def test_matches_bisection_reference_at_any_snr(self):
        # 1 <= K <= M <= 8, -30 to +60 dBm, noise 5e-14 to 5e-12 W: a stop
        # rule or a combiner that loses the noise term at high SNR shows as
        # a capped balance or a rate gap here
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(300):
            m = int(rng.integers(1, 9))
            k = int(rng.integers(1, m + 1))
            h = complex_normal(rng, k, m)
            p_bs = 10 ** ((rng.uniform(-30.0, 60.0) - 30.0) / 10)
            sigma2 = 10 ** rng.uniform(np.log10(5e-14), np.log10(5e-12))
            balance = fixed_point_power_balance(h, p_bs, sigma2)
            assert balance.converged and balance.iterations <= 6, (
                k, m, p_bs, balance.iterations
            )
            _, report = duality_beamformer(h, p_bs, sigma2)
            gap = abs(report.min_rate - reference.max_min_rate(h, p_bs, sigma2))
            worst = max(worst, gap)
        assert worst <= 1e-6, f"worst rate gap {worst:.3e} bps/Hz"

    @pytest.mark.parametrize("max_iter", [bf.BALANCE_MAX_ITER, 4])
    def test_a_stack_whose_states_stop_apart(self, monkeypatch, max_iter):
        # random 3 x 3 channels stop at 3, 4 or 5 iterations, so the loop
        # sets states aside mid-stack; with the cap at 4 the states that
        # need 5 stop capped next to converged ones.  Each state is its
        # one-channel balance.
        monkeypatch.setattr(bf, "BALANCE_MAX_ITER", max_iter)
        rng = np.random.default_rng(5)
        stopped_capped = 0
        for ratio in (1e-3, 0.1, 10.0):  # sigma2 / p_bs
            h = complex_normal(rng, 32, 3, 3)
            stacked = bf._balance(h, 1.0, ratio)
            stops = set(zip(stacked.iterations.tolist(), stacked.converged.tolist()))
            assert len(stops) >= 2, ratio  # the states stop apart
            for i in range(len(h)):
                alone = fixed_point_power_balance(h[i], 1.0, ratio)
                assert type(alone.iterations) is int
                assert type(alone.converged) is bool
                assert stacked.iterations[i] == alone.iterations, (ratio, i)
                assert stacked.converged[i] == alone.converged, (ratio, i)
                for field in ("powers", "combiner", "sinr"):
                    assert np.array_equal(
                        getattr(stacked, field)[i], getattr(alone, field)
                    ), (ratio, i, field)
            capped = np.logical_not(stacked.converged)
            assert np.all(stacked.iterations[capped] == max_iter)
            stopped_capped += np.count_nonzero(capped)
        assert (stopped_capped > 0) == (max_iter == 4)


class TestDownlinkPowerRecovery:
    def test_diagonal_gains_decouple(self):
        h = np.diag([2.0, 3.0]).astype(complex)
        w = np.eye(2, dtype=complex)
        sinr = np.array([5.0, 7.0])
        sigma2 = 0.1
        gains = np.array([4.0, 9.0])
        expected = sinr * sigma2 / gains
        p = downlink_power_recovery(h, w, sinr, sigma2, p_bs=expected.sum())
        assert np.allclose(p, expected, rtol=1e-14)

    def test_negative_power_is_reported_as_a_python_float(self):
        # two users served by the same beam cannot both reach SINR 10
        h = np.eye(2, dtype=complex)
        w = np.full((2, 2), np.sqrt(0.5), dtype=complex)
        # gains 1/2, so both powers are 10 * 0.1 / (0.5 - 10 * 0.5) = -2/9
        with pytest.raises(
            ro.DualityError, match=r"^negative downlink power recovered: -0\.2222222222222\d*$"
        ):
            downlink_power_recovery(h, w, np.array([10.0, 10.0]), 0.1, 1.0)

    def test_single_user(self, rng):
        h = complex_normal(rng, 1, 3)
        w = h.conj().T / np.linalg.norm(h)
        sinr = np.array([4.2])
        sigma2 = 0.3
        expected = 4.2 * sigma2 / np.linalg.norm(h) ** 2
        p = downlink_power_recovery(h, w, sinr, sigma2, p_bs=expected)
        assert p[0] == pytest.approx(expected, rel=1e-12)

    def test_self_consistency_with_uplink(self, rng):
        h = complex_normal(rng, 3, 3)
        p_bs, sigma2 = 1.0, 0.4
        balance = fixed_point_power_balance(h, p_bs, sigma2)
        unit = balance.combiner / np.linalg.norm(balance.combiner, axis=0)
        p = downlink_power_recovery(h, unit, balance.sinr, sigma2, p_bs=p_bs)
        y = h @ (unit * np.sqrt(p))
        sinr_dl = downlink_sinr(y, sigma2)
        assert np.allclose(sinr_dl, balance.sinr, rtol=1e-8)

    def test_conservation_violation_detected(self, rng):
        h = complex_normal(rng, 3, 3)
        balance = fixed_point_power_balance(h, 1.0, 0.4)
        unit = balance.combiner / np.linalg.norm(balance.combiner, axis=0)
        with pytest.raises(ro.DualityError):
            # inflated targets are inconsistent with the budget
            downlink_power_recovery(h, unit, balance.sinr * 2.0, 0.4, p_bs=1.0)

    def test_a_stack_recovers_each_state_as_alone(self):
        # the stacked recovery (one batched solve, checks over the stack) is
        # the one-channel recovery of each state, bit for bit
        rng = np.random.default_rng(29)
        for b in (1, 2, 64):
            for trial in range(10):
                m = int(rng.integers(1, 7))
                k = int(rng.integers(1, m + 1))
                h = complex_normal(rng, b, k, m)
                ratio = 10.0 ** rng.uniform(-6.0, 2.0)  # sigma2 / p_bs
                balance = bf._balance(h, 1.0, ratio)
                stacked = downlink_power_recovery(
                    h, balance.combiner, balance.sinr, ratio, 1.0
                )
                alone = [
                    downlink_power_recovery(
                        h[i], balance.combiner[i], balance.sinr[i], ratio, 1.0
                    )
                    for i in range(b)
                ]
                assert stacked.shape == (b, k), (b, trial)
                assert np.array_equal(stacked, alone), (b, trial)


class TestDualityBeamformer:
    def test_single_user_rate_formula(self, rng):
        h = complex_normal(rng, 1, 4)
        p_bs, sigma2 = 2.0, 0.3
        _, report = duality_beamformer(h, p_bs, sigma2)
        expected = np.log2(1 + p_bs * np.linalg.norm(h) ** 2 / sigma2)  # bps/Hz
        assert report.min_rate == pytest.approx(expected, rel=1e-9)

    def test_identity_channel_splits_power_evenly(self):
        k = 3
        h = np.eye(k, dtype=complex)
        p_bs, sigma2 = 1.5, 0.1
        beamformer, report = duality_beamformer(h, p_bs, sigma2)
        per_beam = np.linalg.norm(beamformer.weights, axis=0) ** 2
        assert np.allclose(per_beam, p_bs / k, rtol=1e-6)
        assert np.allclose(report.sinr, (p_bs / k) / sigma2, rtol=1e-6)

    def test_downlink_equals_uplink_sinr(self, rng):
        for _ in range(20):
            h = complex_normal(rng, 3, 3)
            p_bs, sigma2 = 1.0, 0.5
            balance = fixed_point_power_balance(h, p_bs, sigma2)
            _, report = duality_beamformer(h, p_bs, sigma2)
            assert np.allclose(report.sinr, balance.sinr, rtol=1e-8)

    def test_power_budget_invariant(self, rng):
        h = complex_normal(rng, 3, 5)
        beamformer, _ = duality_beamformer(h, 2.3, 0.2)
        assert np.linalg.norm(beamformer.weights) ** 2 == pytest.approx(2.3, rel=1e-10)

    def test_monotone_in_budget(self, rng):
        for _ in range(10):
            h = complex_normal(rng, 3, 4)
            sigma2 = 0.3
            _, low = duality_beamformer(h, 1.0, sigma2)
            _, high = duality_beamformer(h, 2.0, sigma2)
            assert high.min_rate >= low.min_rate

    def test_global_phase_invariance(self, rng):
        h = complex_normal(rng, 3, 3)
        phase = np.exp(1j * 0.7354)
        _, a = duality_beamformer(h, 1.0, 0.4)
        _, b = duality_beamformer(phase * h, 1.0, 0.4)
        assert np.allclose(a.sinr, b.sinr, rtol=1e-12)

    def test_report_fields_consistent(self, rng):
        h = complex_normal(rng, 3, 4)
        beamformer, report = duality_beamformer(h, 1.0, 0.3)
        assert np.allclose(report.rates, np.log2(1 + report.sinr), rtol=1e-15)
        assert report.to_dict()["bandwidth"] == 1.0  # rates are bps/Hz
        assert report.min_rate == report.rates.min()
        y = h @ beamformer.weights
        assert report.avg_received_power == pytest.approx(
            (np.abs(y) ** 2).sum(axis=1).mean(), rel=1e-12
        )

    def test_capped_balance_warns(self, rng, monkeypatch, caplog):
        monkeypatch.setattr(bf, "BALANCE_MAX_ITER", 1)
        h = complex_normal(rng, 3, 3)
        assert not fixed_point_power_balance(h, 1.0, 0.3).converged
        duality_beamformer(h, 1.0, 0.3)
        assert any("after 1 iterations without converging" in m for m in caplog.messages)

    def test_effective_channel_input(self, rng):
        comps = random_components(rng)
        z_loads = complex_normal(rng, 20) * 10 + 40.0
        h = ro.assemble_effective_channel(comps, z_loads)
        _, report = duality_beamformer(h, 1.0, 1e-3)
        assert report.min_rate > 0


class TestDualityStack:
    """``duality_beamformer`` of a channel stack against its one-channel
    solve of each state, the oracle.

    The stack runs the one-channel arithmetic state by state, so the results
    are compared for equality, not within a tolerance.
    """

    @staticmethod
    def sweep_outcomes(h, p_bs, sigma2):
        """Min rate or failure per state, as the perturbation sweep solves
        the stack: whole, or state by state when the stack is refused."""
        import risopt.optimizer as opt

        return list(
            opt._per_state(lambda h: duality_beamformer(h, p_bs, sigma2)[1].min_rate, h)
        )

    @staticmethod
    def assert_states_are_one_channel_solves(solved, h, p_bs, sigma2):
        beamformers, reports = solved
        assert beamformers.power_budget == p_bs
        assert reports.noise_power == sigma2
        for i, channel in enumerate(h):
            beamformer, report = duality_beamformer(channel, p_bs, sigma2)
            assert np.array_equal(beamformers.weights[i], beamformer.weights), i
            for field in ("sinr", "rates", "min_rate", "avg_received_power"):
                assert np.array_equal(
                    getattr(reports, field)[i], getattr(report, field)
                ), (i, field)

    @pytest.mark.parametrize("p_dbm", [10.0, 20.0, 30.0])
    def test_default_scene_matches_the_scalar_solver(self, p_dbm):
        from risopt.scene import default_scene, synthesize_components

        comps = synthesize_components(default_scene())
        _, _, n = comps.dims
        grouping = ro.column_paired_grouping(n)
        states = list(ro.enumerate_1bit_configs(len(grouping)))
        z_loads = ro.load_impedances(
            ro.DEFAULT_VARACTOR,
            ro.ris.onebit_capacitances(grouping, states, n),
            comps.frequency,
        )
        effective = ro.assemble_effective_channel(comps, z_loads)
        p_bs, sigma2 = 10.0 ** ((p_dbm - 30.0) / 10.0), noise_power(900.0, 40e6)
        solved = duality_beamformer(effective, p_bs, sigma2)
        self.assert_states_are_one_channel_solves(solved, effective.matrix, p_bs, sigma2)
        # the ranking by rate, ties to the earlier state, is the same
        rates = solved[1].min_rate
        oracle = [
            duality_beamformer(channel, p_bs, sigma2)[1].min_rate
            for channel in effective.matrix
        ]
        assert np.array_equal(
            np.lexsort((np.arange(len(states)), -rates)),
            np.lexsort((np.arange(len(states)), -np.array(oracle))),
        )

    def test_random_channels_at_any_snr(self):
        rng = np.random.default_rng(11)
        for trial in range(200):
            k = int(rng.integers(1, 5))
            m = int(rng.integers(k, 7))
            h = complex_normal(rng, int(rng.integers(1, 4)), k, m)
            ratio = 10.0 ** rng.uniform(-6.0, 2.0)  # sigma2 / p_bs
            solved = duality_beamformer(h, 1.0, ratio)
            self.assert_states_are_one_channel_solves(solved, h, 1.0, ratio)

    def test_one_channel_report_holds_floats(self, rng):
        _, report = duality_beamformer(complex_normal(rng, 3, 4), 1.0, 0.1)
        assert type(report.min_rate) is float
        assert type(report.avg_received_power) is float

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 3, 4)])
    def test_other_dimensions_are_rejected(self, rng, shape):
        with pytest.raises(ValueError, match="expected a"):
            duality_beamformer(complex_normal(rng, *shape), 1.0, 0.1)

    def test_results_do_not_depend_on_the_stack(self, rng):
        h = complex_normal(rng, 65, 3, 4)
        whole_beamformers, whole = duality_beamformer(h, 1.0, 0.01)
        for size in (1, 2, 64):
            part_beamformers, part = duality_beamformer(h[:size], 1.0, 0.01)
            assert np.array_equal(part_beamformers.weights, whole_beamformers.weights[:size])
            assert np.array_equal(part.rates, whole.rates[:size])

    def test_a_zero_row_fails_only_its_state(self, rng):
        # the stack is refused with the one-channel error class; the
        # sweep's state-by-state solve gives the failed state the
        # one-channel message and its neighbours their stacked bits
        h = complex_normal(rng, 3, 3, 3)
        h[1, 2, :] = 0.0
        with pytest.raises(ro.InfeasibleUserError) as scalar:
            duality_beamformer(h[1], 1.0, 0.1)
        with pytest.raises(ro.InfeasibleUserError):
            duality_beamformer(h, 1.0, 0.1)
        outcomes = self.sweep_outcomes(h, 1.0, 0.1)
        assert isinstance(outcomes[1], ro.InfeasibleUserError)
        assert str(outcomes[1]) == str(scalar.value)
        _, alone = duality_beamformer(h[[0, 2]], 1.0, 0.1)
        assert np.array_equal([outcomes[0], outcomes[2]], alone.min_rate)

    def test_an_underflowed_uplink_power_names_its_user(self, rng):
        # at a noise power 1e240 times the budget the balance loses a user's
        # uplink power to underflow; that raises before its combiner is
        # normalized (0 / 0), for one channel and for a stack
        h = complex_normal(rng, 2, 3, 4)
        message = r"the uplink power of user \d underflowed to zero"
        with pytest.raises(ro.InfeasibleUserError, match=message):
            duality_beamformer(h[0], 1.0, 1e240)
        with pytest.raises(ro.InfeasibleUserError, match=message):
            duality_beamformer(h, 1.0, 1e240)

    def test_singular_recovery_fails_only_its_state(self, monkeypatch):
        # state 1's unit beams see both users equally at SINR 1, which makes
        # its downlink power system exactly singular
        h = np.stack([np.eye(2), np.eye(2)]).astype(complex)
        w_ul = np.stack([np.eye(2), np.full((2, 2), np.sqrt(0.5))]).astype(complex)
        sinr = np.ones((2, 2))
        with pytest.raises(ro.DualityError, match="singular") as scalar:
            downlink_power_recovery(h[1], w_ul[1], sinr[1], 0.5, 1.0)
        with pytest.raises(ro.DualityError, match="singular"):
            downlink_power_recovery(h, w_ul, sinr, 0.5, 1.0)

        # in a sweep, the identity channel between two random ones gets
        # those beams and SINRs on both solver paths
        def singular_inputs(real):
            def recovery(h, w_ul, sinr_ul, *args, **kwargs):
                w_ul, sinr_ul = np.array(w_ul), np.array(sinr_ul)
                identity = np.all(h == np.eye(2), axis=(-2, -1))
                w_ul[identity] = np.sqrt(0.5)
                sinr_ul[identity] = 1.0
                return real(h, w_ul, sinr_ul, *args, **kwargs)

            return recovery

        stack = complex_normal(np.random.default_rng(3), 3, 2, 2)
        stack[1] = np.eye(2)
        _, alone = duality_beamformer(stack[[0, 2]], 1.0, 0.5)
        monkeypatch.setattr(bf, "downlink_power_recovery", singular_inputs(downlink_power_recovery))
        outcomes = self.sweep_outcomes(stack, 1.0, 0.5)
        assert isinstance(outcomes[1], ro.DualityError)
        assert str(outcomes[1]) == str(scalar.value)
        assert np.array_equal([outcomes[0], outcomes[2]], alone.min_rate)

    def test_a_capped_balance_warns_before_its_recovery_fails(
        self, rng, monkeypatch, caplog
    ):
        # non-convergence is never silent: each capped state logs even when
        # the recovery then refuses the solve, for one channel and a stack
        monkeypatch.setattr(bf, "BALANCE_MAX_ITER", 1)
        monkeypatch.setattr(bf, "POWER_CONSERVATION_TOL", -1.0)
        h = complex_normal(rng, 2, 3, 3)
        for channel, states in ((h[0], 1), (h, 2)):
            caplog.clear()
            with pytest.raises(ro.DualityError, match="conservation"):
                duality_beamformer(channel, 1.0, 0.3)
            assert caplog.messages == [
                "power balance stopped after 1 iterations without converging"
            ] * states

    def test_a_capped_stack_logs_k_above_m_before_its_capped_records(
        self, rng, monkeypatch, caplog
    ):
        # the balance logs K > M on entry, so before the finish logs its caps
        bf._warn_users_exceed_antennas.cache_clear()
        monkeypatch.setattr(bf, "BALANCE_MAX_ITER", 1)
        duality_beamformer(complex_normal(rng, 4, 3, 2), 1.0, 0.3)
        assert caplog.messages[:5] == [
            "K=3 users exceed M=2 antennas; balancing may converge to low SINRs"
        ] + ["power balance stopped after 1 iterations without converging"] * 4

    def test_capped_balance_warns_as_the_scalar_path(self, rng, monkeypatch, caplog):
        monkeypatch.setattr(bf, "BALANCE_MAX_ITER", 1)
        h = complex_normal(rng, 2, 3, 3)
        capped = "after 1 iterations without converging"
        duality_beamformer(h[0], 1.0, 0.3)
        scalar = caplog.messages
        assert any(capped in m for m in scalar)
        caplog.clear()
        duality_beamformer(h, 1.0, 0.3)
        stacked = caplog.messages
        assert any(capped in m for m in stacked)
        messages = [m for m in stacked if "converging" in m]
        assert messages == [scalar[0]] * 2
