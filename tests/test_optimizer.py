"""Coordinate ascent, line search, exhaustive sweep, and perturbation study."""

import itertools
import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import fail_states, random_components, solved_channels

import risopt as ro
from risopt.channel import ChannelComponents, assemble_from_config
from risopt.optimizer import (
    BcdSettings,
    OptimizerState,
    _armijo_search,
    _per_state,
    alternating_optimize,
    armijo_coordinate_step,
    bcd_sweep,
    exhaustive_1bit_search,
    min_sinr_gradient,
    perturbation_study,
    rate_histogram,
    suppress_boundary_gradient,
)
from risopt.ris import (
    DEFAULT_VARACTOR,
    RisConfiguration,
    column_paired_grouping,
    identity_grouping,
)
from risopt.scene import (
    default_scene,
    synthesize_components,
    trace_users,
    with_users,
)

FREQ = 5.8e9
MODEL = DEFAULT_VARACTOR


def make_state(rng, grouping, caps=None, sigma2=1e-3, p_bs=1.0):
    comps = random_components(rng)
    if caps is None:
        caps = rng.uniform(0.3e-12, 1.1e-12, 20)
    config = RisConfiguration(
        caps, control_mode="continuous-per-column", grouping=grouping
    )
    return OptimizerState(comps, MODEL, config, p_bs, sigma2)


class TestMinSinrGradient:
    def test_zero_coupling_zero_gradient(self, rng):
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
        state = OptimizerState(comps, MODEL, config, 1.0, 1e-3)
        for n in range(0, 20, 5):
            assert min_sinr_gradient(state, n) == 0.0

    def test_single_user_reduces_to_num_over_noise(self, rng):
        comps = random_components(rng, k=1, m=2)
        caps = rng.uniform(0.3e-12, 1.1e-12, 20)
        config = RisConfiguration(caps, grouping=identity_grouping(20))
        sigma2 = 1e-3
        state = OptimizerState(comps, MODEL, config, 1.0, sigma2)
        g = min_sinr_gradient(state, 4)
        y = (state.effective.matrix @ state.beamformer.weights)[0, 0]
        dh = ro.channel_derivative(comps, config, 4, effective=state.effective)
        dy = (dh @ state.beamformer.weights)[0, 0]
        expected = 2 * np.real(np.conj(y) * dy) / sigma2
        assert g == pytest.approx(expected, rel=1e-12)


class TestSuppressBoundaryGradient:
    def test_outward_at_upper_bound_suppressed(self):
        assert suppress_boundary_gradient(+1.0, 1.2e-12, 0.2e-12, 1.2e-12) == 0.0

    def test_inward_at_upper_bound_kept(self):
        assert suppress_boundary_gradient(-1.0, 1.2e-12, 0.2e-12, 1.2e-12) == -1.0

    def test_outward_at_lower_bound_suppressed(self):
        assert suppress_boundary_gradient(-2.0, 0.2e-12, 0.2e-12, 1.2e-12) == 0.0

    def test_interior_unchanged(self):
        assert suppress_boundary_gradient(0.37, 0.5e-12, 0.2e-12, 1.2e-12) == 0.37


class TestArmijoSearch:
    def test_quadratic_objective_monotone_steps(self):
        # concave quadratic with maximizer inside the bounds
        target = 0.7e-12
        evals = []

        def objective(c):
            evals.append(c)
            return -((c - target) ** 2)

        c = 0.3e-12
        value = objective(c)
        for _ in range(6):
            g = -2 * (c - target)
            found = _armijo_search(
                objective, value, c, g, 0.2e-12, 1.2e-12
            )
            if found is None:
                break
            new_c, new_value = found
            assert new_value > value
            c, value = new_c, new_value
        assert abs(c - target) < abs(0.3e-12 - target)

    def test_projection_lands_exactly_on_bound(self):
        # the first trial step, ARMIJO_STEP = 0.2 pF, overshoots the bound
        found = _armijo_search(
            lambda c: c, 1.1e-12, 1.1e-12, 1.0, 0.2e-12, 1.2e-12
        )
        assert found is not None
        new_c, _ = found
        assert new_c == 1.2e-12  # exact projection, not within epsilon

    def test_zero_gradient_is_noop_without_evaluations(self, rng):
        state = make_state(rng, grouping=identity_grouping(20))
        calls = []
        original = state.objective_at
        state.objective_at = lambda *a: calls.append(a) or original(*a)
        record = armijo_coordinate_step(state, 0, 0.0, 0)
        assert record is None
        assert calls == []

    def test_failed_search_is_noop(self):
        found = _armijo_search(
            lambda c: -1.0, 0.0, 0.5e-12, 1.0, 0.2e-12, 1.2e-12
        )
        assert found is None

    def test_failed_trial_assembly_aborts_the_step(self, rng, monkeypatch, caplog):
        import risopt.optimizer as opt

        state = make_state(rng, grouping=identity_grouping(20))
        config, beamformer, report = state.config, state.beamformer, state.report

        def singular(*args, **kwargs):
            raise ro.SingularChannelError("synthetic singular system")

        monkeypatch.setattr(opt, "assemble_from_config", singular)
        with caplog.at_level(logging.WARNING, logger="risopt.optimizer"):
            record = armijo_coordinate_step(state, 0, 1.0, 0)
        assert record is None
        assert [r.getMessage() for r in caplog.records] == [
            "line search aborted for group 0: synthetic singular system"
        ]
        assert state.config is config
        assert state.beamformer is beamformer
        assert state.report is report
        assert state.beamformer_recomputes == 1


class TestPerronGradient:
    def test_central_difference_agreement(self):
        # the derivative of the re-solved max-min SINR, beamformer included
        worst = 0.0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            caps = rng.uniform(0.25e-12, 1.15e-12, 20)
            state = make_state(rng, caps=caps, grouping=identity_grouping(20))
            group = int(rng.integers(0, 20))
            analytic = min_sinr_gradient(state, group)
            h = 1e-5 * caps[group]
            fd = (
                state.objective_at(group, caps[group] + h)
                - state.objective_at(group, caps[group] - h)
            ) / (2 * h)
            worst = max(worst, abs(analytic - fd) / abs(fd))
        assert worst <= 1e-4, f"worst relative gradient error {worst:.3e}"


class TestOptimizerStateCommit:
    def test_commit_adopts_the_trial(self, rng, monkeypatch):
        import risopt.channel as channel

        assembled = []
        real = channel.assemble_effective_channel

        def counted(*args):
            assembled.append(args)
            return real(*args)

        monkeypatch.setattr(channel, "assemble_effective_channel", counted)
        state = make_state(rng, grouping=identity_grouping(20))
        scores, solves = [], []
        solve = state.objective_at

        def scored(group, value):
            scores.append(solve(group, value))
            solves.append(state._trial)
            return scores[-1]

        state.objective_at = scored
        for group in state.config.group_keys():
            record = armijo_coordinate_step(
                state, group, min_sinr_gradient(state, group), 0
            )
            if record is not None:
                break
        assert record is not None
        config, effective, beamformer, report = solves[-1]
        assert state.sinr_min == scores[-1] == record.sinr_min_after
        assert record.sinr_min_after > record.sinr_min_before
        assert state.config is config and state.effective is effective
        assert state.beamformer is beamformer and state.report is report
        assert state.beamformer_recomputes == 2
        assert len(assembled) == 1 + len(scores)


class TestBcdSweep:
    def test_gradient_is_the_module_function_once_per_group(self, rng, monkeypatch):
        # the sweep must reach the gradient through the module attribute,
        # the binding that the benchmark's tracer replaces
        import risopt.optimizer as opt

        seen = []

        def counted(state, group):
            seen.append(group)
            return min_sinr_gradient(state, group)

        monkeypatch.setattr(opt, "min_sinr_gradient", counted)
        grouping = column_paired_grouping(20)
        state = make_state(rng, grouping=grouping)
        bcd_sweep(state, 1)
        assert seen == sorted(grouping)

    def test_zero_coupling_zero_delta(self, rng):
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
        state = OptimizerState(comps, MODEL, config, 1.0, 1e-3)
        delta, records = bcd_sweep(state, 0)
        assert delta == 0.0
        assert records == []

    def test_boundary_with_outward_gradient_is_noop(self, rng):
        # single group; place the capacitance at whichever bound the gradient
        # points out of, so suppression forces a zero-delta sweep
        comps = random_components(rng, k=2, m=2, n=4)
        grouping = {0: (0, 1, 2, 3)}
        for bound in (MODEL.c_max, MODEL.c_min):
            config = RisConfiguration(
                np.full(4, bound), control_mode="continuous-per-column", grouping=grouping
            )
            state = OptimizerState(comps, MODEL, config, 1.0, 1e-3)
            g = min_sinr_gradient(state, 0)
            outward = (bound == MODEL.c_max and g > 0) or (
                bound == MODEL.c_min and g < 0
            )
            if outward:
                delta, records = bcd_sweep(state, 0)
                assert delta == 0.0
                assert records == []
                break
        else:
            pytest.skip("gradient points inward at both bounds for this instance")

    def test_accepted_steps_increase_objective(self, rng):
        state = make_state(rng, grouping=identity_grouping(20))
        before = state.sinr_min
        delta, records = bcd_sweep(state, 0)
        if records:
            assert delta > 0
            assert state.sinr_min > before
            for r in records:
                assert r.sinr_min_after >= r.sinr_min_before


class TestAlternatingOptimize:
    def test_no_tunable_groups_single_duality_call(self, rng):
        comps = random_components(rng)
        config = RisConfiguration(
            np.full(20, 0.5e-12), control_mode="continuous-per-element", grouping={}
        )
        trace = alternating_optimize(
            comps, MODEL, config, 1.0, 1e-3, BcdSettings(t_g=5)
        )
        assert trace.steps == []
        assert trace.final_sinr_min == trace.initial_sinr_min
        assert trace.final_beamformer is not None

    def test_monotone_ascent_and_feasibility(self, rng):
        settings = BcdSettings(t_g=3, rng_seed=5)
        comps = random_components(rng)
        trace = alternating_optimize(
            comps, MODEL, None, 1.0, 1e-3, settings, grouping=identity_grouping(20)
        )
        seq = trace.accepted_sinr_sequence()
        assert np.all(np.diff(seq) >= 0)
        caps = trace.final_config.capacitances
        assert np.all(caps >= MODEL.c_min)
        assert np.all(caps <= MODEL.c_max)

    def test_deterministic_with_seed(self, rng):
        comps = random_components(rng)
        settings = BcdSettings(t_g=2, rng_seed=11)
        a = alternating_optimize(
            comps, MODEL, None, 1.0, 1e-3, settings, grouping=identity_grouping(20)
        )
        b = alternating_optimize(
            comps, MODEL, None, 1.0, 1e-3, settings, grouping=identity_grouping(20)
        )
        assert np.array_equal(a.final_config.capacitances, b.final_config.capacitances)
        assert a.final_sinr_min == b.final_sinr_min
        assert len(a.steps) == len(b.steps)
        for ra, rb in zip(a.steps, b.steps):
            assert (ra.group, ra.step, ra.sinr_min_after) == (
                rb.group,
                rb.step,
                rb.sinr_min_after,
            )

    def test_warm_start_beats_onebit_optimum(self, rng):
        comps = random_components(rng, k=2, m=3, n=8)
        grouping = column_paired_grouping(8)
        sigma2, p_bs = 1e-2, 1.0
        result = exhaustive_1bit_search(comps, MODEL, grouping, p_bs, sigma2)
        trace = alternating_optimize(
            comps, MODEL, result.best_config, p_bs, sigma2, BcdSettings(t_g=10)
        )
        assert trace.final_report.min_rate >= result.best_min_rate

    def test_stops_after_a_sweep_without_steps_at_any_snr(self):
        # at 1e-28 W the minimum SINR is about 4.6e-18: sweeps that still
        # accept steps gain far less than any absolute SINR tolerance
        comps = synthesize_components(default_scene())
        trace = alternating_optimize(
            comps, MODEL, None, 1e-28, ro.noise_power(900.0, 40e6),
            BcdSettings(t_g=50, rng_seed=1), grouping=identity_grouping(20),
        )
        accepted = [
            sum(1 for step in trace.steps if step.sweep == sweep)
            for sweep in range(1, trace.sweeps_run + 1)
        ]
        assert trace.converged and trace.sweeps_run < 50
        assert trace.final_sinr_min < 1e-16
        assert accepted[-1] == 0 and all(accepted[:-1])
        assert trace.sweep_deltas[-1] == 0.0

    def test_needs_a_start(self, rng):
        with pytest.raises(ValueError, match="initial configuration or a grouping"):
            alternating_optimize(
                random_components(rng), MODEL, None, 1.0, 1e-3, BcdSettings(t_g=50)
            )
        with pytest.raises(ValueError, match="t_g"):
            BcdSettings(t_g=-1)

    def test_failure_propagates_with_partial_trace(self, rng, monkeypatch, caplog):
        # a failed trial solve ends that group's line search and leaves the
        # state as it was; a failed initial solve propagates
        import risopt.optimizer as opt

        comps = random_components(rng, k=2, m=2, n=6)
        settings = BcdSettings(t_g=3, rng_seed=1)
        expected = alternating_optimize(
            comps, MODEL, None, 1.0, 1e-2, BcdSettings(t_g=0, rng_seed=1),
            grouping=identity_grouping(6),
        )
        calls = {"n": 0}
        real = opt.duality_beamformer

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 1:  # every trial solve fails
                raise ro.DualityError("synthetic failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(opt, "duality_beamformer", flaky)
        with caplog.at_level(logging.WARNING, logger="risopt.optimizer"):
            trace = alternating_optimize(
                comps, MODEL, None, 1.0, 1e-2, settings,
                grouping=identity_grouping(6),
            )
        assert trace.steps == []
        assert trace.final_sinr_min == trace.initial_sinr_min == expected.final_sinr_min
        assert np.array_equal(
            trace.final_config.capacitances, expected.final_config.capacitances
        )
        messages = [r.getMessage() for r in caplog.records]
        assert messages == [
            f"line search aborted for group {g}: synthetic failure" for g in range(6)
        ]
        assert calls["n"] == 1 + 6

        calls["n"] = 1  # the next call, the initial solve, fails
        with pytest.raises(ro.DualityError, match="synthetic failure"):
            alternating_optimize(
                comps, MODEL, None, 1.0, 1e-2, settings,
                grouping=identity_grouping(6),
            )

    def test_warm_start_beats_the_default_scene_onebit_optimum(self):
        comps = synthesize_components(default_scene())
        sigma2 = ro.noise_power(900.0, 40e6)
        result = exhaustive_1bit_search(
            comps, MODEL, column_paired_grouping(20), 1.0, sigma2
        )
        trace = alternating_optimize(
            comps, MODEL, result.best_config, 1.0, sigma2, BcdSettings(t_g=50)
        )
        assert len(trace.steps) > 0
        gain = trace.final_report.min_rate - result.best_min_rate
        assert gain >= 0.05, f"warm start gained {gain:.4f} bps/Hz"


class TestExhaustiveSearch:
    def test_single_group_two_entries(self, rng):
        comps = random_components(rng, k=2, m=2, n=4)
        grouping = {0: (0, 1, 2, 3)}
        result = exhaustive_1bit_search(comps, MODEL, grouping, 1.0, 1e-2)
        assert len(result.entries) == 2
        assert [s for s, _ in result.entries] == [(0,), (1,)]
        rates = [r for _, r in result.entries]
        assert result.best_min_rate == max(rates)

    def test_zero_groups_single_entry(self, rng):
        comps = random_components(rng, k=2, m=2, n=4)
        result = exhaustive_1bit_search(comps, MODEL, {}, 1.0, 1e-2)
        assert len(result.entries) == 1
        assert result.entries[0][0] == ()
        assert len(rate_histogram(result.rates, 0.05)) == 1  # single-bar histogram

    def test_counts_and_ordering(self, rng):
        comps = random_components(rng, k=2, m=3, n=8)
        grouping = column_paired_grouping(8)
        result = exhaustive_1bit_search(comps, MODEL, grouping, 1.0, 1e-2)
        assert len(result.entries) == 16
        assert result.failures == 0
        ranked_rates = [r for _, r in result.ranked]
        assert ranked_rates == sorted(ranked_rates, reverse=True)
        assert sum(c for _, _, c in rate_histogram(result.rates, 0.05)) == 16
        # best config expands the best states
        assert np.array_equal(
            result.best_config.capacitances,
            ro.onebit_configuration(grouping, result.best_states, 8).capacitances,
        )

    def test_winner_matches_fresh_solve(self, rng):
        # the sweep solves the winner once more, alone, and that solve is
        # what callers get; it is the same straightforward assemble +
        # duality path as this oracle, and its min rate is the sweep's
        # stacked one bit for bit
        comps = random_components(rng, k=2, m=3, n=8)
        grouping = column_paired_grouping(8)
        result = exhaustive_1bit_search(comps, MODEL, grouping, 1.0, 1e-2)
        eff = assemble_from_config(comps, MODEL, result.best_config)
        beamformer, report = ro.duality_beamformer(eff, 1.0, 1e-2)
        assert np.array_equal(result.best_beamformer.weights, beamformer.weights)
        assert result.best_beamformer.power_budget == beamformer.power_budget
        assert np.array_equal(result.best_report.sinr, report.sinr)
        assert result.best_report.min_rate == report.min_rate == result.best_min_rate
        assert result.best_report.avg_received_power == report.avg_received_power

    def test_element_grid_control_via_grouping(self, rng):
        # full element grid (4 columns x 3 rows) driven by 2 column-pair
        # groups; the coupling matrix keeps its full 12x12 size
        comps = random_components(rng, k=2, m=2, n=12)
        grouping = column_paired_grouping(4, n_rows=3)
        result = exhaustive_1bit_search(comps, MODEL, grouping, 1.0, 1e-2)
        assert len(result.entries) == 4
        for states, _ in result.entries:
            config = ro.onebit_configuration(grouping, states, 12)
            assert config.capacitances.size == 12

    def test_failed_configurations_are_logged_and_skipped(
        self, rng, monkeypatch, caplog
    ):
        # one state's block fails in the assembly, another state's solve in
        # the duality solve, each in its own chunk; each is recorded as
        # missing and the winner comes from the rest
        import risopt.optimizer as opt

        comps = random_components(rng, k=2, m=3, n=8)
        grouping = column_paired_grouping(8)
        reference = exhaustive_1bit_search(comps, MODEL, grouping, 1.0, 1e-2)
        states = [s for s, _ in reference.entries]
        singular, unsolvable = states[5], states[9]
        singular_loads = ro.load_impedances(
            MODEL, ro.onebit_configuration(grouping, singular, 8).capacitances, FREQ
        )
        unsolvable_h = assemble_from_config(
            comps, MODEL, ro.onebit_configuration(grouping, unsolvable, 8)
        ).matrix
        fail_states(
            monkeypatch, opt, "assemble_effective_channel",
            lambda loads: np.array_equal(loads, singular_loads),
            ro.SingularChannelError("synthetic singular system"),
        )
        fail_states(
            monkeypatch, opt, "duality_beamformer",
            lambda h: np.array_equal(h, unsolvable_h),
            ro.DualityError("synthetic recovery failure"),
        )
        monkeypatch.setattr(opt, "STACK_CHUNK", 4)
        with caplog.at_level(logging.WARNING, logger="risopt.optimizer"):
            result = exhaustive_1bit_search(comps, MODEL, grouping, 1.0, 1e-2)
        assert [r.getMessage() for r in caplog.records] == [
            f"configuration {singular} failed: synthetic singular system",
            f"configuration {unsolvable} failed: synthetic recovery failure",
        ]
        assert result.failures == 2
        assert [s for s, r in result.entries if r is None] == [singular, unsolvable]
        assert result.ranked == [
            (s, r) for s, r in reference.ranked if s not in (singular, unsolvable)
        ]
        assert result.best_states == result.ranked[0][0]
        assert result.best_min_rate == result.ranked[0][1]

    def test_every_configuration_failing_raises(self, rng, monkeypatch):
        import risopt.optimizer as opt

        fail_states(
            monkeypatch, opt, "assemble_effective_channel",
            lambda loads: True, ro.SingularChannelError("synthetic singular system"),
        )
        comps = random_components(rng, k=2, m=2, n=4)
        with pytest.raises(
            ro.RisOptError, match="every 1-bit configuration failed to evaluate"
        ):
            exhaustive_1bit_search(
                comps, MODEL, column_paired_grouping(4), 1.0, 1e-2
            )

    def test_results_do_not_depend_on_the_chunk(self, rng, monkeypatch):
        import risopt.optimizer as opt

        comps = random_components(rng, k=2, m=3, n=8)
        grouping = column_paired_grouping(8)
        reference = exhaustive_1bit_search(comps, MODEL, grouping, 1.0, 1e-2)
        for chunk in (1, 7):
            monkeypatch.setattr(opt, "STACK_CHUNK", chunk)
            result = exhaustive_1bit_search(comps, MODEL, grouping, 1.0, 1e-2)
            assert result.entries == reference.entries
            assert np.array_equal(
                result.best_beamformer.weights, reference.best_beamformer.weights
            )

    def test_failed_states_leave_their_chunk_neighbours_alone(
        self, rng, monkeypatch, caplog
    ):
        # a real over-limit load system and a real failed recovery, both in
        # the middle of the one 16-state chunk, which is then solved state
        # by state
        import risopt.beamforming as bf
        import risopt.optimizer as opt

        comps = random_components(rng, k=2, m=3, n=8)
        grouping = column_paired_grouping(8)
        reference = exhaustive_1bit_search(comps, MODEL, grouping, 1.0, 1e-2)
        assert len(reference.entries) <= opt.STACK_CHUNK
        over, unrecovered = 6, 9
        # equal loads at an eigenvalue of Z_ll make diag(Z_L) - Z_ll singular
        resonant = np.full(8, np.linalg.eigvals(comps.z_ll)[0])
        real_loads = opt.load_impedances
        unrecovered_h = assemble_from_config(
            comps, MODEL,
            ro.onebit_configuration(grouping, reference.entries[unrecovered][0], 8),
        ).matrix

        def loads(model, capacitances, frequency):
            z_loads = real_loads(model, capacitances, frequency)
            z_loads[over] = resonant
            return z_loads

        def doubled(real):
            # SINR targets the powers cannot reach within the budget, on
            # both solver paths
            def recovery(h, w_ul, sinr_ul, *args, **kwargs):
                sinr_ul = np.array(sinr_ul)
                sinr_ul[np.all(h == unrecovered_h, axis=(-2, -1))] *= 2.0
                return real(h, w_ul, sinr_ul, *args, **kwargs)

            return recovery

        monkeypatch.setattr(opt, "load_impedances", loads)
        monkeypatch.setattr(bf, "downlink_power_recovery", doubled(bf.downlink_power_recovery))
        with caplog.at_level(logging.WARNING, logger="risopt.optimizer"):
            result = exhaustive_1bit_search(comps, MODEL, grouping, 1.0, 1e-2)
        states = [s for s, _ in reference.entries]
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 2
        assert messages[0].startswith(
            f"configuration {states[over]} failed: load/coupling system condition number"
        )
        assert messages[1].startswith(
            f"configuration {states[unrecovered]} failed: duality power conservation"
        )
        assert [s for s, r in result.entries if r is None] == [
            states[over], states[unrecovered]
        ]
        assert [e for i, e in enumerate(result.entries) if i not in (over, unrecovered)] == [
            e for i, e in enumerate(reference.entries) if i not in (over, unrecovered)
        ]


class TestPerState:
    """The chunk loop of the 1-bit sweeps on a synthetic solve of the
    integers 0..9: a stacked call refuses a chunk that holds a refused
    item, and a one-item call raises that item's own error."""

    # with a chunk of 3 the chunks are 0-2, 3-5, 6-8 and 9: refused items
    # stand first and last in a chunk
    REFUSED = (0, 2, 3, 8)

    @staticmethod
    def squares(calls, refused=REFUSED, stack_error=ro.DualityError):
        def solve(items):
            items = np.asarray(items)
            calls.append(items.shape)
            if items.ndim == 0:
                if int(items) in refused:
                    raise ro.DualityError(f"item {int(items)} refused")
                return float(items) ** 2
            if any(int(i) in refused for i in items):
                raise stack_error("a state of the chunk failed")
            return items.astype(float) ** 2

        return solve

    @staticmethod
    def outcomes(solve, items):
        return [
            (type(o), str(o)) if isinstance(o, ro.RisOptError) else o
            for o in _per_state(solve, items)
        ]

    def test_outcomes_do_not_depend_on_the_chunk(self, monkeypatch):
        import risopt.optimizer as opt

        expected = [
            (ro.DualityError, f"item {i} refused") if i in self.REFUSED else float(i**2)
            for i in range(10)
        ]
        for chunk in (1, 3, 64):
            monkeypatch.setattr(opt, "STACK_CHUNK", chunk)
            calls = []
            assert self.outcomes(self.squares(calls), range(10)) == expected, chunk
            # every chunk is tried whole; only refused chunks go item by item
            chunks = [range(10)[i : i + chunk] for i in range(0, 10, chunk)]
            retried = [i for c in chunks if set(c) & set(self.REFUSED) for i in c]
            assert [c for c in calls if c] == [(len(c),) for c in chunks], chunk
            assert calls.count(()) == len(retried), chunk

    def test_other_errors_propagate_without_one_item_calls(self):
        calls = []
        solve = self.squares(calls, stack_error=ValueError)
        with pytest.raises(ValueError, match="a state of the chunk failed"):
            list(_per_state(solve, range(10)))
        assert calls == [(10,)]

    def test_no_items_yield_nothing(self):
        calls = []
        assert list(_per_state(self.squares(calls), [])) == []
        assert calls == []


class TestRateHistogram:
    def test_bins_and_counts(self):
        bins = rate_histogram([0.01, 0.02, 0.06, 0.11], bin_width=0.05)
        assert bins == [(0.0, 0.05, 2), (0.05, 0.1, 1), (0.1, 0.15000000000000002, 1)]

    def test_maximum_lands_in_top_bin(self):
        bins = rate_histogram([0.05, 0.1], bin_width=0.05)
        assert sum(c for _, _, c in bins) == 2

    def test_negative_values_binned_correctly(self):
        # perturbation improvements can be negative
        bins = rate_histogram([-0.12, -0.02, 0.03], bin_width=0.05)
        assert bins[0][0] == pytest.approx(-0.15)
        assert sum(c for _, _, c in bins) == 3
        for left, right, count in bins:
            assert right > left

    def test_rates_next_to_bin_edges_land_in_their_bin(self):
        # every rate within 4 ulps of an edge k * w: each one alone is
        # counted once, in bin floor(r / w) with edges b * w, and all of
        # them together are each counted once
        w = 0.05
        rates = []
        for k in range(2001):
            below = above = k * w
            rates.append(below)
            for _ in range(4):
                below = np.nextafter(below, -np.inf)
                above = np.nextafter(above, np.inf)
                rates += [float(below), float(above)]
        for r in rates:
            b = math.floor(r / w)
            assert rate_histogram([r], w) == [(b * w, (b + 1) * w, 1)], r
        assert sum(c for _, _, c in rate_histogram(rates, w)) == len(rates)

    def test_empty_and_invalid(self):
        assert rate_histogram([], 0.05) == []
        with pytest.raises(ValueError):
            rate_histogram([1.0], bin_width=0.0)

    @pytest.mark.parametrize(
        "rates, bin_width, message",
        [
            ([0.0, 1.0], 1e-12, "needs 1000000000001 bins"),  # 7 TiB of counts
            ([31.0], 1e-300, "beyond 2[*][*]52"),  # the integer cast overflows
            ([31.0, 31.0], 1e-17, "beyond 2[*][*]52"),  # edges 1 ulp apart
        ],
    )
    def test_too_fine_width_is_refused(self, rates, bin_width, message):
        with pytest.raises(ValueError, match=message):
            rate_histogram(rates, bin_width)

    def test_bin_cap_is_inclusive(self):
        bins = rate_histogram([0.0, ro.optimizer.MAX_HISTOGRAM_BINS - 1.0], 1.0)
        assert len(bins) == ro.optimizer.MAX_HISTOGRAM_BINS
        with pytest.raises(ValueError, match="needs 10001 bins"):
            rate_histogram([0.0, float(ro.optimizer.MAX_HISTOGRAM_BINS)], 1.0)


def light_scene():
    return default_scene(n_ports=4, max_reflection_order=1, with_grid=False)


class TestPerturbationStudy:
    def test_zero_offsets_reduce_to_unperturbed_study(self):
        scene = light_scene()
        comps = synthesize_components(scene)
        grouping = column_paired_grouping(4)
        sigma2 = ro.noise_power(900.0, 40e6)
        result = perturbation_study(
            scene, MODEL, grouping, 1.0, sigma2, offsets=[(0.0, 0.0)]
        )
        assert result.combinations == 1
        assert result.skipped == 0
        reference = exhaustive_1bit_search(comps, MODEL, grouping, 1.0, sigma2)
        expected = reference.best_min_rate - reference.baseline_min_rate
        # both sweeps run one arithmetic, so the two agree bit for bit
        assert result.improvements[0] == expected

    def test_improvement_dominates_all_off_configuration(self):
        scene = light_scene()
        grouping = column_paired_grouping(4)
        sigma2 = ro.noise_power(900.0, 40e6)
        offsets = [(0.0, 0.0), (0.05, -0.03)]
        result = perturbation_study(
            scene, MODEL, grouping, 1.0, sigma2, offsets=offsets
        )
        assert result.combinations == len(offsets) ** 3
        for combo_index, combo in enumerate(
            __import__("itertools").product(range(len(offsets)), repeat=3)
        ):
            users = np.array(
                [
                    scene.user_positions[u] + np.asarray(offsets[c])
                    for u, c in enumerate(combo)
                ]
            )
            moved = synthesize_components(with_users(scene, users))
            all_off = ro.onebit_configuration(grouping, np.zeros(len(grouping)), 4)
            eff = assemble_from_config(moved, MODEL, all_off)
            _, off_report = ro.duality_beamformer(eff, 1.0, sigma2)
            _, base_report = ro.duality_beamformer(moved.h_u, 1.0, sigma2)
            off_improvement = off_report.min_rate - base_report.min_rate
            assert result.improvements[combo_index] >= off_improvement - 1e-12

    def test_summary_fields(self):
        scene = light_scene()
        grouping = column_paired_grouping(4)
        result = perturbation_study(
            scene, MODEL, grouping, 1.0, ro.noise_power(900.0, 40e6),
            offsets=[(0.0, 0.0)],
        )
        assert result.summary["combinations"] == 1
        assert result.summary["evaluated"] == 1
        assert result.summary["min_improvement"] == result.summary["max_improvement"]

    def test_hoisted_traces_equal_per_combination_synthesis(self):
        scene = light_scene()
        grouping = column_paired_grouping(4)
        sigma2 = ro.noise_power(900.0, 40e6)
        offsets = [(0.0, 0.0), (0.05, -0.03), (-0.075, 0.092)]
        result = perturbation_study(
            scene, MODEL, grouping, 1.0, sigma2, offsets=offsets
        )
        assert result.skipped == 0
        combos = list(itertools.product(range(len(offsets)), repeat=3))
        for index in (0, 13, 26):
            users = scene.user_positions + np.array(
                [offsets[c] for c in combos[index]]
            )
            expected = resynthesized_improvement(scene, grouping, users, sigma2)
            assert result.improvements[index] == expected

    def test_position_on_wall_skips_only_its_combinations(self, caplog):
        scene = light_scene()
        grouping = column_paired_grouping(4)
        sigma2 = ro.noise_power(900.0, 40e6)
        # the second offset puts user 0 on the y = 4 wall; users 1 and 2 stay clear
        offsets = [(0.0, 0.0), (0.0, 0.87)]
        with caplog.at_level(logging.WARNING, logger="risopt.optimizer"):
            result = perturbation_study(
                scene, MODEL, grouping, 1.0, sigma2, offsets=offsets
            )
        assert result.combinations == 8
        assert result.skipped == 4
        assert result.combination_indices == [0, 1, 2, 3]
        combos = list(itertools.product(range(2), repeat=3))
        assert [r.getMessage() for r in caplog.records] == [
            f"combination {combo} skipped: src or dst lies on a wall segment"
            for combo in combos[4:]
        ]
        users = scene.user_positions + np.array([offsets[c] for c in combos[3]])
        expected = resynthesized_improvement(scene, grouping, users, sigma2)
        assert result.improvements[3] == expected

    def test_each_moved_position_is_traced_once(self, monkeypatch, caplog):
        # the benchmark's light scene: the 0.87 m moves put users on walls,
        # so the batch trace refuses and each position's two sides are
        # traced alone; no combination is traced again
        import risopt.optimizer as opt

        calls = {"trace_users": 0, "field_matrix": 0}
        for name in calls:
            real = getattr(opt, name)

            def counted(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(opt, name, counted)
        offsets = opt.user_offset_grid((0.0, 0.87), (0.0, 0.87))
        with caplog.at_level(logging.WARNING, logger="risopt.optimizer"):
            result = perturbation_study(
                default_scene(n_ports=2, max_reflection_order=1, with_grid=False),
                MODEL, column_paired_grouping(2), 1.0,
                ro.noise_power(900.0, 40e6), offsets=offsets,
            )
        assert (result.combinations, result.skipped) == (64, 32)
        assert len(caplog.records) == 32
        assert calls == {"trace_users": 1, "field_matrix": 2 * 3 * len(offsets)}

    def test_bs_side_error_names_the_combination(self, caplog):
        # no panel: the move puts user 0 on a RIS port, which only the port
        # side refuses, and user 1 on a wall, which both sides refuse; the
        # BS side is checked for every user first, as trace_users does, so a
        # combination that moves both names the wall
        base = default_scene(n_ports=2, max_reflection_order=1, with_grid=False)
        move = np.array([0.0, 0.5])
        users = base.user_positions.copy()
        users[0] = base.ris_ports[1] - move
        users[1] = (0.0, 4.0 - move[1])  # moved onto the y = 4 wall
        scene = replace(base, user_positions=users, unloaded_panel=None)
        offsets = [(0.0, 0.0), tuple(move)]
        with caplog.at_level(logging.WARNING, logger="risopt.optimizer"):
            result = perturbation_study(
                scene, MODEL, column_paired_grouping(2), 1.0,
                ro.noise_power(900.0, 40e6), offsets=offsets,
            )
        combos = list(itertools.product(range(2), repeat=3))
        expected = {}
        for combo in combos:
            try:
                trace_users(scene, users + np.array([offsets[c] for c in combo]))
            except ro.GeometryError as exc:
                expected[combo] = f"combination {combo} skipped: {exc}"
        assert result.skipped == len(expected) == 6
        assert [r.getMessage() for r in caplog.records] == list(expected.values())
        assert expected[(1, 1, 0)].endswith("src or dst lies on a wall segment")
        assert expected[(1, 0, 0)].endswith("src and dst coincide")

    def test_failed_block_raises(self, monkeypatch):
        import risopt.optimizer as opt

        fail_states(
            monkeypatch, opt, "assemble_effective_channel",
            lambda loads: True, ro.SingularChannelError("synthetic singular system"),
        )
        with pytest.raises(ro.SingularChannelError, match="synthetic"):
            perturbation_study(
                light_scene(), MODEL, column_paired_grouping(4), 1.0,
                ro.noise_power(900.0, 40e6), offsets=[(0.0, 0.0)],
            )


class TestPerturbationChunks:
    def test_improvements_do_not_depend_on_the_chunk(self, monkeypatch):
        import risopt.optimizer as opt

        scene = light_scene()
        grouping = column_paired_grouping(4)
        sigma2 = ro.noise_power(900.0, 40e6)
        offsets = [(0.0, 0.0), (0.05, -0.03), (0.0, 0.87)]  # the last is on a wall
        reference = perturbation_study(
            scene, MODEL, grouping, 1.0, sigma2, offsets=offsets
        )
        assert 0 < reference.skipped < reference.combinations
        for chunk in (1, 7):
            monkeypatch.setattr(opt, "STACK_CHUNK", chunk)
            result = perturbation_study(
                scene, MODEL, grouping, 1.0, sigma2, offsets=offsets
            )
            assert np.array_equal(result.improvements, reference.improvements)
            assert result.combination_indices == reference.combination_indices

    def test_a_failed_solve_skips_only_its_combination(self, monkeypatch, caplog):
        # every solve runs; the combination with a failed state is skipped
        # with its first failure, and the others keep their improvements
        import risopt.optimizer as opt

        scene = light_scene()
        grouping = column_paired_grouping(4)
        sigma2 = ro.noise_power(900.0, 40e6)
        offsets = [(0.0, 0.0), (0.05, -0.03)]
        monkeypatch.setattr(opt, "STACK_CHUNK", 7)
        channels = solved_channels(monkeypatch, opt)
        reference = perturbation_study(
            scene, MODEL, grouping, 1.0, sigma2, offsets=offsets
        )
        per_combination = 1 + 2 ** len(grouping)
        for failing in (5 * per_combination + 4, 5 * per_combination + 2):
            fail_states(
                monkeypatch, opt, "duality_beamformer",
                lambda h, target=channels[failing]: np.array_equal(h, target),
                ro.DualityError(f"synthetic failure {failing}"),
            )
        solved = solved_channels(monkeypatch, opt)
        with caplog.at_level(logging.WARNING, logger="risopt.optimizer"):
            result = perturbation_study(
                scene, MODEL, grouping, 1.0, sigma2, offsets=offsets
            )
        assert len(solved) == 8 * per_combination
        combos = list(itertools.product(range(2), repeat=3))
        assert [(r.args[0], r.getMessage()) for r in caplog.records] == [
            (
                combos[5],
                f"combination {combos[5]} skipped: synthetic failure "
                f"{5 * per_combination + 2}",
            )
        ]
        assert result.skipped == 1
        assert result.combination_indices == [0, 1, 2, 3, 4, 6, 7]
        assert np.array_equal(
            result.improvements, np.delete(reference.improvements, 5)
        )


def resynthesized_improvement(scene, grouping, users, sigma2, p_bs=1.0):
    """One combination as computed by re-synthesizing the whole scene at the
    moved users and sweeping every 1-bit state on its h_u and g_l."""
    base = synthesize_components(scene)
    _, _, n = base.dims
    moved = synthesize_components(with_users(scene, users))
    _, baseline = ro.duality_beamformer(moved.h_u, p_bs, sigma2)
    rates = []
    for states in ro.enumerate_1bit_configs(len(grouping)):
        block = assemble_from_config(
            base, MODEL, ro.onebit_configuration(grouping, states, n)
        ).solved_h0
        _, report = ro.duality_beamformer(moved.h_u + moved.g_l @ block, p_bs, sigma2)
        rates.append(report.min_rate)
    return max(rates) - baseline.min_rate
