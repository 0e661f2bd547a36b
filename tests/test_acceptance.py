"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not configured elsewhere.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import complex_normal, random_components

import risopt as ro
from risopt.beamforming import (
    downlink_power_recovery,
    duality_beamformer,
    fixed_point_power_balance,
)
from risopt.channel import assemble_effective_channel, assemble_from_config
from risopt.cli import main
from risopt.fileio import load_components, read_csv, save_components, save_scene
from risopt.optimizer import (
    BcdSettings,
    OptimizerState,
    alternating_optimize,
    exhaustive_1bit_search,
    min_sinr_gradient,
    perturbation_study,
    user_offset_grid,
)
from risopt.ris import (
    C_OFF,
    C_ON,
    DEFAULT_VARACTOR,
    RisConfiguration,
    column_paired_grouping,
    identity_grouping,
)
from risopt.scene import ObservationGrid, default_scene, synthesize_components

MODEL = DEFAULT_VARACTOR
SIGMA2 = ro.noise_power(900.0, 40e6)
P_BS = 1.0  # 30 dBm


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {description}")


@pytest.fixture(scope="module")
def default_components():
    return synthesize_components(default_scene())


@pytest.fixture(scope="module")
def exhaustive_result(default_components):
    grouping = column_paired_grouping(20)
    start = time.perf_counter()
    result = exhaustive_1bit_search(
        default_components, MODEL, grouping, P_BS, SIGMA2
    )
    result.elapsed_seconds = time.perf_counter() - start
    return result


def test_criterion_1_duality_equivalence():
    with criterion(1, "duality equivalence on 200 random instances"):
        rng = np.random.default_rng(1001)
        start = time.perf_counter()
        worst_sinr = 0.0
        worst_power = 0.0
        for _ in range(200):
            m = int(rng.integers(1, 9))
            k = int(rng.integers(1, m + 1))
            comps = random_components(rng, k=k, m=m, n=20)
            caps = rng.uniform(MODEL.c_min, MODEL.c_max, 20)
            z_loads = ro.load_impedances(MODEL, caps, comps.frequency)
            h = assemble_effective_channel(comps, z_loads)
            balance = fixed_point_power_balance(h, P_BS, 1e-4)
            unit = balance.combiner / np.linalg.norm(balance.combiner, axis=0)
            p = downlink_power_recovery(h, unit, balance.sinr, 1e-4, p_bs=P_BS)
            sinr_dl = ro.downlink_sinr(h.matrix @ (unit * np.sqrt(p)), 1e-4)
            worst_sinr = max(
                worst_sinr, float(np.max(np.abs(sinr_dl - balance.sinr) / balance.sinr))
            )
            worst_power = max(worst_power, abs(p.sum() - P_BS) / P_BS)
        elapsed = time.perf_counter() - start
        assert worst_sinr <= 1e-6, f"worst per-user SINR gap {worst_sinr:.3e}"
        assert worst_power <= 1e-8, f"worst power conservation gap {worst_power:.3e}"
        assert elapsed < 10.0, f"took {elapsed:.1f} s, budget 10 s"


def test_criterion_2_gradient_fidelity():
    with criterion(2, "max-min SINR gradient vs central differences"):
        start = time.perf_counter()
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            comps = random_components(rng, k=3, m=3, n=20)
            caps = rng.uniform(0.25e-12, 1.15e-12, 20)
            config = RisConfiguration(caps, grouping=identity_grouping(20))
            state = OptimizerState(comps, MODEL, config, P_BS, 1e-3)
            group = int(rng.integers(0, 20))
            analytic = min_sinr_gradient(state, group)
            h = 1e-4 * caps[group]

            def max_min_sinr(value):
                # the full duality solve at the moved value, beamformer included
                moved = caps.copy()
                moved[group] = value
                eff = assemble_from_config(
                    comps,
                    MODEL,
                    RisConfiguration(moved, grouping=identity_grouping(20)),
                )
                _, report = duality_beamformer(eff, P_BS, 1e-3)
                return float(report.sinr.min())

            fd = (
                max_min_sinr(caps[group] + h) - max_min_sinr(caps[group] - h)
            ) / (2 * h)
            worst = max(worst, abs(analytic - fd) / max(abs(fd), 1e-300))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-4, f"worst relative gradient error {worst:.3e}"
        assert elapsed < 30.0, f"took {elapsed:.1f} s, budget 30 s"


def test_criterion_3_monotone_ascent():
    with criterion(3, "nondecreasing accepted-step SINR over 20 seeded runs"):
        violations = 0
        total_steps = 0
        for seed in range(20):
            rng = np.random.default_rng(10_000 + seed)
            comps = random_components(rng, k=3, m=3, n=20)
            settings = BcdSettings(t_g=3, rng_seed=seed)
            trace = alternating_optimize(
                comps, MODEL, None, P_BS, 1e-3, settings,
                grouping=identity_grouping(20),
            )
            seq = trace.accepted_sinr_sequence()
            total_steps += len(trace.steps)
            violations += int(np.sum(np.diff(seq) < 0))
        assert total_steps > 0, "no accepted steps anywhere; test is vacuous"
        assert violations == 0, f"{violations} monotonicity violations"


def test_criterion_4_exhaustive_vs_local(default_components, exhaustive_result):
    with criterion(4, "warm-started BCD matches or beats the 1-bit optimum"):
        assert len(exhaustive_result.entries) == 1024
        assert exhaustive_result.elapsed_seconds < 60.0, (
            f"exhaustive sweep took {exhaustive_result.elapsed_seconds:.1f} s"
        )
        trace = alternating_optimize(
            default_components,
            MODEL,
            exhaustive_result.best_config,
            P_BS,
            SIGMA2,
            BcdSettings(t_g=10),
        )
        assert trace.final_report.min_rate >= exhaustive_result.best_min_rate, (
            f"BCD {trace.final_report.min_rate:.6f} fell below 1-bit optimum "
            f"{exhaustive_result.best_min_rate:.6f}"
        )


def test_criterion_5_high_snr_slope(tmp_path):
    with criterion(5, "no-RIS min-rate slope 1.661 +/- 0.15 bps/Hz per 5 dB"):
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--mode", "no-ris", "--reproducible", "--out", str(out)]
        )
        assert code == 0
        _, cols = read_csv(out / "sweep.csv")
        rates = cols["min_rate_bps_hz"]
        powers = cols["p_dbm"]
        assert powers == [10.0, 15.0, 20.0, 25.0, 30.0]
        top_deltas = [rates[-1] - rates[-2], rates[-2] - rates[-3]]
        for delta in top_deltas:
            assert 1.51 <= delta <= 1.81, f"slope {delta:.3f} outside [1.51, 1.81]"


def test_criterion_6_ordering_sanity(default_components, exhaustive_result):
    with criterion(6, "continuous >= best 1-bit >= median 1-bit on default scene"):
        trace = alternating_optimize(
            default_components,
            MODEL,
            exhaustive_result.best_config,
            P_BS,
            SIGMA2,
            BcdSettings(t_g=10),
        )
        continuous = trace.final_report.min_rate
        best_onebit = exhaustive_result.best_min_rate
        median_onebit = float(np.median(exhaustive_result.rates))
        assert continuous >= best_onebit, (
            f"continuous {continuous:.6f} < best 1-bit {best_onebit:.6f}"
        )
        assert best_onebit >= median_onebit, (
            f"best 1-bit {best_onebit:.6f} < median {median_onebit:.6f}"
        )


def test_criterion_7_structural_anchors(exhaustive_result):
    with criterion(7, "1024 configs, 729 perturbations, 1-bit states, kTB"):
        # exhaustive sweep cardinality for 10 column pairs
        assert len(exhaustive_result.entries) == 2**10 == 1024
        # 1-bit capacitance states
        assert C_ON == 0.54e-12
        assert C_OFF == 0.38e-12
        states = set(exhaustive_result.best_config.capacitances.tolist())
        assert states <= {0.54e-12, 0.38e-12}
        # thermal noise anchor
        assert abs(ro.noise_power(900.0, 40e6) - 4.970e-13) / 4.970e-13 <= 1e-3
        # perturbation study: default offset grid on a light scene
        scene = default_scene(n_ports=2, max_reflection_order=1, with_grid=False)
        result = perturbation_study(
            scene, MODEL, column_paired_grouping(2), P_BS, SIGMA2
        )
        assert result.combinations == 729
        grid = user_offset_grid()
        assert len(grid) == 9
        assert {dx for dx, _ in grid} == {-0.075, 0.0, 0.075}
        assert {dy for _, dy in grid} == {-0.092, 0.0, 0.092}


def test_criterion_8_channel_core_oracles(default_components, tmp_path):
    with criterion(8, "factorized assembly, unloaded limit, save/load symmetry"):
        rng = np.random.default_rng(88)
        # factorized solve vs dense inverse
        for _ in range(10):
            comps = random_components(rng, k=3, m=3, n=20)
            z_loads = complex_normal(rng, 20) * 10 + 40.0
            h = assemble_effective_channel(comps, z_loads)
            z = np.diag(z_loads) - comps.z_ll
            oracle = comps.h_u + comps.g_l @ np.linalg.inv(z) @ comps.h_0
            rel = np.linalg.norm(h.matrix - oracle) / np.linalg.norm(oracle)
            assert rel <= 1e-10, f"factorized-vs-inverse gap {rel:.3e}"
        # unloaded limit at C = 1e-18 F
        omega = 2 * np.pi * default_components.frequency
        caps = np.full(20, 1e-18)
        z_unloaded = MODEL.r_v + 1j * omega * MODEL.l_v + 1.0 / (1j * omega * caps)
        h = assemble_effective_channel(default_components, z_unloaded)
        rel = np.linalg.norm(h.matrix - default_components.h_u) / np.linalg.norm(
            default_components.h_u
        )
        assert rel <= 1e-6, f"unloaded-limit gap {rel:.3e}"
        # Z_ll symmetry survives a save/load round trip bit-exactly
        path = tmp_path / "channels.json"
        save_components(default_components, path)
        loaded = load_components(path)
        assert np.array_equal(loaded.z_ll, default_components.z_ll)
        assert np.array_equal(loaded.z_ll, loaded.z_ll.T)


def _small_scene_file(tmp_path):
    scene = default_scene(n_ports=4, max_reflection_order=1)
    scene = type(scene)(
        walls=scene.walls,
        bs_elements=scene.bs_elements,
        ris_ports=scene.ris_ports,
        user_positions=scene.user_positions,
        frequency=scene.frequency,
        max_reflection_order=1,
        grid=ObservationGrid(origin=(1.0, 1.0), spacing=(0.5, 0.5), counts=(3, 3)),
        unloaded_panel=scene.unloaded_panel,
    )
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    return str(path)


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "every CLI command byte-identical under --reproducible"):
        scene_path = _small_scene_file(tmp_path)
        commands = {
            "scene-trace": [
                "scene", "trace", "--scene", scene_path,
                "--src", "6,-3", "--dst", "1.8,2.38",
            ],
            "channel-convert": ["channel", "convert", "--scene", scene_path],
            "optimize": [
                "optimize", "--scene", scene_path,
                "--power-dbm", "30", "--max-sweeps", "2", "--seed", "7",
            ],
            "sweep": [
                "sweep", "--scene", scene_path, "--mode", "no-ris",
                "--mode", "onebit-exhaustive",
            ],
            "exhaustive": ["exhaustive", "--scene", scene_path, "--power-dbm", "30"],
            "perturb": [
                "perturb", "--scene", scene_path,
                "--offset-x", "0", "--offset-y", "0", "--power-dbm", "30",
            ],
            "gainmap": [
                "gainmap", "--scene", scene_path,
                "--power-dbm", "30", "--max-sweeps", "1", "--seed", "7",
            ],
        }
        for name, args in commands.items():
            runs = []
            for attempt in ("a", "b"):
                out = tmp_path / name / attempt
                code = main(args + ["--reproducible", "--out", str(out)])
                assert code == 0, f"{name} run {attempt} exited {code}"
                runs.append(
                    sorted(p for p in out.iterdir() if p.is_file())
                )
            first, second = runs
            assert [p.name for p in first] == [p.name for p in second]
            for fa, fb in zip(first, second):
                assert fa.read_bytes() == fb.read_bytes(), (
                    f"{name}: {fa.name} differs between runs"
                )
