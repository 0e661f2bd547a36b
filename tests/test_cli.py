"""Command-line harness: outputs, schemas, determinism, exit codes."""

import json
import logging
from dataclasses import replace

import numpy as np
import pytest

import risopt as ro
from risopt.cli import (
    COMMANDS,
    FLAGS,
    ExperimentConfig,
    _attach_points,
    _parse_point,
    build_parser,
    main,
)
from risopt.fileio import (
    load_components,
    load_ris_config,
    read_csv,
    save_components,
    save_scene,
)
from risopt.scene import (
    ObservationGrid,
    default_scene,
    trace_paths,
    wavelength,
    with_users,
)

from conftest import call_states, fail_states, random_components, solved_channels


@pytest.fixture
def small_scene_path(tmp_path):
    """4-port scene with a tiny grid: fast enough for repeated CLI runs."""
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


class TestExperimentConfig:
    def test_empty_power_list_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(powers_dbm=())

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(bandwidth_hz=0.0)

    def test_unknown_mode_rejected(self):
        for mode in ("warp-drive", "perturbation", "gain-map"):
            with pytest.raises(ValueError):
                ExperimentConfig(modes=(mode,))

    @pytest.mark.parametrize("field", ["bin_width", "temperature_k"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_non_positive_value_rejected(self, field, value):
        with pytest.raises(ValueError):
            ExperimentConfig(**{field: value})

    def test_negative_max_sweeps_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(max_sweeps=-1)
        assert ExperimentConfig(max_sweeps=0).max_sweeps == 0

    def test_noise_power_matches_ktb(self):
        cfg = ExperimentConfig()
        assert cfg.sigma2 == pytest.approx(4.9703364e-13, rel=1e-12)


class TestSweepCommand:
    def test_row_cardinality_two_modes(self, small_scene_path, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "sweep",
                "--scene", small_scene_path,
                "--mode", "no-ris",
                "--mode", "onebit-exhaustive",
                "--out", str(out),
                "--reproducible",
            ]
        )
        assert code == 0
        comments, cols = read_csv(out / "sweep.csv")
        assert len(cols["p_dbm"]) == 10  # five power points x two modes
        assert set(cols) == {
            "p_dbm", "p_dbm_per_hz", "mode", "min_rate_bps_hz", "avg_rx_power_db",
        }

    def test_power_density_conversion(self, small_scene_path, tmp_path):
        out = tmp_path / "out"
        main(
            [
                "sweep", "--scene", small_scene_path, "--mode", "no-ris",
                "--power-dbm", "30", "--out", str(out), "--reproducible",
            ]
        )
        _, cols = read_csv(out / "sweep.csv")
        assert cols["p_dbm_per_hz"][0] == pytest.approx(-46.0206, abs=1e-3)

    def test_failed_point_becomes_nan_row(
        self, small_scene_path, tmp_path, monkeypatch
    ):
        import risopt.cli as cli_module

        def broken(ws, mode, p_bs):
            raise cli_module.RisOptError("synthetic per-point failure")

        monkeypatch.setattr(cli_module, "_solve", broken)
        out = tmp_path / "out"
        code = main(
            [
                "sweep", "--scene", small_scene_path, "--mode", "no-ris",
                "--power-dbm", "30", "--out", str(out), "--reproducible",
            ]
        )
        assert code == 0  # the sweep completes; the point is recorded as NaN
        _, cols = read_csv(out / "sweep.csv")
        assert np.isnan(cols["min_rate_bps_hz"][0])

    def test_warm_start_read_once(self, small_scene_path, tmp_path, monkeypatch):
        import risopt.cli as cli_module

        first = tmp_path / "first"
        main(
            [
                "exhaustive", "--scene", small_scene_path,
                "--out", str(first), "--reproducible",
            ]
        )
        loads = []
        real = cli_module.load_ris_config

        def counting(path):
            loads.append(path)
            return real(path)

        monkeypatch.setattr(cli_module, "load_ris_config", counting)
        code = main(
            [
                "sweep", "--scene", small_scene_path, "--mode", "continuous",
                "--ris-config", str(first / "best_config.json"),
                "--power-dbm", "20", "--power-dbm", "30", "--max-sweeps", "1",
                "--out", str(tmp_path / "out"), "--reproducible",
            ]
        )
        assert code == 0
        assert len(loads) == 1


class TestExhaustiveCommand:
    def test_outputs_and_best_config_reloadable(self, small_scene_path, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "exhaustive", "--scene", small_scene_path,
                "--power-dbm", "30", "--out", str(out), "--reproducible",
            ]
        )
        assert code == 0
        _, hist = read_csv(out / "histogram.csv")
        # 4 ports -> 2 column pairs -> 4 configurations
        assert sum(hist["count"]) == 4
        summary = json.loads((out / "summary.json").read_text())
        assert summary["evaluated"] == 4
        config = load_ris_config(out / "best_config.json")
        assert config.control_mode == "column-paired-1bit"
        ranked = json.loads((out / "ranked.json").read_text())
        assert len(ranked["ranked"]) == 4

    def test_every_capped_solve_is_logged(
        self, small_scene_path, tmp_path, monkeypatch, caplog
    ):
        # non-convergence is never silent: one record per capped solve, each
        # of the 4 configurations, the winner and the no-RIS baseline
        import risopt.beamforming as bf

        monkeypatch.setattr(bf, "BALANCE_MAX_ITER", 2)
        code = main(
            ["exhaustive", "--scene", small_scene_path,
             "--out", str(tmp_path / "out"), "--reproducible"]
        )
        assert code == 0
        assert caplog.messages == [
            "power balance stopped after 2 iterations without converging"
        ] * 6
        assert {r.name for r in caplog.records} == {"risopt.beamforming"}


class TestPerturbCommand:
    def test_single_point_grid_single_combination(self, small_scene_path, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "perturb", "--scene", small_scene_path,
                "--offset-x", "0", "--offset-y", "0",
                "--power-dbm", "30", "--out", str(out), "--reproducible",
            ]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["combinations"] == 1
        _, rows = read_csv(out / "improvements.csv")
        assert len(rows["improvement_bps_hz"]) == 1

    def test_combination_column_skips_failed_combination(
        self, small_scene_path, tmp_path, monkeypatch
    ):
        import risopt.optimizer as opt

        # 2 x-offsets, 1 y-offset, 3 users -> 8 combinations; 4 ports -> 2
        # groups, so each combination makes 1 baseline + 4 config solves
        solves_per_combination = 1 + 2**2
        args = [
            "perturb", "--scene", small_scene_path,
            "--offset-x", "0", "--offset-x", "0.01", "--offset-y", "0",
            "--power-dbm", "30", "--reproducible",
        ]
        channels = solved_channels(monkeypatch, opt)
        assert main(args + ["--out", str(tmp_path / "reference")]) == 0
        # the second solve of combination 3
        target = channels[3 * solves_per_combination + 1]
        fail_states(
            monkeypatch, opt, "duality_beamformer",
            lambda h: np.array_equal(h, target), ro.DualityError("synthetic failure"),
        )
        solved = solved_channels(monkeypatch, opt)
        out = tmp_path / "out"
        code = main(args + ["--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["skipped"] == 1
        _, rows = read_csv(out / "improvements.csv")
        assert list(rows["combination"]) == [0, 1, 2, 4, 5, 6, 7]
        # every channel of every combination is solved, combination 3's too
        assert len(solved) == 8 * solves_per_combination

    def test_users_without_a_channel_skip_their_combinations(self, tmp_path, caplog):
        # real failures, nothing patched: every combination that moves user 0
        # to y + 1.0 leaves it with an identically zero channel row, so its
        # chunks are refused by the stacked core and solved state by state
        scene_path = tmp_path / "scene.json"
        save_scene(default_scene(n_ports=4, max_reflection_order=1), scene_path)
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING, logger="risopt.optimizer"):
            code = main(
                [
                    "perturb", "--scene", str(scene_path),
                    "--offset-x", "-0.5", "--offset-x", "0", "--offset-x", "0.5",
                    "--offset-y", "0", "--offset-y", "1.0",
                    "--out", str(out), "--reproducible",
                ]
            )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["combinations"] == 216
        assert summary["skipped"] == 108
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 108
        assert all(
            m == f"combination {r.args[0]} skipped: user 0 has an identically zero channel row"
            for m, r in zip(messages, caplog.records)
        )

    def test_offsets_beyond_the_coordinate_bound_skip_every_combination(
        self, tmp_path, caplog
    ):
        # refused before the tracer's squared distances overflow, which
        # would leak a RuntimeWarning (an error in this suite) and leave
        # each moved user an identically zero channel row
        scene_path = tmp_path / "scene.json"
        save_scene(
            default_scene(n_ports=2, max_reflection_order=1, with_grid=False),
            scene_path,
        )
        out = tmp_path / "out"
        code = main(
            ["perturb", "--scene", str(scene_path), "--offset-x", "1e300",
             "--out", str(out), "--reproducible"]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["combinations"] == summary["skipped"] == 27
        assert caplog.messages == [
            f"combination {r.args[0]} skipped: src or dst has a coordinate beyond 1e+150 m"
            for r in caplog.records
        ]
        assert len(caplog.records) == 27

    def test_non_finite_offset_is_config_error(self, small_scene_path, tmp_path):
        code = main(
            [
                "perturb", "--scene", small_scene_path,
                "--offset-x", "inf", "--offset-y", "0",
                "--out", str(tmp_path / "out"), "--reproducible",
            ]
        )
        assert code == 2
        assert not (tmp_path / "out").exists()

    def test_channels_only_is_config_error(self, tmp_path):
        # perturb re-traces user positions, so it takes no channel file
        comps_path = tmp_path / "channels.json"
        save_components(random_components(np.random.default_rng(0), n=4), comps_path)
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "perturb", "--channels", str(comps_path),
                    "--out", str(tmp_path / "out"), "--reproducible",
                ]
            )
        assert exc.value.code == 2


class TestStackedCore:
    def test_exhaustive_runs_on_the_stacked_core(self, tmp_path, monkeypatch):
        # no chunk of the default scene falls back to the one-state path:
        # the solver takes one channel twice, for the no-RIS baseline and
        # for the winner, and the assembly takes only stacks of load
        # vectors (the winner is assembled by assemble_from_config)
        import risopt.optimizer as opt

        calls = {"duality_beamformer": 0, "assemble_effective_channel": 0}
        for name in calls:
            def counting(*args, name=name, real=getattr(opt, name)):
                calls[name] += not call_states(args, name)[1]
                return real(*args)

            monkeypatch.setattr(opt, name, counting)
        code = main(
            ["exhaustive", "--power-dbm", "30", "--out", str(tmp_path / "out"), "--reproducible"]
        )
        assert code == 0
        assert calls == {"duality_beamformer": 2, "assemble_effective_channel": 0}


class TestWinnerResolve:
    def test_sweep_onebit_solves_each_config_once_and_the_winner_again(
        self, small_scene_path, tmp_path, monkeypatch
    ):
        import risopt.cli as cli_module
        import risopt.optimizer as opt

        # one entry per channel solved, from either module
        solved = [solved_channels(monkeypatch, module) for module in (cli_module, opt)]
        code = main(
            [
                "sweep", "--scene", small_scene_path,
                "--mode", "onebit-exhaustive", "--power-dbm", "20",
                "--power-dbm", "30", "--out", str(tmp_path / "out"),
                "--reproducible",
            ]
        )
        assert code == 0
        # per power: 2**2 configurations, the winner once more and the
        # no-RIS baseline
        assert sum(map(len, solved)) == 2 * (2**2 + 1 + 1)


class TestGainmapCommand:
    def test_one_file_per_beam(self, small_scene_path, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "gainmap", "--scene", small_scene_path,
                "--power-dbm", "30", "--max-sweeps", "1", "--seed", "3",
                "--out", str(out), "--reproducible",
            ]
        )
        assert code == 0
        files = sorted(p.name for p in out.glob("gainmap_beam*.csv"))
        assert files == ["gainmap_beam1.csv", "gainmap_beam2.csv", "gainmap_beam3.csv"]
        _, cols = read_csv(out / "gainmap_beam1.csv")
        assert len(cols["gain_db"]) == 9  # 3x3 grid

    def test_vanishing_power_is_handled_gracefully(self, small_scene_path, tmp_path):
        # the dBm flag cannot express exactly zero watts; an absurdly small
        # budget must still produce finite, floored-at-worst dB values
        out = tmp_path / "out"
        code = main(
            [
                "gainmap", "--scene", small_scene_path, "--mode", "no-ris",
                "--power-dbm", "-400", "--out", str(out), "--reproducible",
            ]
        )
        assert code == 0
        _, cols = read_csv(out / "gainmap_beam1.csv")
        values = np.asarray(cols["gain_db"])
        assert np.all(np.isfinite(values))
        assert np.all(values >= -300.0)

    def test_onebit_gainmap_mode(self, small_scene_path, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "gainmap", "--scene", small_scene_path,
                "--mode", "onebit-exhaustive",
                "--power-dbm", "30", "--out", str(out), "--reproducible",
            ]
        )
        assert code == 0
        _, cols = read_csv(out / "gainmap_beam2.csv")
        assert len(cols["gain_db"]) == 9

    def test_zero_weights_map_to_floor(self, rng):
        # true zero budget is a library-level case: a zero beamformer yields
        # an all-zero linear map, rendered at the -300 dB floor
        from risopt.beamforming import BeamformerMatrix
        from risopt.channel import evaluate_gain_map, gain_map_db

        comps = random_components(rng, k=4, m=3, n=6)
        w = BeamformerMatrix(np.zeros((3, 2), dtype=complex), power_budget=0.0)
        db = gain_map_db(evaluate_gain_map(comps.h_u, w, 0))
        assert np.all(db == -300.0)

    def test_channel_file_of_another_array_is_config_error(
        self, small_scene_path, tmp_path, capsys
    ):
        # the 4-port scene supplies the grid rows, the file a 20-port RIS
        save_components(
            ro.synthesize_components(default_scene()), tmp_path / "channels.json"
        )
        code = main(
            [
                "gainmap", "--scene", small_scene_path,
                "--channels", str(tmp_path / "channels.json"), "--mode", "no-ris",
                "--out", str(tmp_path / "out"), "--reproducible",
            ]
        )
        assert code == 2
        assert "4 ports, the channel file 3 and 20" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_channel_file_at_another_frequency_is_config_error(
        self, small_scene_path, tmp_path, capsys
    ):
        # the same array traced at 6.2 GHz: the grid rows would be traced at
        # the scene's frequency, the loads and the beamformer at the file's
        from risopt.fileio import load_scene

        scene = load_scene(small_scene_path)
        other = replace(scene, frequency=6.2e9)
        save_components(ro.synthesize_components(other), tmp_path / "channels.json")
        code = main(
            [
                "gainmap", "--scene", small_scene_path,
                "--channels", str(tmp_path / "channels.json"),
                "--out", str(tmp_path / "out"), "--reproducible",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"the scene is at {scene.frequency!r} Hz" in err
        assert "the channel file at 6200000000.0 Hz" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("port_side", ["scene", "channel-file"])
    def test_ris_map_uses_the_solved_port_side(
        self, port_side, small_scene_path, tmp_path
    ):
        # oracle: the grid points synthesized as users, with the h_0 and z_ll
        # that the beamformer was solved on (a channel file's, when given)
        from risopt.channel import (
            ChannelComponents,
            assemble_from_config,
            evaluate_gain_map,
            gain_map_db,
        )
        from risopt.coupling import synthesize_mutual_impedance
        from risopt.fileio import load_scene
        from risopt.optimizer import exhaustive_1bit_search
        from risopt.ris import DEFAULT_VARACTOR, column_paired_grouping

        scene = load_scene(small_scene_path)
        comps = ro.synthesize_components(scene)
        argv = ["gainmap", "--scene", small_scene_path]
        if port_side == "channel-file":
            z_ll = synthesize_mutual_impedance(
                4, scene.ris_spacing, scene.frequency, 60.0 + 30.0j
            )
            comps = ChannelComponents(
                comps.h_u, comps.h_0, comps.g_l, z_ll, comps.frequency
            )
            save_components(comps, tmp_path / "channels.json")
            argv += ["--channels", str(tmp_path / "channels.json")]
        out = tmp_path / "out"
        argv += ["--mode", "onebit-exhaustive", "--out", str(out), "--reproducible"]
        assert main(argv) == 0

        result = exhaustive_1bit_search(
            comps, DEFAULT_VARACTOR, column_paired_grouping(4), 1.0,
            ExperimentConfig().sigma2,
        )
        grid = ro.synthesize_components(with_users(scene, scene.grid.points()))
        h = assemble_from_config(
            ChannelComponents(grid.h_u, comps.h_0, grid.g_l, comps.z_ll, comps.frequency),
            DEFAULT_VARACTOR,
            result.best_config,
        ).matrix
        for beam in range(3):
            _, cols = read_csv(out / f"gainmap_beam{beam + 1}.csv")
            want = gain_map_db(evaluate_gain_map(h, result.best_beamformer, beam))
            assert cols["gain_db"] == [float(v) for v in want]


class TestOptimizeCommand:
    def test_report_and_config_emitted(self, small_scene_path, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "optimize", "--scene", small_scene_path,
                "--power-dbm", "30", "--max-sweeps", "2", "--seed", "1",
                "--out", str(out), "--reproducible",
            ]
        )
        assert code == 0
        report = json.loads((out / "optimize_report.json").read_text())
        assert report["mode"] == "continuous"
        assert report["report"]["min_rate"] > 0
        trace = json.loads((out / "optimize_trace.json").read_text())
        assert trace["sweeps_run"] <= 2
        config = load_ris_config(out / "ris_config.json")
        assert config.capacitances.size == 4

    def test_more_users_than_antennas_is_logged_once(self, tmp_path, caplog):
        # K > M depends on the scene alone: the hundreds of solves of an
        # optimize on a 3-user, 2-antenna scene report it once
        import risopt.beamforming as bf

        scene = default_scene(n_ports=4, max_reflection_order=1)
        path = tmp_path / "scene.json"
        save_scene(replace(scene, bs_elements=scene.bs_elements[:2]), path)
        bf._warn_users_exceed_antennas.cache_clear()
        code = main(
            ["optimize", "--scene", str(path), "--power-dbm", "10",
             "--max-sweeps", "2", "--seed", "1",
             "--out", str(tmp_path / "out"), "--reproducible"]
        )
        assert code == 0
        assert [r.getMessage() for r in caplog.records if "exceed" in r.getMessage()] == [
            "K=3 users exceed M=2 antennas; balancing may converge to low SINRs"
        ]

    def test_no_ris_mode_reports_baseline(self, small_scene_path, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "optimize", "--scene", small_scene_path, "--mode", "no-ris",
                "--power-dbm", "30", "--out", str(out), "--reproducible",
            ]
        )
        assert code == 0
        report = json.loads((out / "optimize_report.json").read_text())
        assert report["mode"] == "no-ris"
        assert len(report["beamformer"]["weights"]) == 3  # M rows

    def test_onebit_mode_emits_best_config(self, small_scene_path, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "optimize", "--scene", small_scene_path,
                "--mode", "onebit-exhaustive",
                "--power-dbm", "30", "--out", str(out), "--reproducible",
            ]
        )
        assert code == 0
        config = load_ris_config(out / "ris_config.json")
        assert config.control_mode == "column-paired-1bit"
        report = json.loads((out / "optimize_report.json").read_text())
        assert len(report["best_states"]) == 2

    def test_warm_start_from_config_file(self, small_scene_path, tmp_path):
        out1 = tmp_path / "first"
        main(
            [
                "exhaustive", "--scene", small_scene_path,
                "--power-dbm", "30", "--out", str(out1), "--reproducible",
            ]
        )
        out2 = tmp_path / "second"
        code = main(
            [
                "optimize", "--scene", small_scene_path,
                "--ris-config", str(out1 / "best_config.json"),
                "--power-dbm", "30", "--max-sweeps", "1",
                "--out", str(out2), "--reproducible",
            ]
        )
        assert code == 0
        report = json.loads((out2 / "optimize_report.json").read_text())
        summary = json.loads((out1 / "summary.json").read_text())
        assert (
            report["report"]["min_rate"]
            >= summary["best_min_rate_bps_hz"] - 1e-12
        )


class TestSceneAndChannelCommands:
    def test_scene_trace_paths(self, small_scene_path, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "scene", "trace", "--scene", small_scene_path,
                "--src", "6,-3", "--dst", "1.8,2.38",
                "--out", str(out), "--reproducible",
            ]
        )
        assert code == 0
        doc = json.loads((out / "paths.json").read_text())
        assert doc["paths"][0]["order"] == 0
        lengths = [p["length_m"] for p in doc["paths"]]
        orders = [p["order"] for p in doc["paths"]]
        assert sorted(zip(orders, lengths)) == list(zip(orders, lengths))

    def test_scene_trace_writes_the_traced_paths(self, tmp_path):
        # trace_paths' list is checked against the reference tracer in
        # test_scene.py; paths.json must hold that list unchanged
        out = tmp_path / "out"
        code = main(
            [
                "scene", "trace", "--src", "6,-3", "--dst", "1.8,2.38",
                "--out", str(out), "--reproducible",
            ]
        )
        assert code == 0
        scene = default_scene()
        paths = trace_paths(scene, (6.0, -3.0), (1.8, 2.38), walls=scene.user_walls)
        doc = json.loads((out / "paths.json").read_text())
        assert len(paths) > 1
        assert doc["paths"] == [
            {
                "order": p.order,
                "length_m": p.length,
                "product": [p.product.real, p.product.imag],
                "points": [list(pt) for pt in p.points],
            }
            for p in paths
        ]

    def test_scene_trace_point_with_negative_x(self, tmp_path):
        outs = []
        for src in (["--src", "-0.5,2"], ["--src=-0.5,2"]):
            outs.append(tmp_path / f"out{len(outs)}")
            code = main(
                ["scene", "trace", *src, "--dst", "1.8,2.38",
                 "--out", str(outs[-1]), "--reproducible"]
            )
            assert code == 0, src
        assert json.loads((outs[0] / "paths.json").read_text())["src"] == [-0.5, 2.0]
        assert (outs[0] / "paths.json").read_bytes() == (
            outs[1] / "paths.json"
        ).read_bytes()

    def test_negative_x_point_reaches_the_geometry_check(self, tmp_path, capsys):
        # (-1, 2) lies on the built-in scene's x = -1 wall
        code = main(
            ["scene", "trace", "--src", "-1,2", "--dst", "1.8,2.38",
             "--out", str(tmp_path / "out"), "--reproducible"]
        )
        assert code == 2
        assert "src or dst lies on a wall segment" in capsys.readouterr().err

    def test_negative_numbers_still_parse_as_values(self):
        argv = ["perturb", "--power-dbm", "-10", "--offset-x", "-0.075",
                "--offset-y", "0"]
        assert _attach_points(argv) == argv
        args = build_parser().parse_args(argv)
        assert args.powers_dbm == [-10.0]
        assert args.offsets_x == [-0.075]

    def test_channel_convert_synthesizes_and_validates(
        self, small_scene_path, tmp_path
    ):
        out = tmp_path / "out"
        code = main(
            [
                "channel", "convert", "--scene", small_scene_path,
                "--out", str(out), "--reproducible",
            ]
        )
        assert code == 0
        comps = load_components(out / "channels.json")
        assert comps.dims == (3, 3, 4)
        # converting an existing channel file re-emits it unchanged
        out2 = tmp_path / "out2"
        code = main(
            [
                "channel", "convert", "--channels", str(out / "channels.json"),
                "--out", str(out2), "--reproducible",
            ]
        )
        assert code == 0
        assert (out / "channels.json").read_bytes() == (
            out2 / "channels.json"
        ).read_bytes()


class TestSynthesisCalls:
    @pytest.fixture
    def synth_calls(self, monkeypatch):
        import risopt.cli as cli_module
        import risopt.optimizer as opt

        calls = []
        for module in (cli_module, opt):
            real = module.synthesize_components

            def counting(scene, real=real):
                calls.append(scene)
                return real(scene)

            monkeypatch.setattr(module, "synthesize_components", counting)
        return calls

    def test_no_ris_gainmap_traces_only_the_bs_to_grid_field(
        self, synth_calls, small_scene_path, tmp_path, monkeypatch
    ):
        import risopt.cli as cli_module
        import risopt.scene as scene_module
        from risopt.fileio import load_scene

        traced = []  # (sources, destinations) of every field_matrix call
        real = scene_module.field_matrix

        def recording(scene, sources, dests, walls):
            traced.append((np.asarray(sources), np.asarray(dests)))
            return real(scene, sources, dests, walls)

        for module in (cli_module, scene_module):
            monkeypatch.setattr(module, "field_matrix", recording)
        code = main(
            [
                "gainmap", "--scene", small_scene_path, "--mode", "no-ris",
                "--out", str(tmp_path / "out"), "--reproducible",
            ]
        )
        assert code == 0
        assert len(synth_calls) == 1  # the users' channel, not the grid's
        scene = load_scene(small_scene_path)
        grid = scene.grid.points()
        grid_sources = [
            sources
            for sources, dests in traced
            if dests.shape == grid.shape and np.array_equal(dests, grid)
        ]
        assert len(grid_sources) == 1
        assert np.array_equal(grid_sources[0], scene.bs_elements)

    def test_scene_trace_synthesizes_nothing(self, synth_calls, tmp_path):
        code = main(
            [
                "scene", "trace", "--src", "6,-3", "--dst", "1.8,2.38",
                "--out", str(tmp_path / "out"), "--reproducible",
            ]
        )
        assert code == 0
        assert len(synth_calls) == 0

    def test_one_perturb_combination_synthesizes_once(
        self, synth_calls, small_scene_path, tmp_path
    ):
        # the unmoved scene once, for the 1-bit blocks; the moved users are
        # traced, not synthesized
        code = main(
            [
                "perturb", "--scene", small_scene_path,
                "--offset-x", "0", "--offset-y", "0",
                "--power-dbm", "30", "--out", str(tmp_path / "out"),
                "--reproducible",
            ]
        )
        assert code == 0
        assert len(synth_calls) == 1


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--mode", "perturbation"],
            ["gainmap", "--mode", "gain-map"],
            ["exhaustive", "--mode", "no-ris"],
            ["perturb", "--seed", "3"],
            ["scene", "trace", "--src", "6,-3", "--dst", "1.8,2.38",
             "--power-dbm", "30"],
            ["optimize", "--mode", "no-ris", "--mode", "continuous"],
            ["optimize", "--power-dbm", "10", "--power-dbm", "30"],
        ],
        ids=[
            "unsolved-mode", "gain-map-mode", "exhaustive-mode", "perturb-seed",
            "trace-power", "second-mode", "second-power",
        ],
    )
    def test_flag_the_command_does_not_read_is_usage_error(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out"), "--reproducible"])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_bad_bin_width_rejected_before_any_work(self, tmp_path, monkeypatch):
        import risopt.cli as cli_module

        def unreachable(*args, **kwargs):
            raise AssertionError("workspace built for a rejected configuration")

        monkeypatch.setattr(cli_module, "Workspace", unreachable)
        code = main(
            ["exhaustive", "--bin-width", "0", "--out", str(tmp_path / "out")]
        )
        assert code == 2

    def test_negative_max_sweeps_rejected_before_any_work(
        self, tmp_path, monkeypatch
    ):
        import risopt.cli as cli_module

        def unreachable(*args, **kwargs):
            raise AssertionError("workspace built for a rejected configuration")

        monkeypatch.setattr(cli_module, "Workspace", unreachable)
        code = main(
            [
                "sweep", "--mode", "no-ris", "--mode", "continuous",
                "--max-sweeps", "-1", "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "flag",
        [f for f, spec in FLAGS.items() if spec.get("type") in (float, _parse_point)],
    )
    def test_non_finite_number_flag_rejected_before_any_work(
        self, flag, value, tmp_path, monkeypatch, capsys
    ):
        import risopt.cli as cli_module

        def unreachable(*args, **kwargs):
            raise AssertionError("workspace built for a rejected configuration")

        monkeypatch.setattr(cli_module, "Workspace", unreachable)
        # the first command that reads the flag, with any other flag it requires
        command = next(c for c, (_, flags, _) in COMMANDS.items() if flag in flags)
        given = {f: "1,1" for f in COMMANDS[command][1] if FLAGS[f].get("required")}
        given[flag] = f"{value},0" if FLAGS[flag]["type"] is _parse_point else value
        argv = command.split() + [arg for pair in given.items() for arg in pair]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out), "--reproducible"]) == 2
        assert f"{flag} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_rejected_before_any_work(
        self, tmp_path, monkeypatch, capsys
    ):
        import risopt.cli as cli_module

        def unreachable(*args, **kwargs):
            raise AssertionError("workspace built for a rejected configuration")

        monkeypatch.setattr(cli_module, "Workspace", unreachable)
        code = main(
            [
                "sweep", "--mode", "no-ris", "--mode", "continuous",
                "--seed", "-1", "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "--seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            # 4 rates over about 0.02 bps/Hz need some 21,600 bins of 1e-6
            ["exhaustive", "--bin-width", "1e-6"],
            # one improvement at 1e-300 bps/Hz per bin: an index beyond 2**52
            [
                "perturb", "--offset-x", "0", "--offset-y", "0",
                "--bin-width", "1e-300",
            ],
        ],
    )
    def test_too_fine_bin_width_is_config_error_that_writes_nothing(
        self, argv, small_scene_path, tmp_path, capsys
    ):
        out = tmp_path / "out"
        code = main(
            argv + ["--scene", small_scene_path, "--out", str(out), "--reproducible"]
        )
        assert code == 2
        assert "--bin-width" in capsys.readouterr().err
        assert not out.exists()

    def test_trace_point_on_wall_is_config_error(self, tmp_path, capsys):
        # (1.3, 4) lies on the built-in scene's y = 4 wall
        for flag in ("--src", "--dst"):
            points = {"--src": "6,-3", "--dst": "1.8,2.38", flag: "1.3,4"}
            code = main(
                [
                    "scene", "trace", "--src", points["--src"],
                    "--dst", points["--dst"], "--out", str(tmp_path / "out"),
                    "--reproducible",
                ]
            )
            assert code == 2
            assert "lies on a wall" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_user_on_wall_is_config_error(self, tmp_path, capsys):
        scene = default_scene(n_ports=4, max_reflection_order=1, with_grid=False)
        users = scene.user_positions.copy()
        users[0] = (1.3, 4.0)  # on the y = 4 wall
        path = tmp_path / "scene.json"
        save_scene(with_users(scene, users), path)
        code = main(
            [
                "exhaustive", "--scene", str(path),
                "--out", str(tmp_path / "out"), "--reproducible",
            ]
        )
        assert code == 2
        assert "lies on a wall" in capsys.readouterr().err

    @pytest.mark.parametrize("frequency", [0, -1])
    def test_non_positive_scene_frequency_is_config_error(
        self, frequency, small_scene_path, tmp_path, capsys
    ):
        with pytest.raises(ValueError, match="frequency_hz"):
            wavelength(frequency)
        doc = json.loads(open(small_scene_path).read())
        doc["frequency_hz"] = frequency
        path = tmp_path / "bad_scene.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = main(
            ["channel", "convert", "--scene", str(path), "--out", str(out)]
        )
        assert code == 2
        assert "frequency_hz must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("frequency", [0, -1])
    def test_non_positive_channel_file_frequency_names_its_field(
        self, frequency, small_scene_path, tmp_path, capsys
    ):
        comps = tmp_path / "channels.json"
        main(["channel", "convert", "--scene", small_scene_path, "--out", str(tmp_path)])
        doc = json.loads(comps.read_text())
        doc["frequency_hz"] = frequency
        comps.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = main(["channel", "convert", "--channels", str(comps), "--out", str(out)])
        assert code == 2
        assert (
            "field 'frequency_hz': frequency_hz must be positive"
            in capsys.readouterr().err
        )
        assert not out.exists()

    def test_trace_point_beyond_the_coordinate_bound_is_config_error(
        self, tmp_path, capsys
    ):
        # its squared distances would overflow: refused, not traced as "no path"
        out = tmp_path / "out"
        code = main(
            ["scene", "trace", "--src", "1e300,0", "--dst", "1,1",
             "--out", str(out), "--reproducible"]
        )
        assert code == 2
        assert "src or dst has a coordinate beyond 1e+150 m" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("power", ["4000", "1e308", "-4000"])
    def test_out_of_range_power_rejected_before_any_work(
        self, power, tmp_path, monkeypatch, capsys
    ):
        import risopt.cli as cli_module

        def unreachable(*args, **kwargs):
            raise AssertionError("workspace built for a rejected configuration")

        monkeypatch.setattr(cli_module, "Workspace", unreachable)
        out = tmp_path / "out"
        code = main(
            ["sweep", "--mode", "no-ris", "--power-dbm", power, "--out", str(out)]
        )
        assert code == 2
        assert "--power-dbm must give a finite power" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("factor", ["1e300", "1e-300"])
    @pytest.mark.parametrize("command", ["exhaustive", "sweep"])
    def test_noise_power_out_of_range_rejected_before_any_work(
        self, command, factor, tmp_path, monkeypatch, capsys
    ):
        # k*T*B of these finite flags overflows to inf or underflows to 0
        import risopt.cli as cli_module

        def unreachable(*args, **kwargs):
            raise AssertionError("workspace built for a rejected configuration")

        monkeypatch.setattr(cli_module, "Workspace", unreachable)
        out = tmp_path / "out"
        code = main(
            [command, "--temperature-k", factor, "--bandwidth-hz", factor,
             "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--temperature-k and --bandwidth-hz" in err
        assert "not a positive finite number" in err
        assert not out.exists()

    def test_underflowed_uplink_power_is_a_numerical_failure(
        self, small_scene_path, tmp_path, capsys, caplog
    ):
        # at -2500 dBm the noise power is about 1e240 times the budget and
        # the balance loses a user's uplink power to underflow: exhaustive
        # fails every configuration, and a sweep writes its NaN row
        out = tmp_path / "out"
        code = main(
            ["exhaustive", "--scene", small_scene_path, "--power-dbm", "-2500",
             "--out", str(out / "exhaustive"), "--reproducible"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "every 1-bit configuration failed to evaluate" in err
        caplog.clear()
        code = main(
            ["sweep", "--scene", small_scene_path, "--mode", "no-ris",
             "--power-dbm", "-2500", "--out", str(out / "sweep"), "--reproducible"]
        )
        assert code == 0
        failed = [r.getMessage() for r in caplog.records if r.name == "risopt.cli"]
        assert len(failed) == 1
        assert failed[0].startswith("sweep point p=-2500.0 dBm mode=no-ris failed: ")
        assert "underflowed to zero during balancing" in failed[0]
        err = capsys.readouterr().err + "\n".join(caplog.messages)
        assert "infs or NaNs" not in err
        _, cols = read_csv(out / "sweep" / "sweep.csv")
        assert np.isnan(cols["min_rate_bps_hz"]).all()

    @pytest.mark.parametrize("command", ["optimize", "sweep", "gainmap"])
    def test_ris_config_of_the_wrong_size_is_config_error(
        self, command, small_scene_path, tmp_path, capsys
    ):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps({"mode": "continuous-per-element", "capacitances_pf": [0.5] * 3})
        )
        out = tmp_path / "out"
        code = main(
            [command, "--scene", small_scene_path, "--ris-config", str(path),
             "--out", str(out), "--reproducible"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"--ris-config {path} holds 3 capacitances" in err
        assert "the channel has 4 RIS ports" in err
        assert not out.exists()

    @pytest.mark.parametrize("below", [None, "sub"], ids=["file", "under-a-file"])
    def test_out_that_cannot_be_a_directory_is_refused_before_any_work(
        self, below, tmp_path, monkeypatch, capsys
    ):
        import risopt.cli as cli_module

        solved = solved_channels(monkeypatch, cli_module)
        afile = tmp_path / "afile"
        afile.write_text("")
        out = afile / below if below else afile
        code = main(["sweep", "--mode", "no-ris", "--power-dbm", "30", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: --out {out}: {afile} is not a directory\n"
        assert solved == []
        assert list(tmp_path.iterdir()) == [afile]
        assert afile.read_text() == ""

    def test_out_that_becomes_a_file_is_config_error(
        self, small_scene_path, tmp_path, monkeypatch, capsys
    ):
        # a file that takes the --out path during the run is refused when
        # the output directory is made
        import risopt.cli as cli_module

        out = tmp_path / "out"
        real = cli_module.duality_beamformer

        def solve_then_take_out(*args):
            out.write_text("")
            return real(*args)

        monkeypatch.setattr(cli_module, "duality_beamformer", solve_then_take_out)
        code = main(
            ["sweep", "--scene", small_scene_path, "--mode", "no-ris",
             "--power-dbm", "30", "--out", str(out), "--reproducible"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: --out {out}: ")
        assert out.read_text() == ""

    def test_missing_scene_file_is_config_error(self, tmp_path):
        code = main(
            ["sweep", "--scene", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "doc",
        [
            [1, 2],
            {"mode": "continuous-per-element", "capacitances_pf": [0.5] * 4,
             "groups": [1]},
            {"mode": "continuous-per-element", "capacitances_pf": [0.5] * 4,
             "c_on_pf": 0.6},
        ],
        ids=["list", "groups-list", "other-on-state"],
    )
    def test_malformed_ris_config_is_config_error(
        self, doc, small_scene_path, tmp_path, capsys
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        code = main(
            [
                "optimize", "--scene", small_scene_path, "--mode", "no-ris",
                "--ris-config", str(path), "--out", str(tmp_path / "out"),
                "--reproducible",
            ]
        )
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_corrupt_channel_file_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code = main(["sweep", "--channels", str(bad), "--out", str(tmp_path)])
        assert code == 2

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        import risopt.cli as cli_module

        def boom(*args, **kwargs):
            raise cli_module.RisOptError("synthetic failure")

        monkeypatch.setitem(
            {}, "placeholder", None
        )  # keep monkeypatch fixture engaged
        monkeypatch.setattr(cli_module, "run_power_sweep", boom)
        code = main(["sweep", "--out", str(tmp_path / "o"), "--reproducible"])
        assert code == 3


class TestReproducibility:
    def test_sweep_byte_identical(self, small_scene_path, tmp_path):
        args = [
            "sweep", "--scene", small_scene_path, "--mode", "no-ris",
            "--power-dbm", "20", "--reproducible",
        ]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (
            tmp_path / "b" / "sweep.csv"
        ).read_bytes()

    def test_without_reproducible_flag_header_has_timestamp(
        self, small_scene_path, tmp_path
    ):
        main(
            [
                "sweep", "--scene", small_scene_path, "--mode", "no-ris",
                "--power-dbm", "20", "--out", str(tmp_path / "a"),
            ]
        )
        comments, _ = read_csv(tmp_path / "a" / "sweep.csv")
        assert any("generated" in c for c in comments)
