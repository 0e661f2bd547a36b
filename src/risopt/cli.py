"""Batch experiment commands.

Subcommands: ``scene trace``, ``channel convert``, ``optimize``, ``sweep``,
``exhaustive``, ``perturb``, ``gainmap``.  Every command writes plot-ready
CSV/JSON files into the output directory; with --reproducible the volatile
timestamp header is suppressed so repeated runs are byte-identical.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from dataclasses import dataclass

from .beamforming import duality_beamformer, noise_power
from .channel import GAIN_FLOOR_DB, evaluate_gain_map, gain_map_db
from .errors import ChannelFileError, RisOptError, SceneFileError
from .fileio import (
    atomic_write_text,
    load_components,
    load_ris_config,
    load_scene,
    load_varactor_model,
    save_components,
    save_ris_config,
    write_csv,
)
from .optimizer import (
    DEFAULT_HISTOGRAM_BIN,
    DEFAULT_OFFSETS_X,
    DEFAULT_OFFSETS_Y,
    BcdSettings,
    alternating_optimize,
    exhaustive_1bit_search,
    perturbation_study,
    user_offset_grid,
)
from .ris import DEFAULT_VARACTOR, column_paired_grouping, identity_grouping, load_impedances
from .scene import default_scene, grid_scene, synthesize_components, trace_paths

MODES = ("no-ris", "continuous", "onebit-exhaustive", "perturbation", "gain-map")

DEFAULT_POWERS_DBM = (10.0, 15.0, 20.0, 25.0, 30.0)
DEFAULT_BANDWIDTH = 40e6  # Hz
DEFAULT_TEMPERATURE = 900.0  # K


@dataclass
class ExperimentConfig:
    """Resolved inputs for one command invocation."""

    scene_path: str | None = None
    channels_path: str | None = None
    ris_config_path: str | None = None
    varactor_path: str | None = None
    modes: tuple = ("no-ris",)
    powers_dbm: tuple = DEFAULT_POWERS_DBM
    bandwidth_hz: float = DEFAULT_BANDWIDTH
    temperature_k: float = DEFAULT_TEMPERATURE
    seed: int = 0
    out_dir: str = "risopt-out"
    reproducible: bool = False
    max_sweeps: int = BcdSettings().t_g
    eps_g: float = BcdSettings().eps_g
    bin_width: float = DEFAULT_HISTOGRAM_BIN
    offsets_x: tuple = DEFAULT_OFFSETS_X
    offsets_y: tuple = DEFAULT_OFFSETS_Y
    src: tuple | None = None
    dst: tuple | None = None

    def __post_init__(self):
        if not self.powers_dbm:
            raise ValueError("power list must be nonempty")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth must be positive")
        for mode in self.modes:
            if mode not in MODES:
                raise ValueError(f"unrecognized mode {mode!r}; choose from {MODES}")

    @property
    def sigma2(self) -> float:
        return noise_power(self.temperature_k, self.bandwidth_hz)

    def powers_watts(self) -> list:
        return [10.0 ** ((p - 30.0) / 10.0) for p in self.powers_dbm]


def _dbm_per_hz(p_dbm: float, bandwidth: float) -> float:
    return p_dbm - 10.0 * math.log10(bandwidth)


def _power_db(value: float) -> float:
    if value <= 0:
        return GAIN_FLOOR_DB
    return max(10.0 * math.log10(value), GAIN_FLOOR_DB)


class Workspace:
    """Shared setup: scene/components/model resolution and file emission."""

    def __init__(self, cfg: ExperimentConfig, need_scene: bool = False):
        self.cfg = cfg
        self.model = (
            load_varactor_model(cfg.varactor_path)
            if cfg.varactor_path
            else DEFAULT_VARACTOR
        )
        self.scene = None
        self.components = None
        if cfg.scene_path:
            self.scene = load_scene(cfg.scene_path)
        if cfg.channels_path:
            self.components = load_components(cfg.channels_path)
            if need_scene and self.scene is None:
                raise SceneFileError(
                    "this command re-traces user positions and needs --scene, "
                    "not only --channels"
                )
        if self.scene is None and self.components is None:
            self.scene = default_scene()
        if self.components is None:
            self.components = synthesize_components(self.scene)

    def grouping_pairs(self) -> dict:
        _, _, n = self.components.dims
        if n % 2 == 0:
            return column_paired_grouping(n)
        return identity_grouping(n)

    def grouping_columns(self) -> dict:
        _, _, n = self.components.dims
        return identity_grouping(n)

    def header(self, command: str) -> list:
        lines = [f"risopt {command}"]
        if not self.cfg.reproducible:
            lines.append(
                "generated: " + datetime.datetime.now().isoformat(timespec="seconds")
            )
        return lines

    def out_path(self, name: str) -> str:
        os.makedirs(self.cfg.out_dir, exist_ok=True)
        return os.path.join(self.cfg.out_dir, name)

    def write_json(self, name: str, payload: dict, command: str) -> str:
        doc = {"header": self.header(command), **payload}
        path = self.out_path(name)
        atomic_write_text(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")
        return path


def _settings(cfg: ExperimentConfig) -> BcdSettings:
    return BcdSettings(t_g=cfg.max_sweeps, eps_g=cfg.eps_g, rng_seed=cfg.seed)


def _optimize_continuous(ws: Workspace, p_bs: float):
    cfg = ws.cfg
    if cfg.ris_config_path:
        initial = load_ris_config(cfg.ris_config_path)
        trace = alternating_optimize(
            ws.components, ws.model, initial, p_bs, cfg.sigma2, _settings(cfg)
        )
    else:
        trace = alternating_optimize(
            ws.components,
            ws.model,
            None,
            p_bs,
            cfg.sigma2,
            _settings(cfg),
            grouping=ws.grouping_columns(),
        )
    return trace


def _mode_report(ws: Workspace, mode: str, p_bs: float):
    """(min_rate bps/Hz, avg received power, extra dict) for one mode."""
    cfg = ws.cfg
    if mode == "no-ris":
        _, report = duality_beamformer(ws.components.h_u, p_bs, cfg.sigma2)
        return report.min_rate, report.avg_received_power, {}
    if mode == "continuous":
        trace = _optimize_continuous(ws, p_bs)
        report = trace.final_report
        return report.min_rate, report.avg_received_power, {"sweeps": trace.sweeps_run}
    if mode == "onebit-exhaustive":
        result = exhaustive_1bit_search(
            ws.components,
            ws.model,
            ws.grouping_pairs(),
            p_bs,
            cfg.sigma2,
            bin_width=cfg.bin_width,
        )
        report = result.best_report
        return (
            report.min_rate,
            report.avg_received_power,
            {"best_states": list(result.best_states)},
        )
    raise ValueError(f"mode {mode!r} is not a sweep mode")


def run_power_sweep(ws: Workspace) -> list:
    """R_min and received power per (power level, mode); NaN rows on failure."""
    cfg = ws.cfg
    cols = {
        "p_dbm": [],
        "p_dbm_per_hz": [],
        "mode": [],
        "min_rate_bps_hz": [],
        "avg_rx_power_db": [],
    }
    for p_dbm, p_bs in zip(cfg.powers_dbm, cfg.powers_watts()):
        for mode in cfg.modes:
            try:
                min_rate, rx_power, _ = _mode_report(ws, mode, p_bs)
                rx_db = _power_db(rx_power)
            except RisOptError as exc:
                print(
                    f"sweep point p={p_dbm} dBm mode={mode} failed: {exc}",
                    file=sys.stderr,
                )
                min_rate, rx_db = float("nan"), float("nan")
            cols["p_dbm"].append(float(p_dbm))
            cols["p_dbm_per_hz"].append(_dbm_per_hz(p_dbm, cfg.bandwidth_hz))
            cols["mode"].append(mode)
            cols["min_rate_bps_hz"].append(float(min_rate))
            cols["avg_rx_power_db"].append(float(rx_db))
    comments = ws.header("sweep") + [
        "min_rate_bps_hz: worst per-user rate log2(1+SINR)",
        "avg_rx_power_db: 10*log10(mean over users of total received signal "
        "power sum_j |y_kj|^2), channels normalized to unit transmit amplitude",
    ]
    path = ws.out_path("sweep.csv")
    write_csv(path, cols, comments)
    return [path]


def _histogram_csv(ws, name, histogram, command, extra_comments=()):
    cols = {
        "bin_left": [float(left) for left, _, _ in histogram],
        "bin_right": [float(right) for _, right, _ in histogram],
        "count": [int(count) for _, _, count in histogram],
    }
    path = ws.out_path(name)
    write_csv(path, cols, ws.header(command) + list(extra_comments))
    return path


def run_exhaustive(ws: Workspace) -> list:
    cfg = ws.cfg
    p_bs = cfg.powers_watts()[-1]
    result = exhaustive_1bit_search(
        ws.components,
        ws.model,
        ws.grouping_pairs(),
        p_bs,
        cfg.sigma2,
        bin_width=cfg.bin_width,
    )
    files = []
    files.append(
        _histogram_csv(
            ws,
            "histogram.csv",
            result.histogram,
            "exhaustive",
            (f"bin width {cfg.bin_width} bps/Hz over min achievable rate",),
        )
    )
    ranked_payload = {
        "ranked": [
            {"states": list(states), "min_rate_bps_hz": rate}
            for states, rate in result.ranked
        ],
        "failures": result.failures,
    }
    files.append(ws.write_json("ranked.json", ranked_payload, "exhaustive"))
    best_path = ws.out_path("best_config.json")
    save_ris_config(result.best_config, best_path)
    files.append(best_path)
    summary = {
        "evaluated": len(result.ranked),
        "failures": result.failures,
        "best_states": list(result.best_states),
        "best_min_rate_bps_hz": result.best_min_rate,
        "baseline_min_rate_bps_hz": result.baseline_min_rate,
        "fraction_beating_baseline": result.fraction_beating_baseline,
        "p_dbm": cfg.powers_dbm[-1],
    }
    files.append(ws.write_json("summary.json", summary, "exhaustive"))
    return files


def run_perturbation(ws: Workspace) -> list:
    cfg = ws.cfg
    if ws.scene is None:
        raise SceneFileError("perturb needs a scene (user positions are re-traced)")
    p_bs = cfg.powers_watts()[-1]
    offsets = user_offset_grid(cfg.offsets_x, cfg.offsets_y)
    result = perturbation_study(
        ws.scene,
        ws.model,
        ws.grouping_pairs(),
        p_bs,
        cfg.sigma2,
        offsets=offsets,
        bin_width=cfg.bin_width,
    )
    files = []
    cols = {
        "combination": result.combination_indices,
        "improvement_bps_hz": [float(v) for v in result.improvements],
    }
    path = ws.out_path("improvements.csv")
    write_csv(
        path,
        cols,
        ws.header("perturb")
        + [
            "improvement: best 1-bit min rate minus no-RIS min rate per combination",
            "combination: index in itertools.product order of the per-user "
            "offset indices; skipped combinations have no row",
        ],
    )
    files.append(path)
    files.append(
        _histogram_csv(ws, "histogram.csv", result.histogram, "perturb")
    )
    files.append(ws.write_json("summary.json", result.summary, "perturb"))
    return files


def run_gain_map(ws: Workspace) -> list:
    cfg = ws.cfg
    if ws.scene is None or ws.scene.grid is None:
        raise SceneFileError("gainmap needs a scene with an observation grid")
    p_bs = cfg.powers_watts()[-1]
    mode = cfg.modes[0]
    if mode == "no-ris":
        beamformer, _ = duality_beamformer(ws.components.h_u, p_bs, cfg.sigma2)
        z_loads = None
    elif mode == "onebit-exhaustive":
        result = exhaustive_1bit_search(
            ws.components,
            ws.model,
            ws.grouping_pairs(),
            p_bs,
            cfg.sigma2,
        )
        beamformer = result.best_beamformer
        z_loads = load_impedances(
            ws.model, result.best_config, ws.components.frequency
        )
    else:
        trace = _optimize_continuous(ws, p_bs)
        beamformer = trace.final_beamformer
        z_loads = load_impedances(
            ws.model, trace.final_config, ws.components.frequency
        )
    grid_components = synthesize_components(grid_scene(ws.scene))
    points = ws.scene.grid.points()
    k_users = ws.components.dims[0]
    files = []
    for beam in range(k_users):
        gains = evaluate_gain_map(grid_components, z_loads, beamformer, beam)
        db = gain_map_db(gains)
        cols = {
            "x_m": [float(x) for x, _ in points],
            "y_m": [float(y) for _, y in points],
            "gain_db": [float(g) for g in db],
        }
        path = ws.out_path(f"gainmap_beam{beam + 1}.csv")
        write_csv(
            path,
            cols,
            ws.header("gainmap")
            + [
                f"beam {beam + 1} of {k_users}, mode {mode}",
                "gain_db: 10*log10(|h_eff . w_k|^2 / power_budget), "
                f"floor {GAIN_FLOOR_DB} dB",
            ],
        )
        files.append(path)
    return files


def run_optimize(ws: Workspace) -> list:
    cfg = ws.cfg
    p_bs = cfg.powers_watts()[-1]
    mode = cfg.modes[0]
    files = []
    if mode == "no-ris":
        beamformer, report = duality_beamformer(ws.components.h_u, p_bs, cfg.sigma2)
        payload = {
            "mode": mode,
            "p_dbm": cfg.powers_dbm[-1],
            "report": report.to_dict(),
            "beamformer": _beamformer_payload(beamformer),
        }
        files.append(ws.write_json("optimize_report.json", payload, "optimize"))
        return files
    if mode == "onebit-exhaustive":
        result = exhaustive_1bit_search(
            ws.components,
            ws.model,
            ws.grouping_pairs(),
            p_bs,
            cfg.sigma2,
        )
        best_path = ws.out_path("ris_config.json")
        save_ris_config(result.best_config, best_path)
        files.append(best_path)
        payload = {
            "mode": mode,
            "p_dbm": cfg.powers_dbm[-1],
            "best_states": list(result.best_states),
            "best_min_rate_bps_hz": result.best_min_rate,
            "baseline_min_rate_bps_hz": result.baseline_min_rate,
        }
        files.append(ws.write_json("optimize_report.json", payload, "optimize"))
        return files
    trace = _optimize_continuous(ws, p_bs)
    config_path = ws.out_path("ris_config.json")
    save_ris_config(trace.final_config, config_path)
    files.append(config_path)
    files.append(ws.write_json("optimize_trace.json", trace.to_dict(), "optimize"))
    payload = {
        "mode": mode,
        "p_dbm": cfg.powers_dbm[-1],
        "report": trace.final_report.to_dict(),
        "beamformer": _beamformer_payload(trace.final_beamformer),
    }
    files.append(ws.write_json("optimize_report.json", payload, "optimize"))
    return files


def _beamformer_payload(beamformer) -> dict:
    return {
        "power_budget_w": float(beamformer.power_budget),
        "weights": [
            [[float(z.real), float(z.imag)] for z in row]
            for row in beamformer.weights
        ],
    }


def run_scene_trace(ws: Workspace) -> list:
    cfg = ws.cfg
    if cfg.src is None or cfg.dst is None:
        raise SceneFileError("scene trace needs --src and --dst points")
    scene = ws.scene if ws.scene is not None else default_scene()
    walls = scene.walls + (
        (scene.unloaded_panel,) if scene.unloaded_panel is not None else ()
    )
    paths = trace_paths(scene, cfg.src, cfg.dst, walls=walls)
    payload = {
        "src": list(cfg.src),
        "dst": list(cfg.dst),
        "max_order": scene.max_reflection_order,
        "paths": [
            {
                "order": p.order,
                "length_m": p.length,
                "product": [float(p.product.real), float(p.product.imag)],
                "points": [list(pt) for pt in p.points],
            }
            for p in paths
        ],
    }
    return [ws.write_json("paths.json", payload, "scene trace")]


def run_channel_convert(ws: Workspace) -> list:
    path = ws.out_path("channels.json")
    save_components(ws.components, path)
    return [path]


def _parse_point(text: str) -> tuple:
    try:
        x, y = text.split(",")
        return (float(x), float(y))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a point as 'x,y', got {text!r}"
        ) from exc


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scene", help="scene JSON file (default: built-in scene)")
    parser.add_argument("--channels", help="channel components JSON file")
    parser.add_argument("--ris-config", help="RIS configuration JSON (warm start)")
    parser.add_argument("--varactor", help="varactor model JSON file")
    parser.add_argument(
        "--mode",
        action="append",
        choices=MODES,
        help="evaluation mode; repeatable for sweep",
    )
    parser.add_argument(
        "--power-dbm",
        action="append",
        type=float,
        help="total transmit power in dBm; repeatable (default 10..30 step 5)",
    )
    parser.add_argument("--bandwidth-hz", type=float, default=DEFAULT_BANDWIDTH)
    parser.add_argument("--temperature-k", type=float, default=DEFAULT_TEMPERATURE)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="risopt-out", help="output directory")
    parser.add_argument(
        "--reproducible",
        action="store_true",
        help="suppress volatile headers so reruns are byte-identical",
    )
    parser.add_argument(
        "--max-sweeps",
        type=int,
        default=BcdSettings().t_g,
        help="coordinate-sweep budget for continuous optimization",
    )
    parser.add_argument(
        "--eps-g",
        type=float,
        default=BcdSettings().eps_g,
        help="per-sweep improvement threshold stopping the optimizer "
        "(default keeps sweeping until the budget or zero progress; "
        "1e-9 is a practical alternative)",
    )
    parser.add_argument("--bin-width", type=float, default=DEFAULT_HISTOGRAM_BIN)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risopt",
        description="RIS-assisted MU-MISO modeling and max-min rate optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scene_cmd = sub.add_parser("scene", help="scene utilities")
    scene_sub = scene_cmd.add_subparsers(dest="subcommand", required=True)
    trace_cmd = scene_sub.add_parser("trace", help="trace specular paths")
    _common_flags(trace_cmd)
    trace_cmd.add_argument("--src", type=_parse_point, required=True)
    trace_cmd.add_argument("--dst", type=_parse_point, required=True)

    channel_cmd = sub.add_parser("channel", help="channel file utilities")
    channel_sub = channel_cmd.add_subparsers(dest="subcommand", required=True)
    convert_cmd = channel_sub.add_parser(
        "convert", help="synthesize or re-validate a channel file"
    )
    _common_flags(convert_cmd)

    for name, help_text in (
        ("optimize", "optimize the RIS configuration and beamformer"),
        ("sweep", "rate vs transmit power table"),
        ("exhaustive", "evaluate all 1-bit configurations"),
        ("perturb", "user-location perturbation study"),
        ("gainmap", "spatial gain maps per beam"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        _common_flags(cmd)
        if name == "perturb":
            for axis, default in (("x", DEFAULT_OFFSETS_X), ("y", DEFAULT_OFFSETS_Y)):
                cmd.add_argument(
                    f"--offset-{axis}",
                    action="append",
                    type=float,
                    help=f"per-user {axis} offset grid, repeatable "
                    f"(default {' '.join(f'{v:g}' for v in default)})",
                )
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    modes = tuple(args.mode) if args.mode else None
    command = args.command
    if modes is None:
        if command == "sweep":
            modes = ("no-ris",)
        elif command in ("optimize", "gainmap"):
            modes = ("continuous",)
        elif command == "exhaustive":
            modes = ("onebit-exhaustive",)
        elif command == "perturb":
            modes = ("perturbation",)
        else:
            modes = ("no-ris",)
    return ExperimentConfig(
        scene_path=args.scene,
        channels_path=args.channels,
        ris_config_path=getattr(args, "ris_config", None),
        varactor_path=getattr(args, "varactor", None),
        modes=modes,
        powers_dbm=tuple(args.power_dbm) if args.power_dbm else DEFAULT_POWERS_DBM,
        bandwidth_hz=args.bandwidth_hz,
        temperature_k=args.temperature_k,
        seed=args.seed,
        out_dir=args.out,
        reproducible=args.reproducible,
        max_sweeps=args.max_sweeps,
        eps_g=args.eps_g,
        bin_width=args.bin_width,
        offsets_x=tuple(getattr(args, "offset_x", None) or DEFAULT_OFFSETS_X),
        offsets_y=tuple(getattr(args, "offset_y", None) or DEFAULT_OFFSETS_Y),
        src=getattr(args, "src", None),
        dst=getattr(args, "dst", None),
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    command = args.command
    if command == "scene":
        command = "scene trace"
    elif command == "channel":
        command = "channel convert"

    need_scene = command in ("perturb", "gainmap", "scene trace")
    try:
        ws = Workspace(cfg, need_scene=need_scene)
        runner = {
            "scene trace": run_scene_trace,
            "channel convert": run_channel_convert,
            "optimize": run_optimize,
            "sweep": run_power_sweep,
            "exhaustive": run_exhaustive,
            "perturb": run_perturbation,
            "gainmap": run_gain_map,
        }[command]
        files = runner(ws)
    except (SceneFileError, ChannelFileError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except RisOptError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    for path in files:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
