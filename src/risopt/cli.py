"""Batch experiment commands.

Subcommands and the flags each one reads (every command also takes ``--out``
and ``--reproducible``; any other flag is a usage error):

    scene trace       --scene --src --dst
    channel convert   --scene --channels
    exhaustive        --scene --channels --varactor --power-dbm
                      --bandwidth-hz --temperature-k --bin-width
    perturb           --scene --varactor --power-dbm --bandwidth-hz
                      --temperature-k --bin-width --offset-x --offset-y
    sweep, optimize,  --scene --channels --ris-config --varactor --mode
    gainmap           --power-dbm --bandwidth-hz --temperature-k --seed
                      --max-sweeps

``--mode`` is one of ``no-ris``, ``continuous`` and ``onebit-exhaustive``.
``sweep`` repeats ``--mode`` (default ``no-ris``) and ``--power-dbm``
(default 10..30 dBm step 5).  ``optimize`` and ``gainmap`` take one mode
(default ``continuous``); they, ``exhaustive`` and ``perturb`` take one power
(default 30 dBm, the top of the sweep's list).  ``perturb`` repeats
``--offset-x`` and ``--offset-y``.  Each command's default mode lives in
``DEFAULT_MODES`` and every other default on ``ExperimentConfig``, including
the sweep budget and the histogram bin width, which the library's
``BcdSettings`` and ``rate_histogram`` do not default; a flag that is not
given leaves the default.

Every command writes plot-ready CSV/JSON files into the output directory;
with --reproducible the volatile timestamp header is suppressed so repeated
runs are byte-identical.

Exit codes: 0 success, 2 configuration error (a rejected scene geometry, such
as a point on a wall, a non-finite number flag, a negative ``--seed`` and an
``--out`` that cannot become a directory included), 3 numerical failure.  A
non-fatal event (a capped balance, a failed sweep point) only logs a line.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import logging
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .beamforming import duality_beamformer, noise_power
from .channel import (
    GAIN_FLOOR_DB,
    assemble_from_config,
    evaluate_gain_map,
    gain_map_db,
)
from .errors import ChannelFileError, GeometryError, RisOptError, SceneFileError
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
    DEFAULT_OFFSETS_X,
    DEFAULT_OFFSETS_Y,
    BcdSettings,
    ExhaustiveResult,
    OptimizationTrace,
    alternating_optimize,
    exhaustive_1bit_search,
    perturbation_study,
    rate_histogram,
    user_offset_grid,
)
from .ris import DEFAULT_VARACTOR, column_paired_grouping, identity_grouping
from .scene import (
    default_scene,
    field_matrix,
    synthesize_components,
    trace_paths,
    trace_users,
)

logger = logging.getLogger(__name__)

MODES = ("no-ris", "continuous", "onebit-exhaustive")
DEFAULT_MODES = {"sweep": "no-ris", "optimize": "continuous", "gainmap": "continuous"}

DEFAULT_POWERS_DBM = (10.0, 15.0, 20.0, 25.0, 30.0)
DEFAULT_BANDWIDTH = 40e6  # Hz
DEFAULT_TEMPERATURE = 900.0  # K
DEFAULT_MAX_SWEEPS = 50  # coordinate-ascent sweep budget
DEFAULT_HISTOGRAM_BIN = 0.05  # bps/Hz


@dataclass
class ExperimentConfig:
    """Resolved inputs for one command invocation."""

    scene_path: str | None = None
    channels_path: str | None = None
    ris_config_path: str | None = None
    varactor_path: str | None = None
    modes: tuple = (DEFAULT_MODES["sweep"],)
    powers_dbm: tuple = DEFAULT_POWERS_DBM
    bandwidth_hz: float = DEFAULT_BANDWIDTH
    temperature_k: float = DEFAULT_TEMPERATURE
    seed: int = BcdSettings.rng_seed
    out_dir: str = "risopt-out"
    reproducible: bool = False
    max_sweeps: int = DEFAULT_MAX_SWEEPS
    bin_width: float = DEFAULT_HISTOGRAM_BIN
    offsets_x: tuple = DEFAULT_OFFSETS_X
    offsets_y: tuple = DEFAULT_OFFSETS_Y
    src: tuple | None = None
    dst: tuple | None = None

    def __post_init__(self):
        # every number a flag parses (float or point) must be finite
        for flag, spec in FLAGS.items():
            value = getattr(self, spec.get("dest", flag[2:].replace("-", "_")))
            if spec.get("type") in (float, _parse_point) and value is not None:
                if not np.isfinite(value).all():
                    raise ValueError(f"{flag} must be finite, got {value}")
        if not self.powers_dbm:
            raise ValueError("power list must be nonempty")
        try:
            valid = all(0 < w < math.inf for w in self.powers_watts())
        except OverflowError:  # 10 ** x beyond the float range
            valid = False
        if not valid:
            raise ValueError(
                "--power-dbm must give a finite power above 0 W, "
                f"got {list(self.powers_dbm)} dBm"
            )
        try:  # both positive, and k*T*B neither overflows nor underflows
            self.sigma2
        except ValueError as exc:
            raise ValueError(f"--temperature-k and --bandwidth-hz: {exc}") from exc
        if self.bin_width <= 0:
            raise ValueError("--bin-width must be positive")
        if self.max_sweeps < 0:
            raise ValueError("--max-sweeps must be >= 0")
        if self.seed < 0:
            raise ValueError("--seed must be >= 0")
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


def _paired_grouping(n: int) -> dict:
    if n % 2 == 0:
        return column_paired_grouping(n)
    return identity_grouping(n)


class Workspace:
    """Shared setup of one command: scene/components/model resolution and
    file emission under the command's name.

    Channel components are loaded or synthesized only for a command that
    accepts ``--channels``; the ``--ris-config`` warm start is read once and
    must hold one capacitance per RIS port of the channel.
    """

    def __init__(self, cfg: ExperimentConfig, command: str):
        # refuse an --out that cannot become a directory before any work:
        # an existing non-directory, or a path under one
        probe = os.path.abspath(cfg.out_dir)
        while not os.path.exists(probe):
            probe = os.path.dirname(probe)
        if not os.path.isdir(probe):
            raise ValueError(f"--out {cfg.out_dir}: {probe} is not a directory")
        self.cfg = cfg
        self.command = command
        self.model = (
            load_varactor_model(cfg.varactor_path)
            if cfg.varactor_path
            else DEFAULT_VARACTOR
        )
        self.scene = load_scene(cfg.scene_path) if cfg.scene_path else None
        self.components = (
            load_components(cfg.channels_path) if cfg.channels_path else None
        )
        if self.scene is None and self.components is None:
            self.scene = default_scene()
        # a command reads channel components exactly when it accepts a file
        if self.components is None and "--channels" in COMMANDS[command][1]:
            self.components = synthesize_components(self.scene)
        self.initial_config = (
            load_ris_config(cfg.ris_config_path) if cfg.ris_config_path else None
        )
        config = self.initial_config
        if config is not None and config.capacitances.size != self.components.dims[2]:
            raise SceneFileError(
                f"--ris-config {cfg.ris_config_path} holds {config.capacitances.size} "
                f"capacitances, the channel has {self.components.dims[2]} RIS ports"
            )

    def header(self) -> list:
        lines = [f"risopt {self.command}"]
        if not self.cfg.reproducible:
            lines.append(
                "generated: " + datetime.datetime.now().isoformat(timespec="seconds")
            )
        return lines

    def out_path(self, name: str) -> str:
        try:
            os.makedirs(self.cfg.out_dir, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"--out {self.cfg.out_dir}: {exc}") from exc
        return os.path.join(self.cfg.out_dir, name)

    def write_json(self, name: str, payload: dict) -> str:
        doc = {"header": self.header(), **payload}
        path = self.out_path(name)
        atomic_write_text(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")
        return path


def _solve(ws: Workspace, mode: str, p_bs: float):
    """(beamformer, report, RIS configuration or None, the
    OptimizationTrace or ExhaustiveResult behind them or None) of one mode.

    ``continuous`` starts from the ``--ris-config`` warm start when given,
    otherwise from a random per-column configuration drawn from ``--seed``.
    """
    cfg = ws.cfg
    if mode == "no-ris":
        beamformer, report = duality_beamformer(ws.components.h_u, p_bs, cfg.sigma2)
        return beamformer, report, None, None
    _, _, n = ws.components.dims
    if mode == "onebit-exhaustive":
        result = exhaustive_1bit_search(
            ws.components,
            ws.model,
            _paired_grouping(n),
            p_bs,
            cfg.sigma2,
        )
        return result.best_beamformer, result.best_report, result.best_config, result
    trace = alternating_optimize(
        ws.components,
        ws.model,
        ws.initial_config,
        p_bs,
        cfg.sigma2,
        BcdSettings(t_g=cfg.max_sweeps, rng_seed=cfg.seed),
        grouping=identity_grouping(n),
    )
    return trace.final_beamformer, trace.final_report, trace.final_config, trace


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
                _, report, _, _ = _solve(ws, mode, p_bs)
                min_rate = report.min_rate
                rx_db = _power_db(report.avg_received_power)
            except RisOptError as exc:
                logger.warning("sweep point p=%s dBm mode=%s failed: %s", p_dbm, mode, exc)
                min_rate, rx_db = float("nan"), float("nan")
            cols["p_dbm"].append(float(p_dbm))
            cols["p_dbm_per_hz"].append(_dbm_per_hz(p_dbm, cfg.bandwidth_hz))
            cols["mode"].append(mode)
            cols["min_rate_bps_hz"].append(float(min_rate))
            cols["avg_rx_power_db"].append(float(rx_db))
    comments = ws.header() + [
        "min_rate_bps_hz: worst per-user rate log2(1+SINR)",
        "avg_rx_power_db: 10*log10(mean over users of total received signal "
        "power sum_j |y_kj|^2), channels normalized to unit transmit amplitude",
    ]
    path = ws.out_path("sweep.csv")
    write_csv(path, cols, comments)
    return [path]


def _histogram_csv(ws, name, values, extra_comments=()):
    """Write the ``--bin-width`` histogram of ``values``; a width the
    histogram refuses is a configuration error, raised before any file."""
    try:
        histogram = rate_histogram(values, ws.cfg.bin_width)
    except ValueError as exc:
        raise ValueError(f"--bin-width: {exc}") from exc
    cols = {
        "bin_left": [float(left) for left, _, _ in histogram],
        "bin_right": [float(right) for _, right, _ in histogram],
        "count": [int(count) for _, _, count in histogram],
    }
    path = ws.out_path(name)
    write_csv(path, cols, ws.header() + list(extra_comments))
    return path


def run_exhaustive(ws: Workspace) -> list:
    cfg = ws.cfg
    *_, result = _solve(ws, "onebit-exhaustive", cfg.powers_watts()[-1])
    files = []
    files.append(
        _histogram_csv(
            ws,
            "histogram.csv",
            result.rates,
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
    files.append(ws.write_json("ranked.json", ranked_payload))
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
    files.append(ws.write_json("summary.json", summary))
    return files


def run_perturbation(ws: Workspace) -> list:
    cfg = ws.cfg
    result = perturbation_study(
        ws.scene,
        ws.model,
        _paired_grouping(ws.scene.ris_ports.shape[0]),
        cfg.powers_watts()[-1],
        cfg.sigma2,
        offsets=user_offset_grid(cfg.offsets_x, cfg.offsets_y),
    )
    # the histogram goes first so that a refused --bin-width writes nothing
    histogram_path = _histogram_csv(ws, "histogram.csv", result.improvements)
    cols = {
        "combination": result.combination_indices,
        "improvement_bps_hz": [float(v) for v in result.improvements],
    }
    path = ws.out_path("improvements.csv")
    write_csv(
        path,
        cols,
        ws.header()
        + [
            "improvement: best 1-bit min rate minus no-RIS min rate per combination",
            "combination: index in itertools.product order of the per-user "
            "offset indices; skipped combinations have no row",
        ],
    )
    return [path, histogram_path, ws.write_json("summary.json", result.summary)]


def run_gain_map(ws: Workspace) -> list:
    cfg = ws.cfg
    if ws.scene is None or ws.scene.grid is None:
        raise SceneFileError("gainmap needs a scene with an observation grid")
    scene = ws.scene
    if scene.dims[1:] != ws.components.dims[1:]:
        raise SceneFileError(
            f"the scene has {scene.dims[1]} antennas and {scene.dims[2]} ports, "
            f"the channel file {ws.components.dims[1]} and {ws.components.dims[2]}"
        )
    mode = cfg.modes[0]
    beamformer, _, config, _ = _solve(ws, mode, cfg.powers_watts()[-1])
    points = scene.grid.points()
    if config is None:  # without a RIS the map reads only the BS-to-grid field
        h = field_matrix(scene, scene.bs_elements, points, scene.user_walls)
    else:
        # the grid rows under the port side the beamformer was solved on
        h_u, g_l = trace_users(scene, points)
        block = assemble_from_config(ws.components, ws.model, config).solved_h0
        h = h_u + g_l @ block
    k_users = ws.components.dims[0]
    files = []
    for beam in range(k_users):
        gains = evaluate_gain_map(h, beamformer, beam)
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
            ws.header()
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
    mode = cfg.modes[0]
    beamformer, report, config, run = _solve(ws, mode, cfg.powers_watts()[-1])
    files = []
    if config is not None:
        config_path = ws.out_path("ris_config.json")
        save_ris_config(config, config_path)
        files.append(config_path)
    if isinstance(run, OptimizationTrace):
        files.append(ws.write_json("optimize_trace.json", run.to_dict()))
    payload = {"mode": mode, "p_dbm": cfg.powers_dbm[-1]}
    if isinstance(run, ExhaustiveResult):
        payload["best_states"] = list(run.best_states)
        payload["best_min_rate_bps_hz"] = run.best_min_rate
        payload["baseline_min_rate_bps_hz"] = run.baseline_min_rate
    else:
        payload["report"] = report.to_dict()
        payload["beamformer"] = _beamformer_payload(beamformer)
    files.append(ws.write_json("optimize_report.json", payload))
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
    scene = ws.scene
    paths = trace_paths(scene, cfg.src, cfg.dst, walls=scene.user_walls)
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
    return [ws.write_json("paths.json", payload)]


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


class _Values(argparse.Action):
    """Collects a list-valued flag; unless ``repeat`` is set, a second value
    is a usage error."""

    def __init__(self, *args, repeat: bool, **kwargs):
        super().__init__(*args, **kwargs)
        self.repeat = repeat

    def __call__(self, parser, namespace, value, option_string=None):
        values = getattr(namespace, self.dest) or []
        if values and not self.repeat:
            parser.error(f"{option_string} takes one value for this command")
        setattr(namespace, self.dest, values + [value])


# Every flag stores into the ExperimentConfig field named by its dest; its
# default is None, so a flag that is not given leaves the field's default.
FLAGS = {
    "--scene": dict(
        dest="scene_path", help="scene JSON file (default: built-in scene)"
    ),
    "--channels": dict(dest="channels_path", help="channel components JSON file"),
    "--ris-config": dict(
        dest="ris_config_path", help="RIS configuration JSON (warm start)"
    ),
    "--varactor": dict(dest="varactor_path", help="varactor model JSON file"),
    "--mode": dict(dest="modes", action=_Values, choices=MODES, help="evaluation mode"),
    "--power-dbm": dict(
        dest="powers_dbm",
        action=_Values,
        type=float,
        help="total transmit power in dBm",
    ),
    "--bandwidth-hz": dict(type=float),
    "--temperature-k": dict(type=float),
    "--seed": dict(type=int, help="random start of continuous optimization"),
    "--max-sweeps": dict(
        type=int, help="coordinate-sweep budget for continuous optimization"
    ),
    "--bin-width": dict(type=float, help="histogram bin width in bps/Hz"),
    "--offset-x": dict(
        dest="offsets_x", action=_Values, type=float, help="per-user x offset grid"
    ),
    "--offset-y": dict(
        dest="offsets_y", action=_Values, type=float, help="per-user y offset grid"
    ),
    "--src": dict(type=_parse_point, required=True),
    "--dst": dict(type=_parse_point, required=True),
    "--out": dict(dest="out_dir", help="output directory"),
    "--reproducible": dict(
        action="store_true",
        default=None,
        help="suppress volatile headers so reruns are byte-identical",
    ),
}

_SOLVE_FLAGS = (
    "--scene", "--channels", "--ris-config", "--varactor", "--mode",
    "--power-dbm", "--bandwidth-hz", "--temperature-k", "--seed",
    "--max-sweeps",
)

# command -> (help, the flags it reads besides --out and --reproducible,
# the list-valued flags it repeats)
COMMANDS = {
    "scene trace": ("trace specular paths", ("--scene", "--src", "--dst"), ()),
    "channel convert": (
        "synthesize or re-validate a channel file",
        ("--scene", "--channels"),
        (),
    ),
    "optimize": ("optimize the RIS configuration and beamformer", _SOLVE_FLAGS, ()),
    "sweep": ("rate vs transmit power table", _SOLVE_FLAGS, ("--mode", "--power-dbm")),
    "exhaustive": (
        "evaluate all 1-bit configurations",
        ("--scene", "--channels", "--varactor", "--power-dbm", "--bandwidth-hz",
         "--temperature-k", "--bin-width"),
        (),
    ),
    "perturb": (
        "user-location perturbation study",
        ("--scene", "--varactor", "--power-dbm", "--bandwidth-hz",
         "--temperature-k", "--bin-width", "--offset-x", "--offset-y"),
        ("--offset-x", "--offset-y"),
    ),
    "gainmap": ("spatial gain maps per beam", _SOLVE_FLAGS, ()),
}

_GROUPS = {"scene": "scene utilities", "channel": "channel file utilities"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risopt",
        description="RIS-assisted MU-MISO modeling and max-min rate optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for name, (help_text, flags, repeated) in COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group and group not in groups:
            groups[group] = sub.add_parser(group, help=_GROUPS[group]).add_subparsers(
                dest="subcommand", required=True
            )
        cmd = (groups[group] if group else sub).add_parser(leaf, help=help_text)
        cmd.set_defaults(command=name)
        for flag in flags + ("--out", "--reproducible"):
            spec = dict(FLAGS[flag])
            if "dest" in spec and "choices" not in spec:
                spec["metavar"] = flag[2:].upper().replace("-", "_")
            if spec.get("action") is _Values:
                spec["repeat"] = flag in repeated
            cmd.add_argument(flag, **spec)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    given = {}
    for field in dataclasses.fields(ExperimentConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            given[field.name] = tuple(value) if isinstance(value, list) else value
    if "modes" not in given and args.command in DEFAULT_MODES:
        given["modes"] = (DEFAULT_MODES[args.command],)
    return ExperimentConfig(**given)


def _attach_points(argv: list) -> list:
    """``--src -1,2`` as ``--src=-1,2``: argparse takes a token that starts
    with '-' and is not a plain number for an option, so a point with a
    negative x is joined to its flag before parsing."""
    joined = []
    for token in argv:
        point_flag = joined and FLAGS.get(joined[-1], {}).get("type") is _parse_point
        if point_flag and token.startswith("-") and "," in token:
            joined[-1] += f"={token}"
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_points(argv))
    command = args.command
    try:
        ws = Workspace(config_from_args(args), command)
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
    except (SceneFileError, ChannelFileError, GeometryError, ValueError) as exc:
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
