"""JSON file formats for scenes, channel components, and RIS configurations.

Complex numbers are stored as two-element [re, im] arrays inside row-major
nested lists.  Floats are serialized with repr (shortest round-trip form), so
a save/load cycle is bit-exact on the decimal text representation.  Loading
validates dimensions and structural invariants and reports the offending
field by name.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .channel import ChannelComponents
from .errors import ChannelFileError, SceneFileError
from .ris import C_OFF, C_ON, CONTROL_MODES, RisConfiguration, VaractorModel
from .scene import (
    DEFAULT_PANEL_ANGLE_DEG,
    DEFAULT_PANEL_REFLECTION,
    DEFAULT_WALL_REFLECTION,
    ObservationGrid,
    SceneDescription,
    Wall,
    make_ris_line,
)


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file and rename, so readers never see partial files."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, columns: dict, comments: tuple = ()) -> None:
    """Write named columns as CSV with optional leading '#' comment lines.

    Floats are rendered with repr so re-reading reproduces them bit-exactly.
    """
    names = list(columns)
    rows = len(columns[names[0]]) if names else 0
    for name in names:
        if len(columns[name]) != rows:
            raise ValueError(f"column '{name}' has inconsistent length")
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(names))
    for i in range(rows):
        cells = []
        for name in names:
            value = columns[name][i]
            cells.append(repr(float(value)) if isinstance(value, float) else str(value))
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_csv(path) -> tuple[list, dict]:
    """Read a CSV written by write_csv: (comment lines, column dict).

    Cells parse as floats where possible and stay strings otherwise.
    """
    comments = []
    header = None
    columns: dict = {}
    with open(path) as handle:
        for raw in handle:
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                comments.append(line[1:].strip())
                continue
            cells = line.split(",")
            if header is None:
                header = cells
                columns = {name: [] for name in header}
                continue
            if len(cells) != len(header):
                raise ValueError(f"row has {len(cells)} cells, header {len(header)}")
            for name, cell in zip(header, cells):
                try:
                    columns[name].append(float(cell))
                except ValueError:
                    columns[name].append(cell)
    if header is None:
        raise ValueError(f"{path} has no header row")
    return comments, columns


def _read_object(path, kind: str, error) -> dict:
    """Parse a JSON file that must hold one object; any defect raises
    ``error`` naming the ``kind`` of file."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise error(f"cannot parse {kind} file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{kind} file must contain a JSON object")
    return doc


def _complex_to_pair(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _matrix_to_pairs(matrix: np.ndarray) -> list:
    return [[_complex_to_pair(z) for z in row] for row in np.asarray(matrix)]


def _pairs_to_matrix(data, rows: int, cols: int, name: str) -> np.ndarray:
    if not isinstance(data, list) or len(data) != rows:
        raise ChannelFileError(
            f"field '{name}': expected {rows} rows, got "
            f"{len(data) if isinstance(data, list) else type(data).__name__}"
        )
    out = np.zeros((rows, cols), dtype=complex)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise ChannelFileError(
                f"field '{name}': row {i} must have {cols} entries"
            )
        for j, pair in enumerate(row):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(v, (int, float)) for v in pair)
            ):
                raise ChannelFileError(
                    f"field '{name}': entry ({i}, {j}) is not a [re, im] pair"
                )
            out[i, j] = complex(pair[0], pair[1])
    return out


def save_components(components: ChannelComponents, path) -> None:
    """Write a channel file: dimensions, frequency, and the four matrices."""
    k, m, n = components.dims
    doc = {
        "k": k,
        "m": m,
        "n": n,
        "frequency_hz": float(components.frequency),
        "h_u": _matrix_to_pairs(components.h_u),
        "h_0": _matrix_to_pairs(components.h_0),
        "g_l": _matrix_to_pairs(components.g_l),
        "z_ll": _matrix_to_pairs(components.z_ll),
    }
    atomic_write_text(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


def load_components(path) -> ChannelComponents:
    """Read and validate a channel file; raises ChannelFileError on any defect."""
    doc = _read_object(path, "channel", ChannelFileError)
    for name in ("k", "m", "n"):
        if name not in doc or not isinstance(doc[name], int) or doc[name] < 1:
            raise ChannelFileError(f"field '{name}': missing or not a positive integer")
    for name in ("frequency_hz", "h_u", "h_0", "g_l", "z_ll"):
        if name not in doc:
            raise ChannelFileError(f"field '{name}': missing")
    k, m, n = doc["k"], doc["m"], doc["n"]
    frequency = doc["frequency_hz"]
    if not isinstance(frequency, (int, float)) or frequency <= 0:
        raise ChannelFileError("field 'frequency_hz': must be a positive number")
    h_u = _pairs_to_matrix(doc["h_u"], k, m, "h_u")
    h_0 = _pairs_to_matrix(doc["h_0"], n, m, "h_0")
    g_l = _pairs_to_matrix(doc["g_l"], k, n, "g_l")
    z_ll = _pairs_to_matrix(doc["z_ll"], n, n, "z_ll")
    try:
        return ChannelComponents(
            h_u=h_u, h_0=h_0, g_l=g_l, z_ll=z_ll, frequency=float(frequency)
        )
    except ValueError as exc:
        # every ChannelComponents check names its matrix first
        raise ChannelFileError(f"field '{str(exc).split()[0]}': {exc}") from exc


def _require(doc: dict, name: str, kind, context: str):
    if name not in doc:
        raise SceneFileError(f"field '{name}' missing from {context}")
    value = doc[name]
    if kind is float:
        if not isinstance(value, (int, float)):
            raise SceneFileError(f"field '{name}': expected a number")
        return float(value)
    if not isinstance(value, kind):
        raise SceneFileError(f"field '{name}': expected {kind.__name__}")
    return value


def _point(value, name: str):
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(isinstance(v, (int, float)) for v in value)
    ):
        raise SceneFileError(f"field '{name}': expected an [x, y] point")
    return (float(value[0]), float(value[1]))


def _complex_field(value, name: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) for v in value)
    ):
        return complex(value[0], value[1])
    raise SceneFileError(f"field '{name}': expected a number or [re, im] pair")


def save_scene(scene: SceneDescription, path) -> None:
    doc = {
        "frequency_hz": float(scene.frequency),
        "max_order": int(scene.max_reflection_order),
        "walls": [
            {
                "p1": [float(w.p1[0]), float(w.p1[1])],
                "p2": [float(w.p2[0]), float(w.p2[1])],
                "reflection": _complex_to_pair(w.reflection),
            }
            for w in scene.walls
        ],
        "bs": [[float(x), float(y)] for x, y in scene.bs_elements],
        "users": [[float(x), float(y)] for x, y in scene.user_positions],
        "ris": {
            "origin": [
                float(scene.ris_ports.mean(axis=0)[0]),
                float(scene.ris_ports.mean(axis=0)[1]),
            ],
            "n_ports": int(scene.ris_ports.shape[0]),
            "spacing": float(scene.ris_spacing),
            "orientation_deg": _ports_angle_deg(scene.ris_ports),
            "reflection": _complex_to_pair(
                scene.unloaded_panel.reflection
                if scene.unloaded_panel is not None
                else 0.0
            ),
            "self_impedance": _complex_to_pair(scene.ris_self_impedance),
        },
    }
    if scene.grid is not None:
        doc["grid"] = {
            "origin": [float(v) for v in scene.grid.origin],
            "spacing": [float(v) for v in scene.grid.spacing],
            "counts": [int(v) for v in scene.grid.counts],
        }
    atomic_write_text(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _ports_angle_deg(ports: np.ndarray) -> float:
    if ports.shape[0] < 2:
        return DEFAULT_PANEL_ANGLE_DEG
    d = ports[-1] - ports[0]
    return float(np.degrees(np.arctan2(d[1], d[0])))


def load_scene(path) -> SceneDescription:
    """Read a scene file; the RIS block is expanded to ports plus panel wall."""
    doc = _read_object(path, "scene", SceneFileError)
    frequency = _require(doc, "frequency_hz", float, "scene")
    max_order = _require(doc, "max_order", int, "scene")
    walls_doc = _require(doc, "walls", list, "scene")
    walls = []
    for i, wdoc in enumerate(walls_doc):
        if not isinstance(wdoc, dict):
            raise SceneFileError(f"field 'walls[{i}]': expected an object")
        try:
            walls.append(
                Wall(
                    p1=_point(wdoc.get("p1"), f"walls[{i}].p1"),
                    p2=_point(wdoc.get("p2"), f"walls[{i}].p2"),
                    reflection=_complex_field(
                        wdoc.get("reflection", DEFAULT_WALL_REFLECTION),
                        f"walls[{i}].reflection",
                    ),
                )
            )
        except ValueError as exc:
            raise SceneFileError(f"field 'walls[{i}]': {exc}") from exc
    bs = [_point(p, f"bs[{i}]") for i, p in enumerate(_require(doc, "bs", list, "scene"))]
    users = [
        _point(p, f"users[{i}]")
        for i, p in enumerate(_require(doc, "users", list, "scene"))
    ]
    ris_doc = _require(doc, "ris", dict, "scene")
    origin = _point(ris_doc.get("origin", [0.0, 0.0]), "ris.origin")
    n_ports = ris_doc.get("n_ports")
    if not isinstance(n_ports, int) or n_ports < 1:
        raise SceneFileError("field 'ris.n_ports': expected a positive integer")
    spacing = ris_doc.get("spacing")
    if spacing is not None and (
        not isinstance(spacing, (int, float)) or spacing <= 0
    ):
        raise SceneFileError("field 'ris.spacing': expected a positive number")
    angle = ris_doc.get("orientation_deg", DEFAULT_PANEL_ANGLE_DEG)
    if not isinstance(angle, (int, float)):
        raise SceneFileError("field 'ris.orientation_deg': expected a number")
    reflection = _complex_field(
        ris_doc.get("reflection", _complex_to_pair(DEFAULT_PANEL_REFLECTION)),
        "ris.reflection",
    )
    ports, panel = make_ris_line(
        center=origin,
        n_ports=n_ports,
        spacing=float(spacing) if spacing is not None else None,
        angle_deg=float(angle),
        frequency=frequency,
        reflection=reflection,
    )
    if reflection == 0:
        panel = None
    grid = None
    if "grid" in doc and doc["grid"]:
        gdoc = doc["grid"]
        if not isinstance(gdoc, dict):
            raise SceneFileError("field 'grid': expected an object")
        counts = gdoc.get("counts")
        if (
            not isinstance(counts, list)
            or len(counts) != 2
            or not all(isinstance(c, int) and c > 0 for c in counts)
        ):
            raise SceneFileError("field 'grid.counts': expected two positive integers")
        spacing_g = gdoc.get("spacing", [0.1, 0.1])
        if isinstance(spacing_g, (int, float)):
            spacing_g = [spacing_g, spacing_g]
        grid = ObservationGrid(
            origin=_point(gdoc.get("origin"), "grid.origin"),
            spacing=(float(spacing_g[0]), float(spacing_g[1])),
            counts=(counts[0], counts[1]),
        )
    kwargs = {}
    if "ris" in doc and "self_impedance" in ris_doc:
        kwargs["ris_self_impedance"] = _complex_field(
            ris_doc["self_impedance"], "ris.self_impedance"
        )
    try:
        return SceneDescription(
            walls=tuple(walls),
            bs_elements=np.asarray(bs, dtype=float),
            ris_ports=ports,
            user_positions=np.asarray(users, dtype=float),
            frequency=frequency,
            max_reflection_order=max_order,
            grid=grid,
            unloaded_panel=panel,
            **kwargs,
        )
    except ValueError as exc:
        raise SceneFileError(str(exc)) from exc


def save_ris_config(config: RisConfiguration, path) -> None:
    """Write a RIS config file; it also records the fixed 1-bit states."""
    doc = {
        "mode": config.control_mode,
        "capacitances_pf": [float(c) * 1e12 for c in config.capacitances],
        "groups": {str(g): list(map(int, m)) for g, m in config.grouping.items()},
        "c_on_pf": C_ON * 1e12,
        "c_off_pf": C_OFF * 1e12,
    }
    atomic_write_text(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


def load_ris_config(path) -> RisConfiguration:
    """Read a RIS config file; ``c_on_pf``/``c_off_pf``, when present, must
    name the fixed 1-bit states C_ON/C_OFF."""
    doc = _read_object(path, "RIS config", SceneFileError)
    mode = doc.get("mode")
    if mode not in CONTROL_MODES:
        raise SceneFileError(f"field 'mode': expected one of {CONTROL_MODES}")
    caps = doc.get("capacitances_pf")
    if not isinstance(caps, list) or not all(
        isinstance(c, (int, float)) for c in caps
    ):
        raise SceneFileError("field 'capacitances_pf': expected a list of numbers")
    for key, state in (("c_on_pf", C_ON), ("c_off_pf", C_OFF)):
        value = doc.get(key)
        if key in doc and (
            not isinstance(value, (int, float)) or value * 1e-12 != state
        ):
            raise SceneFileError(
                f"field '{key}': the 1-bit states are fixed at "
                f"{C_ON * 1e12!r} and {C_OFF * 1e12!r} pF"
            )
    groups = doc.get("groups", {})
    if not isinstance(groups, dict):
        raise SceneFileError("field 'groups': expected an object")
    grouping = {}
    for key, members in groups.items():
        try:
            grouping[int(key)] = tuple(int(i) for i in members)
        except (TypeError, ValueError) as exc:
            raise SceneFileError(f"field 'groups.{key}': {exc}") from exc
    try:
        return RisConfiguration(
            capacitances=np.asarray(caps, dtype=float) * 1e-12,
            control_mode=mode,
            grouping=grouping,
        )
    except ValueError as exc:
        raise SceneFileError(str(exc)) from exc


def save_varactor_model(model: VaractorModel, path) -> None:
    doc = {
        "c_j_pf": model.c_j * 1e12,
        "v_j_volts": model.v_j,
        "m": model.m,
        "c_par_pf": model.c_par * 1e12,
        "r_v_ohms": model.r_v,
        "l_v_nh": model.l_v * 1e9,
        "c_min_pf": model.c_min * 1e12,
        "c_max_pf": model.c_max * 1e12,
    }
    atomic_write_text(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


# varactor file field -> (VaractorModel field, factor to SI, required)
_VARACTOR_FIELDS = {
    "c_j_pf": ("c_j", 1e-12, True),
    "v_j_volts": ("v_j", 1.0, True),
    "m": ("m", 1.0, True),
    "c_par_pf": ("c_par", 1e-12, True),
    "r_v_ohms": ("r_v", 1.0, False),
    "l_v_nh": ("l_v", 1e-9, False),
    "c_min_pf": ("c_min", 1e-12, False),
    "c_max_pf": ("c_max", 1e-12, False),
}


def load_varactor_model(path) -> VaractorModel:
    """Read a varactor file; an optional field it omits keeps the
    VaractorModel default."""
    doc = _read_object(path, "varactor", SceneFileError)
    kwargs = {}
    try:
        for key, (name, factor, required) in _VARACTOR_FIELDS.items():
            if key in doc:
                kwargs[name] = float(doc[key]) * factor
            elif required:
                raise SceneFileError(f"field '{key}' missing from varactor file")
        return VaractorModel(**kwargs)
    except (TypeError, ValueError) as exc:
        raise SceneFileError(str(exc)) from exc
