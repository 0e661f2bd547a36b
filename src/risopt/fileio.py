"""JSON file formats for scenes, channel components, and RIS configurations.

Complex numbers are stored as two-element [re, im] arrays inside row-major
nested lists.  Floats are serialized with repr (shortest round-trip form), so
a save/load cycle is bit-exact on the decimal text representation.  Loading
validates dimensions and structural invariants and reports the offending
field by name.  Every scalar field is read through one finite-number reader
(``_number``) or one integer reader (``_integer``), which refuse booleans,
strings, NaN and infinities; a value rule lives on the dataclass a file
becomes, or in its loader where no dataclass checks it.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import numpy as np

from .channel import ChannelComponents
from .coupling import DEFAULT_SELF_IMPEDANCE
from .errors import ChannelFileError, SceneFileError
from .ris import C_OFF, C_ON, RisConfiguration, VaractorModel
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


def write_csv(path, columns: dict, comments) -> None:
    """Write named columns as CSV after one leading '#' line per comment.

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


def _is_number(value) -> bool:
    """A JSON number: an int or a float, but not a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, name: str, error) -> float:
    """A finite number as a float; anything else (a boolean, a string, NaN,
    an infinity, a missing field) raises ``error`` naming the field."""
    if not (_is_number(value) and abs(value) <= sys.float_info.max):
        raise error(f"field '{name}': expected a finite number")
    return float(value)


def _integer(value, name: str, error, minimum: int | None = None) -> int:
    """An integer that is not a boolean, and at least ``minimum`` if given."""
    if isinstance(value, bool) or not isinstance(value, int) or (
        minimum is not None and value < minimum
    ):
        bound = "" if minimum is None else f" >= {minimum}"
        raise error(f"field '{name}': expected an integer{bound}")
    return value


def _container(value, kind: type, name: str):
    """``value`` if it is a JSON array (``kind`` list) or object (dict)."""
    if not isinstance(value, kind):
        what = "a list" if kind is list else "an object"
        raise SceneFileError(f"field '{name}': expected {what}")
    return value


def _pair(value, name: str) -> list:
    if not isinstance(value, list) or len(value) != 2:
        raise SceneFileError(f"field '{name}': expected a list of two numbers")
    return value


def _point(value, name: str) -> tuple:
    """An [x, y] pair of finite numbers."""
    return tuple(_number(v, name, SceneFileError) for v in _pair(value, name))


def _complex(value, name: str) -> complex:
    """A finite number or a finite [re, im] pair."""
    if isinstance(value, list):
        return complex(*_point(value, name))
    return complex(_number(value, name, SceneFileError))


def _complex_to_pair(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _matrix_to_pairs(matrix: np.ndarray) -> list:
    return [[_complex_to_pair(z) for z in row] for row in np.asarray(matrix)]


def _pairs_to_matrix(data, rows: int, cols: int, name: str) -> np.ndarray:
    """Entries must be [re, im] pairs of numbers; their finiteness is left to
    ChannelComponents, which names the matrix, except for an integer beyond
    the float range, which is refused here with the same message."""
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
            if not (
                isinstance(pair, list) and len(pair) == 2 and all(map(_is_number, pair))
            ):
                raise ChannelFileError(
                    f"field '{name}': entry ({i}, {j}) is not a [re, im] pair"
                )
            try:
                out[i, j] = complex(pair[0], pair[1])
            except OverflowError:
                raise ChannelFileError(
                    f"field '{name}': {name} contains non-finite entries"
                ) from None
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
    k, m, n = (_integer(doc.get(name), name, ChannelFileError, 1) for name in "kmn")
    frequency = _number(doc.get("frequency_hz"), "frequency_hz", ChannelFileError)
    for name in ("h_u", "h_0", "g_l", "z_ll"):
        if name not in doc:
            raise ChannelFileError(f"field '{name}': missing")
    h_u = _pairs_to_matrix(doc["h_u"], k, m, "h_u")
    h_0 = _pairs_to_matrix(doc["h_0"], n, m, "h_0")
    g_l = _pairs_to_matrix(doc["g_l"], k, n, "g_l")
    z_ll = _pairs_to_matrix(doc["z_ll"], n, n, "z_ll")
    try:
        return ChannelComponents(
            h_u=h_u, h_0=h_0, g_l=g_l, z_ll=z_ll, frequency=frequency
        )
    except ValueError as exc:
        # every ChannelComponents check names its matrix or the frequency first
        raise ChannelFileError(f"field '{str(exc).split()[0]}': {exc}") from exc


def save_scene(scene: SceneDescription, path) -> None:
    angle_deg, spacing = _ris_line(scene)
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
            "spacing": spacing,
            "orientation_deg": angle_deg,
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


def _ris_line(scene: SceneDescription) -> tuple:
    """(orientation in degrees, port spacing) of the RIS line, as
    ``make_ris_line`` takes them.  One port fixes neither, so a one-port RIS
    reads both off its panel wall, which is one spacing long; without a panel
    neither changes the geometry."""
    ports, panel = scene.ris_ports, scene.unloaded_panel
    if ports.shape[0] >= 2:
        d, spacing = ports[-1] - ports[0], scene.ris_spacing
    elif panel is not None:
        d = np.subtract(panel.p2, panel.p1)
        spacing = np.hypot(d[0], d[1])
    else:
        return DEFAULT_PANEL_ANGLE_DEG, scene.ris_spacing
    return float(np.degrees(np.arctan2(d[1], d[0]))), float(spacing)


def load_scene(path) -> SceneDescription:
    """Read a scene file; the RIS block is expanded to ports plus panel wall."""
    doc = _read_object(path, "scene", SceneFileError)
    frequency = _number(doc.get("frequency_hz"), "frequency_hz", SceneFileError)
    max_order = _integer(doc.get("max_order"), "max_order", SceneFileError)
    walls = []
    for i, wdoc in enumerate(_container(doc.get("walls"), list, "walls")):
        name = f"walls[{i}]"
        _container(wdoc, dict, name)
        try:
            walls.append(
                Wall(
                    p1=_point(wdoc.get("p1"), f"{name}.p1"),
                    p2=_point(wdoc.get("p2"), f"{name}.p2"),
                    reflection=_complex(
                        wdoc.get("reflection", DEFAULT_WALL_REFLECTION),
                        f"{name}.reflection",
                    ),
                )
            )
        except ValueError as exc:
            raise SceneFileError(f"field '{name}': {exc}") from exc
    bs, users = (
        [
            _point(p, f"{key}[{i}]")
            for i, p in enumerate(_container(doc.get(key), list, key))
        ]
        for key in ("bs", "users")
    )
    ris_doc = _container(doc.get("ris"), dict, "ris")
    spacing = ris_doc.get("spacing")
    if spacing is not None:
        spacing = _number(spacing, "ris.spacing", SceneFileError)
        if spacing <= 0:
            raise SceneFileError("field 'ris.spacing': expected a positive number")
    reflection = _complex(
        ris_doc.get("reflection", DEFAULT_PANEL_REFLECTION), "ris.reflection"
    )
    try:
        ports, panel = make_ris_line(
            center=_point(ris_doc.get("origin", [0.0, 0.0]), "ris.origin"),
            n_ports=_integer(ris_doc.get("n_ports"), "ris.n_ports", SceneFileError, 1),
            spacing=spacing,
            angle_deg=_number(
                ris_doc.get("orientation_deg", DEFAULT_PANEL_ANGLE_DEG),
                "ris.orientation_deg",
                SceneFileError,
            ),
            frequency=frequency,
            reflection=reflection,
        )
        if reflection == 0:
            panel = None
        grid = None
        if doc.get("grid") is not None:
            gdoc = _container(doc["grid"], dict, "grid")
            spacing_g = gdoc.get("spacing", [0.1, 0.1])
            grid = ObservationGrid(
                origin=_point(gdoc.get("origin"), "grid.origin"),
                spacing=_point(
                    spacing_g if isinstance(spacing_g, list) else [spacing_g] * 2,
                    "grid.spacing",
                ),
                counts=tuple(
                    _integer(c, "grid.counts", SceneFileError, 1)
                    for c in _pair(gdoc.get("counts"), "grid.counts")
                ),
            )
        return SceneDescription(
            walls=tuple(walls),
            bs_elements=np.asarray(bs, dtype=float),
            ris_ports=ports,
            user_positions=np.asarray(users, dtype=float),
            frequency=frequency,
            max_reflection_order=max_order,
            grid=grid,
            unloaded_panel=panel,
            ris_self_impedance=_complex(
                ris_doc.get("self_impedance", _complex_to_pair(DEFAULT_SELF_IMPEDANCE)),
                "ris.self_impedance",
            ),
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
    caps = [
        _number(c, f"capacitances_pf[{i}]", SceneFileError)
        for i, c in enumerate(
            _container(doc.get("capacitances_pf"), list, "capacitances_pf")
        )
    ]
    for key, state in (("c_on_pf", C_ON), ("c_off_pf", C_OFF)):
        if key in doc and _number(doc[key], key, SceneFileError) * 1e-12 != state:
            raise SceneFileError(
                f"field '{key}': the 1-bit states are fixed at "
                f"{C_ON * 1e12!r} and {C_OFF * 1e12!r} pF"
            )
    grouping = {}
    for key, members in _container(doc.get("groups", {}), dict, "groups").items():
        name = f"groups.{key}"
        try:
            group = int(key)
        except ValueError as exc:
            raise SceneFileError(f"field '{name}': {exc}") from exc
        grouping[group] = tuple(
            _integer(i, name, SceneFileError) for i in _container(members, list, name)
        )
    try:
        return RisConfiguration(
            capacitances=np.asarray(caps, dtype=float) * 1e-12,
            control_mode=doc.get("mode"),
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
    kwargs = {
        name: _number(doc.get(key), key, SceneFileError) * factor
        for key, (name, factor, required) in _VARACTOR_FIELDS.items()
        if required or key in doc
    }
    try:
        return VaractorModel(**kwargs)
    except ValueError as exc:
        raise SceneFileError(str(exc)) from exc
