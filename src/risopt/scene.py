"""2D site geometry and image-method ray tracing.

Walls are line segments with a complex reflection coefficient; propagation
between any two points is the coherent sum of the direct path (when
unobstructed) and all specular paths up to a configurable reflection order.

The tracer is the image method (Allen & Berkley, JASA 1979).  The images of
a wall sequence depend only on the source and the walls, so each source is
mirrored once per sequence.  For a batch of (source, destination) pairs the
reflection points are then backtracked from the destination, and every leg
of every candidate path is tested against the walls it does not end on, in
numpy.  ``field_matrix`` sums the path gains of every pair of a set of
sources and destinations, PAIR_CHUNK pairs at a time, in (order, length)
order.  ``trace_paths`` runs the same sequence code for one pair and lists
its paths in that order, so ``field_matrix`` equals the sum of ``path_gain``
over ``trace_paths`` bit for bit.

Channel components are built from ``field_matrix``:

    h_u[k, m]  direct + wall + unloaded-panel paths, BS antenna m to user k
    h_0[n, m]  wall paths only, BS antenna m to RIS port n
    g_l[k, n]  wall paths only, RIS port n to user k

The unloaded RIS panel acts as one extra specular reflector for h_u; it is
excluded from port traces because the ports sit on the panel itself.
``trace_users`` gives just the user rows (h_u, g_l) of a set of positions.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelComponents
from .constants import SPEED_OF_LIGHT
from .coupling import DEFAULT_SELF_IMPEDANCE, synthesize_mutual_impedance, wavelength
from .errors import GeometryError

logger = logging.getLogger(__name__)

GEOM_EPS = 1e-9  # meters; tolerance for on-wall and intersection tests

MAX_COORDINATE = 1e150  # meters; the tracer's products stay finite up to it

MAX_REFLECTION_ORDER = 5

DEFAULT_WALL_REFLECTION = -0.6


@dataclass(frozen=True)
class Wall:
    """Line segment reflector with a constant complex reflection coefficient."""

    p1: tuple
    p2: tuple
    reflection: complex = DEFAULT_WALL_REFLECTION

    def __post_init__(self):
        p1 = np.asarray(self.p1, dtype=float)
        p2 = np.asarray(self.p2, dtype=float)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)
        if not np.abs([p1, p2]).max() <= MAX_COORDINATE:
            raise ValueError(f"wall endpoints must be finite and within {MAX_COORDINATE:g} m")
        if np.linalg.norm(p2 - p1) <= GEOM_EPS:
            raise ValueError("wall segment has (near-)zero length")
        if abs(self.reflection) > 1.0 + 1e-12:
            raise ValueError("|reflection coefficient| must be <= 1")


@dataclass(frozen=True)
class PropagationPath:
    """One specular path: unfolded length, cumulative reflection product, order."""

    length: float
    product: complex
    order: int
    points: tuple  # reflection points, for inspection/trace output


@dataclass(frozen=True)
class ObservationGrid:
    """Rectangular grid of field observation points."""

    origin: tuple
    spacing: tuple  # (dx, dy) meters
    counts: tuple  # (nx, ny)

    def points(self) -> np.ndarray:
        ox, oy = self.origin
        dx, dy = self.spacing
        nx, ny = self.counts
        pts = [
            (ox + i * dx, oy + j * dy) for j in range(ny) for i in range(nx)
        ]
        return np.asarray(pts, dtype=float)


@dataclass(frozen=True)
class SceneDescription:
    """2D scene: walls, BS array, RIS port line, users, optional grid.

    ``grid`` and ``unloaded_panel`` may be None.  The ``unloaded_panel``
    wall models the scattering of the RIS structure with all loads removed;
    it participates only in BS-to-user traces.  ``ris_self_impedance``, the
    one defaulted field, seeds the synthetic port coupling matrix.
    """

    walls: tuple
    bs_elements: np.ndarray  # (M, 2)
    ris_ports: np.ndarray  # (N, 2)
    user_positions: np.ndarray  # (K, 2)
    frequency: float
    max_reflection_order: int
    grid: ObservationGrid | None
    unloaded_panel: Wall | None
    ris_self_impedance: complex = DEFAULT_SELF_IMPEDANCE

    def __post_init__(self):
        object.__setattr__(self, "walls", tuple(self.walls))
        for name in ("bs_elements", "ris_ports", "user_positions"):
            arr = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, arr)
            if arr.shape[0] < 1 or arr.shape[1] != 2:
                raise ValueError(f"{name} must be a nonempty list of 2D points")
            if not np.abs(arr).max() <= MAX_COORDINATE:
                raise ValueError(f"{name} must be finite and within {MAX_COORDINATE:g} m")
        wavelength(self.frequency)
        if not 0 <= self.max_reflection_order <= MAX_REFLECTION_ORDER:
            raise ValueError(
                f"max_reflection_order must be in [0, {MAX_REFLECTION_ORDER}]"
            )

    @property
    def dims(self) -> tuple[int, int, int]:
        """(K users, M antennas, N ports)."""
        return (
            self.user_positions.shape[0],
            self.bs_elements.shape[0],
            self.ris_ports.shape[0],
        )

    @property
    def user_walls(self) -> tuple:
        """Walls that BS-to-user traces see: the walls plus the unloaded panel."""
        return self.walls + (
            (self.unloaded_panel,) if self.unloaded_panel is not None else ()
        )

    @property
    def ris_spacing(self) -> float:
        ports = self.ris_ports
        if ports.shape[0] < 2:
            return wavelength(self.frequency) / 2.0
        return float(np.linalg.norm(ports[1] - ports[0]))


def _wall_sequences(walls, order):
    """All wall-index sequences of the given order without immediate
    repeats, in lexicographic order."""
    return (
        seq
        for seq in itertools.product(range(len(walls)), repeat=order)
        if all(a != b for a, b in zip(seq, seq[1:]))
    )


def path_gain(path: PropagationPath, frequency: float) -> complex:
    """Complex field contribution of one path: product * exp(-jkd) / d."""
    if path.length <= 0.0:
        raise ValueError("path length must be positive")
    k = 2.0 * np.pi * frequency / SPEED_OF_LIGHT
    return path.product * np.exp(-1j * k * path.length) / path.length


# (source, destination) pairs that field_matrix traces together; bounds the
# size of its temporaries whatever the number of destinations.
PAIR_CHUNK = 256


def _dot(a, b):
    """Row-wise dot products of (..., 2) arrays.

    A stacked matmul rounds each product as ``np.dot`` and
    ``np.linalg.norm`` of one 2-vector do; written out as
    ``a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]`` it need not.  Every
    traced length and field, and so every ``--reproducible`` output, is
    pinned to this rounding.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norm(v):
    return np.sqrt(_dot(v, v))


def _mirror_points(points, wall: Wall) -> np.ndarray:
    """Every row of ``points`` reflected across the line of ``wall``."""
    d = wall.p2 - wall.p1
    n = np.array([-d[1], d[0]])
    n = n / np.linalg.norm(n)
    return points - (2.0 * _dot(points - wall.p1, n))[:, None] * n


def _on_any_wall(points, walls) -> np.ndarray:
    """True where a row of ``points`` lies on a wall segment: within
    GEOM_EPS of the wall's line, and projecting onto the segment's
    parameter range [0, 1] widened by GEOM_EPS."""
    on = np.zeros(points.shape[0], dtype=bool)
    for wall in walls:
        d = wall.p2 - wall.p1
        length = np.linalg.norm(d)
        rel = points - wall.p1
        u = _dot(rel, d) / (length**2)
        perp = rel - u[:, None] * d
        on |= (u >= -GEOM_EPS) & (u <= 1.0 + GEOM_EPS) & (_norm(perp) <= GEOM_EPS)
    return on


def _reject_pairs(sources, dests, walls):
    """Raise the GeometryError of the first rejected (source, destination)
    pair in destination-major order.

    Any coordinate beyond MAX_COORDINATE rejects all; then pairs whose points
    coincide within GEOM_EPS, then pairs with a point on a wall, are rejected.
    """
    if np.abs(sources).max() > MAX_COORDINATE or np.abs(dests).max() > MAX_COORDINATE:
        raise GeometryError(f"src or dst has a coordinate beyond {MAX_COORDINATE:g} m")
    coincide = _norm((dests[:, None] - sources[None, :]).reshape(-1, 2)) <= GEOM_EPS
    on_wall = _on_any_wall(dests, walls)[:, None] | _on_any_wall(sources, walls)
    bad = coincide | on_wall.ravel()
    if bad.any():
        first = np.argmax(bad)
        raise GeometryError(
            "src and dst coincide"
            if coincide[first]
            else "src or dst lies on a wall segment"
        )


class _WallArrays:
    """Endpoints, direction vectors and their norms of a wall tuple."""

    def __init__(self, walls):
        self.p1 = np.array([w.p1 for w in walls], dtype=float).reshape(-1, 2)
        self.s = np.array([w.p2 - w.p1 for w in walls], dtype=float).reshape(-1, 2)
        self.s_norm = np.array([np.linalg.norm(w.p2 - w.p1) for w in walls])


def _crossings(a, r, r_norm, walls: _WallArrays, cols):
    """Where each row's segment a -> a + r meets the line of each wall in
    ``cols``: a + t r = p1 + u (p2 - p1).

    Returns (crosses, t, u), each (rows, len(cols)).  ``crosses`` is False
    where the segment and the wall are parallel, |r x s| < 1e-15 |r| |s|;
    t and u mean nothing there.
    """
    p1, s, s_norm = walls.p1[cols], walls.s[cols], walls.s_norm[cols]
    denom = r[:, 0, None] * s[:, 1] - r[:, 1, None] * s[:, 0]
    crosses = ~(np.abs(denom) < 1e-15 * (r_norm[:, None] * s_norm + 1e-300))
    denom = np.where(crosses, denom, 1.0)
    q0 = p1[:, 0] - a[:, 0, None]
    q1 = p1[:, 1] - a[:, 1, None]
    t = (q0 * s[:, 1] - q1 * s[:, 0]) / denom
    u = (q0 * r[:, 1, None] - q1 * r[:, 0, None]) / denom
    return crosses, t, u


def _legs_clear(a, b, walls: _WallArrays, cols):
    """True where segment a -> b is longer than GEOM_EPS and crosses no wall
    in ``cols``.

    A crossing counts when it lies on the wall segment (parameter range
    widened by GEOM_EPS) and more than GEOM_EPS from both ends of the leg:
    reflection points end legs exactly on their anchor walls.
    """
    r = b - a
    length = _norm(r)
    clear = length > GEOM_EPS
    length = np.where(clear, length, 1.0)
    crosses, t, u = _crossings(a, r, length, walls, cols)
    t_eps = (GEOM_EPS / length)[:, None]
    hit = (
        crosses
        & (t_eps < t)
        & (t < 1.0 - t_eps)
        & (-GEOM_EPS <= u)
        & (u <= 1.0 + GEOM_EPS)
    )
    return clear & ~hit.any(axis=1)


def _path_gains(product, lengths, frequency):
    """``path_gain`` of paths with one reflection product and these lengths.

    The complex product is written out in real arithmetic, as Python's
    complex multiply in ``path_gain`` rounds it; numpy's SIMD complex
    multiply may fuse it.
    """
    k = 2.0 * np.pi * frequency / SPEED_OF_LIGHT
    e = np.exp(-1j * k * lengths)
    scaled = np.empty(lengths.shape, dtype=complex)
    scaled.real = product.real * e.real - product.imag * e.imag
    scaled.imag = product.real * e.imag + product.imag * e.real
    return scaled / lengths


class _Sequence:
    """One wall sequence: its walls, reflection product, the images of every
    source along it, and the walls each of its legs is tested against."""

    def __init__(self, seq, walls, images):
        self.seq = seq
        self.product = 1.0 + 0.0j
        for i in seq:
            self.product *= walls[i].reflection
        self.images = [images[seq[:j]] for j in range(len(seq) + 1)]
        anchors = [None] + [walls[i] for i in seq] + [None]
        self.leg_cols = [
            [
                c
                for c, w in enumerate(walls)
                if not any(w is x for x in (anchors[leg], anchors[leg + 1]))
            ]
            for leg in range(len(seq) + 1)
        ]


def _sequences(sources, walls, order_cap):
    """Every wall sequence up to ``order_cap``, by order and then
    lexicographically, starting with the direct path's empty sequence."""
    images = {(): sources}
    sequences = []
    for order in range(order_cap + 1):
        for seq in _wall_sequences(walls, order):
            if seq not in images:
                images[seq] = _mirror_points(images[seq[:-1]], walls[seq[-1]])
            sequences.append(_Sequence(seq, walls, images))
    return sequences


def _sequence_paths(seq: _Sequence, si, src, dst, walls: _WallArrays):
    """Each pair's path along ``seq``: its unfolded length, inf where there
    is none, and its reflection points, one (pairs, 2) array per bounce.

    The reflection points are backtracked from the destination toward the
    source: each is where the line from its image to the current target
    meets its wall, strictly inside that line (parameter in (GEOM_EPS,
    1 - GEOM_EPS)) and on the wall segment (parameter range widened by
    GEOM_EPS).  Every leg must then be clear of the walls it does not end on.
    """
    order = len(seq.seq)
    valid = np.ones(si.shape[0], dtype=bool)
    points = [None] * order
    target = dst
    for j in range(order - 1, -1, -1):
        image = seq.images[j + 1][si]
        r = target - image
        crosses, t, u = _crossings(image, r, _norm(r), walls, [seq.seq[j]])
        t, u = t[:, 0], u[:, 0]
        valid &= (
            crosses[:, 0]
            & (GEOM_EPS < t)
            & (t < 1.0 - GEOM_EPS)
            & (-GEOM_EPS <= u)
            & (u <= 1.0 + GEOM_EPS)
        )
        # a row with no path backtracks from its image; a stray t can overflow
        points[j] = image + np.where(valid, t, 0.0)[:, None] * r
        target = points[j]
    lengths = np.full(si.shape[0], np.inf)
    rows = np.flatnonzero(valid)
    if rows.size == 0:
        return lengths, points
    stations = [src[rows]] + [p[rows] for p in points] + [dst[rows]]
    clear = np.ones(rows.size, dtype=bool)
    for leg in range(order + 1):
        clear &= _legs_clear(
            stations[leg], stations[leg + 1], walls, seq.leg_cols[leg]
        )
    rows = rows[clear]
    lengths[rows] = _norm(dst[rows] - seq.images[order][si[rows]])
    return lengths, points


def trace_paths(scene: SceneDescription, src, dst, walls) -> list[PropagationPath]:
    """All specular paths from src to dst off ``walls``, up to the scene's
    reflection order, sorted by (order, length); a rejected pair raises
    GeometryError.

    Pass ``scene.user_walls`` (the walls plus the unloaded RIS panel) for a
    BS-to-user link, as the CLI's ``scene trace`` does, and ``scene.walls``
    for a link that ends on a RIS port, which sits on the panel.
    """
    walls = tuple(walls)
    src = np.asarray(src, dtype=float).reshape(1, 2)
    dst = np.asarray(dst, dtype=float).reshape(1, 2)
    _reject_pairs(src, dst, walls)
    wall_arrays = _WallArrays(walls)
    si = np.zeros(1, dtype=int)
    paths = []
    for seq in _sequences(src, walls, scene.max_reflection_order):
        lengths, points = _sequence_paths(seq, si, src, dst, wall_arrays)
        if np.isfinite(lengths[0]):
            paths.append(
                PropagationPath(
                    length=float(lengths[0]),
                    product=seq.product,
                    order=len(seq.seq),
                    points=tuple(tuple(p[0]) for p in points),
                )
            )
    paths.sort(key=lambda p: (p.order, p.length))
    return paths


def _chunk_field(scene, si, src, dst, wall_arrays, sequences):
    """Coherent field of each (src, dst) row pair: the path gains summed in
    (order, length) order, the order of trace_paths' list."""
    lengths = np.stack(
        [_sequence_paths(seq, si, src, dst, wall_arrays)[0] for seq in sequences],
        axis=1,
    )
    gains = np.zeros(lengths.shape, dtype=complex)
    for col, seq in enumerate(sequences):
        found = np.isfinite(lengths[:, col])
        gains[found, col] = _path_gains(
            seq.product, lengths[found, col], scene.frequency
        )
    orders = np.broadcast_to([len(seq.seq) for seq in sequences], lengths.shape)
    # stable: paths of equal order and length keep their sequence order
    rank = np.lexsort((lengths, orders), axis=1)
    total = np.zeros(si.shape[0], dtype=complex)
    for column in np.take_along_axis(gains, rank, axis=1).T:
        total += column  # adding the 0 of a missing path changes nothing
    return total


def field_matrix(scene: SceneDescription, sources, dests, walls) -> np.ndarray:
    """Coherent field of every source-destination pair, shape (D, S).

    Entry [d, s] is the sum of ``path_gain`` over ``trace_paths(scene,
    sources[s], dests[d], walls=walls)``, bit for bit.  Pairs are traced
    PAIR_CHUNK at a time in destination-major order, after ``_reject_pairs``
    has checked them all.
    """
    sources = np.atleast_2d(np.asarray(sources, dtype=float))
    dests = np.atleast_2d(np.asarray(dests, dtype=float))
    walls = tuple(walls)
    _reject_pairs(sources, dests, walls)
    n_src, n_dst = sources.shape[0], dests.shape[0]
    wall_arrays = _WallArrays(walls)
    sequences = _sequences(sources, walls, scene.max_reflection_order)
    field = np.zeros(n_dst * n_src, dtype=complex)
    for start in range(0, field.size, PAIR_CHUNK):
        pairs = np.arange(start, min(start + PAIR_CHUNK, field.size))
        si, di = pairs % n_src, pairs // n_src
        field[pairs] = _chunk_field(
            scene, si, sources[si], dests[di], wall_arrays, sequences
        )
    return field.reshape(n_dst, n_src)


def trace_users(scene: SceneDescription, positions):
    """(h_u, g_l) rows of users at ``positions``: (P, M) and (P, N)."""
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    if not np.all(np.isfinite(positions)):
        raise ValueError("user_positions contains non-finite positions")
    h_u = field_matrix(scene, scene.bs_elements, positions, scene.user_walls)
    g_l = field_matrix(scene, scene.ris_ports, positions, scene.walls)
    return h_u, g_l


def synthesize_components(scene: SceneDescription) -> ChannelComponents:
    """Trace every source-destination pair and build the channel substrate.

    Port traces exclude the unloaded panel (ports sit on it); BS-to-user
    traces include it so the baseline channel carries the unloaded-RIS
    scattering.  h_u, h_0 and g_l are traced in that order, so a rejected
    point raises the error the first of them meets.  The port coupling
    matrix comes from the induced-EMF model.  A fully occluded scene logs.
    """
    n = scene.dims[2]
    h_u = field_matrix(
        scene, scene.bs_elements, scene.user_positions, scene.user_walls
    )
    h_0 = field_matrix(scene, scene.bs_elements, scene.ris_ports, scene.walls)
    g_l = field_matrix(scene, scene.ris_ports, scene.user_positions, scene.walls)
    if not (np.any(h_u) or np.any(h_0) or np.any(g_l)):
        logger.warning("all traced channel matrices are zero (fully occluded scene)")
    z_ll = synthesize_mutual_impedance(
        n, scene.ris_spacing, scene.frequency, scene.ris_self_impedance
    )
    return ChannelComponents(
        h_u=h_u, h_0=h_0, g_l=g_l, z_ll=z_ll, frequency=scene.frequency
    )


def with_users(scene: SceneDescription, user_positions) -> SceneDescription:
    """Same scene with the user set replaced."""
    return replace(
        scene, user_positions=np.atleast_2d(np.asarray(user_positions, dtype=float))
    )


# --- default site -----------------------------------------------------------

DEFAULT_FREQUENCY = 5.8e9

# Orientation of the RIS panel line, degrees from the x axis.  Chosen so the
# panel specularly couples the BS region to the user region.
DEFAULT_PANEL_ANGLE_DEG = 103.0

DEFAULT_PANEL_REFLECTION = -0.6

DEFAULT_USERS = ((1.30, 3.13), (1.80, 2.38), (2.30, 1.63))
DEFAULT_BS_CENTER = (6.0, -3.0)


def make_ris_line(
    n_ports: int,
    frequency: float,
    center=(0.0, 0.0),
    spacing: float | None = None,
    angle_deg: float = DEFAULT_PANEL_ANGLE_DEG,
    reflection: complex = DEFAULT_PANEL_REFLECTION,
):
    """Uniform port line centered at ``center`` plus its panel reflector wall;
    the spacing defaults to half a wavelength at ``frequency``."""
    lam = wavelength(frequency)
    if spacing is None:
        spacing = lam / 2.0
    center = np.asarray(center, dtype=float)
    theta = math.radians(angle_deg)
    direction = np.array([math.cos(theta), math.sin(theta)])
    offsets = (np.arange(n_ports) - (n_ports - 1) / 2.0) * spacing
    ports = center + offsets[:, None] * direction
    half_extent = n_ports * spacing / 2.0
    panel = Wall(
        p1=tuple(center - half_extent * direction),
        p2=tuple(center + half_extent * direction),
        reflection=reflection,
    )
    return ports, panel


def default_scene(
    n_ports: int = 20,
    max_reflection_order: int = 2,
    with_grid: bool = True,
) -> SceneDescription:
    """Built-in corridor-junction scene.

    At DEFAULT_FREQUENCY: three BS antennas spaced half a wavelength around
    (6, -3), a 20-port RIS line centered at the origin, three users in the
    upper arm, and corridor walls placed so all direct links stay clear.
    All wall coefficients are declared assumptions, not measured values.
    """
    frequency = DEFAULT_FREQUENCY
    lam = wavelength(frequency)
    bs_center = np.asarray(DEFAULT_BS_CENTER, dtype=float)
    offsets = (np.arange(3) - 1.0) * lam / 2.0
    bs = bs_center + np.stack([offsets, np.zeros(3)], axis=1)
    ports, panel = make_ris_line(n_ports, frequency)
    walls = (
        Wall(p1=(-1.0, -4.0), p2=(-1.0, 4.0)),
        Wall(p1=(-1.0, -4.0), p2=(7.0, -4.0)),
        Wall(p1=(7.0, -4.0), p2=(7.0, 1.0)),
        Wall(p1=(-1.0, 4.0), p2=(3.0, 4.0)),
    )
    grid = (
        ObservationGrid(origin=(0.5, 0.5), spacing=(0.15, 0.15), counts=(18, 18))
        if with_grid
        else None
    )
    return SceneDescription(
        walls=walls,
        bs_elements=bs,
        ris_ports=ports,
        user_positions=np.asarray(DEFAULT_USERS, dtype=float),
        frequency=frequency,
        max_reflection_order=max_reflection_order,
        grid=grid,
        unloaded_panel=panel,
    )
