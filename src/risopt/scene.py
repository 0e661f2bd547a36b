"""2D site geometry and image-method ray tracing.

Walls are line segments with a complex reflection coefficient; propagation
between any two points is the coherent sum of the direct path (when
unobstructed) and all specular paths up to a configurable reflection order,
found by recursively mirroring the source across wall lines and validating
each candidate with segment-intersection tests.

``trace_paths`` traces one source-destination pair and lists its paths.
``field_matrix`` gives the coherent field of every pair of a set of sources
and destinations at once: the images of a wall sequence depend only on the
source and the walls (Allen & Berkley, JASA 1979), so it mirrors each source
once per sequence and runs the reflection-point backtracking and every
leg-blocking test for a fixed-size chunk of pairs in numpy.  Its fields are
bit-identical to summing ``path_gain`` over ``trace_paths`` in its
(order, length) order, which keeps ``--reproducible`` outputs unchanged.

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
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelComponents
from .constants import SPEED_OF_LIGHT
from .coupling import DEFAULT_SELF_IMPEDANCE, synthesize_mutual_impedance
from .errors import GeometryError

GEOM_EPS = 1e-9  # meters; tolerance for on-wall and intersection tests

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
        if not (np.all(np.isfinite(p1)) and np.all(np.isfinite(p2))):
            raise ValueError("wall endpoints must be finite")
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
    points: tuple = ()  # reflection points, for inspection/trace output


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


def wavelength(frequency: float) -> float:
    """Free-space wavelength of a scene frequency; the one check that the
    frequency is positive."""
    if not frequency > 0:
        raise ValueError(f"frequency_hz must be positive, got {frequency}")
    return SPEED_OF_LIGHT / frequency


@dataclass(frozen=True)
class SceneDescription:
    """2D scene: walls, BS array, RIS port line, users, optional grid.

    The optional ``unloaded_panel`` wall models the scattering of the RIS
    structure with all loads removed; it participates only in BS-to-user
    traces.  ``ris_self_impedance`` seeds the synthetic port coupling matrix.
    """

    walls: tuple
    bs_elements: np.ndarray  # (M, 2)
    ris_ports: np.ndarray  # (N, 2)
    user_positions: np.ndarray  # (K, 2)
    frequency: float
    max_reflection_order: int = 2
    grid: ObservationGrid | None = None
    unloaded_panel: Wall | None = None
    ris_self_impedance: complex = DEFAULT_SELF_IMPEDANCE

    def __post_init__(self):
        object.__setattr__(self, "walls", tuple(self.walls))
        for name in ("bs_elements", "ris_ports", "user_positions"):
            arr = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, arr)
            if arr.shape[0] < 1 or arr.shape[1] != 2:
                raise ValueError(f"{name} must be a nonempty list of 2D points")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite positions")
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


def _mirror(point: np.ndarray, wall: Wall) -> np.ndarray:
    d = wall.p2 - wall.p1
    n = np.array([-d[1], d[0]])
    n = n / np.linalg.norm(n)
    return point - 2.0 * np.dot(point - wall.p1, n) * n


def _segment_wall_intersection(a, b, wall):
    """Parameters (t, u) with a + t(b-a) = p1 + u(p2-p1), or None if parallel."""
    r = b - a
    s = wall.p2 - wall.p1
    denom = r[0] * s[1] - r[1] * s[0]
    if abs(denom) < 1e-15 * (np.linalg.norm(r) * np.linalg.norm(s) + 1e-300):
        return None
    q = wall.p1 - a
    t = (q[0] * s[1] - q[1] * s[0]) / denom
    u = (q[0] * r[1] - q[1] * r[0]) / denom
    return t, u


def _leg_blocked(a, b, walls, skip=()):
    """True when segment a->b crosses any wall not in ``skip``.

    Crossings within GEOM_EPS of the leg endpoints do not count: reflection
    points terminate legs exactly on their anchor walls.
    """
    length = np.linalg.norm(b - a)
    if length <= GEOM_EPS:
        return True
    t_eps = GEOM_EPS / length
    for wall in walls:
        if any(wall is w for w in skip):
            continue
        hit = _segment_wall_intersection(a, b, wall)
        if hit is None:
            continue
        t, u = hit
        if t_eps < t < 1.0 - t_eps and -GEOM_EPS <= u <= 1.0 + GEOM_EPS:
            return True
    return False


def _point_on_wall(point, wall) -> bool:
    d = wall.p2 - wall.p1
    length = np.linalg.norm(d)
    rel = point - wall.p1
    u = np.dot(rel, d) / (length**2)
    if u < -GEOM_EPS or u > 1.0 + GEOM_EPS:
        return False
    perp = rel - u * d
    return np.linalg.norm(perp) <= GEOM_EPS


def _wall_sequences(walls, order):
    """All wall-index sequences of the given order without immediate
    repeats, in lexicographic order."""
    return (
        seq
        for seq in itertools.product(range(len(walls)), repeat=order)
        if all(a != b for a, b in zip(seq, seq[1:]))
    )


def trace_paths(
    scene: SceneDescription, src, dst, walls=None
) -> list[PropagationPath]:
    """All specular paths from src to dst up to the scene's reflection order.

    Recursive image sources generate candidates; each is validated by
    intersection tests on every leg.  Results are sorted by (order, length).
    ``walls`` overrides the traced wall set (used internally to include or
    exclude the unloaded RIS panel).
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    if walls is None:
        walls = scene.walls
    if np.linalg.norm(dst - src) <= GEOM_EPS:
        raise GeometryError("src and dst coincide")
    for wall in walls:
        if _point_on_wall(src, wall) or _point_on_wall(dst, wall):
            raise GeometryError("src or dst lies on a wall segment")

    paths = []
    if not _leg_blocked(src, dst, walls):
        paths.append(
            PropagationPath(
                length=float(np.linalg.norm(dst - src)),
                product=1.0 + 0.0j,
                order=0,
            )
        )

    for order in range(1, scene.max_reflection_order + 1):
        for seq in _wall_sequences(walls, order):
            candidate = _validate_sequence(src, dst, walls, seq)
            if candidate is not None:
                paths.append(candidate)

    paths.sort(key=lambda p: (p.order, p.length))
    return paths


def _validate_sequence(src, dst, walls, seq):
    """Check one ordered wall sequence; return its path or None."""
    order = len(seq)
    images = [src]
    for i in seq:
        images.append(_mirror(images[-1], walls[i]))

    # Backtrack reflection points from the last wall toward the source.
    points = [None] * order
    target = dst
    for j in range(order - 1, -1, -1):
        wall = walls[seq[j]]
        hit = _segment_wall_intersection(images[j + 1], target, wall)
        if hit is None:
            return None
        t, u = hit
        if not (GEOM_EPS < t < 1.0 - GEOM_EPS):
            return None
        if not (-GEOM_EPS <= u <= 1.0 + GEOM_EPS):
            return None
        points[j] = images[j + 1] + t * (target - images[j + 1])
        target = points[j]

    # Visibility of every physical leg, skipping each leg's anchor walls.
    stations = [src] + points + [dst]
    anchors = [None] + [walls[i] for i in seq] + [None]
    product = 1.0 + 0.0j
    for i in seq:
        product *= walls[i].reflection
    for leg in range(order + 1):
        a, b = stations[leg], stations[leg + 1]
        skip = tuple(w for w in (anchors[leg], anchors[leg + 1]) if w is not None)
        if np.linalg.norm(b - a) <= GEOM_EPS:
            return None
        if _leg_blocked(a, b, walls, skip=skip):
            return None

    length = float(np.linalg.norm(dst - images[-1]))
    return PropagationPath(
        length=length,
        product=product,
        order=order,
        points=tuple(tuple(p) for p in points),
    )


def path_gain(path: PropagationPath, frequency: float) -> complex:
    """Complex field contribution of one path: product * exp(-jkd) / d."""
    if path.length <= 0.0:
        raise ValueError("path length must be positive")
    k = 2.0 * np.pi * frequency / SPEED_OF_LIGHT
    return path.product * np.exp(-1j * k * path.length) / path.length


# --- vectorized tracer --------------------------------------------------------

# (source, destination) pairs that field_matrix traces together; bounds the
# size of its temporaries whatever the number of destinations.
PAIR_CHUNK = 256


def _dot(a, b):
    """Row-wise dot products of (..., 2) arrays.

    A stacked matmul runs the same BLAS dot as ``np.dot`` and
    ``np.linalg.norm`` do for one 2-vector, so these round exactly as the
    scalar tracer's; ``a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]`` does not.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norm(v):
    return np.sqrt(_dot(v, v))


def _mirror_points(points, wall: Wall) -> np.ndarray:
    """``_mirror`` of every row of ``points``."""
    d = wall.p2 - wall.p1
    n = np.array([-d[1], d[0]])
    n = n / np.linalg.norm(n)
    return points - (2.0 * _dot(points - wall.p1, n))[:, None] * n


def _on_any_wall(points, walls) -> np.ndarray:
    """``_point_on_wall`` of every row of ``points``, or-ed over the walls."""
    on = np.zeros(points.shape[0], dtype=bool)
    for wall in walls:
        d = wall.p2 - wall.p1
        length = np.linalg.norm(d)
        rel = points - wall.p1
        u = _dot(rel, d) / (length**2)
        perp = rel - u[:, None] * d
        on |= (u >= -GEOM_EPS) & (u <= 1.0 + GEOM_EPS) & (_norm(perp) <= GEOM_EPS)
    return on


class _WallArrays:
    """Endpoints, direction vectors and their norms of a wall tuple."""

    def __init__(self, walls):
        self.p1 = np.array([w.p1 for w in walls], dtype=float).reshape(-1, 2)
        self.s = np.array([w.p2 - w.p1 for w in walls], dtype=float).reshape(-1, 2)
        self.s_norm = np.array([np.linalg.norm(w.p2 - w.p1) for w in walls])


def _crossings(a, r, r_norm, walls: _WallArrays, cols):
    """``_segment_wall_intersection`` of each row's segment a -> a + r with
    each wall in ``cols``: (crosses, t, u), each (rows, len(cols)); crosses
    is False where the segment and the wall are parallel."""
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
    """True where segment a -> b has length and crosses no wall in ``cols``
    (``_leg_blocked`` per row, with the same endpoint tolerance)."""
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

    The complex product is written out in real arithmetic: numpy's SIMD
    complex multiply may fuse it, the scalar one does not.
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
    """Every wall sequence up to ``order_cap`` in trace_paths order, starting
    with the direct path's empty sequence."""
    images = {(): sources}
    sequences = []
    for order in range(order_cap + 1):
        for seq in _wall_sequences(walls, order):
            if seq not in images:
                images[seq] = _mirror_points(images[seq[:-1]], walls[seq[-1]])
            sequences.append(_Sequence(seq, walls, images))
    return sequences


def _sequence_lengths(seq: _Sequence, si, src, dst, walls: _WallArrays):
    """Unfolded length of each pair's path along ``seq``; inf where there is
    none (``_validate_sequence`` per pair)."""
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
        points[j] = image + t[:, None] * r
        target = points[j]
    lengths = np.full(si.shape[0], np.inf)
    rows = np.flatnonzero(valid)
    if rows.size == 0:
        return lengths
    stations = [src[rows]] + [p[rows] for p in points] + [dst[rows]]
    clear = np.ones(rows.size, dtype=bool)
    for leg in range(order + 1):
        clear &= _legs_clear(
            stations[leg], stations[leg + 1], walls, seq.leg_cols[leg]
        )
    rows = rows[clear]
    lengths[rows] = _norm(dst[rows] - seq.images[order][si[rows]])
    return lengths


def _chunk_field(scene, si, src, dst, wall_arrays, sequences):
    """Coherent field of each (src, dst) row pair: the path gains summed in
    the (order, length) order that trace_paths sorts them into."""
    lengths = np.stack(
        [_sequence_lengths(seq, si, src, dst, wall_arrays) for seq in sequences],
        axis=1,
    )
    gains = np.zeros(lengths.shape, dtype=complex)
    for col, seq in enumerate(sequences):
        found = np.isfinite(lengths[:, col])
        gains[found, col] = _path_gains(
            seq.product, lengths[found, col], scene.frequency
        )
    orders = np.broadcast_to([len(seq.seq) for seq in sequences], lengths.shape)
    # stable: paths of equal order and length keep trace_paths order
    rank = np.lexsort((lengths, orders), axis=1)
    total = np.zeros(si.shape[0], dtype=complex)
    for column in np.take_along_axis(gains, rank, axis=1).T:
        total += column  # adding the 0 of a missing path changes nothing
    return total


def field_matrix(scene: SceneDescription, sources, dests, walls) -> np.ndarray:
    """Coherent field of every source-destination pair, shape (D, S).

    Entry [d, s] is the sum of ``path_gain`` over ``trace_paths(scene,
    sources[s], dests[d], walls=walls)``, bit for bit.  Pairs are traced
    PAIR_CHUNK at a time in destination-major order; a coincident pair or a
    point on a wall raises the GeometryError that trace_paths raises for the
    first such pair in that order.
    """
    sources = np.atleast_2d(np.asarray(sources, dtype=float))
    dests = np.atleast_2d(np.asarray(dests, dtype=float))
    walls = tuple(walls)
    n_src, n_dst = sources.shape[0], dests.shape[0]
    src_on_wall = _on_any_wall(sources, walls)
    dst_on_wall = _on_any_wall(dests, walls)
    wall_arrays = _WallArrays(walls)
    sequences = _sequences(sources, walls, scene.max_reflection_order)
    field = np.zeros(n_dst * n_src, dtype=complex)
    for start in range(0, field.size, PAIR_CHUNK):
        pairs = np.arange(start, min(start + PAIR_CHUNK, field.size))
        si, di = pairs % n_src, pairs // n_src
        src, dst = sources[si], dests[di]
        coincide = _norm(dst - src) <= GEOM_EPS
        bad = coincide | src_on_wall[si] | dst_on_wall[di]
        if bad.any():
            first = np.argmax(bad)
            raise GeometryError(
                "src and dst coincide"
                if coincide[first]
                else "src or dst lies on a wall segment"
            )
        field[pairs] = _chunk_field(scene, si, src, dst, wall_arrays, sequences)
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
    matrix comes from the induced-EMF model.
    """
    n = scene.dims[2]
    h_u = field_matrix(
        scene, scene.bs_elements, scene.user_positions, scene.user_walls
    )
    h_0 = field_matrix(scene, scene.bs_elements, scene.ris_ports, scene.walls)
    g_l = field_matrix(scene, scene.ris_ports, scene.user_positions, scene.walls)
    if not (np.any(h_u) or np.any(h_0) or np.any(g_l)):
        warnings.warn(
            "all traced channel matrices are zero (fully occluded scene)",
            stacklevel=2,
        )
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
    center=(0.0, 0.0),
    n_ports: int = 20,
    spacing: float | None = None,
    angle_deg: float = DEFAULT_PANEL_ANGLE_DEG,
    frequency: float = DEFAULT_FREQUENCY,
    reflection: complex = DEFAULT_PANEL_REFLECTION,
):
    """Uniform port line centered at ``center`` plus its panel reflector wall."""
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
    frequency: float = DEFAULT_FREQUENCY,
    with_grid: bool = True,
) -> SceneDescription:
    """Built-in corridor-junction scene.

    Three BS antennas spaced half a wavelength around (6, -3), a 20-port RIS
    line centered at the origin, three users in the upper arm, and corridor
    walls placed so all direct links stay clear.  All wall coefficients are
    declared assumptions, not measured values.
    """
    lam = wavelength(frequency)
    bs_center = np.asarray(DEFAULT_BS_CENTER, dtype=float)
    offsets = (np.arange(3) - 1.0) * lam / 2.0
    bs = bs_center + np.stack([offsets, np.zeros(3)], axis=1)
    ports, panel = make_ris_line(
        n_ports=n_ports, frequency=frequency
    )
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
