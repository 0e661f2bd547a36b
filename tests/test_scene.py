"""Image-method ray tracer: toy geometries, oracles, and properties."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from conftest import load_perfbench

import risopt as ro
from risopt.constants import SPEED_OF_LIGHT
from risopt.scene import (
    PAIR_CHUNK,
    PropagationPath,
    SceneDescription,
    Wall,
    _wall_sequences,
    default_scene,
    field_matrix,
    path_gain,
    synthesize_components,
    trace_paths,
    trace_users,
    with_users,
)


# the benchmark's plain image-method tracer, an oracle written apart from
# risopt; loaded read-only from perfbench/
reference = load_perfbench("reference")


def reference_walls(walls):
    return [(w.p1, w.p2, w.reflection) for w in walls]


def simple_scene(walls, max_order=1):
    return SceneDescription(
        walls=walls,
        bs_elements=[(0.0, 1.0)],
        ris_ports=[(0.0, 0.5)],
        user_positions=[(4.0, 1.0)],
        frequency=5.8e9,
        max_reflection_order=max_order,
        grid=None,
        unloaded_panel=None,
    )


class TestTracePaths:
    def test_single_wall_direct_plus_reflection(self):
        scene = simple_scene((Wall(p1=(-10, 0), p2=(10, 0), reflection=-1.0),))
        paths = trace_paths(scene, (0, 1), (4, 1), walls=scene.walls)
        assert len(paths) == 2
        direct, bounced = paths
        assert direct.order == 0
        assert direct.length == pytest.approx(4.0, abs=0)
        assert direct.product == 1.0
        # image of (0,1) is (0,-1): length sqrt(16+4)
        assert bounced.order == 1
        assert bounced.length == pytest.approx(np.sqrt(20.0), abs=1e-12)
        assert bounced.product == -1.0

    def test_free_space_single_direct_path(self):
        scene = simple_scene(())
        paths = trace_paths(scene, (0, 1), (4, 1), walls=scene.walls)
        assert len(paths) == 1
        assert paths[0].order == 0
        assert paths[0].length == 4.0
        assert paths[0].product == 1.0

    def test_full_blockage_yields_empty_list(self):
        scene = simple_scene(
            (Wall(p1=(2.0, -5.0), p2=(2.0, 5.0), reflection=-0.5),), max_order=0
        )
        assert trace_paths(scene, (0, 1), (4, 1), walls=scene.walls) == []

    def test_src_on_wall_rejected(self):
        scene = simple_scene((Wall(p1=(-10, 0), p2=(10, 0)),))
        with pytest.raises(ro.GeometryError):
            trace_paths(scene, (0.0, 0.0), (4.0, 1.0), walls=scene.walls)

    def test_coincident_endpoints_rejected(self):
        scene = simple_scene(())
        with pytest.raises(ro.GeometryError):
            trace_paths(scene, (1.0, 1.0), (1.0, 1.0), walls=scene.walls)

    def test_a_point_at_the_coordinate_bound_traces_its_direct_path(self):
        # the order-5 images of a point 1e150 m out, and the stray
        # intersections of the sequences it has no path along, stay finite
        # (a RuntimeWarning fails the suite)
        scene = replace(default_scene(n_ports=4), max_reflection_order=5)
        paths = trace_paths(scene, (1e150, 0.0), (1.0, 1.0), walls=scene.user_walls)
        assert [(p.order, p.length) for p in paths] == [(0, 1e150)]

    def test_a_point_beyond_the_coordinate_bound_is_rejected(self):
        scene = default_scene(n_ports=4)
        for src, dst in (((1e151, 0.0), (1.0, 1.0)), ((1.0, 1.0), (0.0, -1e300))):
            with pytest.raises(ro.GeometryError, match="coordinate beyond 1e\\+150 m"):
                trace_paths(scene, src, dst, walls=scene.user_walls)

    def test_deterministic_ordering(self):
        scene = default_scene()
        src, dst = scene.bs_elements[0], scene.user_positions[0]
        a = trace_paths(scene, src, dst, walls=scene.walls)
        b = trace_paths(scene, src, dst, walls=scene.walls)
        assert [(p.order, p.length) for p in a] == [(p.order, p.length) for p in b]
        orders_lengths = [(p.order, p.length) for p in a]
        assert orders_lengths == sorted(orders_lengths)


def reference_paths(scene, src, dst, walls):
    """(order, length, product) of every path that the reference's
    ``image_path`` finds over every wall sequence, by (order, length)."""
    ref_walls = reference_walls(walls)
    found = []
    for order in range(scene.max_reflection_order + 1):
        for seq in itertools.product(range(len(walls)), repeat=order):
            if any(a == b for a, b in zip(seq, seq[1:])):
                continue
            path = reference.image_path(
                np.asarray(src, dtype=float), np.asarray(dst, dtype=float),
                ref_walls, seq,
            )
            if path is not None:
                found.append((order, *path))
    return sorted(found, key=lambda p: p[:2])


class TestPathListing:
    """trace_paths lists the paths the benchmark's reference tracer finds."""

    @pytest.mark.parametrize(
        "scene, dests",
        [
            (default_scene(), None),
            (default_scene(), default_scene().grid.points()[::13]),
            (default_scene(n_ports=4, max_reflection_order=3, with_grid=False), None),
        ],
        ids=["default", "grid-sample", "order3"],
    )
    def test_paths_match_reference(self, scene, dests):
        dests = scene.user_positions if dests is None else dests
        listed = 0
        for src in scene.bs_elements:
            for dst in dests:
                got = trace_paths(scene, src, dst, walls=scene.user_walls)
                want = reference_paths(scene, src, dst, scene.user_walls)
                assert [p.order for p in got] == [p[0] for p in want]
                for path, (_, length, product) in zip(got, want):
                    assert abs(path.length - length) <= 1e-12 * length
                    assert abs(path.product - product) <= 1e-12
                listed += len(got)
        assert listed > 0


class TestWallSequences:
    def test_every_sequence_without_immediate_repeats_in_order(self):
        for w in range(7):
            walls = range(w)
            assert list(_wall_sequences(walls, 0)) == [()]
            for k in range(1, 4):
                seqs = list(_wall_sequences(walls, k))
                assert len(seqs) == w * (w - 1) ** (k - 1)
                assert seqs == sorted(set(seqs))
                for seq in seqs:
                    assert len(seq) == k and set(seq) <= set(walls)
                    assert all(a != b for a, b in zip(seq, seq[1:]))


class TestReciprocity:
    def test_swap_gives_identical_multiset(self, rng):
        walls = tuple(
            Wall(
                p1=tuple(rng.uniform(-6, 6, 2)),
                p2=tuple(rng.uniform(-6, 6, 2)),
                reflection=complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.3, 0.3)),
            )
            for _ in range(4)
        )
        scene = simple_scene(walls, max_order=2)
        for _ in range(5):
            src = rng.uniform(-5, 5, 2)
            dst = rng.uniform(-5, 5, 2)
            try:
                fwd = trace_paths(scene, src, dst, walls=scene.walls)
                rev = trace_paths(scene, dst, src, walls=scene.walls)
            except ro.GeometryError:
                continue
            key = lambda p: (p.order, round(p.length, 10), round(p.product.real, 10))
            assert sorted(map(key, fwd)) == sorted(map(key, rev))


def rectangle_walls(lx, ly, refl):
    return (
        Wall(p1=(0, 0), p2=(lx, 0), reflection=refl),
        Wall(p1=(lx, 0), p2=(lx, ly), reflection=refl),
        Wall(p1=(lx, ly), p2=(0, ly), reflection=refl),
        Wall(p1=(0, ly), p2=(0, 0), reflection=refl),
    )


def lattice_image_lengths(src, dst, lx, ly, max_order):
    """Independent mirror-room oracle: image lattice of a rectangle.

    Images sit at (2a*lx +/- sx, 2b*ly +/- sy); the number of reflections per
    axis is |2a| for the + sign and |2a - 1| for the - sign.
    """
    sx, sy = src
    lengths = []
    for a in range(-max_order, max_order + 1):
        for sgn_x in (1, -1):
            nx = abs(2 * a) if sgn_x == 1 else abs(2 * a - 1)
            if nx > max_order:
                continue
            x = 2 * a * lx + sgn_x * sx
            for b in range(-max_order, max_order + 1):
                for sgn_y in (1, -1):
                    ny = abs(2 * b) if sgn_y == 1 else abs(2 * b - 1)
                    if nx + ny > max_order:
                        continue
                    y = 2 * b * ly + sgn_y * sy
                    order = nx + ny
                    lengths.append(
                        (order, float(np.hypot(dst[0] - x, dst[1] - y)))
                    )
    return sorted(lengths)


class TestRectangularRoomOracle:
    def test_matches_brute_force_mirror_enumeration(self):
        lx, ly = 6.0, 4.0
        src, dst = (1.2, 1.1), (4.3, 2.7)
        scene = SceneDescription(
            walls=rectangle_walls(lx, ly, -0.5),
            bs_elements=[src],
            ris_ports=[(3.0, 2.0)],
            user_positions=[dst],
            frequency=5.8e9,
            max_reflection_order=2,
            grid=None,
            unloaded_panel=None,
        )
        paths = trace_paths(scene, src, dst, walls=scene.walls)
        traced = sorted((p.order, p.length) for p in paths)
        expected = lattice_image_lengths(src, dst, lx, ly, 2)
        assert len(traced) == len(expected) == 13
        for (o_t, l_t), (o_e, l_e) in zip(traced, expected):
            assert o_t == o_e
            assert l_t == pytest.approx(l_e, abs=1e-12)

    def test_matches_lattice_oracle_at_order_three(self):
        lx, ly = 6.0, 4.0
        src, dst = (1.2, 1.1), (4.3, 2.7)
        scene = SceneDescription(
            walls=rectangle_walls(lx, ly, -0.5),
            bs_elements=[src],
            ris_ports=[(3.0, 2.0)],
            user_positions=[dst],
            frequency=5.8e9,
            max_reflection_order=3,
            grid=None,
            unloaded_panel=None,
        )
        paths = trace_paths(scene, src, dst, walls=scene.walls)
        traced = sorted((p.order, p.length) for p in paths)
        expected = lattice_image_lengths(src, dst, lx, ly, 3)
        assert len(traced) == len(expected)
        for (o_t, l_t), (o_e, l_e) in zip(traced, expected):
            assert o_t == o_e
            assert l_t == pytest.approx(l_e, abs=1e-12)

    def test_products_follow_reflection_order(self):
        scene = SceneDescription(
            walls=rectangle_walls(6.0, 4.0, -0.5),
            bs_elements=[(1.2, 1.1)],
            ris_ports=[(3.0, 2.0)],
            user_positions=[(4.3, 2.7)],
            frequency=5.8e9,
            max_reflection_order=2,
            grid=None,
            unloaded_panel=None,
        )
        for p in trace_paths(scene, (1.2, 1.1), (4.3, 2.7), walls=scene.walls):
            assert p.product == pytest.approx((-0.5) ** p.order)

    def test_path_lengths_bounded_below_by_distance(self):
        scene = SceneDescription(
            walls=rectangle_walls(6.0, 4.0, -0.5),
            bs_elements=[(1.2, 1.1)],
            ris_ports=[(3.0, 2.0)],
            user_positions=[(4.3, 2.7)],
            frequency=5.8e9,
            max_reflection_order=2,
            grid=None,
            unloaded_panel=None,
        )
        euclid = np.hypot(4.3 - 1.2, 2.7 - 1.1)
        for p in trace_paths(scene, (1.2, 1.1), (4.3, 2.7), walls=scene.walls):
            assert p.length >= euclid - 1e-12


class TestTiltedWallPhysics:
    """Single tilted wall: the specular bounce obeys Fermat and the
    reflection law, independent of the mirror construction used to find it."""

    @pytest.mark.parametrize("angle_deg", [17.0, 63.0, 102.0, 151.0])
    def test_bounce_length_minimizes_total_distance(self, angle_deg):
        from scipy.optimize import minimize_scalar

        theta = np.radians(angle_deg)
        tangent = np.array([np.cos(theta), np.sin(theta)])
        normal = np.array([-tangent[1], tangent[0]])
        center = np.array([1.0, 0.5])
        wall = Wall(
            p1=tuple(center - 8 * tangent),
            p2=tuple(center + 8 * tangent),
            reflection=-0.7,
        )
        # both endpoints strictly on the same side of the wall
        src = center + 2.5 * normal + 0.4 * tangent
        dst = center + 1.7 * normal - 2.1 * tangent
        scene = simple_scene((wall,))
        paths = trace_paths(scene, src, dst, walls=scene.walls)
        bounced = [p for p in paths if p.order == 1]
        assert len(bounced) == 1

        def total(u):
            point = wall.p1 + u * (wall.p2 - wall.p1)
            return np.linalg.norm(point - src) + np.linalg.norm(dst - point)

        fermat = minimize_scalar(total, bounds=(0.0, 1.0), method="bounded")
        assert bounced[0].length == pytest.approx(fermat.fun, rel=1e-10)

    def test_bounce_point_obeys_reflection_law(self):
        wall = Wall(p1=(-3.0, -1.0), p2=(5.0, 3.0), reflection=-0.5)
        src = np.array([0.0, 3.0])
        dst = np.array([3.0, 4.0])
        scene = simple_scene((wall,))
        paths = trace_paths(scene, src, dst, walls=scene.walls)
        bounced = [p for p in paths if p.order == 1]
        assert len(bounced) == 1
        point = np.asarray(bounced[0].points[0])
        tangent = (wall.p2 - wall.p1) / np.linalg.norm(wall.p2 - wall.p1)
        incoming = (point - src) / np.linalg.norm(point - src)
        outgoing = (dst - point) / np.linalg.norm(dst - point)
        # equal tangential components, opposite normal components
        assert np.dot(incoming, tangent) == pytest.approx(
            np.dot(outgoing, tangent), abs=1e-12
        )
        normal = np.array([-tangent[1], tangent[0]])
        assert np.dot(incoming, normal) == pytest.approx(
            -np.dot(outgoing, normal), abs=1e-12
        )


class TestPathGain:
    def test_one_wavelength(self):
        lam = SPEED_OF_LIGHT / 5.8e9
        path = PropagationPath(length=lam, product=1.0, order=0, points=())
        g = path_gain(path, 5.8e9)
        assert abs(g) == pytest.approx(1.0 / lam, rel=1e-12)
        assert np.angle(g) == pytest.approx(0.0, abs=1e-9)  # phase -2*pi wraps

    def test_frozen_two_meter_value(self):
        # direct evaluation of product * exp(-j*2*pi*f*d/c)/d at d=2, 5.8 GHz
        path = PropagationPath(length=2.0, product=1.0, order=0, points=())
        g = path_gain(path, 5.8e9)
        assert abs(g) == pytest.approx(0.5, rel=1e-12)
        assert g == pytest.approx(-0.17398649810024117 + 0.4687522783718654j, rel=1e-12)

    def test_absorbing_wall_zeroes_path(self):
        path = PropagationPath(length=2.0, product=0.0, order=1, points=())
        g = path_gain(path, 5.8e9)
        assert g == 0.0

    def test_zero_length_rejected(self):
        path = PropagationPath(length=0.0, product=1.0, order=0, points=())
        with pytest.raises(ValueError):
            path_gain(path, 5.8e9)


class TestCoherentSumLinearity:
    def test_doubling_wall_coefficients_doubles_order1_contribution(self):
        def h_u_entry(refl):
            walls = (
                Wall(p1=(-10, 0), p2=(10, 0), reflection=refl),
                Wall(p1=(-10, 4), p2=(10, 4), reflection=refl),
            )
            scene = SceneDescription(
                walls=walls,
                bs_elements=[(0.0, 1.0)],
                ris_ports=[(0.0, 2.0)],
                user_positions=[(4.0, 1.0)],
                frequency=5.8e9,
                max_reflection_order=1,
                grid=None,
                unloaded_panel=None,
            )
            paths = trace_paths(scene, (0, 1), (4, 1), walls=scene.walls)
            direct = sum(
                path_gain(p, 5.8e9) for p in paths if p.order == 0
            )
            first = sum(path_gain(p, 5.8e9) for p in paths if p.order == 1)
            return direct, first

        direct_a, first_a = h_u_entry(-0.3)
        direct_b, first_b = h_u_entry(-0.6)
        assert direct_b == pytest.approx(direct_a, rel=1e-14)
        assert first_b == pytest.approx(2.0 * first_a, rel=1e-12)


def absorbing_boxes_scene():
    def box(x0, y0, x1, y1):
        return (
            Wall(p1=(x0, y0), p2=(x0, y1), reflection=0.0),
            Wall(p1=(x0, y1), p2=(x1, y1), reflection=0.0),
            Wall(p1=(x1, y1), p2=(x1, y0), reflection=0.0),
            Wall(p1=(x1, y0), p2=(x0, y0), reflection=0.0),
        )

    # BS and user each sealed inside their own absorbing box
    return SceneDescription(
        walls=box(1, -1, 3, 3) + box(5.5, 0, 7, 2),
        bs_elements=[(2.0, 1.0)],
        ris_ports=[(4.0, 0.0)],
        user_positions=[(6.0, 1.0)],
        frequency=5.8e9,
        max_reflection_order=0,
        grid=None,
        unloaded_panel=None,
    )


class TestSynthesizeComponents:
    def test_free_space_single_pair_matches_direct_gain(self):
        scene = SceneDescription(
            walls=(),
            bs_elements=[(0.0, 1.0)],
            ris_ports=[(0.0, 0.0)],
            user_positions=[(4.0, 1.0)],
            frequency=5.8e9,
            max_reflection_order=2,
            grid=None,
            unloaded_panel=None,
        )
        comps = synthesize_components(scene)
        expected = path_gain(
            PropagationPath(length=4.0, product=1.0, order=0, points=()), 5.8e9
        )
        assert comps.h_u[0, 0] == pytest.approx(expected, rel=1e-14)

    def test_default_scene_order0_terms_match_distance_oracle(self):
        scene = default_scene()
        comps = synthesize_components(
            ro.scene.SceneDescription(
                walls=(),
                bs_elements=scene.bs_elements,
                ris_ports=scene.ris_ports,
                user_positions=scene.user_positions,
                frequency=scene.frequency,
                max_reflection_order=0,
                grid=None,
                unloaded_panel=None,
            )
        )
        k = 2 * np.pi * scene.frequency / SPEED_OF_LIGHT
        for ki, user in enumerate(scene.user_positions):
            for mi, ant in enumerate(scene.bs_elements):
                d = float(np.linalg.norm(np.asarray(user) - np.asarray(ant)))
                assert comps.h_u[ki, mi] == pytest.approx(
                    np.exp(-1j * k * d) / d, rel=1e-12
                )

    def test_default_scene_shape_and_coupling(self):
        scene = default_scene()
        comps = synthesize_components(scene)
        assert comps.dims == (3, 3, 20)
        assert np.array_equal(comps.z_ll, comps.z_ll.T)
        assert np.all(np.real(np.diag(comps.z_ll)) > 0)
        # direct links exist everywhere in the default scene
        assert np.all(np.abs(comps.h_u) > 0)
        assert np.all(np.abs(comps.h_0) > 0)
        assert np.all(np.abs(comps.g_l) > 0)

    def test_fully_occluded_scene_warns_and_zeroes(self, caplog):
        comps = synthesize_components(absorbing_boxes_scene())
        assert any("zero" in m for m in caplog.messages)
        assert np.all(comps.h_u == 0)
        assert np.all(comps.h_0 == 0)

    def test_unloaded_panel_only_affects_h_u(self):
        base = default_scene(n_ports=4, max_reflection_order=1)
        bare = ro.scene.SceneDescription(
            walls=base.walls,
            bs_elements=base.bs_elements,
            ris_ports=base.ris_ports,
            user_positions=base.user_positions,
            frequency=base.frequency,
            max_reflection_order=1,
            unloaded_panel=None,
            grid=None,
        )
        with_panel = synthesize_components(base)
        without = synthesize_components(bare)
        assert np.array_equal(with_panel.h_0, without.h_0)
        assert np.array_equal(with_panel.g_l, without.g_l)
        assert not np.array_equal(with_panel.h_u, without.h_u)


def traced_components(scene):
    """(h_u, h_0, g_l) of a scene: the path gains of trace_paths summed in
    its (order, length) order, one call per pair."""

    def field(sources, dests, walls):
        return np.array(
            [
                [
                    sum(
                        (path_gain(p, scene.frequency)
                         for p in trace_paths(scene, s, d, walls=walls)),
                        0.0 + 0.0j,
                    )
                    for s in sources
                ]
                for d in dests
            ]
        )

    return (
        field(scene.bs_elements, scene.user_positions, scene.user_walls),
        field(scene.bs_elements, scene.ris_ports, scene.walls),
        field(scene.ris_ports, scene.user_positions, scene.walls),
    )


def reference_field(scene, sources, dests, walls):
    return reference.field_matrix(
        sources, dests, reference_walls(walls), scene.frequency,
        scene.max_reflection_order,
    )


def reference_components(scene, users=None):
    """(h_u, h_0, g_l) of a scene from the reference tracer."""
    users = scene.user_positions if users is None else users
    return (
        reference_field(scene, scene.bs_elements, users, scene.user_walls),
        reference_field(scene, scene.bs_elements, scene.ris_ports, scene.walls),
        reference_field(scene, scene.ris_ports, users, scene.walls),
    )


def assert_fields_agree(got, want):
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


class TestFieldMatrix:
    """The vectorized tracer against the benchmark's reference tracer, and
    bit for bit against a sum of path_gain over trace_paths."""

    @pytest.mark.parametrize(
        "scene",
        [
            default_scene(),
            default_scene(n_ports=2, max_reflection_order=1, with_grid=False),
            default_scene(n_ports=4, max_reflection_order=3, with_grid=False),
        ],
        ids=["default", "light", "order3"],
    )
    def test_components_match_reference(self, scene):
        comps = synthesize_components(scene)
        for got, want in zip(
            (comps.h_u, comps.h_0, comps.g_l), reference_components(scene)
        ):
            assert_fields_agree(got, want)

    def test_default_scene_is_bit_identical(self):
        # the row dot products round like np.linalg.norm's, so the fields
        # (and the --reproducible outputs built on them) do not move at all
        scene = default_scene()
        comps = synthesize_components(scene)
        for got, want in zip(
            (comps.h_u, comps.h_0, comps.g_l), traced_components(scene)
        ):
            assert got.tobytes() == want.tobytes()

    def test_grid_matches_reference(self):
        scene = default_scene()
        scene = with_users(scene, scene.grid.points())
        comps = synthesize_components(scene)
        assert comps.h_u.shape == (324, 3) and comps.g_l.shape == (324, 20)
        sample = np.arange(0, 324, 13)  # the reference tracer is slow
        h_u, h_0, g_l = reference_components(scene, scene.user_positions[sample])
        assert_fields_agree(comps.h_u[sample], h_u)
        assert_fields_agree(comps.h_0, h_0)
        assert_fields_agree(comps.g_l[sample], g_l)

    def test_fully_blocked_scene_is_bit_identical(self, caplog):
        # order 2 adds the absorbing walls' zero-gain bounces inside the boxes
        scene = replace(absorbing_boxes_scene(), max_reflection_order=2)
        comps = synthesize_components(scene)
        assert any("zero" in m for m in caplog.messages)
        for got, want in zip(
            (comps.h_u, comps.h_0, comps.g_l), traced_components(scene)
        ):
            assert got.tobytes() == want.tobytes()  # no -0.0 either

    def test_partial_last_chunk(self, rng):
        scene = default_scene(n_ports=4, max_reflection_order=2, with_grid=False)
        dests = rng.uniform(0.3, 2.9, (PAIR_CHUNK + 3, 2))
        sources = scene.bs_elements[:1]
        got = field_matrix(scene, sources, dests, scene.user_walls)
        want = reference_field(scene, sources, dests, scene.user_walls)
        assert_fields_agree(got, want)

    def test_rectangle_room_order_three(self):
        scene = SceneDescription(
            walls=rectangle_walls(6.0, 4.0, complex(-0.5, 0.2)),
            bs_elements=[(1.2, 1.1), (0.4, 3.3)],
            ris_ports=[(3.0, 2.0)],
            user_positions=[(4.3, 2.7), (5.5, 0.2), (2.0, 2.0)],
            frequency=5.8e9,
            max_reflection_order=3,
            grid=None,
            unloaded_panel=None,
        )
        got = field_matrix(scene, scene.bs_elements, scene.user_positions, scene.walls)
        want = reference_field(
            scene, scene.bs_elements, scene.user_positions, scene.walls
        )
        assert_fields_agree(got, want)

    def test_trace_users_rows_match_moved_scene(self):
        scene = default_scene(n_ports=4, max_reflection_order=1, with_grid=False)
        moved = scene.user_positions + np.array([0.05, -0.03])
        h_u, g_l = trace_users(scene, moved)
        comps = synthesize_components(with_users(scene, moved))
        assert h_u.tobytes() == comps.h_u.tobytes()
        assert g_l.tobytes() == comps.g_l.tobytes()

    @pytest.mark.parametrize(
        "dests, message",
        [
            ([(2.0, 2.0), (0.0, 1.0)], "coincide"),
            ([(2.0, 2.0), (1.0, 0.0)], "on a wall"),
        ],
        ids=["coincident", "on-wall"],
    )
    def test_rejects_what_trace_paths_rejects(self, dests, message):
        scene = simple_scene((Wall(p1=(-10, 0), p2=(10, 0)),))
        with pytest.raises(ro.GeometryError, match=message):
            trace_paths(scene, (0.0, 1.0), dests[1], walls=scene.walls)
        with pytest.raises(ro.GeometryError, match=message):
            field_matrix(scene, [(0.0, 1.0)], dests, scene.walls)


class TestSceneValidation:
    def test_wall_reflection_bounded(self):
        with pytest.raises(ValueError):
            Wall(p1=(0, 0), p2=(1, 0), reflection=1.5)

    @pytest.mark.parametrize("far", [1e151, -np.inf, np.nan])
    def test_wall_endpoint_beyond_the_coordinate_bound_rejected(self, far):
        with pytest.raises(ValueError, match="finite and within 1e\\+150 m"):
            Wall(p1=(0, 0), p2=(1, far))
        Wall(p1=(0, 0), p2=(1, 1e150))

    @pytest.mark.parametrize("far", [1e151, -np.inf, np.nan])
    @pytest.mark.parametrize("name", ["bs_elements", "ris_ports", "user_positions"])
    def test_point_beyond_the_coordinate_bound_rejected(self, name, far):
        scene = simple_scene(())
        with pytest.raises(ValueError, match=f"^{name} must be finite and within 1e\\+150 m"):
            replace(scene, **{name: [(0.0, 1.0), (far, 0.0)]})
        replace(scene, **{name: [(0.0, 1.0), (-1e150, 0.0)]})

    def test_zero_length_wall_rejected(self):
        with pytest.raises(ValueError):
            Wall(p1=(1, 1), p2=(1, 1))

    def test_order_cap(self):
        with pytest.raises(ValueError):
            simple_scene((), max_order=6)
