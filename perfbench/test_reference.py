"""Closed-form checks of the benchmark's reference computations.

Run with ``python3 perfbench/test_reference.py`` or under pytest.
"""

import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402

FREQ = 5.8e9
K = 2.0 * math.pi * FREQ / ref.SPEED_OF_LIGHT
SIGMA2 = 5e-13


def test_single_user_rate_is_the_matched_filter_snr():
    rng = np.random.default_rng(3)
    h = rng.standard_normal((1, 3)) + 1j * rng.standard_normal((1, 3))
    p = 0.1
    want = math.log2(1.0 + p * np.sum(np.abs(h) ** 2) / SIGMA2)
    assert math.isclose(ref.max_min_rate(h, p, SIGMA2), want, rel_tol=1e-12)


def test_orthogonal_equal_norm_users_split_the_power():
    h = 0.05 * np.array([[1.0, 1.0j, 0.0], [1.0j, 1.0, 0.0]]) / math.sqrt(2.0)
    assert abs(np.vdot(h[0], h[1])) < 1e-18
    p = 1.0
    gamma, q = ref.max_min_sinr(h, p, SIGMA2)
    assert np.allclose(q, [p / 2, p / 2], rtol=1e-9)
    assert math.isclose(gamma, (p / 2) * 0.05**2 / SIGMA2, rel_tol=1e-9)


def test_free_space_direct_path():
    src, dst = np.array([0.3, -1.0]), np.array([2.0, 1.5])
    d = float(np.hypot(1.7, 2.5))
    got = ref.field(src, dst, [], FREQ)
    assert abs(got - np.exp(-1j * K * d) / d) < 1e-12 / d


def test_one_wall_image_path_has_the_unfolded_length():
    wall = (np.array([-10.0, 0.0]), np.array([10.0, 0.0]), -0.6 + 0.1j)
    src, dst = np.array([0.0, 1.0]), np.array([3.0, 2.0])
    length, product = ref.image_path(src, dst, [wall], (0,))
    assert math.isclose(length, math.hypot(3.0, 3.0), rel_tol=1e-15)
    assert product == wall[2]
    direct = math.hypot(3.0, 1.0)
    want = np.exp(-1j * K * direct) / direct + wall[2] * np.exp(-1j * K * length) / length
    assert abs(ref.field(src, dst, [wall], FREQ, max_order=1) - want) < 1e-12


def test_wall_between_the_points_blocks_the_direct_path():
    wall = (np.array([1.0, -5.0]), np.array([1.0, 5.0]), -0.6)
    assert ref.image_path(np.array([0.0, 0.0]), np.array([2.0, 0.0]), [wall], ()) is None


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
