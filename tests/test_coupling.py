"""Synthetic port-coupling matrix: closed form vs quadrature oracle, and the
Cephes sici port vs scipy.special.sici."""

import numpy as np
import pytest
import scipy.special
from scipy.integrate import quad

from conftest import SPACING

import risopt.coupling
from risopt.constants import FREE_SPACE_IMPEDANCE, SPEED_OF_LIGHT
from risopt.coupling import (
    DEFAULT_SELF_IMPEDANCE,
    _sici,
    mutual_impedance_sidebyside,
    synthesize_mutual_impedance,
)

FREQ = 5.8e9
LAM = SPEED_OF_LIGHT / FREQ


def induced_emf_quadrature(separation, frequency):
    """Independent oracle: numerical induced-EMF integral for side-by-side
    half-wave dipoles with sinusoidal current (cos(k L/2) term vanishes)."""
    lam = SPEED_OF_LIGHT / frequency
    k = 2 * np.pi / lam
    half = lam / 4.0  # dipole half-length for a lambda/2 dipole

    def integrand(z, part):
        r1 = np.hypot(separation, z - half)
        r2 = np.hypot(separation, z + half)
        kernel = np.exp(-1j * k * r1) / r1 + np.exp(-1j * k * r2) / r2
        value = 1j * FREE_SPACE_IMPEDANCE / (4 * np.pi) * kernel * np.sin(
            k * (half - abs(z))
        )
        return value.real if part == "re" else value.imag

    re, _ = quad(lambda z: integrand(z, "re"), -half, half, limit=200)
    im, _ = quad(lambda z: integrand(z, "im"), -half, half, limit=200)
    return complex(re, im)


class TestMutualImpedance:
    def test_half_wavelength_classical_value(self):
        z = mutual_impedance_sidebyside(LAM / 2, FREQ)
        # classical antenna-theory reference for side-by-side half-wave dipoles
        assert z.real == pytest.approx(-12.5, abs=0.1)
        assert z.imag == pytest.approx(-29.9, abs=0.1)
        # frozen value of the closed form itself
        assert z == pytest.approx(
            -12.532077220200522 - 29.928640751485514j, rel=1e-12
        )

    @pytest.mark.parametrize("separation", [0.3 * LAM, 0.5 * LAM, LAM, 2.7 * LAM])
    def test_matches_quadrature_oracle(self, separation):
        closed = mutual_impedance_sidebyside(separation, FREQ)
        oracle = induced_emf_quadrature(separation, FREQ)
        assert closed == pytest.approx(oracle, rel=1e-7)

    def test_decoupling_limit(self):
        near = abs(mutual_impedance_sidebyside(LAM, FREQ))
        far = abs(mutual_impedance_sidebyside(1e4 * LAM, FREQ))
        farther = abs(mutual_impedance_sidebyside(1e6 * LAM, FREQ))
        assert far < 1e-2 * near
        assert farther < 1e-4

    def test_nonpositive_separation_rejected(self):
        with pytest.raises(ValueError):
            mutual_impedance_sidebyside(0.0, FREQ)


class TestSynthesizeMutualImpedance:
    def test_single_port_is_self_impedance(self):
        z = synthesize_mutual_impedance(1, LAM / 2, FREQ, 50 + 10j)
        assert z.shape == (1, 1)
        assert z[0, 0] == 50 + 10j

    def test_structure(self):
        z = synthesize_mutual_impedance(8, LAM / 2, FREQ, DEFAULT_SELF_IMPEDANCE)
        assert np.array_equal(z, z.T)  # exactly symmetric
        assert np.all(np.diag(z) == complex(DEFAULT_SELF_IMPEDANCE))
        # Toeplitz: constant along diagonals
        for lag in range(1, 8):
            diag = np.diagonal(z, offset=lag)
            assert np.all(diag == diag[0])
        # off-diagonal magnitude decays with separation
        mags = [abs(z[0, j]) for j in range(1, 8)]
        assert mags[0] > mags[-1]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            synthesize_mutual_impedance(0, LAM / 2, FREQ, DEFAULT_SELF_IMPEDANCE)
        with pytest.raises(ValueError):
            synthesize_mutual_impedance(4, -1.0, FREQ, DEFAULT_SELF_IMPEDANCE)


class TestSici:
    """``_sici`` returns scipy.special.sici's doubles exactly (``==``)."""

    @staticmethod
    def assert_matches_scipy(points):
        for x in points:
            want = tuple(scipy.special.sici(x))
            assert _sici(float(x)) == want, x
            assert _sici(x) == want, x  # np.float64 input

    def test_random_points_on_each_branch(self):
        rng = np.random.default_rng(1234)
        below_four = rng.uniform(0.0, 4.0, 20_000)
        between = rng.uniform(4.0, 8.0, 20_000)
        between = between[between > 4.0]  # (4, 8) open
        above_eight = rng.uniform(8.0, 300.0, 20_000)
        log_uniform = np.exp(rng.uniform(-40.0, 28.0, 20_000))
        for points in (below_four, between, above_eight, log_uniform):
            self.assert_matches_scipy(points)

    def test_branch_edges(self):
        edges = [
            np.nextafter(b, toward) for b in (4.0, 8.0) for toward in (0.0, np.inf)
        ]
        self.assert_matches_scipy([4.0, 8.0, *edges, 5e-324])

    def test_zero(self):
        assert _sici(0.0) == (0.0, -np.inf)

    def test_coupling_matrix_matches_the_scipy_build(self, monkeypatch):
        z = synthesize_mutual_impedance(20, SPACING, FREQ, DEFAULT_SELF_IMPEDANCE)
        monkeypatch.setattr(risopt.coupling, "_sici", scipy.special.sici)
        oracle = synthesize_mutual_impedance(20, SPACING, FREQ, DEFAULT_SELF_IMPEDANCE)
        assert np.array_equal(z, oracle)
