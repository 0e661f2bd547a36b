"""Synthetic mutual-impedance model for the RIS load ports.

The port coupling matrix is generated from the induced-EMF closed form for
parallel side-by-side thin half-wave dipoles.  It is a stand-in for a measured
or full-wave multiport characterization and carries the structural properties
the rest of the pipeline relies on: exact symmetry, positive-real diagonal,
and off-diagonal decay with port separation.

The sine and cosine integrals of that closed form come from ``_sici``, a
pure-Python port of the Cephes ``sici`` routine (S. L. Moshier) that keeps
its coefficient tables and arithmetic order, so it returns Cephes' doubles
bit for bit (checked against a compiled Cephes in tests/test_coupling.py).
"""

from __future__ import annotations

import math

import numpy as np

from .constants import FREE_SPACE_IMPEDANCE, SPEED_OF_LIGHT

# Induced-EMF self impedance of a thin half-wave dipole, classical value.
DEFAULT_SELF_IMPEDANCE = 73.1 + 42.5j  # ohms

# Cephes sici (S. L. Moshier, Cephes Math Library 2.8, BSD-licensed).  Like
# the compiled Cephes the tests compare against, the port has no separate
# branch above x = 1e9 (Cephes 2.8 had one).  _FD4, _GD4, _FD8 and _GD8 have
# an implied leading coefficient of 1 (p1evl).
_EULER = 0.57721566490153286061
_SN = (-8.39167827910303881427e-11, 4.62591714427012837309e-8, -9.75759303843632795789e-6,
       9.76945438170435310816e-4, -4.13470316229406538752e-2, 1.00000000000000000302e0)
_SD = (2.03269266195951942049e-12, 1.27997891179943299903e-9, 4.41827842801218905784e-7,
       9.96412122043875552487e-5, 1.42085239326149893930e-2, 9.99999999999999996984e-1)
_CN = (2.02524002389102268789e-11, -1.35249504915790756375e-8, 3.59325051419993077021e-6,
       -4.74007206873407909465e-4, 2.89159652607555242092e-2, -1.00000000000000000000e0)
_CD = (4.07746040061880559506e-12, 3.06780997581887812692e-9, 1.23210355685883423679e-6,
       3.17442024775032769882e-4, 5.10028056236446052392e-2, 4.00000000000000000080e0)
_FN4 = (4.23612862892216586994e0, 5.45937717161812843388e0, 1.62083287701538329132e0,
        1.67006611831323023771e-1, 6.81020132472518137426e-3, 1.08936580650328664411e-4,
        5.48900223421373614008e-7)
_FD4 = (8.16496634205391016773e0, 7.30828822505564552187e0, 1.86792257950184183883e0,
        1.78792052963149907262e-1, 7.01710668322789753610e-3, 1.10034357153915731354e-4,
        5.48900252756255700982e-7)
_GN4 = (8.71001698973114191777e-2, 6.11379109952219284151e-1, 3.97180296392337498885e-1,
        7.48527737628469092119e-2, 5.38868681462177273157e-3, 1.61999794598934024525e-4,
        1.97963874140963632189e-6, 7.82579040744090311069e-9)
_GD4 = (1.64402202413355338886e0, 6.66296701268987968381e-1, 9.88771761277688796203e-2,
        6.22396345441768420760e-3, 1.73221081474177119497e-4, 2.02659182086343991969e-6,
        7.82579218933534490868e-9)
_FN8 = (4.55880873470465315206e-1, 7.13715274100146711374e-1, 1.60300158222319456320e-1,
        1.16064229408124407915e-2, 3.49556442447859055605e-4, 4.86215430826454749482e-6,
        3.20092790091004902806e-8, 9.41779576128512936592e-11, 9.70507110881952024631e-14)
_FD8 = (9.17463611873684053703e-1, 1.78685545332074536321e-1, 1.22253594771971293032e-2,
        3.58696481881851580297e-4, 4.92435064317881464393e-6, 3.21956939101046018377e-8,
        9.43720590350276732376e-11, 9.70507110881952025725e-14)
_GN8 = (6.97359953443276214934e-1, 3.30410979305632063225e-1, 3.84878767649974295920e-2,
        1.71718239052347903558e-3, 3.48941165502279436777e-5, 3.47131167084116673800e-7,
        1.70404452782044526189e-9, 3.85945925430276600453e-12, 3.14040098946363334640e-15)
_GD8 = (1.68548898811011640017e0, 4.87852258695304967486e-1, 4.67913194259625806320e-2,
        1.90284426674399523638e-3, 3.68475504442561108162e-5, 3.57043223443740838771e-7,
        1.72693748966316146736e-9, 3.87830166023954706752e-12, 3.14040098946363335242e-15)


def _poly(x, coefs, leading_one=False):
    """Horner evaluation, highest power first (Cephes polevl / p1evl)."""
    total = x + coefs[0] if leading_one else coefs[0]
    for c in coefs[1:]:
        total = total * x + c
    return total


def _sici(x):
    """(Si(x), Ci(x)) for x >= 0."""
    if x == 0.0:
        return 0.0, -math.inf
    if x <= 4.0:
        z = x * x
        si = x * _poly(z, _SN) / _poly(z, _SD)
        return si, _EULER + math.log(x) + z * _poly(z, _CN) / _poly(z, _CD)
    s, c, z = math.sin(x), math.cos(x), 1.0 / (x * x)
    fn, fd, gn, gd = (_FN4, _FD4, _GN4, _GD4) if x < 8.0 else (_FN8, _FD8, _GN8, _GD8)
    f = _poly(z, fn) / (x * _poly(z, fd, True))
    g = z * _poly(z, gn) / _poly(z, gd, True)
    return math.pi / 2 - f * c - g * s, f * s - g * c


def wavelength(frequency: float) -> float:
    """Free-space wavelength of a frequency; the one check that a scene or
    channel frequency is positive."""
    if not frequency > 0:
        raise ValueError(f"frequency_hz must be positive, got {frequency}")
    return SPEED_OF_LIGHT / frequency


def mutual_impedance_sidebyside(separation: float, frequency: float) -> complex:
    """Mutual impedance of two parallel side-by-side half-wave dipoles.

    Closed-form induced-EMF expression in terms of sine and cosine integrals,
    assuming sinusoidal currents on thin dipoles of length lambda/2 separated
    by ``separation`` meters.

    At separation = lambda/2 this evaluates to the classical -12.5 - j29.9 ohms.
    """
    if separation <= 0.0:
        raise ValueError("separation must be positive")
    lam = wavelength(frequency)
    half_len = lam / 2.0
    k = 2.0 * np.pi / lam
    u0 = k * separation
    diag = np.hypot(separation, half_len)
    u1 = k * (diag + half_len)
    u2 = k * (diag - half_len)
    si0, ci0 = _sici(u0)
    si1, ci1 = _sici(u1)
    si2, ci2 = _sici(u2)
    scale = FREE_SPACE_IMPEDANCE / (4.0 * np.pi)
    r = scale * (2.0 * ci0 - ci1 - ci2)
    x = -scale * (2.0 * si0 - si1 - si2)
    return complex(r, x)


def synthesize_mutual_impedance(
    n_ports: int,
    spacing: float,
    frequency: float,
    self_impedance: complex,
) -> np.ndarray:
    """Build the N x N generalized impedance matrix of the RIS port network.

    Ports sit on a uniform 1D grid; entry (i, j) is the side-by-side dipole
    mutual impedance at separation |i - j| * spacing, and the diagonal is the
    supplied self impedance.  The result is exactly symmetric (Toeplitz).
    """
    if n_ports < 1:
        raise ValueError("n_ports must be >= 1")
    if spacing <= 0.0:
        raise ValueError("spacing must be positive")
    z = np.zeros((n_ports, n_ports), dtype=complex)
    np.fill_diagonal(z, complex(self_impedance))
    # one evaluation per distinct separation keeps the matrix exactly Toeplitz
    for lag in range(1, n_ports):
        zm = mutual_impedance_sidebyside(lag * spacing, frequency)
        idx = np.arange(n_ports - lag)
        z[idx, idx + lag] = zm
        z[idx + lag, idx] = zm
    return z
