"""Effective-channel assembly and derivatives.

The end-to-end downlink matrix combines a load-independent substrate
(direct/baseline channel, BS-to-port links, port-to-user responses, port
coupling matrix) with the tunable load impedances:

    H_eff = H_u + G_l (diag(Z_L) - Z_ll)^-1 H_0

The N x N system Z = diag(Z_L) - Z_ll is solved against H_0 once per load
vector.  ``assemble_effective_channel`` takes one load vector or a stack of
them, which the 1-bit sweeps assemble in one batched condition check and
solve.  The assembled channel keeps Z and the solved block Z^-1 H_0; the
analytic derivative of H_eff with respect to one load capacitance solves Z
once more, against the unit vector of that element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beamforming import BeamformerMatrix
from .coupling import wavelength
from .errors import SingularChannelError
from .ris import RisConfiguration, VaractorModel, load_impedances

CONDITION_LIMIT = 1e12

# Symmetry tolerance for the port coupling matrix (reciprocal network).
Z_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class ChannelComponents:
    """Deterministic channel substrate: the four matrices plus dimensions.

    h_u : (K, M) baseline BS-to-user channel (includes unloaded-RIS scattering)
    h_0 : (N, M) BS-to-port links
    g_l : (K, N) port-to-user responses
    z_ll: (N, N) generalized port impedance matrix, ohms
    """

    h_u: np.ndarray
    h_0: np.ndarray
    g_l: np.ndarray
    z_ll: np.ndarray
    frequency: float

    def __post_init__(self):
        for name in ("h_u", "h_0", "g_l", "z_ll"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            object.__setattr__(self, name, arr)
            if arr.ndim != 2:
                raise ValueError(f"{name} must be a 2D matrix")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        k, m = self.h_u.shape
        n = self.z_ll.shape[0]
        if self.z_ll.shape != (n, n):
            raise ValueError("z_ll must be square")
        if self.h_0.shape != (n, m):
            raise ValueError(
                f"h_0 shape {self.h_0.shape} inconsistent with (n={n}, m={m})"
            )
        if self.g_l.shape != (k, n):
            raise ValueError(
                f"g_l shape {self.g_l.shape} inconsistent with (k={k}, n={n})"
            )
        wavelength(self.frequency)
        asym = np.linalg.norm(self.z_ll - self.z_ll.T)
        scale = np.linalg.norm(self.z_ll)
        if scale > 0 and asym / scale > Z_SYMMETRY_TOL:
            raise ValueError(
                f"z_ll is not symmetric: relative asymmetry {asym / scale:.3e}"
            )
        if np.any(np.real(np.diag(self.z_ll)) <= 0):
            raise ValueError("z_ll diagonal entries must have positive real part")

    @property
    def dims(self) -> tuple[int, int, int]:
        """(K users, M antennas, N ports)."""
        k, m = self.h_u.shape
        return k, m, self.z_ll.shape[0]


@dataclass
class EffectiveChannel:
    """Assembled K x M channel for one load vector; for a stack of load
    vectors each field carries the leading stack axis.

    ``matrix`` is H_eff; the system matrix Z = diag(Z_L) - Z_ll and the
    solved block Z^-1 H_0 are retained for derivative evaluations.
    """

    matrix: np.ndarray
    z: np.ndarray  # (N, N) system matrix diag(Z_L) - Z_ll
    solved_h0: np.ndarray  # (N, M) block (diag(Z_L) - Z_ll)^-1 H_0


def assemble_effective_channel(
    components: ChannelComponents, z_loads: np.ndarray
) -> EffectiveChannel:
    """Assemble H_eff = H_u + G_l (diag(Z_L) - Z_ll)^-1 H_0 for one (N,)
    load vector, or for each row of a (B, N) stack of them.

    The inverse is never formed; the N x N system is solved against H_0, a
    stack of systems in one batched solve.  Raises SingularChannelError when
    a system is singular or its condition number exceeds CONDITION_LIMIT (a
    physically meaningful load resonance); for a stack the message gives the
    largest condition number, that of the worst load vector assembled alone.
    """
    z_loads = np.asarray(z_loads, dtype=complex)
    _, _, n = components.dims
    if z_loads.ndim not in (1, 2) or z_loads.shape[-1] != n:
        raise ValueError(
            f"expected {n} load impedances or a stack of them, got {z_loads.shape}"
        )
    z = np.zeros(z_loads.shape + (n,), dtype=complex)
    z.reshape(*z_loads.shape[:-1], n * n)[..., :: n + 1] = z_loads  # diagonals
    z -= components.z_ll
    cond = np.linalg.cond(z).max()
    if not cond <= CONDITION_LIMIT:  # NaN fails too
        raise SingularChannelError(
            f"load/coupling system condition number {cond:.3e} exceeds "
            f"{CONDITION_LIMIT:.0e}"
        )
    solved_h0 = np.linalg.solve(z, components.h_0)
    matrix = components.h_u + components.g_l @ solved_h0
    return EffectiveChannel(matrix=matrix, z=z, solved_h0=solved_h0)


def assemble_from_config(
    components: ChannelComponents,
    model: VaractorModel,
    config: RisConfiguration,
) -> EffectiveChannel:
    """Convenience wrapper: capacitances -> load impedances -> assembly."""
    z_loads = load_impedances(model, config.capacitances, components.frequency)
    return assemble_effective_channel(components, z_loads)


def capacitance_impedance_slope(capacitance: float, frequency: float) -> complex:
    """d Z_L / d C for the series R-L-C load: only the 1/(jwC) term depends on C."""
    omega = 2.0 * np.pi * frequency
    return -1.0 / (1j * omega * capacitance**2)


def channel_derivative(
    components: ChannelComponents,
    config: RisConfiguration,
    element: int,
    effective: EffectiveChannel,
) -> np.ndarray:
    """Analytic K x M derivative of H_eff w.r.t. one element capacitance.

    Uses d(Z^-1)/dC = -Z^-1 (dZ/dC) Z^-1 with the rank-1 middle factor
    e_n e_n^T dZ_L/dC, so only one extra solve of the system matrix of
    ``effective``, the channel assembled at ``config``, is needed:

        dH_eff/dC_n = -(dZ_L,n/dC) (G_l Z^-1 e_n) (e_n^T Z^-1 H_0)
    """
    k, m, n = components.dims
    if not 0 <= element < n:
        raise ValueError(f"element index {element} out of range for N={n}")
    e_n = np.zeros(n, dtype=complex)
    e_n[element] = 1.0
    left = components.g_l @ np.linalg.solve(effective.z, e_n)  # (K,)
    right = effective.solved_h0[element, :]  # (M,)
    slope = capacitance_impedance_slope(
        float(config.capacitances[element]), components.frequency
    )
    return -slope * np.outer(left, right)


def group_channel_derivative(
    components: ChannelComponents,
    config: RisConfiguration,
    group: int,
    effective: EffectiveChannel,
) -> np.ndarray:
    """Derivative w.r.t. a shared group capacitance: sum over member elements."""
    members = config.grouping[group]
    k, m, _ = components.dims
    total = np.zeros((k, m), dtype=complex)
    for element in members:
        total += channel_derivative(components, config, int(element), effective)
    return total


def evaluate_gain_map(
    h: np.ndarray, beamformer: BeamformerMatrix, beam_index: int
) -> np.ndarray:
    """Per-grid-point power gain |h[g] . w_k|^2 / power_budget.

    ``h`` is the (G, M) channel from the BS to the G observation points: the
    grid rows of H_u alone without a RIS, or h_u + g_l (diag(Z_L) - Z_ll)^-1
    H_0 with one.  Returns the linear dimensionless gain; use gain_map_db for
    the dB rendering.
    """
    w = beamformer.weights
    if not 0 <= beam_index < w.shape[1]:
        raise ValueError(f"beam index {beam_index} out of range")
    power = np.abs(np.asarray(h) @ w[:, beam_index]) ** 2
    if beamformer.power_budget > 0:
        power = power / beamformer.power_budget
    return power


GAIN_FLOOR_DB = -300.0


def gain_map_db(gains: np.ndarray) -> np.ndarray:
    """10 log10 of a linear gain map, clamped at GAIN_FLOOR_DB."""
    gains = np.asarray(gains, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # floored below
        db = 10.0 * np.log10(gains)
    return np.maximum(
        np.nan_to_num(db, nan=GAIN_FLOOR_DB, neginf=GAIN_FLOOR_DB), GAIN_FLOOR_DB
    )
