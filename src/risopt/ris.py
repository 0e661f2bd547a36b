"""Tunable RIS loads: varactor capacitance law, load impedances, control modes.

The per-element load is a series R-L-C branch whose capacitance follows a
junction-diode law in the applied bias voltage.  The diode constants are
calibrated at import time so that the two hardware anchor points
(5.02 V -> 0.54 pF, 3.05 V -> 0.38 pF) are reproduced exactly; the published
bias voltages are treated as magnitudes and the calibration absorbs the sign
convention, so capacitance increases with the stated voltage.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

CONTROL_MODES = (
    "continuous-per-element",
    "continuous-per-column",
    "column-paired-1bit",
)

# 1-bit hardware states
C_ON = 0.54e-12  # farads
C_OFF = 0.38e-12  # farads

CALIBRATION_ANCHORS = ((5.02, C_ON), (3.05, C_OFF))  # (volts, farads)
CALIBRATION_M = 0.5  # diode-law exponent of the calibrated varactor
CALIBRATION_C_PAR = 0.10e-12  # farads, its parasitic capacitance

MAX_ENUMERATION_GROUPS = 24


@dataclass(frozen=True)
class VaractorModel:
    """Junction-diode capacitance law plus series parasitics and tuning bounds.

    C(V) = c_j / (1 - V / v_j)**m + c_par, valid for 0 <= V < v_j.
    """

    c_j: float  # farads
    v_j: float  # volts
    m: float  # dimensionless exponent
    c_par: float  # farads
    r_v: float = 2.0  # ohms
    l_v: float = 0.2e-9  # henries
    c_min: float = 0.20e-12  # farads
    c_max: float = 1.20e-12  # farads

    def __post_init__(self):
        if self.c_j <= 0 or self.v_j <= 0 or self.m <= 0:
            raise ValueError("c_j, v_j and m must be positive")
        if self.c_par < 0 or self.r_v < 0 or self.l_v < 0:
            raise ValueError("c_par, r_v and l_v must be nonnegative")
        if not (0 < self.c_min < self.c_max):
            raise ValueError("need 0 < c_min < c_max")


def capacitance_from_bias(model: VaractorModel, v_bias: float) -> float:
    """Evaluate the diode law C(V) at a bias voltage magnitude."""
    if not 0.0 <= v_bias < model.v_j:
        raise ValueError(
            f"v_bias={v_bias!r} outside the diode-law domain [0, {model.v_j})"
        )
    return model.c_j / (1.0 - v_bias / model.v_j) ** model.m + model.c_par


def bias_from_capacitance(model: VaractorModel, capacitance: float) -> float:
    """Closed-form inverse of the diode law.

    Only capacitances at or above the zero-bias value C(0) are reachable with
    a nonnegative bias.
    """
    c_junction = capacitance - model.c_par
    if c_junction < model.c_j:
        raise ValueError(
            f"capacitance {capacitance!r} below the zero-bias value "
            f"{model.c_j + model.c_par!r}; not reachable with v_bias >= 0"
        )
    return model.v_j * (1.0 - (model.c_j / c_junction) ** (1.0 / model.m))


def calibrate_varactor() -> VaractorModel:
    """Two-point fit of (c_j, v_j) so the diode law hits both
    CALIBRATION_ANCHORS exactly, with the hardware's exponent CALIBRATION_M
    and parasitic capacitance CALIBRATION_C_PAR: the ratio of the two anchor
    equations is then linear in 1/v_j.  The other fields keep the model's
    defaults."""
    (v1, c1), (v2, c2) = CALIBRATION_ANCHORS
    m, c_par = CALIBRATION_M, CALIBRATION_C_PAR
    a1, a2 = c1 - c_par, c2 - c_par
    # (a1/a2)**(1/m) = (1 - v2/v_j) / (1 - v1/v_j)
    ratio = (a1 / a2) ** (1.0 / m)
    v_j = (ratio * v1 - v2) / (ratio - 1.0)
    c_j = a1 * (1.0 - v1 / v_j) ** m
    return VaractorModel(c_j=c_j, v_j=v_j, m=m, c_par=c_par)


DEFAULT_VARACTOR = calibrate_varactor()


@dataclass(frozen=True)
class RisConfiguration:
    """A full per-element capacitance state plus its control-mode metadata.

    ``grouping`` maps group index -> tuple of element indices and must
    partition 0..N-1, or be empty when nothing is tunable.  In 1-bit mode
    every capacitance is one of {C_ON, C_OFF} and all members of a group
    share one value.
    """

    capacitances: np.ndarray  # (N,) farads
    grouping: dict  # {} -> nothing tunable
    control_mode: str = "continuous-per-element"

    def __post_init__(self):
        caps = np.asarray(self.capacitances, dtype=float)
        object.__setattr__(self, "capacitances", caps)
        if caps.ndim != 1 or caps.size < 1:
            raise ValueError("capacitances must be a nonempty 1D vector")
        if not np.all(np.isfinite(caps)) or np.any(caps <= 0):
            raise ValueError("capacitances must be finite and positive")
        if self.control_mode not in CONTROL_MODES:
            raise ValueError(f"unknown control mode {self.control_mode!r}")
        if self.grouping:
            _check_partition(self.grouping, caps.size)
        if self.control_mode == "column-paired-1bit":
            states = {C_ON, C_OFF}
            for g, members in self.grouping.items():
                vals = {float(caps[i]) for i in members}
                if len(vals) != 1:
                    raise ValueError(f"group {g} members do not share one value")
                if not vals <= states:
                    raise ValueError(
                        f"group {g} value {vals.pop()!r} is not C_ON or C_OFF"
                    )

    def group_keys(self) -> list:
        return sorted(self.grouping)

    def as_continuous(self) -> "RisConfiguration":
        """Same capacitances and grouping under continuous control.

        Used when a 1-bit configuration seeds the continuous optimizer: the
        binary values become a starting point, not a constraint.
        """
        if self.control_mode != "column-paired-1bit":
            return self
        return replace(self, control_mode="continuous-per-column")


def _check_partition(grouping: dict, n: int) -> None:
    seen: list[int] = []
    for members in grouping.values():
        seen.extend(int(i) for i in members)
    if sorted(seen) != list(range(n)):
        raise ValueError("grouping is not a partition of the element indices")


def identity_grouping(n_elements: int) -> dict:
    return {i: (i,) for i in range(n_elements)}


def column_paired_grouping(n_columns: int, n_rows: int = 1) -> dict:
    """Adjacent-column pairs sharing one state; rows within a column follow it.

    Elements are indexed column-major: element = column * n_rows + row.
    20 columns -> 10 pairs, each pair owning 2 * n_rows elements.
    """
    if n_columns % 2 != 0:
        raise ValueError("column pairing needs an even number of columns")
    grouping = {}
    for g in range(n_columns // 2):
        cols = (2 * g, 2 * g + 1)
        grouping[g] = tuple(
            c * n_rows + r for c in cols for r in range(n_rows)
        )
    return grouping


def onebit_capacitances(grouping: dict, states, n_elements: int) -> np.ndarray:
    """(B, N) capacitances of a stack of per-group state rows: C_ON where a
    row sets a member's group, C_OFF elsewhere."""
    states = np.asarray(states, dtype=bool)
    keys = sorted(grouping)
    if states.ndim != 2 or states.shape[1] != len(keys):
        raise ValueError(f"expected rows of {len(keys)} states, got {states.shape}")
    # ungrouped elements (empty grouping) rest in the OFF state
    on = np.zeros((states.shape[0], n_elements), dtype=bool)
    for column, g in enumerate(keys):
        on[:, list(grouping[g])] = states[:, column, None]
    return np.where(on, C_ON, C_OFF)


def onebit_configuration(grouping: dict, states, n_elements: int) -> RisConfiguration:
    """Column-paired 1-bit configuration from per-group states: C_ON where a
    state is set, C_OFF elsewhere."""
    states = np.asarray(states)
    keys = sorted(grouping)
    if states.shape != (len(keys),):
        raise ValueError(f"expected {len(keys)} states, got {states.shape}")
    caps = onebit_capacitances(grouping, states[None], n_elements)[0]
    return RisConfiguration(
        capacitances=caps,
        control_mode="column-paired-1bit",
        grouping=dict(grouping),
    )


def enumerate_1bit_configs(n_groups: int):
    """Yield all 2**n_groups binary group-state tuples in lexicographic order.

    Guarded at MAX_ENUMERATION_GROUPS groups; beyond that the search space is
    no longer exhaustively tractable and the gradient optimizer should be used.
    """
    if n_groups < 0:
        raise ValueError("n_groups must be nonnegative")
    if n_groups > MAX_ENUMERATION_GROUPS:
        raise ValueError(
            f"{n_groups} groups means 2**{n_groups} configurations; refusing "
            f"(limit {MAX_ENUMERATION_GROUPS}). Use alternating_optimize instead."
        )
    yield from itertools.product((0, 1), repeat=n_groups)


def load_impedances(
    model: VaractorModel, capacitances: np.ndarray, frequency: float
) -> np.ndarray:
    """Series R-L-C load impedances for every element: R + jwL + 1/(jwC).

    Every capacitance must lie in the model's tuning range (to 1e-15
    relative), which also keeps 1/(jwC) finite.
    """
    caps = np.asarray(capacitances, dtype=float)
    tol = 1e-15
    if np.any(caps < model.c_min * (1 - tol)) or np.any(caps > model.c_max * (1 + tol)):
        raise ValueError("capacitances violate the model tuning range")
    omega = 2.0 * np.pi * frequency
    return model.r_v + 1j * omega * model.l_v + 1.0 / (1j * omega * caps)
