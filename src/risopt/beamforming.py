"""Max-min downlink beamforming via uplink-downlink duality.

The downlink max-min SINR problem under a total power constraint is solved in
a virtual uplink: MMSE receive combiners alternate with the Perron vector of
the uplink extended coupling matrix, which balances the per-user SINRs at the
inverse of its Perron root.  A K x K linear system then recovers the
downlink per-beam powers achieving the same SINRs with the same total power.

``duality_beamformer`` solves one channel, or a stack of channels for the
1-bit sweeps with the same arithmetic, state by state bit for bit.  Every
stage takes an optional leading stack axis and is written once: the
kernels, the balance loop (``_balance``, whose one-channel entry is
``fixed_point_power_balance``), the power recovery and the finish (scaling
to the budget, the downlink report, the checks and logged reports).  A stack
raises when any of its states fails; the sweeps then solve that stack again
one channel at a time, which names each state's failure.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .constants import BOLTZMANN
from .errors import DualityError, InfeasibleUserError

logger = logging.getLogger(__name__)

# Balance stop rule: the Perron root changes by at most BALANCE_TOL relative
# to its value between iterations, or BALANCE_MAX_ITER iterations have run.
BALANCE_TOL = 1e-12
BALANCE_MAX_ITER = 50

POWER_CONSERVATION_TOL = 1e-8


def noise_power(temperature: float, bandwidth: float) -> float:
    """Thermal noise power k*T*B in watts: a positive finite float."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    power = BOLTZMANN * float(temperature) * float(bandwidth)
    if not 0.0 < power < np.inf:
        raise ValueError(f"noise power k*T*B = {power!r} W is not a positive finite number")
    return power


def _channel_matrix(h) -> np.ndarray:
    return h.matrix if hasattr(h, "matrix") else np.asarray(h, dtype=complex)


@dataclass
class BeamformerMatrix:
    """M x K transmit weights constrained to a total power budget; a stack
    of beamformers carries a leading stack axis on ``weights``."""

    weights: np.ndarray
    power_budget: float

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=complex)
        if self.weights.ndim < 2:
            raise ValueError("weights must be an M x K matrix or a stack of them")
        if self.power_budget < 0:
            raise ValueError("power budget must be nonnegative")


@dataclass
class SinrReport:
    """Per-user SINR/rate summary for one channel + beamformer, or for a
    stack with the leading stack axis on every field but ``noise_power``.

    Rates are spectral efficiencies in bps/Hz; the serialized report of one
    channel states that as ``"bandwidth": 1.0``.
    """

    sinr: np.ndarray  # linear
    rates: np.ndarray  # log2(1 + sinr), bps/Hz
    min_rate: float
    avg_received_power: float  # mean over users of sum_j |Y[k, j]|^2
    noise_power: float

    def to_dict(self) -> dict:
        return {
            "sinr": [float(s) for s in self.sinr],
            "rates": [float(r) for r in self.rates],
            "min_rate": float(self.min_rate),
            "avg_received_power": float(self.avg_received_power),
            "noise_power": float(self.noise_power),
            "bandwidth": 1.0,
        }


def rates_from_sinr(sinr: np.ndarray) -> np.ndarray:
    """Spectral efficiency log2(1 + SINR) in bps/Hz."""
    return np.log2(1.0 + np.asarray(sinr, dtype=float))


def _zero_diagonal(a: np.ndarray) -> None:
    """Zero the diagonals of the trailing square matrices of ``a`` in place."""
    i = np.arange(a.shape[-1])
    a[..., i, i] = 0.0


def _sinr(power: np.ndarray, noise) -> np.ndarray:
    """Each diagonal entry of the K x K power matrix over the rest of its row
    plus ``noise``; 0 where that denominator is 0.  A leading stack axis
    gives one row of SINRs per matrix.

    The off-diagonal entries are summed directly, so the interference keeps
    its digits when it lies many orders of magnitude below the desired power.
    The downlink SINR is this ratio over |Y|^2 and the virtual-uplink SINR
    the same ratio over the transposed, power-weighted gains.
    """
    desired = power.diagonal(0, -2, -1)
    leaked = np.array(power)
    _zero_diagonal(leaked)
    denom = leaked.sum(axis=-1) + noise
    out = np.zeros_like(desired)
    nonzero = denom > 0
    out[nonzero] = desired[nonzero] / denom[nonzero]
    return out


def downlink_sinr(y: np.ndarray, sigma2: float) -> np.ndarray:
    """Per-user SINR from the K x K received matrix: desired vs leaked power."""
    if sigma2 <= 0:
        raise ValueError("noise power must be positive")
    return _sinr(np.abs(np.asarray(y, dtype=complex)) ** 2, sigma2)


def mmse_combiner(h, q: np.ndarray, sigma2: float) -> np.ndarray:
    """Uplink MMSE receive combiners, one column per user.

    w_k = sqrt(q_k) (sigma2 I_M + sum_j q_j h_j^H h_j)^-1 h_k^H, solved in the
    push-through form (sigma2 I_M + C^H C)^-1 C^H = C^H (sigma2 I_K + C C^H)^-1
    with the rows of C the scaled channels sqrt(q_j) h_j.  At high SNR the
    M x M Gram of K < M users rounds sigma2 away and is left near singular;
    the K x K system keeps its full rank.  Both are Hermitian positive
    definite for sigma2 > 0.  A leading stack axis on ``h`` and ``q``
    solves a stack of channels.
    """
    hm = _channel_matrix(h)
    scaled = np.sqrt(np.asarray(q, dtype=float))[..., :, None] * hm
    small = sigma2 * np.eye(hm.shape[-2]) + scaled @ scaled.conj().mT
    return np.linalg.solve(small, scaled).conj().mT


def uplink_sinr(h, w_ul: np.ndarray, q: np.ndarray, sigma2: float) -> np.ndarray:
    """Virtual-uplink SINR per user for given combiners and powers."""
    hm = _channel_matrix(h)
    q = np.asarray(q, dtype=float)
    power = q[..., :, None] * np.abs(hm @ w_ul) ** 2  # [j, k]: user j into combiner k
    return _sinr(power.mT, sigma2 * (np.abs(w_ul) ** 2).sum(axis=-2))


def extended_coupling_matrix(gains: np.ndarray, sigma2: float, p_bs: float) -> np.ndarray:
    """(K+1) x (K+1) extended coupling matrix of the max-min SINR problem.

    ``gains[k, j] = |h_k u_j|^2`` is the power that user k receives through
    the unit beam u_j (pass the transpose for the virtual uplink).  With Psi
    the gains off the diagonal, D = diag(1 / G_kk) and s = sigma2 / p_bs:

        X = [[D Psi,       s D 1    ],
             [1^T D Psi,   1^T s D 1]]

    Its Perron root lambda is the inverse of the largest SINR that every user
    reaches at once with total power ``p_bs``, and its right Perron vector is
    proportional to [p / p_bs; 1] for the powers p that reach it (Schubert &
    Boche, IEEE TVT 2004).  Scaling the last row and column by ``p_bs`` keeps
    the entries of that vector comparable at any power.  A leading stack
    axis on ``gains`` gives one matrix per gain matrix.
    """
    gains = np.asarray(gains, dtype=float)
    k = gains.shape[-1]
    diag = gains.diagonal(0, -2, -1)
    off = gains.copy()
    _zero_diagonal(off)
    x = np.empty(gains.shape[:-2] + (k + 1, k + 1))
    x[..., :k, :k] = off / diag[..., :, None]
    x[..., :k, k] = sigma2 / (p_bs * diag)
    x[..., k, :] = x[..., :k, :].sum(axis=-2)
    return x


def perron(x: np.ndarray) -> tuple[float, np.ndarray]:
    """Perron root of a nonnegative square matrix and its right Perron vector,
    nonnegative and of unit 2-norm; the left vector is that of ``x.T``.  A
    leading stack axis gives an array of roots and one vector per matrix."""
    values, vectors = np.linalg.eig(x)
    real = values.real
    i = real.argmax(axis=-1)
    # column i of each matrix: row i of its transpose
    vector = vectors.mT[(*np.indices(i.shape, sparse=True), i)]
    return real.max(axis=-1)[()], np.abs(vector.real)


@dataclass
class BalanceResult:
    """Uplink balance of one channel; for a stack of channels each field
    carries the leading stack axis."""

    powers: np.ndarray  # virtual-uplink per-user powers q, summing to the budget
    combiner: np.ndarray  # M x K unit beams, the normalized MMSE combiners
    sinr: np.ndarray
    iterations: int
    converged: bool


# The balance's entry and exit checks, for one channel or a stack.  The
# solvers' checks test a condition with np.count_nonzero, which takes a
# one-channel scalar and a stack alike and on a numpy scalar costs about
# half of ``.any()`` and a quarter of np.any; the optimizer runs hundreds of
# one-channel solves.


@functools.cache  # K > M depends on the shape alone: each (K, M) logs once
def _warn_users_exceed_antennas(k: int, m: int) -> None:
    logger.warning(
        "K=%d users exceed M=%d antennas; balancing may converge to low SINRs", k, m
    )


def _check_balance_inputs(h: np.ndarray, p_bs: float) -> None:
    """A positive budget, and no user whose channel row is identically zero."""
    if p_bs <= 0:
        raise ValueError("power budget must be positive")
    dead = np.linalg.norm(h, axis=-1) == 0
    if np.count_nonzero(dead):
        raise InfeasibleUserError(
            f"user {np.nonzero(dead)[-1][0]} has an identically zero channel row"
        )


def _balanced(h, unit, q, sigma2: float, iterations, converged) -> BalanceResult:
    """The uplink SINRs of the balanced powers, none of them zero."""
    sinr = uplink_sinr(h, unit, q, sigma2)
    if not sinr.min() > 0:
        raise InfeasibleUserError("a user SINR collapsed to zero during balancing")
    return BalanceResult(
        powers=q,
        combiner=unit,
        sinr=sinr,
        iterations=iterations,
        converged=converged,
    )


def _balance(h: np.ndarray, p_bs: float, sigma2: float) -> BalanceResult:
    """The fixed-point balance of one (K, M) channel, or of each state of a
    (B, K, M) stack to its own stop rule.  The stack iterates whole until its
    states stop apart; those that stop are then set aside in per-state
    arrays.  A user whose uplink power underflows to zero (at a noise power
    some 1e240 times the budget) raises before its combiner is normalized.
    One channel returns a Python ``int`` and ``bool``, which the benchmark's
    tracer sums over ``fixed_point_power_balance`` calls; a stacked
    ``duality_beamformer`` calls this loop, not that name.
    """
    k = h.shape[-2]
    hs = h  # the states still iterating
    q = np.full(h.shape[:-1], p_bs / k)
    root = np.nan  # NaN fails the stop rule at the first iteration
    index = None  # the stack index of each state of hs, once states stop apart
    for iterations in range(1, BALANCE_MAX_ITER + 1):
        w = mmse_combiner(hs, q, sigma2)
        norm = np.linalg.norm(w, axis=-2, keepdims=True)
        if np.count_nonzero(norm) < norm.size:
            raise InfeasibleUserError(
                f"the uplink power of user {np.nonzero(norm == 0)[-1][0]} "
                "underflowed to zero during balancing"
            )
        unit = w / norm
        gains = np.abs(hs @ unit) ** 2
        previous = root
        root, right = perron(extended_coupling_matrix(gains.mT, sigma2, p_bs))
        q = p_bs * right[..., :k] / right[..., :k].sum(axis=-1, keepdims=True)
        done = abs(root - previous) <= BALANCE_TOL * root
        stopped = np.count_nonzero(done)
        if stopped == done.size or iterations == BALANCE_MAX_ITER:
            break
        if stopped:
            if index is None:
                index = np.arange(len(h))
                q_all, unit_all = np.empty_like(q), np.empty_like(unit)
                iterations_all = np.empty(len(h), dtype=int)
                converged_all = np.empty(len(h), dtype=bool)
            out = index[done]
            q_all[out], unit_all[out] = q[done], unit[done]
            iterations_all[out], converged_all[out] = iterations, True
            going = ~done
            index, hs, q, root = index[going], hs[going], q[going], root[going]
    if index is None:
        if h.ndim == 2:
            return _balanced(h, unit, q, sigma2, iterations, bool(done))
        return _balanced(h, unit, q, sigma2, np.full(len(h), iterations), done)
    q_all[index], unit_all[index] = q, unit
    iterations_all[index], converged_all[index] = iterations, done
    return _balanced(h, unit_all, q_all, sigma2, iterations_all, converged_all)


def fixed_point_power_balance(h, p_bs: float, sigma2: float) -> BalanceResult:
    """Balance the per-user uplink SINRs of one channel under the sum-power
    constraint.

    Starting from a uniform split q = p_bs / K, each iteration normalizes the
    MMSE combiners of q to unit beams u and takes the new q from the right
    Perron vector of the uplink extended coupling matrix of |H u|^2, at which
    every uplink SINR equals the inverse Perron root 1 / lambda.  Stops when
    lambda changes by at most BALANCE_TOL relative between iterations
    (``converged``) or after BALANCE_MAX_ITER iterations.
    """
    hm = _channel_matrix(h)
    k, m = hm.shape
    _check_balance_inputs(hm, p_bs)
    if k > m:
        _warn_users_exceed_antennas(k, m)
    return _balance(hm, p_bs, sigma2)


def downlink_power_recovery(
    h,
    w_ul: np.ndarray,
    sinr_ul: np.ndarray,
    sigma2: float,
    p_bs: float,
) -> np.ndarray:
    """Per-beam downlink powers reproducing the uplink SINRs.

    Solves p_k G(k,k) - SINR_k sum_{j != k} p_j G(k,j) = SINR_k sigma2 with
    G(k,j) = |h_k . w_j|^2.  Duality guarantees nonnegative powers and, for
    unit-norm combiners, total power equal to the uplink budget ``p_bs``;
    both are checked and violations raise DualityError.  A leading stack
    axis on ``h``, ``w_ul`` and ``sinr_ul`` recovers a stack of states in one
    batched solve, and any failed state raises for the whole stack.
    """
    hm = _channel_matrix(h)
    sinr_ul = np.asarray(sinr_ul, dtype=float)
    gains = np.abs(hm @ w_ul) ** 2  # G[k, j]
    diag = gains.diagonal(0, -2, -1)
    if np.count_nonzero(diag <= 0):
        raise DualityError("a desired-signal gain G(k,k) is zero")
    a = -sinr_ul[..., :, None] * gains
    i = np.arange(diag.shape[-1])
    a[..., i, i] = diag
    try:
        p = np.linalg.solve(a, (sinr_ul * sigma2)[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise DualityError(f"downlink power system is singular: {exc}") from exc
    if np.count_nonzero(p < -1e-10 * p_bs):
        raise DualityError(f"negative downlink power recovered: {float(p.min())!r}")
    p = np.maximum(p, 0.0)
    drift = np.abs(p.sum(axis=-1) - p_bs) / p_bs
    if np.count_nonzero(drift > POWER_CONSERVATION_TOL):
        raise DualityError(
            "duality power conservation violated: sum(p) drifts by "
            f"{drift.max():.3e}"
        )
    return p


def _solve(
    h: np.ndarray, balance: BalanceResult, p_bs: float, sigma2: float
) -> tuple[BeamformerMatrix, SinrReport]:
    """Recover the downlink powers of a balance and finish the max-min solve,
    for one channel or for each state of a stack.

    Each state whose balance stopped at its iteration cap logs before the
    recovery's checks can raise.  Each beamformer is then scaled so that its
    Frobenius power meets the budget exactly, and its SINRs are taken from
    the true downlink received signals (not the duality identity); a state
    whose downlink SINRs are off their uplink values by more than 1e-6
    relative logs.
    """
    capped = np.logical_not(balance.converged)
    if np.count_nonzero(capped):
        for n in np.extract(capped, balance.iterations):
            logger.warning("power balance stopped after %d iterations without converging", n)
    p = downlink_power_recovery(h, balance.combiner, balance.sinr, sigma2, p_bs)
    raw = balance.combiner * np.sqrt(p)[..., None, :]
    # the squared Frobenius norm as np.linalg.norm sums it for the
    # column-major beamformer of one channel: column by column, real and
    # imaginary parts apart
    flat = raw.mT.reshape(*h.shape[:-2], -1)
    total = np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag)) ** 2
    if np.count_nonzero(total == 0.0):
        raise ValueError("cannot scale a zero beamformer to a positive budget")
    weights = raw * np.sqrt(p_bs / total)[..., None, None]
    y = h @ weights
    sinr = downlink_sinr(y, sigma2)
    gap = (np.abs(sinr - balance.sinr) / np.maximum(balance.sinr, 1e-300)).max(-1)
    over = gap > 1e-6
    if np.count_nonzero(over):
        for g in np.extract(over, gap):
            logger.warning(
                "downlink SINR deviates from the uplink duality value by up to %.3e", g
            )
    rates = rates_from_sinr(sinr)
    min_rate, avg = rates.min(axis=-1), (np.abs(y) ** 2).sum(axis=-1).mean(axis=-1)
    if h.ndim == 2:  # one channel reports Python floats
        min_rate, avg = float(min_rate), float(avg)
    return BeamformerMatrix(weights, p_bs), SinrReport(
        sinr=sinr,
        rates=rates,
        min_rate=min_rate,
        avg_received_power=avg,
        noise_power=sigma2,
    )


def duality_beamformer(
    h, p_bs: float, sigma2: float
) -> tuple[BeamformerMatrix, SinrReport]:
    """Max-min downlink beamformer of one (K, M) channel, or of each state of
    a (B, K, M) stack with the same arithmetic state by state.

    Runs the uplink balance, recovers the downlink powers, and returns the
    beamformer scaled to the budget and its true downlink report; for a
    stack every field but ``power_budget`` and ``noise_power`` carries the
    leading stack axis.  A capped balance logs before the recovery is
    checked, and a downlink SINR off its uplink value by over 1e-6 relative
    logs after.  One channel runs through ``fixed_point_power_balance`` and
    logs K > M users before it; a stack raises the one-channel error for
    the whole stack when any state fails, and logs K > M users last.
    """
    hm = _channel_matrix(h)
    if hm.ndim == 2:
        return _solve(hm, fixed_point_power_balance(hm, p_bs, sigma2), p_bs, sigma2)
    if hm.ndim != 3:
        raise ValueError(f"expected a (K, M) channel or a (B, K, M) stack, got {hm.shape}")
    _, k, m = hm.shape
    _check_balance_inputs(hm, p_bs)
    solved = _solve(hm, _balance(hm, p_bs, sigma2), p_bs, sigma2)
    if k > m:
        _warn_users_exceed_antennas(k, m)
    return solved
