"""Max-min downlink beamforming via uplink-downlink duality.

The downlink max-min SINR problem under a total power constraint is solved in
a virtual uplink: MMSE receive combiners alternate with the Perron vector of
the uplink extended coupling matrix, which balances the per-user SINRs at the
inverse of its Perron root.  A K x K linear system then recovers the
downlink per-beam powers achieving the same SINRs with the same total power.

``duality_beamformer`` solves one channel; ``duality_stack`` runs the same
arithmetic on a stack of channels, state by state bit for bit, for the 1-bit
sweeps.  The kernels, the power recovery and the finish (scaling to the
budget, the downlink report, the checks and warnings) take a leading stack
axis, so each rule of the solver is written once.  Only the balance loop has
two forms: ``fixed_point_power_balance`` for one channel and
``balance_stack``, which masks the states that have converged.  The masked
loop gives the same bits on one channel but took 1.21-1.35 times as long,
and the optimizer solves one channel at a time.  The stacked solver raises
when any state of its stack fails; the sweeps then solve that stack again
with ``duality_beamformer``, one channel at a time, which names each state's
failure.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .constants import BOLTZMANN
from .errors import DualityError, InfeasibleUserError

# Balance stop rule: the Perron root changes by at most BALANCE_TOL relative
# to its value between iterations, or BALANCE_MAX_ITER iterations have run.
BALANCE_TOL = 1e-12
BALANCE_MAX_ITER = 50

POWER_CONSERVATION_TOL = 1e-8


def noise_power(temperature: float, bandwidth: float) -> float:
    """Thermal noise power k*T*B in watts."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    return BOLTZMANN * temperature * bandwidth


def _channel_matrix(h) -> np.ndarray:
    return h.matrix if hasattr(h, "matrix") else np.asarray(h, dtype=complex)


@dataclass
class BeamformerMatrix:
    """M x K transmit weights constrained to a total power budget."""

    weights: np.ndarray
    power_budget: float

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=complex)
        if self.weights.ndim != 2:
            raise ValueError("weights must be an M x K matrix")
        if self.power_budget < 0:
            raise ValueError("power budget must be nonnegative")

    @property
    def total_power(self) -> float:
        return float(np.linalg.norm(self.weights) ** 2)


@dataclass
class SinrReport:
    """Per-user SINR/rate summary for one channel + beamformer.

    Rates are spectral efficiencies in bps/Hz; the serialized report states
    that as ``"bandwidth": 1.0``.
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


# The two balance loops share their entry and exit checks below.  The
# solvers' warnings name the line that called the public solver, two frames
# above the helper that issues them.  The solvers' checks test a condition
# with np.count_nonzero, which takes a one-channel scalar and a stack alike
# and on a numpy scalar costs about half of ``.any()`` and a quarter of
# np.any; the optimizer runs hundreds of one-channel solves.


def _warn_users_exceed_antennas(k: int, m: int) -> None:
    warnings.warn(
        f"K={k} users exceed M={m} antennas; balancing may converge to "
        "low SINRs",
        stacklevel=3,
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


def fixed_point_power_balance(h, p_bs: float, sigma2: float) -> BalanceResult:
    """Balance the per-user uplink SINRs under the sum-power constraint.

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
    q = np.full(k, p_bs / k)
    root = None
    converged = False
    for iterations in range(1, BALANCE_MAX_ITER + 1):
        w = mmse_combiner(hm, q, sigma2)
        unit = w / np.linalg.norm(w, axis=0)
        gains = np.abs(hm @ unit) ** 2
        previous = root
        root, right = perron(extended_coupling_matrix(gains.T, sigma2, p_bs))
        q = p_bs * right[:k] / right[:k].sum()
        if previous is not None and abs(root - previous) <= BALANCE_TOL * root:
            converged = True
            break
    return _balanced(hm, unit, q, sigma2, iterations, converged)


def balance_stack(h: np.ndarray, p_bs: float, sigma2: float) -> BalanceResult:
    """``fixed_point_power_balance`` of every state of a (B, K, M) channel
    stack.

    Each state iterates until its own Perron root meets the stop rule, so its
    result does not depend on the other states of the stack.
    """
    b, k, m = h.shape
    _check_balance_inputs(h, p_bs)
    q = np.full((b, k), p_bs / k)
    unit = np.empty((b, m, k), dtype=complex)
    root = np.full(b, np.nan)  # NaN fails the stop rule at the first iteration
    iterations = np.zeros(b, dtype=int)
    converged = np.zeros(b, dtype=bool)
    active = np.arange(b)
    for iteration in range(1, BALANCE_MAX_ITER + 1):
        if not active.size:
            break
        ha = h[active]
        w = mmse_combiner(ha, q[active], sigma2)
        u = w / np.linalg.norm(w, axis=-2, keepdims=True)
        gains = np.abs(ha @ u) ** 2
        roots, right = perron(extended_coupling_matrix(gains.mT, sigma2, p_bs))
        q[active] = p_bs * right[:, :k] / right[:, :k].sum(axis=-1, keepdims=True)
        unit[active] = u
        iterations[active] = iteration
        done = np.abs(roots - root[active]) <= BALANCE_TOL * roots
        root[active] = roots
        converged[active[done]] = True
        active = active[~done]
    return _balanced(h, unit, q, sigma2, iterations, converged)


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
        raise DualityError(
            f"negative downlink power recovered: {p.min()!r}"
        )
    p = np.maximum(p, 0.0)
    drift = np.abs(p.sum(axis=-1) - p_bs) / p_bs
    if np.count_nonzero(drift > POWER_CONSERVATION_TOL):
        raise DualityError(
            "duality power conservation violated: sum(p) drifts by "
            f"{drift.max():.3e}"
        )
    return p


@dataclass
class StackSolution:
    """Max-min solution of one channel state, or of each state of a stack of
    B states, with the leading stack axis on every array field.  Every state
    is solved: the solvers raise rather than return a failed state."""

    weights: np.ndarray  # (B, M, K) beamformers scaled to the budget
    sinr: np.ndarray  # (B, K) from the true downlink received signals
    rates: np.ndarray  # (B, K) bps/Hz
    avg_received_power: np.ndarray  # (B,)
    power_budget: float
    noise_power: float

    @property
    def min_rate(self) -> np.ndarray:
        return self.rates.min(axis=-1)

    def solution(self, i: int | tuple[()]) -> tuple[BeamformerMatrix, SinrReport]:
        """State ``i`` as ``duality_beamformer`` returns it, its arrays views
        of this solution's; the index ``()`` takes the one state of a
        one-channel solution."""
        rates = self.rates[i]
        report = SinrReport(
            sinr=self.sinr[i],
            rates=rates,
            min_rate=float(rates.min()),
            avg_received_power=float(self.avg_received_power[i]),
            noise_power=self.noise_power,
        )
        return BeamformerMatrix(self.weights[i], self.power_budget), report


def _solve(
    h: np.ndarray, balance: BalanceResult, p_bs: float, sigma2: float
) -> StackSolution:
    """Recover the downlink powers of a balance and finish the max-min solve,
    for one channel or for each state of a stack.

    Each state whose balance stopped at its iteration cap warns before the
    recovery's checks can raise.  Each beamformer is then scaled so that its
    Frobenius power meets the budget exactly, and its SINRs are taken from
    the true downlink received signals (not the duality identity); a state
    whose downlink SINRs are off their uplink values by more than 1e-6
    relative warns.
    """
    capped = np.logical_not(balance.converged)
    if np.count_nonzero(capped):
        for n in np.extract(capped, balance.iterations):
            warnings.warn(
                f"power balance stopped after {n} iterations without converging",
                stacklevel=3,
            )
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
            warnings.warn(
                "downlink SINR deviates from the uplink duality value by up to "
                f"{g:.3e}",
                stacklevel=3,
            )
    return StackSolution(
        weights=weights,
        sinr=sinr,
        rates=rates_from_sinr(sinr),
        avg_received_power=(np.abs(y) ** 2).sum(axis=-1).mean(axis=-1),
        power_budget=p_bs,
        noise_power=sigma2,
    )


def duality_beamformer(
    h, p_bs: float, sigma2: float
) -> tuple[BeamformerMatrix, SinrReport]:
    """Max-min downlink beamformer for one channel state.

    Runs the uplink balance (``fixed_point_power_balance``), recovers the
    downlink powers, and returns the beamformer scaled to the budget
    together with a report computed from the true downlink received
    signals.  A balance that stops at its iteration cap warns before the
    recovery is checked, and a mismatch beyond 1e-6 relative between the
    downlink and uplink SINRs warns after.
    """
    hm = _channel_matrix(h)
    balance = fixed_point_power_balance(hm, p_bs, sigma2)
    return _solve(hm, balance, p_bs, sigma2).solution(())


def duality_stack(h, p_bs: float, sigma2: float) -> StackSolution:
    """``duality_beamformer`` of every state of a (B, K, M) channel stack,
    with the same arithmetic state by state.

    Only the balance loop differs (``balance_stack``); the recovery, the
    finish and every check and warning are those of ``duality_beamformer``.
    A failed state raises the one-channel error for the whole stack; each
    capped state warns before the recovery is checked, and K > M users warn
    once every check has passed.
    """
    h = np.asarray(h, dtype=complex)
    _, k, m = h.shape
    solved = _solve(h, balance_stack(h, p_bs, sigma2), p_bs, sigma2)
    if k > m:
        _warn_users_exceed_antennas(k, m)
    return solved
