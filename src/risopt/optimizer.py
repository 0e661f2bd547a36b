"""Joint optimization of RIS capacitances and the BS beamformer.

Outer loop: block coordinate ascent over the group capacitances, one
coordinate at a time, using the derivative of the max-min SINR (the inverse
Perron root of the extended coupling matrix) and an Armijo backtracking line
search with projection onto the tuning range.  Inner loop: every trial of
the line search is scored by a full duality solve of its channel, and the
accepted trial's solve becomes the new state, so each channel state is
always evaluated under its best transmit strategy.

Also provides the exhaustive 1-bit configuration sweep and the user-location
perturbation study built on top of it.  Both run every stage through one
chunk loop, ``_per_state``: ``assemble_effective_channel`` takes a chunk's
stack of STACK_CHUNK load vectors and ``duality_beamformer`` its stack of
channels.  Either raises when any state of a chunk fails; that chunk is then
assembled and solved again one state at a time (the same two functions on
one load vector and one channel), which names the failure of each state and
gives the rest the same bits.  The exhaustive winner is assembled and solved
once more, alone, for its beamformer and report.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, replace

import numpy as np

from .beamforming import (
    BeamformerMatrix,
    SinrReport,
    duality_beamformer,
    extended_coupling_matrix,
    perron,
)
from .channel import (
    ChannelComponents,
    assemble_effective_channel,
    assemble_from_config,
    group_channel_derivative,
)
from .errors import GeometryError, RisOptError
from .ris import (
    RisConfiguration,
    VaractorModel,
    enumerate_1bit_configs,
    load_impedances,
    onebit_capacitances,
    onebit_configuration,
)
from .scene import SceneDescription, field_matrix, synthesize_components, trace_users

logger = logging.getLogger(__name__)

MAX_HISTOGRAM_BINS = 10_000

# Channel states per stacked assembly and duality solve in the 1-bit sweeps;
# it bounds their working memory and does not change any result.
STACK_CHUNK = 64

# Offsets of the user-location robustness grid, meters.
DEFAULT_OFFSETS_X = (-0.075, 0.0, 0.075)
DEFAULT_OFFSETS_Y = (-0.092, 0.0, 0.092)


# Armijo backtracking on one group capacitance: the first trial step is
# ARMIJO_STEP farads (0.2 pF), each rejected trial shrinks it by ARMIJO_SHRINK,
# and the search gives up once it falls below ARMIJO_STEP_MIN (1e-6 pF).  A
# trial is accepted when it gains at least ARMIJO_SIGMA * step * |gradient|.
ARMIJO_SIGMA = 0.05
ARMIJO_SHRINK = 0.4
ARMIJO_STEP = 0.2e-12
ARMIJO_STEP_MIN = 1e-18


@dataclass(frozen=True)
class BcdSettings:
    """Sweep budget and random start of the coordinate ascent.

    ``t_g`` is the sweep budget (the CLI's ``--max-sweeps``).  ``rng_seed``
    draws the random start when no initial configuration is given.  The
    ascent stops early after a sweep that accepts no step; the line search's
    constants are the module's ARMIJO_* values.
    """

    t_g: int
    rng_seed: int = 0

    def __post_init__(self):
        if self.t_g < 0:
            raise ValueError("t_g must be >= 0")


@dataclass
class StepRecord:
    sweep: int
    group: int
    step: float  # signed accepted capacitance change, farads
    sinr_min_before: float
    sinr_min_after: float
    beamformer_recomputes: int


@dataclass
class OptimizationTrace:
    """Full record of one alternating-optimization run."""

    steps: list
    sweep_deltas: list
    initial_sinr_min: float
    final_sinr_min: float
    sweeps_run: int
    converged: bool
    final_config: RisConfiguration
    final_beamformer: BeamformerMatrix
    final_report: SinrReport

    def accepted_sinr_sequence(self) -> np.ndarray:
        """Initial value followed by the post-step minimum SINR of every
        accepted step; nondecreasing by construction."""
        return np.array(
            [self.initial_sinr_min] + [s.sinr_min_after for s in self.steps]
        )

    def to_dict(self) -> dict:
        return {
            "initial_sinr_min": self.initial_sinr_min,
            "final_sinr_min": self.final_sinr_min,
            "sweeps_run": self.sweeps_run,
            "converged": self.converged,
            "sweep_deltas": [float(d) for d in self.sweep_deltas],
            "steps": [
                {
                    "sweep": s.sweep,
                    "group": s.group,
                    "step_farads": s.step,
                    "sinr_min_before": s.sinr_min_before,
                    "sinr_min_after": s.sinr_min_after,
                    "beamformer_recomputes": s.beamformer_recomputes,
                }
                for s in self.steps
            ],
            "final_capacitances_pf": [
                float(c) * 1e12 for c in self.final_config.capacitances
            ],
            "final_report": self.final_report.to_dict(),
        }


class OptimizerState:
    """Mutable state threaded through the coordinate sweeps.

    ``objective_at`` solves each line-search trial in full and keeps it;
    ``commit`` adopts the kept trial, so the state's minimum SINR after a
    step is that trial's score bit for bit.
    """

    def __init__(self, components, model, config, p_bs, sigma2):
        self.components = components
        self.model = model
        self.config = config
        self.p_bs = p_bs
        self.sigma2 = sigma2
        self.effective = assemble_from_config(components, model, config)
        self.beamformer, self.report = duality_beamformer(self.effective, p_bs, sigma2)
        self.beamformer_recomputes = 1
        self._trial = None

    @property
    def sinr_min(self) -> float:
        """Minimum SINR of the current report."""
        return float(self.report.sinr.min())

    def group_value(self, group: int) -> float:
        return float(self.config.capacitances[self.config.grouping[group][0]])

    def objective_at(self, group: int, value: float) -> float:
        """Max-min SINR with one group moved to ``value``: assembles and
        solves the trial and keeps it for ``commit``."""
        config = self._config_with(group, value)
        effective = assemble_from_config(self.components, self.model, config)
        beamformer, report = duality_beamformer(effective, self.p_bs, self.sigma2)
        self._trial = (config, effective, beamformer, report)
        return float(report.sinr.min())

    def _config_with(self, group: int, value: float) -> RisConfiguration:
        caps = np.array(self.config.capacitances)
        caps[list(self.config.grouping[group])] = value
        return replace(self.config, capacitances=caps)

    def commit(self) -> None:
        """Adopt the trial that ``objective_at`` solved last."""
        self.config, self.effective, self.beamformer, self.report = self._trial
        self._trial = None
        self.beamformer_recomputes += 1


def min_sinr_gradient(state: OptimizerState, group: int) -> float:
    """Derivative of the state's max-min SINR w.r.t. one group value.

    The max-min SINR is 1 / lambda, the inverse Perron root of the
    extended coupling matrix X of the gains G = |H u|^2 at the current
    unit beams u, which the envelope theorem holds fixed.  With the left
    and right Perron vectors l and r, d lambda = l^T dX r / (l^T r),
    where dX follows from dG = 2 Re(conj(H u) * (dH u)) and dH is the
    group's channel derivative.
    """
    weights = state.beamformer.weights
    unit = weights / np.linalg.norm(weights, axis=0)
    y = state.effective.matrix @ unit
    dh = group_channel_derivative(
        state.components, state.config, group, state.effective
    )
    gains = np.abs(y) ** 2
    d_gains = 2.0 * np.real(np.conj(y) * (dh @ unit))
    x = extended_coupling_matrix(gains, state.sigma2, state.p_bs)
    root, right = perron(x)
    _, left = perron(x.T)
    # rows k < K of X are [G_kj (j != k), sigma2 / p_bs] / G_kk
    k = gains.shape[0]
    diag, d_diag = np.diag(gains), np.diag(d_gains)
    d_top = np.zeros((k, k + 1))
    d_top[:, :k] = d_gains / diag[:, None]
    np.fill_diagonal(d_top, 0.0)
    d_top -= (d_diag / diag)[:, None] * x[:k]
    dx = np.vstack([d_top, d_top.sum(axis=0)])
    d_root = (left @ dx @ right) / (left @ right)
    return float(-d_root / root**2)


def _armijo_search(objective, current_value, c, g, c_min, c_max):
    """Backtracking search along sign(g) with each trial projected onto
    [c_min, c_max]; returns (new_c, new_value) or None.  A trial that the
    projection leaves at ``c`` is not scored, so a gradient pointing out of
    the range at a bound returns None without an objective call."""
    d = 1.0 if g > 0 else -1.0
    rho = ARMIJO_STEP
    while rho >= ARMIJO_STEP_MIN:
        trial = min(max(c + rho * d, c_min), c_max)
        if trial != c:
            value = objective(trial)
            if value >= current_value + ARMIJO_SIGMA * rho * g * d:
                return trial, value
        rho *= ARMIJO_SHRINK
    return None


def armijo_coordinate_step(
    state: OptimizerState, group: int, g: float, sweep: int
) -> StepRecord | None:
    """One projected Armijo update of a single group capacitance.

    No-op when the gradient is zero, when it points out of the tuning range
    at a bound (the projection leaves every trial at ``c``), or when no step
    passes the sufficient-increase test before the step floor.  On
    acceptance the state adopts the accepted trial's channel and
    beamformer.  A trial that fails to assemble or solve ends the search and
    leaves the state unchanged.
    """
    if g == 0.0:
        return None
    c = state.group_value(group)
    before = state.sinr_min
    try:
        found = _armijo_search(
            lambda value: state.objective_at(group, value),
            before,
            c,
            g,
            state.model.c_min,
            state.model.c_max,
        )
    except RisOptError as exc:
        logger.warning("line search aborted for group %d: %s", group, exc)
        return None
    if found is None:
        return None
    new_c, _ = found
    state.commit()
    return StepRecord(
        sweep=sweep,
        group=group,
        step=new_c - c,
        sinr_min_before=before,
        sinr_min_after=state.sinr_min,
        beamformer_recomputes=state.beamformer_recomputes,
    )


def bcd_sweep(state: OptimizerState, sweep: int) -> tuple[float, list]:
    """One full pass over all groups in fixed index order."""
    start = state.sinr_min
    records = []
    for group in state.config.group_keys():
        g = min_sinr_gradient(state, group)
        record = armijo_coordinate_step(state, group, g, sweep)
        if record is not None:
            records.append(record)
    return state.sinr_min - start, records


def random_configuration(
    model: VaractorModel, grouping: dict, rng: np.random.Generator, n_elements: int
) -> RisConfiguration:
    """Uniform random group values over the tuning range, expanded to elements."""
    keys = sorted(grouping)
    values = rng.uniform(model.c_min, model.c_max, size=len(keys))
    # ungrouped elements (empty grouping) rest at the range midpoint
    caps = np.full(n_elements, 0.5 * (model.c_min + model.c_max))
    for value, g in zip(values, keys):
        caps[list(grouping[g])] = value
    return RisConfiguration(
        capacitances=caps,
        control_mode="continuous-per-column",
        grouping=dict(grouping),
    )


def alternating_optimize(
    components: ChannelComponents,
    model: VaractorModel,
    initial_config: RisConfiguration | None,
    p_bs: float,
    sigma2: float,
    settings: BcdSettings,
    grouping: dict | None = None,
) -> OptimizationTrace:
    """Alternating optimization of the RIS configuration and BS beamformer.

    Starts from ``initial_config`` when given (warm start), otherwise from a
    uniformly random configuration over ``grouping`` drawn from the settings
    seed.  Repeats coordinate sweeps, adopting the solved beamformer of every
    accepted step, until a sweep accepts no step (the state is then
    unchanged, so every further sweep would repeat it) or the sweep budget is
    exhausted.  No tolerance on the SINR is involved, so the rule holds at
    any SNR.
    """
    _, _, n = components.dims
    if initial_config is not None:
        config = initial_config.as_continuous()
    elif grouping is not None:
        rng = np.random.default_rng(settings.rng_seed)
        config = random_configuration(model, grouping, rng, n)
    else:
        raise ValueError("need an initial configuration or a grouping")
    state = OptimizerState(components, model, config, p_bs, sigma2)
    initial_sinr_min = state.sinr_min
    steps, deltas = [], []
    converged = False
    for sweep in range(1, settings.t_g + 1):
        delta, records = bcd_sweep(state, sweep)
        steps.extend(records)
        deltas.append(delta)
        if not records:
            converged = True
            break
    return OptimizationTrace(
        steps=steps,
        sweep_deltas=deltas,
        initial_sinr_min=initial_sinr_min,
        final_sinr_min=state.sinr_min,
        sweeps_run=len(deltas),
        converged=converged,
        final_config=state.config,
        final_beamformer=state.beamformer,
        final_report=state.report,
    )


@dataclass
class ExhaustiveResult:
    """Ranked outcome of the exhaustive 1-bit sweep."""

    entries: list  # (states tuple, min_rate or None) in enumeration order
    ranked: list  # (states tuple, min_rate), best first, failures excluded
    best_states: tuple
    best_config: RisConfiguration
    best_min_rate: float
    best_beamformer: BeamformerMatrix  # the winner's duality solve, alone
    best_report: SinrReport
    baseline_min_rate: float  # no-RIS duality on h_u
    fraction_beating_baseline: float

    @property
    def rates(self) -> np.ndarray:
        return np.array([r for _, r in self.entries if r is not None])

    @property
    def failures(self) -> int:
        return len(self.entries) - len(self.ranked)


def rate_histogram(rates, bin_width: float) -> list:
    """Fixed-width histogram with bin edges anchored at zero: each rate r is
    counted in bin floor(r / bin_width), whose edges are b * bin_width.

    Raises ValueError, before allocating anything, for a width that needs
    more than MAX_HISTOGRAM_BINS bins or gives a bin index beyond 2**52 in
    magnitude, where neighbouring edges can coincide.
    """
    rates = np.asarray(rates, dtype=float)
    if rates.size == 0:
        return []
    if bin_width <= 0:
        raise ValueError("bin width must be positive")
    with np.errstate(over="ignore"):  # an overflow to inf is refused below
        bins = np.floor(rates / bin_width)
    if not np.all(np.abs(bins) <= 2.0**52):
        raise ValueError(f"bin width {bin_width} gives bin indices beyond 2**52")
    needed = bins.max() - bins.min() + 1
    if needed > MAX_HISTOGRAM_BINS:
        raise ValueError(
            f"bin width {bin_width} needs {needed:.0f} bins, over {MAX_HISTOGRAM_BINS}"
        )
    bins = bins.astype(int)
    first = int(bins.min())
    counts = np.bincount(bins - first)
    return [
        ((first + i) * bin_width, (first + i + 1) * bin_width, int(count))
        for i, count in enumerate(counts)
    ]


def _chunks(items):
    """Successive lists of at most STACK_CHUNK of ``items``."""
    items = iter(items)
    while chunk := list(itertools.islice(items, STACK_CHUNK)):
        yield chunk


def _onebit_loads(components, model, grouping):
    """Load vector of every 1-bit state in enumeration order, built
    STACK_CHUNK states at a time."""
    _, _, n = components.dims
    for chunk in _chunks(enumerate_1bit_configs(len(grouping))):
        capacitances = onebit_capacitances(grouping, chunk, n)
        yield from load_impedances(model, capacitances, components.frequency)


def _per_state(solve, items):
    """``solve`` of each of ``items``, in order: per item, its result or the
    RisOptError that failed it.

    ``solve`` takes a stack of up to STACK_CHUNK items and returns one
    result per item.  A chunk that it refuses with a RisOptError is solved
    again one item at a time, which names each item's failure and gives the
    rest the same bits; any other error propagates.
    """
    for chunk in _chunks(items):
        try:
            solved = solve(np.array(chunk))
        except RisOptError:
            for item in chunk:
                try:
                    outcome = solve(item)
                except RisOptError as exc:
                    outcome = exc
                yield outcome
        else:
            yield from solved


def exhaustive_1bit_search(
    components: ChannelComponents,
    model: VaractorModel,
    grouping: dict,
    p_bs: float,
    sigma2: float,
) -> ExhaustiveResult:
    """Evaluate every binary configuration with a full duality solve each.

    Enumeration order is deterministic (lexicographic).  ``_per_state``
    assembles and solves the states STACK_CHUNK at a time
    (``assemble_effective_channel`` of the chunk's load vectors, then
    ``duality_beamformer`` of its channel stack), with the arithmetic of the
    one-channel solver state by state.  A chunk that either refuses is
    assembled and solved again one state at a time by the same two
    functions; a configuration that fails there is logged and recorded as a
    missing entry.  The winner, the best rate with ties to the first state,
    is assembled and solved once more, alone, for its beamformer and report.
    """
    _, _, n = components.dims

    def min_rates(z_loads):
        effective = assemble_effective_channel(components, z_loads)
        return duality_beamformer(effective, p_bs, sigma2)[1].min_rate

    entries = []
    rates = _per_state(min_rates, _onebit_loads(components, model, grouping))
    for states, rate in zip(enumerate_1bit_configs(len(grouping)), rates):
        if isinstance(rate, RisOptError):
            logger.warning("configuration %s failed: %s", states, rate)
            entries.append((states, None))
        else:
            entries.append((states, float(rate)))
    ranked = sorted(
        ((s, r) for s, r in entries if r is not None),
        key=lambda item: (-item[1], item[0]),
    )
    if not ranked:
        raise RisOptError("every 1-bit configuration failed to evaluate")
    best_states, best_rate = ranked[0]
    best_config = onebit_configuration(grouping, best_states, n)
    best_beamformer, best_report = duality_beamformer(
        assemble_from_config(components, model, best_config), p_bs, sigma2
    )
    _, baseline_report = duality_beamformer(components.h_u, p_bs, sigma2)
    baseline = float(baseline_report.min_rate)
    fraction = float(np.mean([r > baseline for _, r in ranked]))
    return ExhaustiveResult(
        entries=entries,
        ranked=ranked,
        best_states=best_states,
        best_config=best_config,
        best_min_rate=best_rate,
        best_beamformer=best_beamformer,
        best_report=best_report,
        baseline_min_rate=baseline,
        fraction_beating_baseline=fraction,
    )


@dataclass
class PerturbationResult:
    """Best-1-bit-over-baseline improvements across user-location perturbations."""

    improvements: np.ndarray
    combination_indices: list  # index in itertools.product order, per improvement
    combinations: int
    skipped: int
    summary: dict


def user_offset_grid(offsets_x=DEFAULT_OFFSETS_X, offsets_y=DEFAULT_OFFSETS_Y):
    """Per-user candidate displacement list: the cartesian offset grid."""
    return [(dx, dy) for dx in offsets_x for dy in offsets_y]


def _user_rows(scene, positions) -> list:
    """(h_u row, g_l row) of each position.  When the batch ``trace_users``
    call rejects a position, each position's BS side and port side are
    traced alone, and a rejected side holds its GeometryError."""
    try:
        return list(zip(*trace_users(scene, positions)))
    except GeometryError:
        pass

    def side(sources, walls, position):
        try:
            return field_matrix(scene, sources, position, walls)[0]
        except GeometryError as exc:
            return exc

    return [
        (
            side(scene.bs_elements, scene.user_walls, p),
            side(scene.ris_ports, scene.walls, p),
        )
        for p in positions
    ]


def _combination_rows(rows):
    """(h_u, g_l) of one combination's user rows, or the GeometryError that
    ``trace_users`` raises for those users: the first BS-side error, else
    the first port-side one."""
    errors = [
        row[side] for side in (0, 1) for row in rows
        if isinstance(row[side], GeometryError)
    ]
    return errors[0] if errors else tuple(np.array(side) for side in zip(*rows))


def perturbation_study(
    scene: SceneDescription,
    model: VaractorModel,
    grouping: dict,
    p_bs: float,
    sigma2: float,
    offsets=None,
) -> PerturbationResult:
    """Exhaustive 1-bit improvement over the no-RIS baseline for every
    combination of per-user location offsets.

    Combinations run in itertools.product order over the users' offset
    indices.  Only the users move, so the scene is synthesized once: the
    solved block (diag(Z_L) - Z_ll)^-1 H_0 of every 1-bit state is built
    from it by the stacked assembly, and the first block that fails raises.
    Every moved user position, K x len(offsets) of them, is traced once.
    Each combination gathers its users' h_u and g_l rows; its baseline h_u
    and its channels h_u + g_l @ block, one per block, are solved by
    ``duality_beamformer`` in chunks of STACK_CHUNK states that run across
    combinations, and it keeps the best min rate over the blocks less the
    baseline's.  Both stages run through ``_per_state``, the exhaustive
    sweep's chunk loop: a chunk that the stacked call refuses is built or
    solved again one state at a time.  A combination with a position that
    the tracer rejects (on a wall, or coincident with an antenna or port)
    is skipped with that GeometryError.  Every solve of the other
    combinations runs; one with any failed solve is skipped with its first
    failure in state order (the baseline first).
    """
    if offsets is None:
        offsets = user_offset_grid()
    base_components = synthesize_components(scene)
    k, _, n = base_components.dims

    blocks = []
    for block in _per_state(
        lambda z_loads: assemble_effective_channel(base_components, z_loads).solved_h0,
        _onebit_loads(base_components, model, grouping),
    ):
        if isinstance(block, RisOptError):  # the first block that fails
            raise block
        blocks.append(block)
    blocks = np.array(blocks)

    # position u * len(offsets) + c is user u moved by offsets[c]
    positions = [
        scene.user_positions[u] + np.asarray(offset)
        for u in range(k)
        for offset in offsets
    ]
    rows = _user_rows(scene, positions)

    combos = list(itertools.product(range(len(offsets)), repeat=k))
    # per combination: its (h_u, g_l), or the error that skips it
    traced = [
        _combination_rows([rows[u * len(offsets) + c] for u, c in enumerate(combo)])
        for combo in combos
    ]

    stacks = (
        np.concatenate([h_u[None], h_u + g_l @ blocks])
        for h_u, g_l in (t for t in traced if not isinstance(t, RisOptError))
    )
    states = _per_state(
        lambda h: duality_beamformer(h, p_bs, sigma2)[1].min_rate,
        (state for stack in stacks for state in stack),
    )
    improvements = []
    indices = []
    for index, (combo, users) in enumerate(zip(combos, traced)):
        if isinstance(users, RisOptError):
            logger.warning("combination %s skipped: %s", combo, users)
            continue
        rates = list(itertools.islice(states, 1 + len(blocks)))
        failed = [rate for rate in rates if isinstance(rate, RisOptError)]
        if failed:
            logger.warning("combination %s skipped: %s", combo, failed[0])
            continue
        improvements.append(float(max(rates[1:])) - float(rates[0]))
        indices.append(index)
    improvements = np.asarray(improvements, dtype=float)
    skipped = len(combos) - len(indices)
    summary = {
        "combinations": len(combos),
        "evaluated": int(improvements.size),
        "skipped": skipped,
        "min_improvement": float(improvements.min()) if improvements.size else None,
        "median_improvement": float(np.median(improvements))
        if improvements.size
        else None,
        "max_improvement": float(improvements.max()) if improvements.size else None,
    }
    return PerturbationResult(
        improvements=improvements,
        combination_indices=indices,
        combinations=len(combos),
        skipped=skipped,
        summary=summary,
    )
