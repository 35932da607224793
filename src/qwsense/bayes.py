"""Bayesian estimation of the defect angle from repeated defect-site clicks.

An experiment at step count t repeats the walk M times and records how often
the walker is detected at the defect; the count is binomial in the true
arrival probability P0(t).  Every estimate reads one candidate table,
P0(t; theta02) over the scheduled steps and a uniform grid of candidate
theta02 values, built once by ``candidate_probability_table``;
``informative_schedule``, ``posterior`` and ``estimation_curve`` take that
table as input and never walk.  The posterior multiplies the binomial
likelihood by the flat prior and normalizes in log space.  The mean squared
relative error (posterior variance plus squared bias, normalized by
theta02^2) is the figure of merit and should fall as t^-2 at the Heisenberg
limit.

``estimation_curve`` draws a scheduled step's R click counts, one seed
stream per repetition, and computes their R posteriors as one (R, C) array
over the C candidates: the table row's clip and logs once, then each row's
max, log-sum-exp, weights, mean and variance, every reduction over the last
axis.  Row r holds the bits of ``posterior`` on click count r alone, which
is the R = 1 case of the same computation.  Each repetition's msre and std
stay scalar Python arithmetic, whose x ** 2 is libm pow, not numpy's x * x.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels, metrology
from .walk import (
    WalkParams,
    WalkerState,
    coin_tables,
    default_initial_state,
    dynamics_lattice_size,
    light_cone,
    propagate,
    site_probability,
    wrap_angle,
)

RNG_NAME = "numpy-pcg64"  # np.random.default_rng's generator

DEFAULT_GRID_POINTS = 201
DEFAULT_TRIALS = 1000
SCHEDULE_POINTS = 8  # blocks informative_schedule splits its step range into


@dataclass
class PosteriorGrid:
    candidates: np.ndarray
    log_weights: np.ndarray  # normalized: the weights sum to 1

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    @property
    def mean(self) -> float:
        return float((self.weights * self.candidates).sum())

    @property
    def variance(self) -> float:
        return float((self.weights * (self.candidates - self.mean) ** 2).sum())

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


@dataclass
class EstimationRecord:
    step: int
    trials: int
    successes: int
    msre: float
    posterior_std: float


@dataclass(frozen=True)
class EstimationConfig:
    params: WalkParams  # true walk, including the theta02 to be estimated
    prior_interval: tuple[float, float]
    schedule: tuple[int, ...]
    grid_points: int = DEFAULT_GRID_POINTS
    trials: int = DEFAULT_TRIALS
    master_seed: int = 0
    repetitions: int = 1  # experiments averaged per scheduled step

    def __post_init__(self):
        lo, hi = self.prior_interval
        if not lo < hi:
            raise ValueError(f"prior interval must satisfy lo < hi, got ({lo}, {hi})")
        if self.grid_points < 11:
            raise ValueError(f"grid_points must be >= 11, got {self.grid_points}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        if not self.schedule or any(t < 1 for t in self.schedule):
            raise ValueError("schedule must be a non-empty sequence of steps >= 1")
        object.__setattr__(self, "schedule", tuple(int(t) for t in self.schedule))

    def candidates(self) -> np.ndarray:
        lo, hi = self.prior_interval
        return np.linspace(lo, hi, self.grid_points)


@dataclass
class EstimationCurve:
    records: list[EstimationRecord]
    fit: metrology.ScalingFit | None  # slope of log msre vs log t; None below 5 records
    # largest posterior weight in the grid's first and last cells together,
    # over every step and repetition: near 1 when the prior window cuts the mass
    edge_mass: float
    posteriors: list[PosteriorGrid] | None = None


def defect_probability_series(
    params: WalkParams, initial: WalkerState, steps: int, coin_fields=None
) -> np.ndarray:
    """P0(t) for t = 0..steps (state-only propagation, no derivative).

    Shape (steps + 1,), or (steps + 1, B) for coin fields with (B, N) angles.
    Only the defect row is read, so the walk runs on the causal diamond
    (``walk`` module docstring).
    """
    defect = params.defect_index
    return np.array([
        site_probability(psi[..., defect, :])
        for psi in propagate(params, initial, steps, coin_fields, defect_only=True)
    ])


def candidate_probability_table(
    params_template: WalkParams, candidates: np.ndarray, schedule, coin_fields=None
) -> np.ndarray:
    """P0(t; candidate) for every scheduled t, shape (len(schedule), n_candidates).

    All candidate walks step together as one real (C, W, 2) stack; this table
    is the expensive part of estimation and is reused across trials and
    experiments.  The candidates share the field's coin tables and differ
    only in the layer-2 coin at the defect, which is redone per candidate
    after each step.  The stack holds the W = 2 t_max + 3 sites around the
    defect that the last scheduled step's light cone can reach, or the whole
    ring when that is smaller, and each step runs on the causal diamond of
    that W-site geometry (``walk.light_cone`` with horizon t_max): only the
    sites that can still reach the defect by t_max.  The defect row is exact
    at every step, so neither cut changes a bit of the table.  With
    ``coin_fields`` the candidate walks run on those (possibly disordered)
    bulk angles, in any form ``walk.coin_tables`` accepts with batch shape ().
    """
    schedule = [int(t) for t in schedule]
    t_max = max(schedule)
    batch, step_tables = coin_tables(params_template, t_max, coin_fields)
    if batch:
        raise ValueError(f"candidate walks take (N,) coin fields: batch must be (), got {batch}")
    width = min(params_template.lattice_size, dynamics_lattice_size(t_max))
    start = params_template.defect_index - (width - 1) // 2
    window = slice(start, start + width)
    defect = (width - 1) // 2
    state = default_initial_state(width)
    cone = light_cone(replace(params_template, lattice_size=width), state, t_max)
    initial = state.grid()
    # real coins and shifts keep the real start state real: float64 reproduces
    # the complex walk's bits
    assert not initial.imag.any()
    current = np.repeat(initial.real[np.newaxis], len(candidates), axis=0)
    # the forward windows widen into rows no step has written: they must be zero
    scratch = np.zeros_like(current)
    half = 0.5 * np.array([wrap_angle(theta) for theta in candidates])
    c02, s02 = np.cos(half), np.sin(half)
    probs = np.empty((t_max + 1, len(candidates)))
    probs[0] = site_probability(current[:, defect])
    for t, (rows, tables) in enumerate(zip(cone, step_tables)):
        c1, s1, c2, s2 = (table[window] for table in tables)
        kernels.split_step(current[:, rows], c1[rows], s1[rows], c2[rows], s2[rows],
                           scratch[:, rows])
        # layer 2 at the defect again, with each candidate's angle
        fu, fd = kernels.defect_coin_inputs(current, c1, s1, defect)
        scratch[:, defect, 0] = c02 * fu - s02 * fd
        scratch[:, defect - 1, 1] = s02 * fu + c02 * fd
        current, scratch = scratch, current
        probs[t + 1] = site_probability(current[:, defect])
    return probs[schedule]


def informative_schedule(table: np.ndarray, t_min: int) -> tuple[int, ...]:
    """Measurement times at which a single-shot experiment identifies theta02.

    ``table`` is candidate_probability_table over the prior grid and the
    steps t_min, t_min + 1, ..., one row per step, at least two rows.  The
    defect-site probability responds to theta02 through a phase that winds
    with t, so at many step counts the response over the prior window is flat
    or folds back on itself and the posterior degenerates (flat or
    multimodal).  This selector splits the table's steps into
    SCHEDULE_POINTS blocks and picks, per block, the step with the least fold
    ambiguity (monotone responses win outright), widest response span
    breaking ties.  It uses only the walk model over the prior, never
    measurement data, so it is ordinary Bayesian experiment design.
    """
    if t_min < 1 or np.ndim(table) != 2 or len(table) < 2:
        raise ValueError(
            f"need t_min >= 1 and a 2-D table of at least two step rows, got t_min={t_min}"
            f" and shape {np.shape(table)}"
        )
    steps = list(range(t_min, t_min + len(table)))
    span = table.max(axis=1) - table.min(axis=1)
    penalty = np.array([_fold_ambiguity(col) for col in table])
    edges = np.linspace(t_min, steps[-1] + 1, SCHEDULE_POINTS + 1)
    schedule = []
    for b in range(SCHEDULE_POINTS):
        block = [i for i, t in enumerate(steps) if edges[b] <= t < edges[b + 1]]
        if not block:
            continue
        best = min(block, key=lambda i: (penalty[i], -span[i]))
        schedule.append(steps[best])
    return tuple(dict.fromkeys(schedule))


def _fold_ambiguity(col):
    """Fraction of the response range shared by both flanks of a fold.

    0 for a monotone response (injective over the window); for a single fold
    it is the overlap of the two branches' value ranges, i.e. how much of the
    observable data is ambiguous between two candidate regions; multiple
    folds are treated as fully ambiguous.
    """
    diffs = np.diff(col)
    turns = np.where(diffs[1:] * diffs[:-1] < 0)[0]
    if turns.size == 0:
        return 0.0
    if turns.size > 1:
        return 1.0
    split = int(turns[0]) + 1
    left, right = col[: split + 1], col[split:]
    shared = min(left.max(), right.max()) - max(left.min(), right.min())
    full = col.max() - col.min()
    if full <= 0:
        return 1.0
    return max(0.0, float(shared / full))


def _log_posteriors(probabilities: np.ndarray, trials: int, successes: np.ndarray) -> np.ndarray:
    """Normalized log posterior weights, shape (R, C): one row per click count.

    ``probabilities`` is one table row, P0(t; candidate) for the C candidates;
    ``successes`` holds R click counts out of ``trials`` each.  The binomial
    log-likelihood times the flat prior, with the coefficient (constant
    across candidates) omitted; a candidate that cannot produce the data
    gets -inf.  The clip and logs run once for all R rows; each row's max,
    log-sum-exp and normalization reduce over the last axis, so a row holds
    the bits of its own R = 1 posterior.
    """
    probs = np.clip(probabilities, 0.0, 1.0)
    clicks = successes[:, np.newaxis]
    fails = trials - clicks
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.where(probs > 0.0, np.log(np.where(probs > 0.0, probs, 1.0)), -np.inf)
        log_q = np.where(probs < 1.0, np.log1p(-np.where(probs < 1.0, probs, 0.0)), -np.inf)
        # a term with a zero count is skipped: 0 * -inf must not become nan
        log_w = (0.0 + np.where(clicks > 0, clicks * log_p, 0.0)
                 + np.where(fails > 0, fails * log_q, 0.0))
    peak = log_w.max(axis=-1, keepdims=True)
    if not np.isfinite(peak).all():
        raise ValueError("data impossible under every candidate; posterior undefined")
    log_norm = peak + np.log(np.exp(log_w - peak).sum(axis=-1, keepdims=True))
    return log_w - log_norm


def posterior(
    candidates: np.ndarray, probabilities: np.ndarray, trials: int, successes: int
) -> PosteriorGrid:
    """Grid posterior over candidate theta02 values after one experiment.

    ``probabilities`` holds P0(t; candidate) for each candidate, one row of
    candidate_probability_table.  ``trials`` = 0 is allowed and returns the
    flat prior.  This is the R = 1 case of the batched posterior that
    ``estimation_curve`` computes for all repetitions of a step at once.
    """
    if len(candidates) < 11:
        raise ValueError(f"need at least 11 candidates, got {len(candidates)}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside 0..{trials}")
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if probabilities.shape != np.shape(candidates):
        raise ValueError("probabilities must hold one value per candidate")
    log_w = _log_posteriors(probabilities, trials, np.array([successes]))
    return PosteriorGrid(candidates, log_w[0])


def msre(grid: PosteriorGrid, true_theta02: float) -> float:
    """(variance + squared bias) / theta02^2 under the posterior."""
    return _relative_error(grid.variance, grid.mean, true_theta02)


def _relative_error(variance: float, mean: float, true_theta02: float) -> float:
    # Python floats: x ** 2 is libm pow here, where numpy would square
    if true_theta02 == 0:
        raise ZeroDivisionError("relative error undefined for true_theta02 = 0")
    return (variance + (mean - true_theta02) ** 2) / true_theta02**2


def record_seed(
    config: EstimationConfig, prefix: tuple, repetition: int, index: int
) -> np.random.SeedSequence:
    """Splitting rule: SeedSequence(master, spawn_key=prefix + (repetition, index))."""
    return np.random.SeedSequence(
        config.master_seed, spawn_key=tuple(prefix) + (repetition, index)
    )


def estimation_curve(
    config: EstimationConfig,
    candidate_table: np.ndarray,
    data_coin_fields=None,
    seed_prefix: tuple = (),
    keep_posteriors: bool = False,
) -> EstimationCurve:
    """Fresh M-trial experiments at each scheduled step; msre per record.

    With ``repetitions`` > 1 the msre and the posterior std at each step
    are means over that many independent experiments (the reported
    successes come from the first).  Data are drawn from the true walk
    (optionally disordered via ``data_coin_fields``); the likelihood reads
    ``candidate_table``, candidate_probability_table over the config's grid
    and schedule (one row per scheduled step, one column per grid point),
    built on whatever model the caller estimates with.
    """
    t_max = max(config.schedule)
    initial = default_initial_state(config.params.lattice_size)
    p_true = defect_probability_series(config.params, initial, t_max, data_coin_fields)
    candidates = config.candidates()
    if np.shape(candidate_table) != (len(config.schedule), config.grid_points):
        raise ValueError(
            "candidate_table must have one row per scheduled step and one column per grid point"
        )
    candidate_table = np.asarray(candidate_table, dtype=np.float64)
    records = []
    grids = [] if keep_posteriors else None
    edge_mass = 0.0
    for i, t in enumerate(config.schedule):
        p_t = min(max(p_true[t], 0.0), 1.0)
        successes = np.array([
            np.random.default_rng(record_seed(config, seed_prefix, rep, i)).binomial(
                config.trials, p_t)
            for rep in range(config.repetitions)
        ])
        log_w = _log_posteriors(candidate_table[i], config.trials, successes)
        weights = np.exp(log_w)
        means = (weights * candidates).sum(axis=-1, keepdims=True)
        variances = (weights * (candidates - means) ** 2).sum(axis=-1)
        edge_mass = max(edge_mass, float((weights[:, 0] + weights[:, -1]).max()))
        if grids is not None:
            grids.append(PosteriorGrid(candidates, log_w[0]))
        errors = [
            _relative_error(float(var), float(mean), config.params.theta02)
            for var, mean in zip(variances, means[:, 0])
        ]
        stds = [math.sqrt(var) for var in variances]
        records.append(
            EstimationRecord(
                step=t, trials=config.trials, successes=int(successes[0]),
                msre=float(np.mean(errors)),
                posterior_std=float(np.mean(stds)),
            )
        )
    try:
        fit = metrology.power_law_fit(
            [r.step for r in records], [r.msre for r in records],
            window=(min(config.schedule), max(config.schedule)),
        )
    except ValueError:
        fit = None  # fewer than 5 usable records
    return EstimationCurve(records, fit, edge_mass, grids)
