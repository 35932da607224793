"""Bayesian estimation of the defect angle from repeated defect-site clicks.

An experiment at step count t repeats the walk M times and records how often
the walker is detected at the defect; the count is binomial in the true
arrival probability P0(t).  Every estimate reads one candidate table,
P0(t; theta02) over the scheduled steps and a uniform grid of candidate
theta02 values, built once by ``candidate_probability_table``, which walks
the C candidates as one batch of per-walk defect angles on shared bulk
coins.  ``informative_schedule`` and ``posterior`` never walk;
``estimation_curve`` walks once, the true (data) walk through
``defect_probability_series``, for the P0 that its clicks are drawn from.
The posterior multiplies the binomial likelihood by the flat prior and
normalizes in log space.  The mean squared relative error (posterior
variance plus squared bias, normalized by theta02^2) is the figure of
merit and should fall as t^-2 at the Heisenberg limit.

``estimation_curve`` draws a scheduled step's R click counts, one seed
stream per repetition, and computes their R posteriors as one (R, C) array
over the C candidates: the table row's clip and logs once, then each row's
max, log-sum-exp, weights, mean and variance, every reduction over the last
axis.  Row r holds the bits of ``posterior`` on click count r alone, which
is the R = 1 case of the same computation.  Each repetition's msre and std
stay scalar Python arithmetic, whose x ** 2 is libm pow, not numpy's x * x.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import metrology
from .errors import ShortFitError
from .walk import WalkParams, propagate, site_probability

RNG_NAME = "numpy-pcg64"  # np.random.default_rng's generator

DEFAULT_GRID_POINTS = 201
MIN_GRID_POINTS = 11  # candidates a posterior needs
DEFAULT_TRIALS = 1000
SCHEDULE_POINTS = 8  # blocks informative_schedule splits its step range into


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
        if hi - lo >= 4.0 * math.pi:
            # R(theta + 4 pi) = R(theta): a wider window holds one walk twice
            raise ValueError(f"prior interval must be narrower than 4 pi, got ({lo}, {hi})")
        if self.grid_points < MIN_GRID_POINTS:
            raise ValueError(f"grid_points must be >= {MIN_GRID_POINTS}, got {self.grid_points}")
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
    weights: np.ndarray  # (len(schedule), grid_points): each step's first-repetition posterior


def defect_probability_series(params: WalkParams, steps: int, coin_fields=None) -> np.ndarray:
    """P0(t) for t = 0..steps (state-only propagation, no derivative).

    Shape (steps + 1,), or (steps + 1, B) for coin fields of B walks: the
    site probability of each defect row a defect-only walk yields.
    """
    return np.array([
        site_probability(row) for row in propagate(params, steps, coin_fields, defect_only=True)
    ])


def candidate_probability_table(
    params_template: WalkParams, candidates: np.ndarray, schedule, coin_fields=None
) -> np.ndarray:
    """P0(t; candidate) for every scheduled t, shape (len(schedule), n_candidates).

    This table is the expensive part of estimation and is reused across
    trials and experiments.  With ``coin_fields`` the candidate walks run on
    those (possibly disordered) bulk angles, in any form
    ``walk.coin_tables`` accepts with batch shape ().
    """
    schedule = [int(t) for t in schedule]
    rows = propagate(params_template, max(schedule), coin_fields, defect_only=True,
                     defect_angles=candidates)
    return np.array([site_probability(row) for row in rows])[schedule]


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
    penalty = np.array([fold_ambiguity(col) for col in table])
    edges = np.linspace(t_min, steps[-1] + 1, SCHEDULE_POINTS + 1)
    schedule = []
    for b in range(SCHEDULE_POINTS):
        block = [i for i, t in enumerate(steps) if edges[b] <= t < edges[b + 1]]
        if not block:
            continue
        best = min(block, key=lambda i: (penalty[i], -span[i]))
        schedule.append(steps[best])
    return tuple(dict.fromkeys(schedule))


def fold_ambiguity(col):
    """Fraction of the response range shared by both flanks of a fold.

    0 for a monotone response (injective over the window, flat steps
    aside); for a single fold it is the overlap of the two branches' value
    ranges, i.e. how much of the observable data is ambiguous between two
    candidate regions; multiple folds, and a flat response, which tells no
    candidate from another, are treated as fully ambiguous.  A turn is a
    sign change between consecutive non-zero differences, so a fold with a
    flat step at its tip is still one fold.
    """
    diffs = np.diff(col)
    moves = np.flatnonzero(diffs)
    if moves.size == 0:
        return 1.0
    turns = moves[1:][diffs[moves[1:]] * diffs[moves[:-1]] < 0]
    if turns.size == 0:
        return 0.0
    if turns.size > 1:
        return 1.0
    split = int(turns[0])
    left, right = col[: split + 1], col[split:]
    shared = min(left.max(), right.max()) - max(left.min(), right.min())
    return max(0.0, float(shared / (col.max() - col.min())))


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
) -> np.ndarray:
    """The normalized (C,) log posterior weights of the C candidates after one experiment.

    ``probabilities`` holds P0(t; candidate) for each candidate, one row of
    candidate_probability_table.  ``trials`` = 0 is allowed and returns the
    flat prior.  This is the R = 1 case of the batched posterior that
    ``estimation_curve`` computes for all repetitions of a step at once.
    """
    if len(candidates) < MIN_GRID_POINTS:
        raise ValueError(f"need at least {MIN_GRID_POINTS} candidates, got {len(candidates)}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside 0..{trials}")
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if probabilities.shape != np.shape(candidates):
        raise ValueError("probabilities must hold one value per candidate")
    return _log_posteriors(probabilities, trials, np.array([successes]))[0]


def _relative_error(variance: float, mean: float, true_theta02: float) -> float:
    # Python floats: x ** 2 is libm pow here, where numpy would square, and a
    # square of 0 (or one that underflows to 0) raises ZeroDivisionError
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
) -> EstimationCurve:
    """Fresh M-trial experiments at each scheduled step; msre per record.

    With ``repetitions`` > 1 the msre and the posterior std at each step
    are means over that many independent experiments (the reported
    successes come from the first).  Data are drawn from the true walk
    (optionally disordered via ``data_coin_fields``); the likelihood reads
    ``candidate_table``, candidate_probability_table over the config's grid
    and schedule (one row per scheduled step, one column per grid point),
    built on whatever model the caller estimates with.  The curve's
    ``weights`` row i holds step i's first-repetition posterior weights,
    the exp of ``posterior`` on that repetition's click count.
    """
    t_max = max(config.schedule)
    p_true = defect_probability_series(config.params, t_max, data_coin_fields)
    candidates = config.candidates()
    if np.shape(candidate_table) != (len(config.schedule), config.grid_points):
        raise ValueError(
            "candidate_table must have one row per scheduled step and one column per grid point"
        )
    candidate_table = np.asarray(candidate_table, dtype=np.float64)
    records = []
    first_weights = np.empty(np.shape(candidate_table))
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
        first_weights[i] = weights[0]
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
    except ShortFitError:
        fit = None  # fewer than metrology.MIN_FIT_POINTS usable records
    return EstimationCurve(records, fit, edge_mass, first_weights)
