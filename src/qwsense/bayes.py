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
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, metrology
from .walk import (
    WalkParams,
    WalkerState,
    default_initial_state,
    dynamics_lattice_size,
    per_step_fields,
    propagate,
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

    @property
    def mode(self) -> float:
        return float(self.candidates[int(np.argmax(self.log_weights))])


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
    posteriors: list[PosteriorGrid] | None = None


def defect_probability_series(
    params: WalkParams, initial: WalkerState, steps: int, coin_fields=None
) -> np.ndarray:
    """P0(t) for t = 0..steps (state-only propagation, no derivative).

    Shape (steps + 1,), or (steps + 1, B) for coin fields with (B, N) angles.
    """
    defect = params.defect_index
    return np.array([
        (np.abs(psi[..., defect, :]) ** 2).sum(axis=-1)
        for psi in propagate(params, initial, steps, coin_fields)
    ])


def candidate_probability_table(
    params_template: WalkParams, candidates: np.ndarray, schedule, coin_fields=None
) -> np.ndarray:
    """P0(t; candidate) for every scheduled t, shape (len(schedule), n_candidates).

    All candidate walks step together as one real (C, W, 2) stack; this table
    is the expensive part of estimation and is reused across trials and
    experiments.  The candidates share the field's coin tables and differ
    only in the layer-2 coin at the defect, which is redone per candidate
    after each step.  The stack covers the light cone of the last scheduled
    step, W = 2 t_max + 3 sites around the defect, or the whole ring when
    that is smaller; amplitudes outside the cone are exactly zero, so the
    window changes no bit of the table.  With ``coin_fields`` the candidate
    walks run on those (possibly disordered) bulk angles; every field's
    angles must have shape (lattice_size,).
    """
    schedule = [int(t) for t in schedule]
    t_max = max(schedule)
    width = min(params_template.lattice_size, dynamics_lattice_size(t_max))
    start = params_template.defect_index - (width - 1) // 2
    window = slice(start, start + width)
    defect = (width - 1) // 2
    initial = default_initial_state(width).grid()
    # real coins and shifts keep the real start state real: float64 reproduces
    # the complex walk's bits
    assert not initial.imag.any()
    current = np.repeat(initial.real[np.newaxis], len(candidates), axis=0)
    scratch = np.empty_like(current)
    half = 0.5 * np.array([wrap_angle(theta) for theta in candidates])
    c02, s02 = np.cos(half), np.sin(half)
    probs = np.empty((t_max + 1, len(candidates)))
    probs[0] = (current[:, defect] ** 2).sum(axis=-1)
    prev_field = None
    for t, field in enumerate(per_step_fields(params_template, t_max, coin_fields)):
        if field is not prev_field:
            if field.angles1.shape != (params_template.lattice_size,):
                raise ValueError(
                    f"coin field angles must have shape ({params_template.lattice_size},),"
                    f" got {field.angles1.shape}"
                )
            c1, s1, c2, s2 = (table[window] for table in field.half_angle_tables())
            prev_field = field
        kernels.split_step(current, c1, s1, c2, s2, scratch)
        # layer 2 at the defect again, with each candidate's angle
        fu, fd = kernels.defect_coin_inputs(current, c1, s1, defect)
        scratch[:, defect, 0] = c02 * fu - s02 * fd
        scratch[:, defect - 1, 1] = s02 * fu + c02 * fd
        current, scratch = scratch, current
        probs[t + 1] = (current[:, defect] ** 2).sum(axis=-1)
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


def _log_likelihood(probs: np.ndarray, successes: int, trials: int) -> np.ndarray:
    """Binomial log-likelihood per candidate; impossible candidates get -inf.

    The binomial coefficient is constant across candidates and omitted.
    """
    probs = np.clip(probs, 0.0, 1.0)
    fails = trials - successes
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.where(probs > 0.0, np.log(np.where(probs > 0.0, probs, 1.0)), -np.inf)
        log_q = np.where(probs < 1.0, np.log1p(-np.where(probs < 1.0, probs, 0.0)), -np.inf)
    out = np.zeros_like(probs)
    if successes > 0:
        out = out + successes * log_p
    if fails > 0:
        out = out + fails * log_q
    return out


def posterior(
    candidates: np.ndarray, probabilities: np.ndarray, trials: int, successes: int
) -> PosteriorGrid:
    """Grid posterior over candidate theta02 values after one experiment.

    ``probabilities`` holds P0(t; candidate) for each candidate, one row of
    candidate_probability_table.  ``trials`` = 0 is allowed and returns the
    flat prior.
    """
    if len(candidates) < 11:
        raise ValueError(f"need at least 11 candidates, got {len(candidates)}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside 0..{trials}")
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if probabilities.shape != np.shape(candidates):
        raise ValueError("probabilities must hold one value per candidate")
    log_w = _log_likelihood(probabilities, successes, trials)  # + constant log-prior
    peak = log_w.max()
    if not np.isfinite(peak):
        raise ValueError("data impossible under every candidate; posterior undefined")
    log_norm = peak + np.log(np.exp(log_w - peak).sum())
    return PosteriorGrid(candidates, log_w - log_norm)


def msre(grid: PosteriorGrid, true_theta02: float) -> float:
    """(variance + squared bias) / theta02^2 under the posterior."""
    if true_theta02 == 0:
        raise ZeroDivisionError("relative error undefined for true_theta02 = 0")
    return (grid.variance + (grid.mean - true_theta02) ** 2) / true_theta02**2


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
    records = []
    grids = [] if keep_posteriors else None
    for i, t in enumerate(config.schedule):
        p_t = min(max(p_true[t], 0.0), 1.0)
        errors, stds = [], []
        first_m = None
        for rep in range(config.repetitions):
            rng = np.random.default_rng(record_seed(config, seed_prefix, rep, i))
            m = int(rng.binomial(config.trials, p_t))
            grid = posterior(candidates, candidate_table[i], config.trials, m)
            if rep == 0:
                first_m = m
                if grids is not None:
                    grids.append(grid)
            errors.append(msre(grid, config.params.theta02))
            stds.append(grid.std)
        records.append(
            EstimationRecord(
                step=t, trials=config.trials, successes=first_m,
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
    return EstimationCurve(records, fit, grids)
