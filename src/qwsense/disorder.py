"""Coin-angle disorder: static (per-site) and dynamic (per-step) ensembles.

Static disorder draws every site's two coin angles independently and
uniformly from [theta_i - w, theta_i + w], fixed for the whole run; dynamic
disorder redraws one (theta1, theta2) pair per step, shared by all sites.
The defect entry theta02 is never disordered: it is the estimand.  All draws
are deterministic functions of (master_seed, realization_index) through
numpy's SeedSequence spawn keys, so realizations are order-independent.

``ensemble_fisher`` walks all R realizations as one batch through
``walk.propagate``: static disorder as one (R, N) coin field, dynamic
disorder as one (R, N) field per step, row r holding realization r's angles
of that step, drawn as the walk reaches the step (so the run holds O(R N)
angles, not O(R T N)).  Each row's FI equals that realization's own serial
walk bit for bit, and the mean and std reduce the rows in realization order.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import bayes, metrology
from .walk import CoinField, WalkParams, WalkerState

STATIC = "static"
DYNAMIC = "dynamic"

DEFAULT_HALF_WIDTH = math.pi / 20.0
DEFAULT_REALIZATIONS = 10


@dataclass(frozen=True)
class DisorderSpec:
    kind: str
    half_width: float = DEFAULT_HALF_WIDTH
    n_realizations: int = DEFAULT_REALIZATIONS
    master_seed: int = 0

    def __post_init__(self):
        if self.kind not in (STATIC, DYNAMIC):
            raise ValueError(f"kind must be '{STATIC}' or '{DYNAMIC}', got {self.kind!r}")
        if self.half_width < 0:
            raise ValueError(f"half_width must be >= 0, got {self.half_width}")
        if self.n_realizations < 1:
            raise ValueError(f"n_realizations must be >= 1, got {self.n_realizations}")


@dataclass
class EnsembleResult:
    steps: np.ndarray
    mean: np.ndarray
    std: np.ndarray  # population standard deviation over realizations
    realizations: int


def _realization_rng(spec: DisorderSpec, realization_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(spec.master_seed, spawn_key=(realization_index,))
    return np.random.default_rng(seq)


def sample_disorder(spec: DisorderSpec, base: WalkParams, realization_index: int, steps=None):
    """Disordered coin field(s) for one realization.

    Static returns a single CoinField; dynamic returns a list of per-step
    CoinFields and requires ``steps``.
    """
    if not 0 <= realization_index < spec.n_realizations:
        raise ValueError(
            f"realization_index {realization_index} outside 0..{spec.n_realizations - 1}"
        )
    rng = _realization_rng(spec, realization_index)
    n = base.lattice_size
    w = spec.half_width
    if spec.kind == STATIC:
        a1 = rng.uniform(base.theta1 - w, base.theta1 + w, size=n)
        a2 = rng.uniform(base.theta2 - w, base.theta2 + w, size=n)
        a2[base.defect_index] = base.theta02
        return CoinField(a1, a2)
    if steps is None or steps < 1:
        raise ValueError("dynamic disorder requires a positive step count")
    return list(itertools.islice(_dynamic_fields(spec, base, rng), steps))


def _dynamic_fields(spec: DisorderSpec, base: WalkParams, rng: np.random.Generator):
    """One dynamic realization's per-step fields, drawn a step at a time, endlessly."""
    n = base.lattice_size
    w = spec.half_width
    while True:
        t1 = rng.uniform(base.theta1 - w, base.theta1 + w)
        t2 = rng.uniform(base.theta2 - w, base.theta2 + w)
        a2 = np.full(n, t2)
        a2[base.defect_index] = base.theta02
        yield CoinField(np.full(n, t1), a2)


def _ensemble_fields(spec: DisorderSpec, base: WalkParams, steps: int):
    """Coin fields that walk every realization of ``spec`` as one batch."""
    if spec.half_width == 0.0:
        # every realization is the clean walk: walk it once
        return CoinField.stack([CoinField.from_params(base)])
    realizations = range(spec.n_realizations)
    if spec.kind == STATIC:
        return CoinField.stack([sample_disorder(spec, base, r) for r in realizations])
    streams = [_dynamic_fields(spec, base, _realization_rng(spec, r)) for r in realizations]
    return (CoinField.stack([next(s) for s in streams]) for _ in range(steps))


def ensemble_fisher(
    spec: DisorderSpec, base: WalkParams, initial: WalkerState, steps: int
) -> EnsembleResult:
    """Per-step mean and std of the defect-site FI over disorder realizations.

    At zero width every realization is the clean walk, so the mean is the
    clean FI exactly and the std is zero.
    """
    fields = _ensemble_fields(spec, base, steps)
    fi, _ = metrology.information_values(
        base, initial, steps, (metrology.DEFECT_SITE_FI,), fields
    )[metrology.DEFECT_SITE_FI]
    per_realization = np.ascontiguousarray(fi.T)  # rows summed in realization order
    return EnsembleResult(
        np.arange(steps + 1), per_realization.mean(axis=0), per_realization.std(axis=0),
        spec.n_realizations,
    )


def ensemble_msre(
    spec: DisorderSpec,
    config: "bayes.EstimationConfig",
    threads: int = 1,
) -> EnsembleResult:
    """Per-step mean and std of the estimation error over disorder realizations.

    Measured data come from the disordered walk, and the candidate grid runs
    on the same realized bulk angles (the estimator models its own device,
    varying only the defect angle), so the error tracks the disordered
    Fisher information.  At zero width every draw is the clean angle
    (uniform(a, a) returns a), so each realization's curve is the clean
    curve of its own seed stream.
    """
    steps = max(config.schedule)

    def one(index):
        fields = sample_disorder(spec, config.params, index, steps)
        table = bayes.candidate_probability_table(
            config.params, config.candidates(), config.schedule, coin_fields=fields
        )
        curve = bayes.estimation_curve(
            config, data_coin_fields=fields, seed_prefix=(index,), candidate_table=table
        )
        return np.array([record.msre for record in curve.records])

    values = np.stack(_map(one, range(spec.n_realizations), threads))
    return EnsembleResult(
        np.asarray(config.schedule), values.mean(axis=0), values.std(axis=0),
        spec.n_realizations,
    )


def _map(fn, items, threads):
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def relative_std(result: EnsembleResult, t_min: float, t_max: float) -> float:
    """Mean of std/mean over the window, a disorder-fluctuation summary."""
    sel = (result.steps >= t_min) & (result.steps <= t_max) & (result.mean > 0)
    if not sel.any():
        raise ValueError("no usable points in window for relative std")
    return float((result.std[sel] / result.mean[sel]).mean())
