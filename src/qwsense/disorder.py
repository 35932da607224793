"""Coin-angle disorder: static (per-site) and dynamic (per-step) ensembles.

Static disorder draws every site's two coin angles independently and
uniformly from [theta_i - w, theta_i + w], fixed for the whole run; dynamic
disorder redraws one (theta1, theta2) pair per step, shared by all sites.
The estimand theta02 is never disordered.  All draws are deterministic
functions of (master_seed, realization_index) through numpy's SeedSequence
spawn keys, so realizations are order-independent.

``ensemble_fisher`` walks all R realizations as one batch through
``metrology.fisher_at_defect``: static disorder as one (R, N) coin field,
dynamic disorder as one (R, 1) field per step, row r holding realization
r's angle pair of that step, drawn from its stream as the walk reaches the
step (so the run holds O(R N) angles, not O(R T N), and a step costs 4 R
cos/sin, not 4 R N).  Each row's FI equals that realization's own serial
walk bit for bit, and the mean and std reduce the rows in realization order.
"""

from dataclasses import dataclass

import numpy as np

from . import bayes, metrology
from .walk import CoinField, WalkParams

STATIC = "static"
DYNAMIC = "dynamic"

DEFAULT_REALIZATIONS = 10


@dataclass(frozen=True)
class DisorderSpec:
    kind: str
    half_width: float
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


def _realization_rng(spec: DisorderSpec, realization_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(spec.master_seed, spawn_key=(realization_index,))
    return np.random.default_rng(seq)


def sample_disorder(spec: DisorderSpec, base: WalkParams, realization_index: int, steps=None):
    """Disordered coin field(s) for one realization.

    Static returns a single (N,) CoinField; dynamic returns a list of
    per-step uniform CoinFields, shape (), and requires ``steps``.
    """
    if not 0 <= realization_index < spec.n_realizations:
        raise ValueError(
            f"realization_index {realization_index} outside 0..{spec.n_realizations - 1}"
        )
    rng = _realization_rng(spec, realization_index)
    if spec.kind == STATIC:
        return CoinField(*_draw(spec, base, rng, base.lattice_size))
    if steps is None or steps < 1:
        raise ValueError("dynamic disorder requires a positive step count")
    return [CoinField(*_draw(spec, base, rng)) for _ in range(steps)]


def draw_range(angle: float, half_width: float):
    """(low, high) of the uniform draw of a bulk angle ``angle``."""
    return angle - half_width, angle + half_width


def _draw(spec: DisorderSpec, base: WalkParams, rng: np.random.Generator, sites=None):
    """(theta1, theta2) drawn from one realization's stream: a pair of floats,
    one dynamic step's, or with ``sites`` a pair of (sites,) static arrays."""
    return (rng.uniform(*draw_range(base.theta1, spec.half_width), sites),
            rng.uniform(*draw_range(base.theta2, spec.half_width), sites))


def _ensemble_fields(spec: DisorderSpec, base: WalkParams, steps: int):
    """Coin fields that walk every realization of ``spec`` as one batch."""
    if spec.half_width == 0.0:
        # every realization is the clean walk: walk it once
        return CoinField.stack([CoinField.from_params(base)])
    realizations = range(spec.n_realizations)
    if spec.kind == STATIC:
        return CoinField.stack([sample_disorder(spec, base, r) for r in realizations])
    # each realization's stream draws its steps in the order sample_disorder does
    rngs = [_realization_rng(spec, r) for r in realizations]
    return (
        CoinField(*np.array([_draw(spec, base, rng) for rng in rngs]).T[..., np.newaxis])
        for _ in range(steps)
    )


def ensemble_fisher(spec: DisorderSpec, base: WalkParams, steps: int) -> EnsembleResult:
    """Per-step mean and std of the defect-site FI over disorder realizations.

    At zero width every realization is the clean walk, so the mean is the
    clean FI exactly and the std is zero.
    """
    fi = metrology.fisher_at_defect(base, steps, _ensemble_fields(spec, base, steps)).values
    per_realization = np.ascontiguousarray(fi.T)  # rows summed in realization order
    return EnsembleResult(
        np.arange(steps + 1), per_realization.mean(axis=0), per_realization.std(axis=0)
    )


def ensemble_msre(spec: DisorderSpec, config: "bayes.EstimationConfig") -> EnsembleResult:
    """Per-step mean and std of the estimation error over disorder realizations.

    Measured data come from the disordered walk, and the candidate grid runs
    on the same realized bulk angles (the estimator models its own device,
    varying only the defect angle), so the error tracks the disordered
    Fisher information.  Each realization walks its own candidate table, one
    after another in realization order.  At zero width every draw is the
    clean angle (uniform(a, a) returns a), so each realization's curve is the
    clean curve of its own seed stream.
    """
    steps = max(config.schedule)
    curves = []
    for index in range(spec.n_realizations):
        fields = sample_disorder(spec, config.params, index, steps)
        table = bayes.candidate_probability_table(
            config.params, config.candidates(), config.schedule, coin_fields=fields
        )
        curves.append(bayes.estimation_curve(
            config, table, data_coin_fields=fields, seed_prefix=(index,)
        ).msre)
    values = np.array(curves)
    return EnsembleResult(np.asarray(config.schedule), values.mean(axis=0), values.std(axis=0))
