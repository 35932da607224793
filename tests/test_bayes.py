"""Grid-posterior estimation of the defect angle from binomial click counts."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from test_kernels import full_angles, full_tables
from test_walk import start_grid, step_fields

from qwsense import kernels
from qwsense.bayes import (
    EstimationConfig,
    _log_posteriors,
    _relative_error,
    candidate_probability_table,
    defect_probability_series,
    estimation_curve,
    fold_ambiguity,
    informative_schedule,
    mirror_in_window,
    posterior,
    record_seed,
)
from qwsense.disorder import DisorderSpec, sample_disorder
from qwsense.metrology import power_law_fit
from qwsense.walk import CoinField, WalkParams, propagate

PI = math.pi

PRIOR = (-0.556 * PI, -0.544 * PI)


def nontrivial(n=203):
    return WalkParams(0.9 * PI, 0.75 * PI, -0.55 * PI, n)


def clean_table(config):
    """The clean candidate table over ``config``'s grid and schedule."""
    return candidate_probability_table(config.params, config.candidates(), config.schedule)


def log_posterior(probabilities, trials, successes):
    """One experiment's normalized log posterior weights: the ``_log_posteriors``
    row of its click count."""
    return _log_posteriors(np.asarray(probabilities, dtype=np.float64), trials,
                           np.array([successes]))[0]


def moments(candidates, log_weights):
    """The posterior's mean and variance over the candidate grid, as Python floats."""
    weights = np.exp(log_weights)
    mean = float((weights * candidates).sum())
    return mean, float((weights * (candidates - mean) ** 2).sum())


def test_probability_series_matches_evolve():
    p = nontrivial(43)
    series = defect_probability_series(p, 20)
    expected = [(np.abs(psi[p.defect_index]) ** 2).sum() for psi in propagate(p, 20)]
    np.testing.assert_allclose(series, expected, atol=1e-14)


def test_probability_series_starts_every_call_afresh():
    # each call writes the start into buffers of its own: no walk leaks into the next
    p = nontrivial(43)
    first = defect_probability_series(p, 20)
    other = defect_probability_series(replace(p, theta02=0.3), 20)
    assert np.array_equal(defect_probability_series(p, 20), first)
    assert first[0] == other[0] == 0.0
    assert not np.array_equal(first, other)


def test_posterior_uniform_without_data():
    candidates = np.linspace(*PRIOR, 51)
    table = candidate_probability_table(nontrivial(43), candidates, [10])[0]
    log_w = log_posterior(table, trials=0, successes=0)
    np.testing.assert_allclose(np.exp(log_w), 1.0 / 51, atol=1e-15)
    assert abs(np.exp(log_w).sum() - 1.0) < 1e-12
    lo, hi = PRIOR
    assert lo <= moments(candidates, log_w)[0] <= hi


def test_posterior_weights_normalized():
    p = nontrivial()
    candidates = np.linspace(*PRIOR, 101)
    table = candidate_probability_table(p, candidates, [48])[0]
    log_w = log_posterior(table, trials=1000, successes=700)
    assert abs(np.exp(log_w).sum() - 1.0) < 1e-12


def test_posterior_mode_matches_direct_likelihood_comparison():
    p = nontrivial()
    t, trials = 48, 10_000
    candidates = np.linspace(*PRIOR, 11)
    table = candidate_probability_table(p, candidates, [t])[0]
    successes = int(round(trials * table[5]))  # data exactly matching the middle
    log_w = log_posterior(table, trials, successes)
    direct = stats.binom.logpmf(successes, trials, table)
    assert int(np.argmax(log_w)) == int(np.argmax(direct)) == 5


def test_posterior_impossible_candidate_gets_zero_weight():
    probs = np.array([0.0, 0.2, 0.5, 0.7, 0.9, 0.3, 0.4, 0.6, 0.8, 0.1, 0.25])
    log_w = log_posterior(probs, trials=10, successes=3)
    assert np.exp(log_w)[0] == 0.0
    assert np.isneginf(log_w[0])
    assert abs(np.exp(log_w).sum() - 1.0) < 1e-12


def test_posterior_rejects_impossible_dataset():
    probs = np.zeros(11)
    with pytest.raises(ValueError):
        log_posterior(probs, trials=10, successes=3)


def test_posterior_log_domain_stable_for_huge_trials():
    p = nontrivial()
    t = 48
    candidates = np.linspace(*PRIOR, 51)
    table = candidate_probability_table(p, candidates, [t])[0]
    m = int(round(1_000_000 * table[25]))
    log_w = log_posterior(table, 1_000_000, m)
    assert np.isfinite(np.exp(log_w)).all()
    assert abs(np.exp(log_w).sum() - 1.0) < 1e-12
    mean, variance = moments(candidates, log_w)
    assert np.isfinite(mean) and np.isfinite(variance)


@settings(max_examples=200, deadline=None)
@given(theta02=st.floats(-12, 12) | st.integers(-12, 12), lo=st.floats(-12, 12),
       width=st.floats(0, 10))
def test_mirror_in_window_finds_the_least_mirror_that_is_not_theta02(theta02, lo, width):
    # in units of pi, as configs give them; an odd integer is its own mirror
    theta02, lo, hi = theta02 * PI, lo * PI, (lo + width) * PI
    mirrors = [2.0 * c * PI - theta02 for c in range(-21, 22, 2)]  # odd c
    inside = [m for m in mirrors if lo <= m <= hi and m != theta02]
    assert mirror_in_window(theta02, lo, hi) == min(inside, default=None)


def test_candidate_table_walks_the_rows_of_its_causal_diamond():
    # 201 candidates to t = 200 on a 4003-site ring: the walk holds the
    # 2 * (200 // 2) + 3 = 203 rows that reach the defect by t = 200, two
    # (203, 2, 201) buffers of 0.65 MB each.  Measured peaks: 2.83 MB, and
    # 4.12 MB on the 2 * 200 + 3 = 403 rows the walk was once cut to
    p = nontrivial(4003)
    candidates = np.linspace(*PRIOR, 201)
    candidate_probability_table(p, candidates, [200])  # numpy's first-call caches stay out
    tracemalloc.start()
    try:
        candidate_probability_table(p, candidates, [200])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_400_000


def test_posterior_validates_arguments():
    p = nontrivial(43)
    candidates = np.linspace(*PRIOR, 51)
    table = candidate_probability_table(p, candidates, [10])[0]
    with pytest.raises(ValueError):
        EstimationConfig(p, (0.2, 0.1), (10,))  # lo >= hi: the config owns the prior window
    # -4.6 pi holds theta02 - 4 pi too; every window holds the mirror -1.45 pi
    for lo in (-4.6, -4.4, -1.5):
        with pytest.raises(ValueError, match="mirror image"):
            EstimationConfig(p, (lo * np.pi, -0.5 * np.pi), (10,))
    EstimationConfig(p, (-1.4 * np.pi, -0.5 * np.pi), (10,))
    with pytest.raises(ValueError):
        posterior(candidates[:5], table[:5], 10, 5)  # grid too coarse
    assert posterior(candidates[:11], table[:11], 10, 5).shape == (11,)  # the coarsest grid
    with pytest.raises(ValueError, match="at least 11 candidates, got 10"):
        posterior(candidates[:10], table[:10], 10, 5)
    with pytest.raises(ValueError):
        posterior(candidates, table, 10, 50)  # successes > trials
    with pytest.raises(ValueError):
        posterior(candidates, table[:-1], 10, 5)  # one probability short


def test_posterior_is_the_log_posteriors_row_of_its_click_count():
    candidates = np.linspace(*PRIOR, 51)
    table = candidate_probability_table(nontrivial(43), candidates, [10])[0]
    batch = _log_posteriors(table, 100, np.array([0, 37, 100]))
    for successes, row in zip((0, 37, 100), batch):
        assert np.array_equal(posterior(candidates, table, 100, successes), row)


# --- batched candidate table ----------------------------------------------------


def full_ring_defect_probabilities(params, fields):
    """P0(t) of one complex walk from the start, stepped on the whole ring into
    fresh arrays, no window."""
    defect = params.defect_index
    psi = start_grid(params.lattice_size)
    probs = [(np.abs(psi[defect]) ** 2).sum()]
    for field in fields:
        out = np.empty_like(psi)
        kernels.split_step(psi, *full_tables(params, field), out)
        psi = out
        probs.append((np.abs(psi[defect]) ** 2).sum())
    return np.array(probs)


def serial_table(params, candidates, schedule, coin_fields=None):
    """Reference: one complex full-ring walk per candidate."""
    fields = step_fields(params, max(schedule), coin_fields)
    columns = []
    for theta in candidates:
        p = replace(params, theta02=float(theta))  # WalkParams wraps the angle
        columns.append(full_ring_defect_probabilities(p, fields)[list(schedule)])
    return np.stack(columns, axis=1)


def _static(params, steps):
    return sample_disorder(DisorderSpec("static", 0.1 * PI, 2, 4), params, 1)


def _dynamic(params, steps):
    return sample_disorder(DisorderSpec("dynamic", 0.1 * PI, 2, 4), params, 0, steps)


@pytest.mark.parametrize(
    "n, schedule, fields, prior",
    [
        (63, range(1, 31), None, PRIOR),  # clean, window = whole lattice
        (83, [30, 1, 12], None, PRIOR),  # clean, window inside the lattice
        (83, [1, 9, 20], _static, PRIOR),
        (83, [20, 3, 1], _dynamic, PRIOR),
        (21, [1, 25], None, PRIOR),  # the walk wraps: full-ring fallback
        (21, [1, 25], _static, PRIOR),
        (63, [1, 17], None, (0.98 * PI, 1.02 * PI)),  # straddles +-pi
        # rings far wider than 2 t_max + 3: per-site tables read at the cut's offset
        (203, [12, 1, 5], _static, PRIOR),
        (203, [3, 12], _dynamic, PRIOR),
    ],
)
def test_batched_table_equals_serial_walks_bit_for_bit(n, schedule, fields, prior):
    p = nontrivial(n)
    coin_fields = fields(p, max(schedule)) if fields else None
    candidates = np.linspace(*prior, 17)
    batched = candidate_probability_table(p, candidates, schedule, coin_fields)
    assert batched.shape == (len(schedule), 17)
    assert np.array_equal(batched, serial_table(p, candidates, schedule, coin_fields))


@settings(max_examples=20, deadline=None)
@given(
    theta1=st.floats(-PI, PI),
    theta2=st.floats(-PI, PI),
    candidates=st.lists(st.floats(-3 * PI, 3 * PI), min_size=1, max_size=6),
    t_max=st.integers(1, 12),
)
def test_batched_table_equals_serial_walks_for_drawn_angles(theta1, theta2, candidates, t_max):
    p = WalkParams(theta1, theta2, 0.0, 31)
    schedule = [1, t_max]
    batched = candidate_probability_table(p, np.array(candidates), schedule)
    assert np.array_equal(batched, serial_table(p, candidates, schedule))


@settings(max_examples=30, deadline=None)
@given(
    half=st.integers(1, 20),
    angles=st.tuples(st.floats(-PI, PI), st.floats(-PI, PI)),
    candidates=st.lists(st.floats(-3 * PI, 3 * PI), min_size=1, max_size=5),
    schedule=st.lists(st.integers(1, 30), min_size=1, max_size=4),
    fields=st.sampled_from([None, _static, _dynamic]),
)
def test_table_equals_full_ring_walks_on_any_lattice(half, angles, candidates, schedule, fields):
    # 3..41 sites, often fewer than 2 t_max + 3: the candidate walks wrap the ring
    p = WalkParams(*angles, 0.0, 2 * half + 1)
    coin_fields = fields(p, max(schedule)) if fields else None
    table = candidate_probability_table(p, np.array(candidates), schedule, coin_fields)
    assert np.array_equal(table, serial_table(p, candidates, schedule, coin_fields))


@settings(max_examples=30, deadline=None)
@given(
    theta1=st.sampled_from([0.9 * PI, 0.05 * PI]),  # nontrivial and trivial phase
    theta02=st.floats(-PI, PI),
    steps=st.integers(1, 25),
    wraps=st.booleans(),
    margin=st.integers(0, 10),
    fields=st.sampled_from([None, _static, _dynamic]),
)
def test_candidate_walk_at_the_true_angle_is_the_defect_walk(
    theta1, theta02, steps, wraps, margin, fields
):
    # both walkers step one coin-table stream: the candidate column at the
    # true angle is P0(t) of the defect walk, whether or not the ring wraps
    n = max(3, 2 * steps + 1 - 2 * margin) if wraps else 2 * steps + 3 + 2 * margin
    p = WalkParams(theta1, 0.75 * PI, theta02, n)
    coin_fields = fields(p, steps) if fields else None
    table = candidate_probability_table(p, [p.theta02], range(steps + 1), coin_fields)
    series = defect_probability_series(p, steps, coin_fields)
    assert np.array_equal(table[:, 0], series)


def _wider(params, steps):
    return CoinField(*full_angles(replace(params, lattice_size=params.lattice_size + 2)))


def _narrower_from_step_3(params, steps):
    wrong = CoinField(*full_angles(replace(params, lattice_size=params.lattice_size - 2)))
    return [CoinField.from_params(params)] * 2 + [wrong] * (steps - 2)


def _batched(params, steps):
    return CoinField.stack([CoinField.from_params(params)] * 2)


@pytest.mark.parametrize("fields, message", [
    pytest.param(_wider, "coin field length 205 does not match lattice size 203", id="_wider"),
    pytest.param(_narrower_from_step_3, "coin field length 201 does not match lattice size 203",
                 id="_narrower_from_step_3"),
    pytest.param(_batched, r"batch must be \(\), got \(2,\)", id="_batched"),
])
def test_candidate_table_rejects_fields_it_cannot_walk(fields, message):
    # the window slice used to cut a mis-sized field at the wrong sites
    p = nontrivial(203)
    with pytest.raises(ValueError, match=message):
        candidate_probability_table(p, np.linspace(*PRIOR, 11), [10, 40], fields(p, 40))


def test_informative_schedule_rejects_tables_it_cannot_read():
    p = nontrivial(63)
    table = candidate_probability_table(p, np.linspace(*PRIOR, 51), range(6, 31))
    for bad, t_min in ((table[:1], 6), (table[0], 6), (table, 0)):
        with pytest.raises(ValueError, match="at least two step rows"):
            informative_schedule(bad, t_min)
    # rows are steps t_min, t_min + 1, ...: the same rows read from a later
    # t_min select the same rows, shifted
    shifted = informative_schedule(table, 16)
    assert shifted == tuple(t + 10 for t in informative_schedule(table, 6))


# --- msre ---------------------------------------------------------------------


def test_msre_concentrated_posterior_is_zero():
    candidates = np.linspace(*PRIOR, 51)
    true = candidates[25]
    log_w = np.full(51, -np.inf)
    log_w[25] = 0.0
    mean, variance = moments(candidates, log_w)
    assert _relative_error(variance, mean, true) == pytest.approx(0.0, abs=1e-30)


def test_msre_uniform_posterior_matches_uniform_variance():
    grid_points = 201
    candidates = np.linspace(*PRIOR, grid_points)
    table = candidate_probability_table(nontrivial(43), candidates, [1])[0]
    mean, variance = moments(candidates, log_posterior(table, trials=0, successes=0))
    lo, hi = PRIOR
    true = (lo + hi) / 2.0
    # discrete uniform variance on G equidistant points
    spacing = (hi - lo) / (grid_points - 1)
    expected = spacing**2 * (grid_points**2 - 1) / 12.0 / true**2
    assert _relative_error(variance, mean, true) == pytest.approx(expected, rel=1e-12)
    # converges to the continuum (hi-lo)^2/12 value at this resolution
    continuum = (hi - lo) ** 2 / 12.0 / true**2
    assert _relative_error(variance, mean, true) == pytest.approx(continuum, rel=2e-2)


def test_msre_rejects_zero_true_value():
    candidates = np.linspace(-0.1, 0.1, 51)
    table = candidate_probability_table(nontrivial(43), candidates, [1])[0]
    mean, variance = moments(candidates, log_posterior(table, trials=0, successes=0))
    with pytest.raises(ZeroDivisionError):
        _relative_error(variance, mean, 0.0)


# --- schedules and curves -------------------------------------------------------


def test_informative_schedule_is_deterministic_and_ordered():
    p = nontrivial()
    candidates = np.linspace(*PRIOR, 201)
    a = informative_schedule(candidate_probability_table(p, candidates, range(20, 101)), 20)
    b = informative_schedule(candidate_probability_table(p, candidates, range(20, 101)), 20)
    assert a == b
    assert list(a) == sorted(a)
    assert 20 <= a[0] and a[-1] <= 100
    assert len(a) == 8


# a single fold whose flanks share 0.7 of the response range
FOLD = np.concatenate([np.linspace(0.0, 1.0, 6), np.linspace(1.0, 0.3, 6)[1:]])


@pytest.mark.parametrize("col, ambiguity", [
    (np.full(11, 0.3), 1.0),  # a flat response tells no candidate from another
    (np.insert(FOLD, 5, 1.0), 0.7),  # the same fold with a flat step at its tip
    (FOLD, 0.7),
    (np.linspace(0.0, 1.0, 11), 0.0),
    # flanks [1, 3] and [0.5, 3] share 2 of the range 2.5
    (np.array([1.0, 2.0, 3.0, 0.5]), 0.8),
], ids=["flat", "plateau-fold", "strict-fold", "monotone", "fold-above-zero"])
def test_fold_ambiguity_scores_flat_steps_as_no_information(col, ambiguity):
    # turns were sign changes of consecutive differences, so a zero difference
    # hid them: flat and plateau-fold columns both scored 0.0, "monotone"
    assert fold_ambiguity(col) == pytest.approx(ambiguity, abs=1e-12)


def test_informative_schedule_prefers_a_fold_to_a_flat_response():
    # each two-step block holds a flat row and a fold; the flat row was picked
    table = np.array([np.full(11, 0.3) if t % 2 else FOLD for t in range(1, 17)])
    assert informative_schedule(table, 1) == (2, 4, 6, 8, 10, 12, 14, 16)


def test_estimation_curve_reproducible_and_converging():
    p = nontrivial()
    schedule = informative_schedule(
        candidate_probability_table(p, np.linspace(*PRIOR, 201), range(20, 101)), 20
    )
    config = EstimationConfig(p, PRIOR, schedule, grid_points=201, trials=1000,
                              master_seed=1, repetitions=3)
    curve = estimation_curve(config, clean_table(config))
    again = estimation_curve(config, clean_table(config))
    assert np.array_equal(curve.msre, again.msre)
    assert curve.posterior_std[-1] < curve.posterior_std[0]
    fit = power_law_fit(schedule, curve.msre, window=(min(schedule), max(schedule)))
    assert fit.exponent < -1.0  # error falls steeply with steps


def test_estimation_curve_keeps_each_steps_posterior_weights():
    p = nontrivial(83)
    config = EstimationConfig(p, PRIOR, (20, 30, 40), grid_points=51, trials=200,
                              master_seed=3)
    curve = estimation_curve(config, clean_table(config))
    assert curve.weights.shape == (3, 51)
    assert np.abs(curve.weights.sum(axis=1) - 1.0).max() < 1e-12


def test_estimation_curve_checks_the_candidate_table_shape():
    p = nontrivial(63)
    config = EstimationConfig(p, PRIOR, (10, 20, 30), grid_points=51, trials=200,
                              master_seed=3)
    full = candidate_probability_table(p, config.candidates(), range(1, 31))
    # the unsliced t = 1..30 table would pair step 10 with the row of t = 1
    for table in (full, full[[9, 19, 29], :-1], full[9]):
        with pytest.raises(ValueError, match="one row per scheduled step"):
            estimation_curve(config, candidate_table=table)
    sliced = estimation_curve(config, candidate_table=full[[9, 19, 29]])
    clean = estimation_curve(config, clean_table(config))
    for column in ("successes", "msre", "posterior_std"):
        assert np.array_equal(getattr(sliced, column), getattr(clean, column))


def test_doubling_trials_halves_posterior_variance():
    p = nontrivial()
    t = 57
    candidates = np.linspace(*PRIOR, 201)
    table = candidate_probability_table(p, candidates, [t])[0]
    p_true = defect_probability_series(p, t)[t]
    ratios = []
    v_small, v_big = [], []
    for rep in range(60):
        rng = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(rep,)))
        m1 = int(rng.binomial(1000, p_true))
        m2 = int(rng.binomial(2000, p_true))
        v_small.append(moments(candidates, log_posterior(table, 1000, m1))[1])
        v_big.append(moments(candidates, log_posterior(table, 2000, m2))[1])
    ratio = np.mean(v_small) / np.mean(v_big)
    assert 1.7 < ratio < 2.4


def test_mode_consistency_at_large_trials():
    # 21 candidates spaced widely enough that binomial noise at M = 1e4
    # cannot push the maximum-likelihood column off the true one
    p = nontrivial()
    t, trials = 50, 10_000
    candidates = np.linspace(*PRIOR, 21)
    table = candidate_probability_table(p, candidates, [t])[0]
    p_true = defect_probability_series(p, t)[t]
    true_idx = int(np.argmin(np.abs(candidates - p.theta02)))
    hits = 0
    for rep in range(100):
        rng = np.random.default_rng(np.random.SeedSequence(42, spawn_key=(rep,)))
        m = int(rng.binomial(trials, p_true))
        hits += int(np.argmax(log_posterior(table, trials, m))) == true_idx
    assert hits >= 95


def one_posterior_log_weights(probs, trials, successes):
    """Reference: one experiment's normalized log posterior, on one (C,) row."""
    probs = np.clip(probs, 0.0, 1.0)
    out = np.zeros_like(probs)
    with np.errstate(divide="ignore"):
        if successes > 0:
            out = out + successes * np.log(probs)
        if trials - successes > 0:
            out = out + (trials - successes) * np.log1p(-probs)
    peak = out.max()
    if not np.isfinite(peak):
        raise ValueError("data impossible under every candidate; posterior undefined")
    return out - (peak + np.log(np.exp(out - peak).sum()))


def serial_curve(config, table, data_coin_fields=None, seed_prefix=()):
    """Reference: one posterior per repetition, each a ``_log_posteriors`` call
    on its click count alone, then its ``msre`` and ``std``.

    Each posterior is also checked against ``one_posterior_log_weights``.
    Returns (step, successes, msre, posterior_std) per record and the
    repetition-0 posterior weights.
    """
    p_true = defect_probability_series(config.params, max(config.schedule), data_coin_fields)
    records, grids = [], []
    for i, t in enumerate(config.schedule):
        p_t = min(max(p_true[t], 0.0), 1.0)
        errors, stds = [], []
        for rep in range(config.repetitions):
            rng = np.random.default_rng(record_seed(config, seed_prefix, rep, i))
            m = int(rng.binomial(config.trials, p_t))
            expected = one_posterior_log_weights(table[i], config.trials, m)  # may raise
            try:
                log_w = log_posterior(table[i], config.trials, m)
            except ValueError as err:
                pytest.fail(f"posterior rejected possible data: {err}")
            assert np.array_equal(log_w, expected)
            if rep == 0:
                first_m = m
                grids.append(np.exp(log_w))
            mean, variance = moments(config.candidates(), log_w)
            errors.append(_relative_error(variance, mean, config.params.theta02))
            stds.append(math.sqrt(variance))
        records.append((t, first_m, float(np.mean(errors)), float(np.mean(stds))))
    return records, grids


@settings(max_examples=80, deadline=None)
@given(
    repetitions=st.integers(1, 12),
    grid_points=st.integers(11, 61),
    trials=st.sampled_from([1, 2, 7, 1000]),
    theta02=st.floats(0.05, 3.0) | st.floats(-3.0, -0.05),
    schedule=st.lists(st.integers(1, 8), min_size=1, max_size=4),
    disorder=st.sampled_from([None, "static", "dynamic"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_batched_curve_equals_serial_posteriors(repetitions, grid_points, trials, theta02,
                                                schedule, disorder, seed, data):
    t_max = max(schedule)
    params = WalkParams(0.9 * PI, 0.75 * PI, theta02, 2 * t_max + 3)
    config = EstimationConfig(params, (theta02 - 0.1, theta02 + 0.1), schedule,
                              grid_points=grid_points, trials=trials, master_seed=seed,
                              repetitions=repetitions)
    # probabilities with exact 0s and 1s; a row of all 0s or all 1s makes
    # most data impossible
    cells = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    table = np.array(data.draw(st.lists(
        st.lists(cells, min_size=grid_points, max_size=grid_points),
        min_size=len(schedule), max_size=len(schedule),
    )))
    constant = data.draw(st.sampled_from([None, None, None, 0.0, 1.0]))
    if constant is not None:
        table[data.draw(st.integers(0, len(schedule) - 1))] = constant
    fields = None
    if disorder is not None:
        spec = DisorderSpec(disorder, 0.1 * PI, 1, seed)
        fields = sample_disorder(spec, params, 0, t_max)
    try:
        expected, grids = serial_curve(config, table, fields, seed_prefix=(3,))
    except ValueError as err:  # data impossible under every candidate
        with pytest.raises(ValueError, match=re.escape(str(err))):
            estimation_curve(config, table, fields, seed_prefix=(3,))
        return
    curve = estimation_curve(config, table, fields, seed_prefix=(3,))
    got = list(zip(config.schedule, curve.successes.tolist(), curve.msre.tolist(),
                   curve.posterior_std.tolist()))
    assert got == expected
    assert curve.weights.shape == (len(schedule), grid_points)
    for kept, reference in zip(curve.weights, grids, strict=True):
        assert np.array_equal(kept, reference)


def test_records_at_different_steps_use_independent_seeds():
    p = nontrivial(123)
    config = EstimationConfig(p, PRIOR, (30, 30), grid_points=51, trials=500,
                              master_seed=7)
    curve = estimation_curve(config, clean_table(config))
    # same step scheduled twice draws distinct data (independent experiments)
    assert curve.successes[0] != curve.successes[1]
