"""Seeded disorder ensembles: sampling contracts and averaged observables."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwsense.bayes import EstimationConfig, estimation_curve, informative_schedule
from qwsense.disorder import (
    DYNAMIC,
    STATIC,
    DisorderSpec,
    ensemble_fisher,
    ensemble_msre,
    relative_std,
    sample_disorder,
)
from qwsense.metrology import FisherSeries, fisher_at_defect, fit_scaling, power_law_fit
from qwsense.walk import WalkParams, default_initial_state

PI = math.pi

W = PI / 20.0


def nontrivial(n):
    return WalkParams(0.9 * PI, 0.75 * PI, -0.55 * PI, n)


def trivial(n):
    return WalkParams(0.05 * PI, 0.75 * PI, -0.55 * PI, n)


def test_spec_validation():
    with pytest.raises(ValueError):
        DisorderSpec(kind="fancy")
    with pytest.raises(ValueError):
        DisorderSpec(kind="static", half_width=-0.1)
    with pytest.raises(ValueError):
        DisorderSpec(kind="static", n_realizations=0)


def test_static_sampling_contracts():
    base = nontrivial(41)
    spec = DisorderSpec(kind="static", half_width=W, n_realizations=4, master_seed=3)
    field = sample_disorder(spec, base, 2)
    again = sample_disorder(spec, base, 2)
    np.testing.assert_array_equal(field.angles1, again.angles1)
    np.testing.assert_array_equal(field.angles2, again.angles2)
    assert (np.abs(field.angles1 - base.theta1) <= W).all()
    mask = np.arange(41) != base.defect_index
    assert (np.abs(field.angles2[mask] - base.theta2) <= W).all()
    # the estimand is never disordered
    assert field.angles2[base.defect_index] == base.theta02
    other = sample_disorder(spec, base, 3)
    assert not np.array_equal(field.angles1, other.angles1)


def test_dynamic_sampling_contracts():
    base = nontrivial(21)
    spec = DisorderSpec(kind="dynamic", half_width=W, n_realizations=2, master_seed=5)
    fields = sample_disorder(spec, base, 0, steps=7)
    assert len(fields) == 7
    for field in fields:
        # one draw per layer per step, shared by every site
        assert np.unique(field.angles1).size == 1
        mask = np.arange(21) != base.defect_index
        assert np.unique(field.angles2[mask]).size == 1
        assert field.angles2[base.defect_index] == base.theta02
        assert abs(field.angles1[0] - base.theta1) <= W
    angles_per_step = [f.angles1[0] for f in fields]
    assert np.unique(angles_per_step).size == 7


def test_dynamic_requires_steps():
    spec = DisorderSpec(kind="dynamic", half_width=W, n_realizations=1)
    with pytest.raises(ValueError):
        sample_disorder(spec, nontrivial(21), 0)


def test_realization_index_range_checked():
    spec = DisorderSpec(kind="static", half_width=W, n_realizations=2)
    with pytest.raises(ValueError):
        sample_disorder(spec, nontrivial(21), 2)


def test_static_angles_are_uniform_on_the_interval():
    base = nontrivial(1001)
    spec = DisorderSpec(kind="static", half_width=W, n_realizations=1, master_seed=17)
    field = sample_disorder(spec, base, 0)
    sample = (field.angles1 - (base.theta1 - W)) / (2 * W)
    sorted_sample = np.sort(sample)
    n = sorted_sample.size
    grid = np.arange(1, n + 1) / n
    ks = max(np.abs(grid - sorted_sample).max(),
             np.abs(sorted_sample - (grid - 1.0 / n)).max())
    assert ks < 1.63 / math.sqrt(n)  # 1% critical value of the KS statistic


def test_zero_width_ensemble_collapses_to_clean_run():
    base = nontrivial(63)
    init = default_initial_state(63)
    spec = DisorderSpec(kind="static", half_width=0.0, n_realizations=1, master_seed=1)
    result = ensemble_fisher(spec, base, init, 30)
    clean = fisher_at_defect(base, init, 30)
    np.testing.assert_array_equal(result.mean, clean.values)
    np.testing.assert_array_equal(result.std, np.zeros(31))


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from([STATIC, DYNAMIC]),
    realizations=st.integers(1, 4),
    steps=st.integers(1, 30),
)
def test_zero_width_ensemble_is_the_clean_run(kind, realizations, steps):
    n = 2 * steps + 3
    base, init = nontrivial(n), default_initial_state(n)
    spec = DisorderSpec(kind=kind, half_width=0.0, n_realizations=realizations, master_seed=2)
    result = ensemble_fisher(spec, base, init, steps)
    assert np.array_equal(result.mean, fisher_at_defect(base, init, steps).values)
    assert np.array_equal(result.std, np.zeros(steps + 1))
    assert result.realizations == realizations


def serial_ensemble_fisher(spec, base, initial, steps):
    """Reference: one walk per realization, stacked in realization order."""
    values = np.stack([
        fisher_at_defect(base, initial, steps,
                         coin_fields=sample_disorder(spec, base, index, steps)).values
        for index in range(spec.n_realizations)
    ])
    return values.mean(axis=0), values.std(axis=0)


def test_ensemble_reproducible_and_batch_invariant():
    base = nontrivial(63)
    init = default_initial_state(63)
    spec = DisorderSpec(kind="dynamic", half_width=W, n_realizations=4, master_seed=11)
    a = ensemble_fisher(spec, base, init, 25)
    b = ensemble_fisher(spec, base, init, 25)
    mean, std = serial_ensemble_fisher(spec, base, init, 25)
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.mean, mean)
    np.testing.assert_array_equal(a.std, std)
    assert (a.std >= 0).all()


def test_dynamic_ensemble_draws_its_fields_step_by_step():
    steps = 400
    n = 2 * steps + 3
    spec = DisorderSpec(kind="dynamic", half_width=W, n_realizations=10, master_seed=3)
    tracemalloc.start()
    try:
        ensemble_fisher(spec, nontrivial(n), default_initial_state(n), steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # all 400 steps' (10, 803) angle pairs at once would take 51 MB
    assert peak < 4e6


# ten realizations sum in a different order than numpy's blocked pairwise sum
# over a contiguous axis would, so they pin the reduction layout too
@pytest.mark.parametrize("kind", [STATIC, DYNAMIC])
@pytest.mark.parametrize("realizations", [1, 3, 10])
def test_batched_ensemble_equals_serial_realizations(kind, realizations):
    steps = 40
    n = 2 * steps + 3
    base, init = nontrivial(n), default_initial_state(n)
    spec = DisorderSpec(kind=kind, half_width=W, n_realizations=realizations, master_seed=13)
    result = ensemble_fisher(spec, base, init, steps)
    mean, std = serial_ensemble_fisher(spec, base, init, steps)
    assert np.array_equal(result.mean, mean)
    assert np.array_equal(result.std, std)


@pytest.mark.parametrize("kind", ["static", "dynamic"])
def test_nontrivial_ensemble_keeps_heisenberg_scaling(kind):
    steps = 100
    n = 2 * steps + 3
    spec = DisorderSpec(kind=kind, half_width=W, n_realizations=10, master_seed=11)
    result = ensemble_fisher(spec, nontrivial(n), default_initial_state(n), steps)
    mean_series = FisherSeries(result.steps, result.mean, "defect_site_fi", None)
    # fit through the oscillation peaks, as the underlying growth law is read
    # off the envelope; dynamic disorder damps the troughs at early times
    fit = fit_scaling(mean_series, mode="peaks_only")
    assert 1.8 <= fit.exponent <= 2.2


@pytest.mark.parametrize("kind", ["static", "dynamic"])
def test_trivial_phase_fluctuates_more(kind):
    steps = 60
    n = 2 * steps + 3
    init = default_initial_state(n)
    spec = DisorderSpec(kind=kind, half_width=W, n_realizations=10, master_seed=11)
    r_nt = ensemble_fisher(spec, nontrivial(n), init, steps)
    r_tr = ensemble_fisher(spec, trivial(n), init, steps)
    assert relative_std(r_tr, 10, steps) > relative_std(r_nt, 10, steps)


def test_ensemble_msre_zero_width_matches_clean_curves():
    n = 123
    base = nontrivial(n)
    config = EstimationConfig(base, (-0.556 * PI, -0.544 * PI), (20, 30, 40, 50, 60),
                              grid_points=51, trials=300, master_seed=9)
    spec = DisorderSpec(kind="static", half_width=0.0, n_realizations=2, master_seed=9)
    result = ensemble_msre(spec, config)
    # each realization must reproduce the clean run with its own seed stream
    curves = np.array([
        [r.msre for r in estimation_curve(config, seed_prefix=(idx,)).records]
        for idx in range(2)
    ])
    np.testing.assert_allclose(result.mean, curves.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(result.std, curves.std(axis=0), rtol=1e-9, atol=1e-18)


@pytest.mark.parametrize("kind", [STATIC, DYNAMIC])
def test_zero_width_msre_ensemble_is_the_clean_curves(kind):
    n = 63
    config = EstimationConfig(nontrivial(n), (-0.556 * PI, -0.544 * PI), (10, 15, 20, 25, 30),
                              grid_points=21, trials=200, master_seed=4)
    spec = DisorderSpec(kind=kind, half_width=0.0, n_realizations=3, master_seed=4)
    result = ensemble_msre(spec, config)
    curves = np.array([
        [r.msre for r in estimation_curve(config, seed_prefix=(idx,)).records]
        for idx in range(3)
    ])
    assert np.array_equal(result.mean, curves.mean(axis=0))
    assert np.array_equal(result.std, curves.std(axis=0))


# static disorder preserves the Heisenberg slope; dynamic disorder softens it
# by a few percent (coherent phase accumulation partially decoheres), the same
# shift seen in the disordered FI fits
@pytest.mark.parametrize("kind,band", [("static", (-2.2, -1.8)), ("dynamic", (-2.2, -1.7))])
def test_ensemble_msre_nontrivial_scaling_under_disorder(kind, band):
    base = nontrivial(203)
    # schedule within the horizon where the prior window stays unambiguous
    # for the disordered realizations (the response folds beyond t ~ 80)
    schedule = informative_schedule(base, (-0.556 * PI, -0.544 * PI), 20, 80)
    config = EstimationConfig(base, (-0.556 * PI, -0.544 * PI), schedule,
                              grid_points=201, trials=1000, master_seed=7,
                              repetitions=15)
    spec = DisorderSpec(kind=kind, half_width=W, n_realizations=10, master_seed=7)
    result = ensemble_msre(spec, config, threads=2)
    fit = power_law_fit(result.steps, result.mean, window=(schedule[0], schedule[-1]))
    assert band[0] <= fit.exponent <= band[1]
    assert (result.std >= 0).all()


def test_trivial_msre_exceeds_nontrivial_at_final_step():
    base_nt = nontrivial(203)
    base_tr = trivial(203)
    schedule = informative_schedule(base_nt, (-0.556 * PI, -0.544 * PI), 20, 80)
    spec = DisorderSpec(kind="static", half_width=W, n_realizations=10, master_seed=7)
    results = {}
    for name, base in (("nt", base_nt), ("tr", base_tr)):
        config = EstimationConfig(base, (-0.556 * PI, -0.544 * PI), schedule,
                                  grid_points=201, trials=1000, master_seed=7,
                                  repetitions=5)
        results[name] = ensemble_msre(spec, config, threads=2)
    assert results["tr"].mean[-1] > results["nt"].mean[-1]
