"""Fisher information series, the FI/GFI/QFI hierarchy, and scaling fits."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_walk import step_fields

from qwsense import bayes, experiments, kernels, serialize
from qwsense.config import validate_config
from qwsense.disorder import DYNAMIC, STATIC, DisorderSpec, sample_disorder
from qwsense.metrology import (
    DEFECT_SITE_FI,
    GLOBAL_FI,
    MEASURES,
    P_FLOOR,
    QUANTUM_FI,
    FisherSeries,
    averaged_fisher,
    binary_fisher,
    fisher_at_defect,
    fisher_series,
    fit_scaling,
    global_fisher,
    information_values,
    pair_trajectory,
    power_law_fit,
    quantum_fisher,
)
from qwsense.walk import (
    CoinField,
    WalkerState,
    WalkParams,
    default_initial_state,
    dynamics_lattice_size,
)

PI = math.pi

NONTRIVIAL = (0.9 * PI, 0.75 * PI)
TRIVIAL = (0.05 * PI, 0.75 * PI)
DEFECT = -0.55 * PI


def params(theta1, theta2, n):
    return WalkParams(theta1, theta2, DEFECT, n)


def series_pair(theta1, theta2, steps):
    n = 2 * steps + 3
    p = params(theta1, theta2, n)
    return p, default_initial_state(n)


def test_binary_fisher_arithmetic():
    values, flags = binary_fisher(0.5, 1.0)
    assert values == pytest.approx(4.0)
    assert not flags


def test_binary_fisher_degenerate_flags():
    values, flags = binary_fisher(np.array([0.0, 1.0, 1e-13, 0.3]), np.array([1.0, 1.0, 1.0, 0.0]))
    np.testing.assert_array_equal(flags, [True, True, True, False])
    np.testing.assert_array_equal(values[:3], 0.0)


def test_fi_zero_and_flagged_before_arrival():
    from qwsense.walk import WalkerState

    n = 23
    p = params(*NONTRIVIAL, n)
    far = WalkerState.from_position(-5, "down", n)
    fi = fisher_at_defect(p, far, 10)
    # light cone: nothing reaches the defect before t = 4
    assert fi.flagged[:4].all()
    np.testing.assert_array_equal(fi.values[:4], 0.0)
    assert fi.values[5:].max() > 0.0


def test_fi_heisenberg_scaling_nontrivial():
    p, init = series_pair(*NONTRIVIAL, steps=100)
    fit = fit_scaling(fisher_at_defect(p, init, 100))
    assert 1.8 <= fit.exponent <= 2.2


def test_defect_neutral_point_keeps_parametric_sensitivity():
    # theta02 == theta2 removes the defect from the dynamics but not from the
    # parametrization: dP_i/dtheta02 at that point is finite and generically
    # nonzero, which central differences confirm
    n = 43
    steps = 10
    h = 1e-6
    p = WalkParams(*NONTRIVIAL, NONTRIVIAL[1], n)
    init = default_initial_state(n)
    gfi = global_fisher(p, init, steps)
    assert gfi.values[0] == 0.0
    assert gfi.values[steps] > 0.0
    plus = bayes.defect_probability_series(
        WalkParams(p.theta1, p.theta2, p.theta02 + h, n), init, steps
    )
    minus = bayes.defect_probability_series(
        WalkParams(p.theta1, p.theta2, p.theta02 - h, n), init, steps
    )
    assert abs(plus[steps] - minus[steps]) / (2 * h) > 1e-3


@pytest.mark.parametrize("point", [NONTRIVIAL, TRIVIAL])
def test_information_hierarchy(point):
    p, init = series_pair(*point, steps=60)
    fi = fisher_at_defect(p, init, 60).values
    gfi = global_fisher(p, init, 60).values
    qfi = quantum_fisher(p, init, 60).values
    assert (fi <= gfi + 1e-9).all()
    assert (gfi <= qfi + 1e-9).all()


def test_qfi_starts_at_zero_and_trivial_stays_below():
    p_nt, init = series_pair(*NONTRIVIAL, steps=60)
    p_tr, _ = series_pair(*TRIVIAL, steps=60)
    qfi_nt = quantum_fisher(p_nt, init, 60).values
    qfi_tr = quantum_fisher(p_tr, init, 60).values
    assert qfi_nt[0] == 0.0 and qfi_tr[0] == 0.0
    sel = np.arange(20, 61)
    assert (qfi_tr[sel] < qfi_nt[sel]).all()


def test_fi_matches_probability_finite_differences():
    steps = 50
    n = 2 * steps + 3
    h = 1e-6
    p = params(*NONTRIVIAL, n)
    init = default_initial_state(n)
    fi = fisher_at_defect(p, init, steps)
    plus = bayes.defect_probability_series(
        WalkParams(p.theta1, p.theta2, p.theta02 + h, n), init, steps
    )
    minus = bayes.defect_probability_series(
        WalkParams(p.theta1, p.theta2, p.theta02 - h, n), init, steps
    )
    base = bayes.defect_probability_series(p, init, steps)
    dp0 = (plus - minus) / (2 * h)
    expected, flags = binary_fisher(base, dp0)
    for t in range(steps + 1):
        if fi.flagged[t] or flags[t]:
            continue
        assert fi.values[t] == pytest.approx(expected[t], rel=1e-5)


# --- streamed series against a stored trajectory ---------------------------


def stored_trajectory(params, initial, steps, coin_fields=None):
    """Reference: the complex128 walk on the whole ring, kept as (T+1, [B,] N, 2) arrays."""
    fields = step_fields(params, steps, coin_fields)
    states = np.zeros((steps + 1,) + fields[0].angles1.shape + (2,), dtype=np.complex128)
    dstates = np.zeros_like(states)
    states[0] = initial.grid()
    for t, field in enumerate(fields):
        kernels.split_step_pair(
            states[t], dstates[t], *field.half_angle_tables(), params.defect_index,
            states[t + 1], dstates[t + 1],
        )
    return states, dstates


def full_ring_observe(psi, dpsi, defect):
    """Reference: P0, dP0, GFI and QFI of complex (..., N, 2) pairs, reduced over the ring."""
    here, dhere = psi[..., defect, :], dpsi[..., defect, :]
    p0 = (np.abs(here) ** 2).sum(axis=-1)
    dp0 = 2.0 * np.real(np.conj(here) * dhere).sum(axis=-1)
    probs = (np.abs(psi) ** 2).sum(axis=-1)
    dprobs = 2.0 * np.real(np.conj(psi) * dpsi).sum(axis=-1)
    usable = probs >= P_FLOOR
    gfi = np.where(usable, dprobs**2 / np.where(usable, probs, 1.0), 0.0).sum(axis=-1)
    flat = psi.reshape(psi.shape[:-2] + (-1,))
    dflat = dpsi.reshape(flat.shape)
    overlap = (np.conj(dflat) * flat).sum(axis=-1)
    qfi = 4.0 * ((np.abs(dflat) ** 2).sum(axis=-1) - np.abs(overlap) ** 2)
    return p0, dp0, gfi, qfi


def stored_fisher_values(params, initial, steps, coin_fields=None):
    """FI, GFI and QFI reduced from the stored trajectory in whole-array passes."""
    states, dstates = stored_trajectory(params, initial, steps, coin_fields)
    p0, dp0, gfi, qfi = full_ring_observe(states, dstates, params.defect_index)
    fi, _ = binary_fisher(p0, dp0)
    return fi, gfi, np.maximum(qfi, 0.0)


def _static(p, steps):
    return sample_disorder(DisorderSpec(STATIC, 0.1 * PI, 1, 3), p, 0)


def _dynamic(p, steps):
    return sample_disorder(DisorderSpec(DYNAMIC, 0.1 * PI, 1, 4), p, 0, steps=steps)


@pytest.mark.parametrize("point, disorder", [
    (NONTRIVIAL, None), (TRIVIAL, None), (NONTRIVIAL, _static), (NONTRIVIAL, _dynamic),
])
def test_streamed_fisher_equals_stored_trajectory(point, disorder):
    steps = 60
    p, init = series_pair(*point, steps)
    fields = disorder(p, steps) if disorder else None
    fi, gfi, qfi = stored_fisher_values(p, init, steps, fields)
    assert np.array_equal(fisher_at_defect(p, init, steps, fields).values, fi)
    assert np.array_equal(global_fisher(p, init, steps, fields).values, gfi)
    assert np.array_equal(quantum_fisher(p, init, steps, fields).values, qfi)


@pytest.mark.parametrize("disorder", [None, _static, _dynamic])
def test_one_pass_measures_equal_separate_series(disorder):
    steps = 60
    p, init = series_pair(*NONTRIVIAL, steps)
    fields = disorder(p, steps) if disorder else None
    one_pass = fisher_series(p, init, steps, MEASURES, fields)
    for kind, separate in ((DEFECT_SITE_FI, fisher_at_defect), (GLOBAL_FI, global_fisher),
                           (QUANTUM_FI, quantum_fisher)):
        series = separate(p, init, steps, fields)
        assert np.array_equal(one_pass[kind].values, series.values)
        assert np.array_equal(one_pass[kind].flagged, series.flagged)
    fi, gfi, qfi = stored_fisher_values(p, init, steps, fields)
    assert np.array_equal(one_pass[DEFECT_SITE_FI].values, fi)
    assert np.array_equal(one_pass[GLOBAL_FI].values, gfi)
    assert np.array_equal(one_pass[QUANTUM_FI].values, qfi)


def _batched(p, steps):
    spec = DisorderSpec(DYNAMIC, 0.1 * PI, 3, 6)
    return [CoinField.stack(step)
            for step in zip(*(sample_disorder(spec, p, r, steps) for r in range(3)))]


def _phased_start(n):
    amps = default_initial_state(n).amplitudes
    amps = amps + np.exp(0.3j) * WalkerState.from_position(2, "up", n).amplitudes
    return WalkerState(amps / math.sqrt(2.0), n)


@pytest.mark.parametrize("start", [default_initial_state, _phased_start])
@pytest.mark.parametrize("disorder", [None, _static, _dynamic, _batched])
@pytest.mark.parametrize("n", [83, 25])  # 25 sites: the window is the whole ring within 12 steps
def test_windowed_measures_equal_full_ring_complex_reduction(start, disorder, n):
    steps = 40
    p, init = params(*NONTRIVIAL, n), start(n)
    fields = disorder(p, steps) if disorder else None
    states, dstates = stored_trajectory(p, init, steps, fields)
    p0, dp0, gfi, qfi = full_ring_observe(states, dstates, p.defect_index)
    measures = information_values(p, init, steps, MEASURES, fields)
    assert np.array_equal(measures[DEFECT_SITE_FI][0], binary_fisher(p0, dp0)[0])
    assert np.array_equal(measures[DEFECT_SITE_FI][1], binary_fisher(p0, dp0)[1])
    assert np.array_equal(measures[GLOBAL_FI][0], gfi)
    assert np.array_equal(measures[QUANTUM_FI][0], np.maximum(qfi, 0.0))


def axis_sum_information_values(params, initial, steps, coin_fields=None):
    """Reference: FI, GFI and QFI from the observer that summed each site's two
    coin terms with ``sum(axis=-1)``, otherwise as ``information_values``."""
    defect, n = params.defect_index, params.lattice_size
    full_rows = {}

    def row_sum(key, cells, products, cell_count, dtype=np.float64):
        row = full_rows.get(key)
        if row is None:
            row = full_rows[key] = np.zeros(products.shape[:-1] + (cell_count,), dtype)
        row[..., cells] = products
        return row.sum(axis=-1)

    def observe(psi, dpsi, rows):
        here, dhere = psi[..., defect, :], dpsi[..., defect, :]
        p0 = (np.abs(here) ** 2).sum(axis=-1)
        dp0 = 2.0 * np.real(np.conj(here) * dhere).sum(axis=-1)
        psi, dpsi = psi[..., rows, :], dpsi[..., rows, :]
        probs = (np.abs(psi) ** 2).sum(axis=-1)
        dprobs = 2.0 * np.real(np.conj(psi) * dpsi).sum(axis=-1)
        usable = probs >= P_FLOOR
        gfi = row_sum("gfi", rows, np.where(usable, dprobs**2 / np.where(usable, probs, 1.0), 0.0),
                      n)
        flat = psi.reshape(psi.shape[:-2] + (-1,))
        dflat = dpsi.reshape(flat.shape)
        cells = slice(2 * rows.start, 2 * rows.stop)
        norm = row_sum("norm", cells, np.abs(dflat) ** 2, 2 * n)
        overlap = row_sum("overlap", cells, np.conj(dflat) * flat, 2 * n, np.complex128)
        return p0, dp0, gfi, 4.0 * (norm - np.abs(overlap) ** 2)

    p0, dp0, gfi, qfi = pair_trajectory(params, initial, steps, coin_fields, observe).swapaxes(0, 1)
    return binary_fisher(p0, dp0)[0], gfi, np.maximum(qfi, 0.0)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a),
                                                                          np.signbit(b))


def _static_batch(p, steps):
    return CoinField.stack([sample_disorder(DisorderSpec(STATIC, 0.1 * PI, 3, 8), p, r)
                            for r in range(3)])


@settings(max_examples=60, deadline=None)
@given(
    angles=st.tuples(*[st.floats(-PI, PI)] * 3),
    steps=st.integers(1, 60),
    margin=st.integers(0, 4),
    start=st.sampled_from([default_initial_state, _phased_start]),
    fields=st.sampled_from([None, _static, _dynamic, _static_batch, _batched]),
)
def test_two_term_site_sums_equal_the_axis_sum_observer(angles, steps, margin, start, fields):
    n = 2 * steps + 3 + 2 * margin
    p, init = WalkParams(*angles, n), start(n)
    fields = fields(p, steps) if fields else None
    fi, gfi, qfi = axis_sum_information_values(p, init, steps, fields)
    measures = information_values(p, init, steps, MEASURES, fields)
    assert same_bits(measures[DEFECT_SITE_FI][0], fi)
    assert same_bits(measures[GLOBAL_FI][0], gfi)
    assert same_bits(measures[QUANTUM_FI][0], qfi)
    # the defect-site FI alone walks the causal diamond
    alone = information_values(p, init, steps, (DEFECT_SITE_FI,), fields)
    assert same_bits(alone[DEFECT_SITE_FI][0], fi)


def test_information_values_reject_unknown_measures():
    p, init = series_pair(*NONTRIVIAL, 5)
    with pytest.raises(ValueError, match="unknown information measures"):
        information_values(p, init, 5, ("averaged_fi",))


@pytest.mark.parametrize("walks", [1, 3])
@pytest.mark.parametrize("kind", ["clean", STATIC, DYNAMIC])
def test_batched_measures_equal_serial_walks(walks, kind):
    steps = 40
    p, init = series_pair(*NONTRIVIAL, steps)
    if kind == "clean":
        serial = [CoinField.from_params(replace(p, theta1=t))
                  for t in np.linspace(0.2 * PI, 0.9 * PI, walks)]
    else:
        spec = DisorderSpec(kind, 0.1 * PI, walks, 5)
        serial = [sample_disorder(spec, p, r, steps) for r in range(walks)]
    if kind == DYNAMIC:
        batched = [CoinField.stack(step) for step in zip(*serial)]
    else:
        batched = CoinField.stack(serial)
    measures = information_values(p, init, steps, MEASURES, batched)
    for b, fields in enumerate(serial):
        for kind, (values, flagged) in information_values(p, init, steps, MEASURES,
                                                          fields).items():
            assert measures[kind][0].shape == (steps + 1, walks)
            assert np.array_equal(measures[kind][0][:, b], values)
            assert np.array_equal(measures[kind][1][:, b], flagged)


def fi_surface_rows(params, t1_over_pi, steps):
    """Reference: one walk per theta1, rows appended theta1 by theta1."""
    initial = default_initial_state(params.lattice_size)
    rows = []
    for t1 in t1_over_pi:
        series = fisher_at_defect(replace(params, theta1=float(t1) * PI), initial, steps)
        rows.extend(
            (float(t1), float(t), float(v), bool(f))
            for t, v, f in zip(series.steps, series.values, series.flagged)
        )
    return rows


def test_batched_fi_surface_equals_per_theta1_walks(tmp_path):
    doc = {
        "experiment": "fi-surface",
        "walk": {"theta1_over_pi": 0.9, "theta2_over_pi": 0.75, "theta02_over_pi": -0.97,
                 "lattice_size": 45},
        # FI is even in theta1: an asymmetric grid tells the walks apart
        "surface": {"theta1_over_pi": [-0.95, 0.85, 9], "steps": 21},
    }
    cfg = validate_config(doc)
    experiments.run(cfg, tmp_path / "batched")
    rows = fi_surface_rows(cfg.walk, cfg.surface["theta1_over_pi"], 21)
    reference = tmp_path / "reference.csv"
    serialize.write_csv(reference, ("theta1_over_pi", "t", "value", "flagged"), rows)
    assert (tmp_path / "batched" / "fi_surface.csv").read_bytes() == reference.read_bytes()


def test_gfi_qfi_run_writes_each_separate_series(tmp_path):
    doc = {"experiment": "gfi-qfi", "steps": 30,
           "walk": {"theta1_over_pi": 0.9, "theta2_over_pi": 0.75, "theta02_over_pi": -0.55}}
    cfg = validate_config(doc)
    experiments.run(cfg, tmp_path / "run")
    init = default_initial_state(cfg.walk.lattice_size)
    for name, separate in (("fi_series.csv", fisher_at_defect), ("gfi_series.csv", global_fisher),
                           ("qfi_series.csv", quantum_fisher)):
        series = separate(cfg.walk, init, 30)
        rows = [(float(t), float(v), bool(f))
                for t, v, f in zip(series.steps, series.values, series.flagged)]
        serialize.write_csv(tmp_path / name, experiments.FI_HEADER, rows)
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / name).read_bytes()


def test_long_fisher_series_streams_in_small_memory():
    steps = 2000
    p, init = series_pair(*NONTRIVIAL, steps)
    tracemalloc.start()
    try:
        fisher_at_defect(p, init, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a stored (T+1, N, 2) trajectory pair would take 2 * 2001 * 4003 * 32 B = 513 MB
    assert peak < 8e6


@settings(max_examples=20, deadline=None)
@given(
    angles=st.tuples(*[st.floats(-PI, PI)] * 3),
    steps=st.integers(1, 40),
    margin=st.integers(0, 5),
)
def test_information_hierarchy_at_drawn_angles(angles, steps, margin):
    n = 2 * steps + 3 + 2 * margin
    p = WalkParams(*angles, n)
    init = default_initial_state(n)
    fi = fisher_at_defect(p, init, steps).values
    gfi = global_fisher(p, init, steps).values
    qfi = quantum_fisher(p, init, steps).values
    # the tolerance of perfbench/checks.py: a <= b + 1e-9 |b| + 1e-12
    assert (fi <= gfi + 1e-9 * np.abs(gfi) + 1e-12).all()
    assert (gfi <= qfi + 1e-9 * np.abs(qfi) + 1e-12).all()


@settings(max_examples=30, deadline=None)
@given(
    theta1=st.one_of(st.floats(-PI, PI), st.sampled_from([-PI, PI])),
    others=st.tuples(st.floats(-PI, PI), st.floats(-PI, PI)),
    steps=st.integers(1, 40),
)
def test_qfi_obeys_the_heisenberg_bound(theta1, others, steps):
    # theta02 enters each step once, through exp(-i theta02 sigma_y / 2) at the
    # defect: a generator of spectral range 1, so QFI(t) <= (1 * t)^2
    n = dynamics_lattice_size(steps)
    qfi = quantum_fisher(WalkParams(theta1, *others, n), default_initial_state(n), steps).values
    ratio = qfi[1:] / np.arange(1, steps + 1) ** 2
    assert qfi[0] == 0.0
    assert (ratio <= 1.0 + 1e-9).all()
    if abs(theta1) == PI:
        # at theta1 = +-pi the walk saturates the bound at every step
        np.testing.assert_allclose(ratio, 1.0, rtol=1e-9)


def test_trivial_case_peaks_sit_above_the_bulk_fit():
    p, init = series_pair(*TRIVIAL, steps=100)
    series = fisher_at_defect(p, init, 100)
    fit_all = fit_scaling(series, mode="all_points")
    fit_peaks = fit_scaling(series, mode="peaks_only")
    t_mid = math.sqrt(10 * 100)
    assert fit_all.value_at(t_mid) < fit_peaks.value_at(t_mid)


# --- multi-time averaging ----------------------------------------------------


def constant_series(value, steps=30):
    return FisherSeries(np.arange(steps + 1), np.full(steps + 1, value), None)


def test_averaging_window_one_is_identity():
    p, init = series_pair(*NONTRIVIAL, steps=30)
    series = fisher_at_defect(p, init, 30)
    avg = averaged_fisher(series, window=1, spacing=5)
    np.testing.assert_array_equal(avg.steps, series.steps)
    np.testing.assert_array_equal(avg.values, series.values)


def test_averaging_constant_series():
    avg = averaged_fisher(constant_series(3.5), window=5, spacing=5)
    np.testing.assert_allclose(avg.values, 3.5, atol=1e-15)
    # centers sit at the mean of the five constituent times
    assert avg.steps[0] == pytest.approx(10.0)


def test_averaging_window_arithmetic():
    steps = np.arange(0, 21)
    series = FisherSeries(steps, steps.astype(float), None)
    avg = averaged_fisher(series, window=5, spacing=5)
    # first admissible start is t=0: mean of FI at {0,5,10,15,20} = 10
    assert avg.steps[0] == pytest.approx(10.0)
    assert avg.values[0] == pytest.approx(10.0)
    assert avg.steps[-1] == pytest.approx(10.0)  # only one admissible window


def test_averaging_rejects_short_series():
    with pytest.raises(ValueError):
        averaged_fisher(constant_series(1.0, steps=10), window=5, spacing=5)


def test_averaging_fills_fi_drops():
    p, init = series_pair(*NONTRIVIAL, steps=100)
    series = fisher_at_defect(p, init, 100)
    avg = averaged_fisher(series, window=5, spacing=5)
    centers = avg.steps[avg.steps >= 10]
    lookup = dict(zip(series.steps.tolist(), series.values.tolist()))
    plain = np.array([lookup[c] for c in centers])
    min_avg = (avg.values[avg.steps >= 10] / centers**2).min()
    min_plain = (plain / centers**2).min()
    assert min_avg > min_plain


# --- power-law fitting -------------------------------------------------------


def test_fit_exact_quadratic():
    t = np.arange(1, 40)
    fit = power_law_fit(t, 3.0 * t**2, window=(1, 40))
    assert fit.exponent == pytest.approx(2.0, abs=1e-10)
    assert fit.prefactor == pytest.approx(3.0, rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_exact_linear():
    t = np.arange(1, 40)
    fit = power_law_fit(t, 5.0 * t, window=(1, 40))
    assert fit.exponent == pytest.approx(1.0, abs=1e-10)
    assert fit.prefactor == pytest.approx(5.0, rel=1e-9)


def test_fit_peaks_only_on_modulated_quadratic():
    t = np.arange(1, 60, dtype=float)
    values = t**2 * (1.0 + 0.5 * (-1.0) ** np.arange(1, 60))
    fit = power_law_fit(t, values, window=(1, 60), mode="peaks_only")
    assert fit.exponent == pytest.approx(2.0, abs=1e-6)
    assert fit.prefactor == pytest.approx(1.5, rel=1e-5)


def test_fit_requires_five_points():
    t = np.arange(1, 5)
    with pytest.raises(ValueError):
        power_law_fit(t, t.astype(float), window=(1, 4))


def test_fit_excludes_flagged_and_zero_values():
    steps = np.arange(0, 21)
    values = steps.astype(float) ** 2
    flagged = np.zeros(21, dtype=bool)
    flagged[:3] = True
    series = FisherSeries(steps, values, flagged)
    fit = fit_scaling(series, window=(0, 20))
    assert fit.exponent == pytest.approx(2.0, abs=1e-10)
    assert fit.n_points == 18  # 21 minus three flagged (t=0 also zero-valued)


def test_fit_unknown_mode_rejected():
    with pytest.raises(ValueError):
        power_law_fit(np.arange(10), np.arange(10, dtype=float), mode="median")
