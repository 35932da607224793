"""Fisher information series, the FI/GFI/QFI hierarchy, and scaling fits."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernels import full_tables, separate_pair_step
from test_walk import start_grid, step_fields

from qwsense import bayes, experiments, metrology, serialize, walk
from qwsense.config import validate_config
from qwsense.disorder import DYNAMIC, STATIC, DisorderSpec, sample_disorder
from qwsense.errors import ShortFitError
from qwsense.metrology import (
    DEFECT_SITE_FI,
    GLOBAL_FI,
    P_FLOOR,
    QUANTUM_FI,
    FisherSeries,
    _probability_pair,
    averaged_fisher,
    binary_fisher,
    fisher_at_defect,
    fit_scaling,
    global_fisher,
    information_values,
    pair_trajectory,
    power_law_fit,
    quantum_fisher,
)
from qwsense.walk import CoinField, WalkParams, dynamics_lattice_size

PI = math.pi

NONTRIVIAL = (0.9 * PI, 0.75 * PI)
TRIVIAL = (0.05 * PI, 0.75 * PI)
DEFECT = -0.55 * PI


def params(theta1, theta2, n):
    return WalkParams(theta1, theta2, DEFECT, n)


def series_params(theta1, theta2, steps):
    """The walk at (theta1, theta2) on a ring the steps-long walk does not wrap."""
    return params(theta1, theta2, 2 * steps + 3)


def test_binary_fisher_arithmetic():
    values, flags = binary_fisher(0.5, 1.0)
    assert values == pytest.approx(4.0)
    assert not flags


def test_binary_fisher_degenerate_flags():
    values, flags = binary_fisher(np.array([0.0, 1.0, 1e-13, 0.3]), np.array([1.0, 1.0, 1.0, 0.0]))
    np.testing.assert_array_equal(flags, [True, True, True, False])
    np.testing.assert_array_equal(values[:3], 0.0)


def test_fi_zero_and_flagged_before_arrival():
    # the walk starts one site left of the defect: P0(0) = 0, and the first
    # step brings amplitude onto it
    fi = fisher_at_defect(params(*NONTRIVIAL, 23), 10)
    assert fi.flagged[0] and fi.values[0] == 0.0
    assert not fi.flagged[1:].any()
    assert (fi.values[1:] > 0.0).any()


def test_fi_heisenberg_scaling_nontrivial():
    p = series_params(*NONTRIVIAL, steps=100)
    fit = fit_scaling(fisher_at_defect(p, 100))
    assert 1.8 <= fit.exponent <= 2.2


def test_defect_neutral_point_keeps_parametric_sensitivity():
    # theta02 == theta2 removes the defect from the dynamics but not from the
    # parametrization: dP_i/dtheta02 at that point is finite and generically
    # nonzero, which central differences confirm
    n = 43
    steps = 10
    h = 1e-6
    p = WalkParams(*NONTRIVIAL, NONTRIVIAL[1], n)
    gfi = information_values(p, steps)[GLOBAL_FI]
    assert gfi.values[0] == 0.0
    assert gfi.values[steps] > 0.0
    plus = bayes.defect_probability_series(
        WalkParams(p.theta1, p.theta2, p.theta02 + h, n), steps
    )
    minus = bayes.defect_probability_series(
        WalkParams(p.theta1, p.theta2, p.theta02 - h, n), steps
    )
    assert abs(plus[steps] - minus[steps]) / (2 * h) > 1e-3


@pytest.mark.parametrize("point", [NONTRIVIAL, TRIVIAL])
def test_information_hierarchy(point):
    p = series_params(*point, steps=60)
    fi = fisher_at_defect(p, 60).values
    measures = information_values(p, 60)
    gfi = measures[GLOBAL_FI].values
    qfi = measures[QUANTUM_FI].values
    assert (fi <= gfi + 1e-9).all()
    assert (gfi <= qfi + 1e-9).all()


def test_qfi_starts_at_zero_and_trivial_stays_below():
    p_nt = series_params(*NONTRIVIAL, steps=60)
    p_tr = series_params(*TRIVIAL, steps=60)
    qfi_nt = information_values(p_nt, 60)[QUANTUM_FI].values
    qfi_tr = information_values(p_tr, 60)[QUANTUM_FI].values
    assert qfi_nt[0] == 0.0 and qfi_tr[0] == 0.0
    sel = np.arange(20, 61)
    assert (qfi_tr[sel] < qfi_nt[sel]).all()


def test_fi_matches_probability_finite_differences():
    steps = 50
    n = 2 * steps + 3
    h = 1e-6
    p = params(*NONTRIVIAL, n)
    fi = fisher_at_defect(p, steps)
    plus = bayes.defect_probability_series(
        WalkParams(p.theta1, p.theta2, p.theta02 + h, n), steps
    )
    minus = bayes.defect_probability_series(
        WalkParams(p.theta1, p.theta2, p.theta02 - h, n), steps
    )
    base = bayes.defect_probability_series(p, steps)
    dp0 = (plus - minus) / (2 * h)
    expected, flags = binary_fisher(base, dp0)
    for t in range(steps + 1):
        if fi.flagged[t] or flags[t]:
            continue
        assert fi.values[t] == pytest.approx(expected[t], rel=1e-5)


# --- streamed series against a stored trajectory ---------------------------


def stored_trajectory(params, steps, coin_fields=None):
    """Reference: the complex128 walk from the start on the whole ring, kept as
    (T+1, [B,] N, 2) arrays."""
    fields = step_fields(params, steps, coin_fields)
    states = np.zeros((steps + 1,) + fields[0].batch + (params.lattice_size, 2),
                      dtype=np.complex128)
    dstates = np.zeros_like(states)
    states[0] = start_grid(params.lattice_size)
    for t, field in enumerate(fields):
        separate_pair_step(states[t], dstates[t], *full_tables(params, field),
                           params.defect_index, states[t + 1], dstates[t + 1])
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


def stored_fisher_values(params, steps, coin_fields=None):
    """FI, GFI and QFI reduced from the stored trajectory in whole-array passes."""
    states, dstates = stored_trajectory(params, steps, coin_fields)
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
    p = series_params(*point, steps)
    fields = disorder(p, steps) if disorder else None
    fi, gfi, qfi = stored_fisher_values(p, steps, fields)
    assert np.array_equal(fisher_at_defect(p, steps, fields).values, fi)
    measures = information_values(p, steps, fields)
    assert np.array_equal(measures[GLOBAL_FI].values, gfi)
    assert np.array_equal(measures[QUANTUM_FI].values, qfi)


@pytest.mark.parametrize("disorder", [None, _static, _dynamic])
def test_one_pass_measures_equal_separate_series(disorder):
    steps = 60
    p = series_params(*NONTRIVIAL, steps)
    fields = disorder(p, steps) if disorder else None
    one_pass = information_values(p, steps, fields)
    for kind, separate in ((DEFECT_SITE_FI, fisher_at_defect), (GLOBAL_FI, global_fisher),
                           (QUANTUM_FI, quantum_fisher)):
        series = separate(p, steps, fields)
        assert np.array_equal(one_pass[kind].values, series.values)
        assert np.array_equal(one_pass[kind].flagged, series.flagged)
    fi, gfi, qfi = stored_fisher_values(p, steps, fields)
    assert np.array_equal(one_pass[DEFECT_SITE_FI].values, fi)
    assert np.array_equal(one_pass[GLOBAL_FI].values, gfi)
    assert np.array_equal(one_pass[QUANTUM_FI].values, qfi)


def _batched(p, steps):
    spec = DisorderSpec(DYNAMIC, 0.1 * PI, 3, 6)
    return [CoinField.stack(step)
            for step in zip(*(sample_disorder(spec, p, r, steps) for r in range(3)))]


@pytest.mark.parametrize("alone", [False, True], ids=["all_measures", "defect_site_fi_alone"])
@pytest.mark.parametrize("disorder", [None, _static, _dynamic, _batched])
@pytest.mark.parametrize("n", [83, 25])  # 25 sites: the window is the whole ring within 12 steps
def test_windowed_measures_equal_full_ring_complex_reduction(alone, disorder, n):
    steps = 40
    p = params(*NONTRIVIAL, n)
    fields = disorder(p, steps) if disorder else None
    states, dstates = stored_trajectory(p, steps, fields)
    p0, dp0, gfi, qfi = full_ring_observe(states, dstates, p.defect_index)
    if alone:
        fi = fisher_at_defect(p, steps, fields)
    else:
        measures = information_values(p, steps, fields)
        assert list(measures) == [DEFECT_SITE_FI, GLOBAL_FI, QUANTUM_FI]
        assert np.array_equal(measures[GLOBAL_FI].values, gfi)
        assert np.array_equal(measures[QUANTUM_FI].values, np.maximum(qfi, 0.0))
        fi = measures[DEFECT_SITE_FI]
    assert np.array_equal(fi.values, binary_fisher(p0, dp0)[0])
    assert np.array_equal(fi.flagged, binary_fisher(p0, dp0)[1])


def axis_sum_information_values(params, steps, coin_fields=None):
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

    p0, dp0, gfi, qfi = pair_trajectory(params, steps, coin_fields, observe).swapaxes(0, 1)
    return binary_fisher(p0, dp0)[0], gfi, np.maximum(qfi, 0.0)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a),
                                                                          np.signbit(b))


# signed zeros, subnormals, and values whose squares or coin sums overflow
EDGE_AMPLITUDES = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 2.2e-308, -1e-160, 1e154,
                                   -9e153, 1.3e154]) | st.floats(-1.4e154, 1.4e154)
# rows of (psi_up, psi_down, dpsi_up, dpsi_down)
PAIR_ROWS = st.lists(st.tuples(*[EDGE_AMPLITUDES] * 4), min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(rows=PAIR_ROWS)
def test_probabilities_in_real_arithmetic_keep_the_complex_formulas_bits(rows):
    # the reference is the complex formulas on the float64 rows every walk steps
    # (np.conj and np.real are identities there; a complex128 cast would turn a
    # -0.0 product into +0.0), with each site's coin terms added by coin_total
    psi, dpsi = np.array(rows)[:, :2], np.array(rows)[:, 2:]
    with np.errstate(over="ignore"):
        p, dp = _probability_pair(psi, dpsi)  # p is walk.site_probability(psi)
        assert same_bits(p, walk.coin_total(np.abs(psi) ** 2))
        assert same_bits(dp, 2.0 * walk.coin_total(np.real(np.conj(psi) * dpsi)))


def _static_batch(p, steps):
    return CoinField.stack([sample_disorder(DisorderSpec(STATIC, 0.1 * PI, 3, 8), p, r)
                            for r in range(3)])


@settings(max_examples=60, deadline=None)
@given(
    angles=st.tuples(*[st.floats(-PI, PI)] * 3),
    steps=st.integers(1, 60),
    margin=st.integers(0, 4),
    fields=st.sampled_from([None, _static, _dynamic, _static_batch, _batched]),
)
def test_two_term_site_sums_equal_the_axis_sum_observer(angles, steps, margin, fields):
    n = 2 * steps + 3 + 2 * margin
    p = WalkParams(*angles, n)
    fields = fields(p, steps) if fields else None
    fi, gfi, qfi = axis_sum_information_values(p, steps, fields)
    measures = information_values(p, steps, fields)
    assert same_bits(measures[DEFECT_SITE_FI].values, fi)
    assert same_bits(measures[GLOBAL_FI].values, gfi)
    assert same_bits(measures[QUANTUM_FI].values, qfi)
    # the defect-site FI alone walks the causal diamond
    assert same_bits(fisher_at_defect(p, steps, fields).values, fi)


def per_step_defect_fisher(params, steps, coin_fields=None):
    """Reference: P0 and dP0 reduced from the defect row at every step of the walk,
    then ``binary_fisher`` on the stacked series."""
    defect = params.defect_index

    def observe(psi, dpsi, rows):
        return _probability_pair(psi[..., defect, :], dpsi[..., defect, :])

    p0, dp0 = pair_trajectory(params, steps, coin_fields, observe).swapaxes(0, 1)
    return binary_fisher(p0, dp0)


def defect_fi(params, steps, coin_fields, alone):
    """The defect-site FI from its own pass (``alone``, on the causal diamond)
    or from the all-measures pass over the forward cone."""
    if alone:
        return fisher_at_defect(params, steps, coin_fields)
    return information_values(params, steps, coin_fields)[DEFECT_SITE_FI]


@settings(max_examples=40, deadline=None)
@given(
    angles=st.tuples(*[st.floats(-PI, PI)] * 3),
    steps=st.integers(1, 40),
    margin=st.integers(0, 4),
    fields=st.sampled_from([None, _static_batch, _batched]),
    alone=st.booleans(),
)
def test_defect_rows_reduced_after_the_walk_equal_the_per_step_reduction(
        angles, steps, margin, fields, alone):
    n = 2 * steps + 3 + 2 * margin
    p = WalkParams(*angles, n)
    fields = fields(p, steps) if fields else None
    values, flagged = per_step_defect_fisher(p, steps, fields)
    got = defect_fi(p, steps, fields, alone)
    assert same_bits(got.values, values)
    assert got.flagged.shape == flagged.shape and np.array_equal(got.flagged, flagged)


@pytest.mark.parametrize("walks", [1, 3])
@pytest.mark.parametrize("kind", ["clean", STATIC, DYNAMIC])
def test_batched_measures_equal_serial_walks(walks, kind):
    steps = 40
    p = series_params(*NONTRIVIAL, steps)
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
    # both passes; "alone" is the defect-site FI's own pass
    measures = dict(information_values(p, steps, batched),
                    alone=fisher_at_defect(p, steps, batched))
    for b, fields in enumerate(serial):
        for kind, series in dict(information_values(p, steps, fields),
                                 alone=fisher_at_defect(p, steps, fields)).items():
            got = measures[kind]
            assert got.steps.shape == (steps + 1,)
            assert got.values.shape == got.flagged.shape == (steps + 1, walks)
            assert np.array_equal(got.values[:, b], series.values)
            assert np.array_equal(got.flagged[:, b], series.flagged)


def fi_surface_rows(params, t1_over_pi, steps):
    """Reference: one walk per theta1, rows appended theta1 by theta1."""
    rows = []
    for t1 in t1_over_pi:
        series = fisher_at_defect(replace(params, theta1=float(t1) * PI), steps)
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
    measures = information_values(cfg.walk, 30)
    for name, series in (("fi_series.csv", fisher_at_defect(cfg.walk, 30)),
                         ("gfi_series.csv", measures[GLOBAL_FI]),
                         ("qfi_series.csv", measures[QUANTUM_FI])):
        rows = [(float(t), float(v), bool(f))
                for t, v, f in zip(series.steps, series.values, series.flagged)]
        serialize.write_csv(tmp_path / name, experiments.FI_HEADER, rows)
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / name).read_bytes()


def test_long_fisher_series_streams_in_small_memory():
    steps = 2000
    p = series_params(*NONTRIVIAL, steps)
    tracemalloc.start()
    try:
        fisher_at_defect(p, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a stored (T+1, N, 2) trajectory pair would take 2 * 2001 * 4003 * 32 B = 513 MB
    assert peak < 8e6


@pytest.mark.parametrize("series", [bayes.defect_probability_series, fisher_at_defect])
def test_defect_only_walks_hold_rows_of_the_steps_not_of_the_ring(series):
    # the walk is cut to the 2 * 30 + 3 rows around the defect: measured peaks
    # 8.4 kB for P0 and 15.1 kB for FI, where one (4003, 2) buffer is 64 kB
    p = params(*NONTRIVIAL, 4003)
    series(p, 30)  # numpy's first-call caches stay out of the peak
    tracemalloc.start()
    try:
        series(p, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32_000


@pytest.mark.parametrize("series", [information_values, fisher_at_defect])
def test_each_walk_computes_its_windows_once(monkeypatch, series):
    # propagate's light cone is the walk's only one; the observers read its rows
    cone, windows = walk.light_cone, []

    def counted(*args):
        for rows in cone(*args):
            windows.append(rows)
            yield rows

    monkeypatch.setattr(walk, "light_cone", counted)
    monkeypatch.setattr(metrology, "light_cone", counted, raising=False)
    steps = 30
    series(series_params(*NONTRIVIAL, steps), steps)
    assert len(windows) == steps + 1


@settings(max_examples=20, deadline=None)
@given(
    angles=st.tuples(*[st.floats(-PI, PI)] * 3),
    steps=st.integers(1, 40),
    margin=st.integers(0, 5),
)
def test_information_hierarchy_at_drawn_angles(angles, steps, margin):
    n = 2 * steps + 3 + 2 * margin
    p = WalkParams(*angles, n)
    fi = fisher_at_defect(p, steps).values
    measures = information_values(p, steps)
    gfi = measures[GLOBAL_FI].values
    qfi = measures[QUANTUM_FI].values
    # the tolerance of perfbench/checks.py: a <= b + 1e-9 |b| + 1e-12
    assert (fi <= gfi + 1e-9 * np.abs(gfi) + 1e-12).all()
    assert (gfi <= qfi + 1e-9 * np.abs(qfi) + 1e-12).all()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="GFI skips every site with P < P_FLOOR, however large its "
                   "(dP)^2/P; keeping the sites with P > 0 mends it")
def test_information_hierarchy_below_the_gfi_floor():
    # a point test_information_hierarchy_at_drawn_angles can draw: the site GFI
    # drops (P = 5.8e-13, dP = 6.4e-7) carries 0.708, and FI 2.0e-12 > GFI 5.8e-13
    p = WalkParams(2.0, 0.0, 1.8145e-06, 5)
    series = information_values(p, 1)
    fi, gfi = series[DEFECT_SITE_FI].values, series[GLOBAL_FI].values
    assert (fi <= gfi + 1e-9 * np.abs(gfi) + 1e-12).all()


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
    qfi = information_values(WalkParams(theta1, *others, n), steps)[QUANTUM_FI].values
    ratio = qfi[1:] / np.arange(1, steps + 1) ** 2
    assert qfi[0] == 0.0
    assert (ratio <= 1.0 + 1e-9).all()
    if abs(theta1) == PI:
        # at theta1 = +-pi the walk saturates the bound at every step
        np.testing.assert_allclose(ratio, 1.0, rtol=1e-9)


@pytest.mark.parametrize("theta", [(PI, 0.75 * PI, -0.55 * PI), (-PI, 0.75 * PI, -0.55 * PI),
                                   (3 * PI, 0.2 * PI, 0.3 * PI), (-PI, -0.3 * PI, 1.7 * PI)])
def test_flat_band_defect_site_fi_is_t_squared(theta):
    # at theta1 = +-pi the bulk band is flat and FI(t) = t^2 at every step, the
    # paper's t^2 law with no fit.  Fixed points: drawn angles lose digits to
    # the 1 - P0 subtraction where P0 is near 1, and those steps are not flagged
    series = fisher_at_defect(WalkParams(*theta, dynamics_lattice_size(80)), 80)
    usable = ~series.flagged[1:]
    t, values = series.steps[1:][usable], series.values[1:][usable]
    assert usable.sum() >= 70
    assert (np.abs(values / t**2 - 1.0) <= 1e-11).all()


def test_trivial_case_peaks_sit_above_the_bulk_fit():
    p = series_params(*TRIVIAL, steps=100)
    series = fisher_at_defect(p, 100)
    fit_all = fit_scaling(series, mode="all_points")
    fit_peaks = fit_scaling(series, mode="peaks_only")
    t_mid = math.sqrt(10 * 100)
    assert (fit_all.prefactor * t_mid**fit_all.exponent
            < fit_peaks.prefactor * t_mid**fit_peaks.exponent)


# --- multi-time averaging ----------------------------------------------------


def constant_series(value, steps=30):
    return FisherSeries(np.arange(steps + 1), np.full(steps + 1, value), None)


def test_averaging_window_one_is_identity():
    p = series_params(*NONTRIVIAL, steps=30)
    series = fisher_at_defect(p, 30)
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


def test_averaging_rejects_steps_that_are_not_consecutive():
    series = FisherSeries(np.arange(0, 60, 2), np.ones(30), None)
    with pytest.raises(ValueError, match="consecutive steps"):
        averaged_fisher(series, window=2, spacing=1)


def step_lookup_average(series, window, spacing):
    """Reference: each start step's window looked up by step, averaged one by one."""
    index_of = {int(t): i for i, t in enumerate(series.steps)}
    span = (window - 1) * spacing
    centers, means, flags = [], [], []
    for t in series.steps:
        idx = [index_of.get(int(t) + j * spacing) for j in range(window)]
        if None not in idx:
            centers.append(int(t) + span / 2.0)
            means.append(series.values[idx].mean())
            flags.append(bool(series.flagged[idx].all()))
    return np.asarray(centers), np.asarray(means), np.asarray(flags)


@pytest.mark.parametrize("window, spacing", [(5, 5), (1, 5), (3, 7), (7, 2)])
@pytest.mark.parametrize("point", [NONTRIVIAL, TRIVIAL])
def test_averaging_by_position_equals_the_step_lookup(point, window, spacing):
    series = fisher_at_defect(series_params(*point, steps=100), 100)
    avg = averaged_fisher(series, window, spacing)
    centers, means, flags = step_lookup_average(series, window, spacing)
    assert same_bits(avg.steps, centers) and same_bits(avg.values, means)
    assert np.array_equal(avg.flagged, flags)


def test_averaging_fills_fi_drops():
    p = series_params(*NONTRIVIAL, steps=100)
    series = fisher_at_defect(p, 100)
    avg = averaged_fisher(series, window=5, spacing=5)
    centers = avg.steps[avg.steps >= 10]
    lookup = dict(zip(series.steps.tolist(), series.values.tolist()))
    plain = np.array([lookup[c] for c in centers])
    min_avg = (avg.values[avg.steps >= 10] / centers**2).min()
    min_plain = (plain / centers**2).min()
    assert min_avg > min_plain


# --- power-law fitting -------------------------------------------------------


def test_fisher_series_takes_one_row_per_step():
    assert FisherSeries(np.arange(4), np.zeros((4, 3)), None).flagged.shape == (4, 3)
    for values, flagged in ((np.zeros(3), None), (np.zeros((3, 4)), None),
                            (np.zeros(4), np.zeros(3, dtype=bool))):
        with pytest.raises(ValueError, match="one row per step"):
            FisherSeries(np.arange(4), values, flagged)


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
    with pytest.raises(ShortFitError, match="got 4") as short:
        power_law_fit(t, t.astype(float), window=(1, 4))
    assert short.value.points == 4
    t = np.arange(1, 6)
    assert power_law_fit(t, t.astype(float), window=(1, 5)).n_points == 5  # five suffice


def test_fit_excludes_flagged_and_zero_values():
    steps = np.arange(0, 31)
    values = steps.astype(float) ** 2
    values[20] = 0.0
    flagged = np.zeros(31, dtype=bool)
    flagged[10:13] = True
    series = FisherSeries(steps, values, flagged)
    fit = fit_scaling(series)
    assert fit.exponent == pytest.approx(2.0, abs=1e-10)
    # the window is always the steps 10..last (fit.json writes t_min as 10.0)
    assert repr((fit.t_min, fit.t_max)) == "(10.0, 30.0)"
    assert fit.n_points == 17  # 21 in the window minus three flagged and one zero-valued


def test_peaks_only_fit_window_ends_at_the_last_step():
    # the window is the steps 10..last whatever the mode: the last peak
    # (t = 28) does not end it, and fit.json's t_max keeps its value
    steps = np.arange(0, 31)
    values = steps**2 * (1.0 + 0.5 * (-1.0) ** steps)
    fit = fit_scaling(FisherSeries(steps, values, None), mode="peaks_only")
    assert repr((fit.t_min, fit.t_max)) == "(10.0, 30.0)"
    assert fit.n_points == 10  # the peaks in the window are the even steps 10..28


def test_peaks_only_counts_no_point_of_a_plateau():
    # t = 20 and 21 make a two-point plateau above both neighbours: neither is
    # a strict interior maximum, and t = 22 is no longer one, so the fit keeps
    # the even steps 10..28 but 20 and 22
    steps = np.arange(0, 31)
    values = steps**2 * (1.0 + 0.5 * (-1.0) ** steps)
    values[20:22] = 1000.0
    fit = fit_scaling(FisherSeries(steps, values, None), mode="peaks_only")
    assert fit.n_points == 8


def test_fit_unknown_mode_rejected():
    # a ValueError, but not the short fit that a run catches
    with pytest.raises(ValueError) as caught:
        power_law_fit(np.arange(10), np.arange(10, dtype=float), window=(1, 9), mode="median")
    assert not isinstance(caught.value, ShortFitError)
