"""Acceptance suite: the release gate, one criterion per test.

Each test prints a PASS/FAIL line (run with ``pytest -s`` to see them all)
and asserts the criterion at its stated tolerance.  The walk parameters are
the nontrivial/trivial pair used throughout: theta2 = 0.75 pi, defect
theta02 = -0.55 pi, with theta1 = 0.9 pi (winding +1) or 0.05 pi (trivial).
"""

import json
import math

import numpy as np
import pytest
from bloch_oracle import quadrature_winding
from test_disorder import relative_std

from qwsense import bayes, disorder, metrology, spectral, topology
from qwsense.walk import WalkParams, propagate

PI = math.pi

STEPS = 100
N = 2 * STEPS + 3  # wrap-free for t <= 100

NONTRIVIAL = WalkParams(0.9 * PI, 0.75 * PI, -0.55 * PI, N)
TRIVIAL = WalkParams(0.05 * PI, 0.75 * PI, -0.55 * PI, N)
PRIOR = (-0.556 * PI, -0.544 * PI)


def record(number, description, ok):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number}: {description}"


@pytest.fixture(scope="module")
def fi_nontrivial():
    return metrology.fisher_at_defect(NONTRIVIAL, STEPS)


@pytest.fixture(scope="module")
def fi_trivial():
    return metrology.fisher_at_defect(TRIVIAL, STEPS)


def test_criterion_01_heisenberg_scaling(fi_nontrivial):
    fit = metrology.fit_scaling(fi_nontrivial)
    record(
        1,
        f"nontrivial FI fit b = {fit.exponent:.3f} in [1.8, 2.2]",
        1.8 <= fit.exponent <= 2.2,
    )


def test_criterion_02_trivial_phase_suppression(fi_nontrivial, fi_trivial):
    below = fi_trivial.values[60] < fi_nontrivial.values[60]
    fit_all = metrology.fit_scaling(fi_trivial, mode="all_points")
    fit_peaks = metrology.fit_scaling(fi_trivial, mode="peaks_only")
    t_mid = math.sqrt(10 * STEPS)
    under_peaks = (fit_all.prefactor * t_mid**fit_all.exponent
                   < fit_peaks.prefactor * t_mid**fit_peaks.exponent)
    record(
        2,
        f"trivial FI(60) = {fi_trivial.values[60]:.1f} < {fi_nontrivial.values[60]:.1f}"
        f" and all-points fit below peaks fit at t = {t_mid:.0f}",
        below and under_peaks,
    )


def test_criterion_03_phase_diagram_pins():
    plus = topology.phase_diagram(0.9 * PI, 0.75 * PI)[0][0]
    zero = topology.phase_diagram(0.05 * PI, 0.75 * PI)[0][0]
    critical = topology.phase_diagram(0.75 * PI, 0.75 * PI)[0][0]
    # the labels are the library's; the quadrature reference gives their residuals
    plus_residual = quadrature_winding(0.9 * PI, 0.75 * PI, n_k=2048).residual
    zero_residual = quadrature_winding(0.05 * PI, 0.75 * PI, n_k=2048).residual
    ok = (
        plus.winding == 1
        and plus_residual < 1e-6
        and zero.winding == 0
        and zero_residual < 1e-6
        and critical.status == "gapless"
    )
    record(
        3,
        f"winding +1 (residual {plus_residual:.1e}), 0 (residual {zero_residual:.1e}),"
        " transition gapless",
        ok,
    )


def test_criterion_04_mirror_fi_symmetry(fi_nontrivial):
    mirror_theta1 = -0.9 * PI  # located along the theta2 = 0.75 pi cut
    mirror_point = topology.phase_diagram(mirror_theta1, 0.75 * PI)[0][0]
    mirror_params = WalkParams(mirror_theta1, 0.75 * PI, -0.55 * PI, N)
    fi_mirror = metrology.fisher_at_defect(mirror_params, STEPS)
    gap = np.abs(fi_mirror.values - fi_nontrivial.values).max()
    record(
        4,
        f"mirror winding = {mirror_point.winding}, max |FI difference| = {gap:.2e}",
        mirror_point.winding == -1 and gap < 1e-8,
    )


def test_criterion_05_localized_pair_and_domain_wall():
    soft_params = WalkParams(0.9 * PI, 0.75 * PI, -0.55 * PI, 101)
    wall_params = WalkParams(0.9 * PI, 0.75 * PI, -PI, 101)
    soft = spectral.find_localized_states(spectral.decompose_step_operator(soft_params))
    wall = spectral.find_localized_states(spectral.decompose_step_operator(wall_params))
    pair_ok = len(soft) == 2 and abs(soft[0].quasi_energy + soft[1].quasi_energy) < 1e-8

    def pair_length(states):
        avg = np.mean([s.profile for s in states], axis=0)
        return spectral.fit_localization_length(avg)

    tighter = len(wall) == 2 and pair_length(wall) < pair_length(soft)
    record(
        5,
        f"two states at E = +/-{abs(soft[0].quasi_energy):.4f}; domain-wall length"
        f" {pair_length(wall):.4f} < {pair_length(soft):.4f}",
        pair_ok and tighter,
    )


def test_criterion_06_fisher_hierarchy():
    ok = True
    for params in (NONTRIVIAL, TRIVIAL):
        fi = metrology.fisher_at_defect(params, STEPS).values
        measures = metrology.information_values(params, STEPS)
        gfi = measures[metrology.GLOBAL_FI].values
        qfi = measures[metrology.QUANTUM_FI].values
        ok = ok and (fi <= gfi + 1e-9).all() and (gfi <= qfi + 1e-9).all()
    record(6, "FI <= GFI <= QFI + 1e-9 pointwise for both parameter sets", ok)


def test_criterion_07_derivative_oracle():
    h = 1e-6
    steps = 50
    n = 2 * steps + 3
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10):
        theta1, theta2, theta02 = rng.uniform(-0.95 * PI, 0.95 * PI, size=3)
        params = WalkParams(theta1, theta2, theta02, n)
        plus, minus = (
            [psi.copy() for psi in propagate(WalkParams(theta1, theta2, angle, n), steps)]
            for angle in (theta02 + h, theta02 - h)
        )
        pairs = propagate(params, steps, derivative=True)
        for t, (_, dpsi, _) in enumerate(pairs):
            fd = (plus[t] - minus[t]).reshape(-1) / (2 * h)
            scale = max(np.linalg.norm(fd), 1e-8)
            worst = max(worst, np.linalg.norm(dpsi.reshape(-1) - fd) / scale)
    record(7, f"worst relative derivative error over 10 draws = {worst:.2e}", worst < 1e-6)


def test_criterion_08_bayesian_convergence():
    candidates = np.linspace(*PRIOR, 201)
    schedule = bayes.informative_schedule(
        bayes.candidate_probability_table(NONTRIVIAL, candidates, range(20, STEPS + 1)), 20
    )
    config = bayes.EstimationConfig(
        NONTRIVIAL, PRIOR, schedule, grid_points=201, trials=1000,
        master_seed=1, repetitions=100,
    )
    curve = bayes.estimation_curve(
        config, bayes.candidate_probability_table(NONTRIVIAL, candidates, schedule)
    )
    sigma_first = curve.posterior_std[0]
    sigma_last = curve.posterior_std[-1]
    slope = metrology.power_law_fit(
        schedule, curve.msre, window=(min(schedule), max(schedule))
    ).exponent
    ok = sigma_last < sigma_first and -2.2 <= slope <= -1.8
    record(
        8,
        f"posterior sigma {sigma_first:.2e} -> {sigma_last:.2e}, msre slope {slope:.3f}",
        ok,
    )


def test_criterion_09_cramer_rao_consistency(fi_nontrivial):
    t, trials = 50, 1000
    fi_t = fi_nontrivial.values[t]
    candidates = np.linspace(*PRIOR, 201)
    table = bayes.candidate_probability_table(NONTRIVIAL, candidates, [t])[0]
    p_true = bayes.defect_probability_series(NONTRIVIAL, t)[t]
    errors = []
    for rep in range(100):
        rng = np.random.default_rng(np.random.SeedSequence(123, spawn_key=(rep,)))
        m = int(rng.binomial(trials, p_true))
        weights = np.exp(bayes._log_posteriors(table, trials, np.array([m]))[0])
        mean = float((weights * candidates).sum())
        variance = float((weights * (candidates - mean) ** 2).sum())
        errors.append(bayes._relative_error(variance, mean, NONTRIVIAL.theta02))
    mean_msre = float(np.mean(errors))
    bound = (1.0 - 0.15) / (trials * fi_t * NONTRIVIAL.theta02**2)
    record(
        9,
        f"mean msre {mean_msre:.3e} >= 0.85/(M FI theta^2) = {bound:.3e}",
        mean_msre >= bound,
    )


def test_criterion_10_disorder_robustness():
    ok = True
    summary = []
    for kind in ("static", "dynamic"):
        spec = disorder.DisorderSpec(
            kind=kind, half_width=PI / 20, n_realizations=10, master_seed=11
        )
        r_nt = disorder.ensemble_fisher(spec, NONTRIVIAL, STEPS)
        r_tr = disorder.ensemble_fisher(spec, TRIVIAL, STEPS)
        mean_series = metrology.FisherSeries(r_nt.steps, r_nt.mean, None)
        fit = metrology.fit_scaling(mean_series, mode="peaks_only")
        rel_nt = relative_std(r_nt, 10, STEPS)
        rel_tr = relative_std(r_tr, 10, STEPS)
        ok = ok and 1.8 <= fit.exponent <= 2.2 and rel_tr > rel_nt
        summary.append(f"{kind}: b={fit.exponent:.2f}, rel std {rel_tr:.2f}>{rel_nt:.2f}")
    record(10, "; ".join(summary), ok)


def test_criterion_11_multi_time_averaging(fi_nontrivial):
    averaged = metrology.averaged_fisher(fi_nontrivial, window=5, spacing=5)
    centers = averaged.steps[averaged.steps >= 10]
    lookup = dict(zip(fi_nontrivial.steps.tolist(), fi_nontrivial.values.tolist()))
    plain = np.array([lookup[c] for c in centers])
    min_avg = float((averaged.values[averaged.steps >= 10] / centers**2).min())
    min_plain = float((plain / centers**2).min())
    record(
        11,
        f"min avg-FI/t^2 = {min_avg:.3f} > min FI/t^2 = {min_plain:.3f}",
        min_avg > min_plain,
    )


def test_criterion_12_determinism(tmp_path):
    from qwsense import cli

    doc = {
        "experiment": "disorder",
        "steps": 40,
        "seed": 21,
        "walk": {"theta1_over_pi": 0.9, "theta2_over_pi": 0.75,
                 "theta02_over_pi": -0.55},
        "disorder": {"kind": "dynamic", "half_width_over_pi": 0.05,
                      "n_realizations": 4},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    hashes = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "manifest.json").read_text())
        hashes.append({f["name"]: f["sha256"] for f in payload["files"]})
    record(12, f"rerun reproduced {len(hashes[0])} identical file hashes", hashes[0] == hashes[1])
