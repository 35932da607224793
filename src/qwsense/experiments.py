"""Experiment drivers: map a validated config to data files and a manifest.

Each driver computes with the library modules and returns the artifacts to
emit; the runner owns all file writes (single writer, atomic moves, manifest
last) so that identical configs reproduce byte-identical data files.
"""

import math
import os
import time
from dataclasses import dataclass, field, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__, bayes, disorder, metrology, plotting, serialize, spectral, topology
from .config import ExperimentConfig
from .errors import ShortFitError
from .walk import CoinField

PI = math.pi

# the dense spectrum's bits depend on the BLAS thread count these set
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Artifacts:
    csv: dict = field(default_factory=dict)  # name -> (header, rows)
    json: dict = field(default_factory=dict)  # name -> payload
    plots: list = field(default_factory=list)  # csv names, each drawn as its header selects
    health: dict = field(default_factory=dict)  # manifest-only numbers, in no digest


@dataclass
class RunManifest:
    path: Path
    payload: dict


def _fi_series_rows(series):
    return [
        (float(t), float(v), bool(f))
        for t, v, f in zip(series.steps, series.values, series.flagged)
    ]


def _fit_payload(fit):
    return {
        "exponent": fit.exponent,
        "prefactor": fit.prefactor,
        "r_squared": fit.r_squared,
        "t_min": fit.fit_window[0],
        "t_max": fit.fit_window[1],
        "mode": fit.mode,
        "n_points": fit.n_points,
    }


FI_HEADER = ("t", "value", "flagged")


def _fit_series(art: Artifacts, series, mode: str) -> None:
    """``fit.json`` from the power-law fit of ``series``, which is left out when
    fewer than 5 points are usable; ``health.fit_points`` counts them either way."""
    try:
        fit = metrology.fit_scaling(series, mode=mode)
    except ShortFitError as short:
        art.health["fit_points"] = short.points
        return
    art.health["fit_points"] = fit.n_points
    art.json["fit.json"] = _fit_payload(fit)


def _run_fi_scaling(cfg: ExperimentConfig) -> Artifacts:
    series = metrology.fisher_at_defect(cfg.walk, cfg.steps)
    art = Artifacts()
    art.csv["fi_series.csv"] = (FI_HEADER, _fi_series_rows(series))
    _fit_series(art, series, cfg.fit_mode)
    art.plots.append("fi_series.csv")
    return art


def _run_gfi_qfi(cfg: ExperimentConfig) -> Artifacts:
    series = metrology.information_values(cfg.walk, cfg.steps)
    art = Artifacts()
    for name, kind in (
        ("fi_series.csv", metrology.DEFECT_SITE_FI),
        ("gfi_series.csv", metrology.GLOBAL_FI),
        ("qfi_series.csv", metrology.QUANTUM_FI),
    ):
        art.csv[name] = (FI_HEADER, _fi_series_rows(series[kind]))
        art.plots.append(name)
    qfi = series[metrology.QUANTUM_FI]
    per_t2 = qfi.values[1:] / qfi.steps[1:] ** 2
    art.health["qfi_over_t2_max"] = float(per_t2.max())
    art.health["qfi_over_t2_final"] = float(per_t2[-1])
    return art


def _run_avg_fi(cfg: ExperimentConfig) -> Artifacts:
    series = metrology.fisher_at_defect(cfg.walk, cfg.steps)
    window, spacing = cfg.averaging
    averaged = metrology.averaged_fisher(series, window, spacing)
    art = Artifacts()
    art.csv["fi_series.csv"] = (FI_HEADER, _fi_series_rows(series))
    art.csv["avg_fi_series.csv"] = (FI_HEADER, _fi_series_rows(averaged))
    art.json["averaging.json"] = {"window": window, "spacing": spacing}
    art.plots.append("avg_fi_series.csv")
    return art


def _run_fi_surface(cfg: ExperimentConfig) -> Artifacts:
    params = cfg.walk
    t1_over_pi = cfg.surface["theta1_over_pi"]
    steps = cfg.surface["steps"]
    # every theta1 walks as one row of a (B, 1) batch; the batch buffers are
    # gone before the rows are built
    fields = CoinField.stack([
        CoinField.from_params(replace(params, theta1=float(t1) * PI)) for t1 in t1_over_pi
    ])
    series = metrology.fisher_at_defect(params, steps, fields)
    rows = [
        (float(t1), float(t), float(v), bool(f))
        for t1, walk_values, walk_flagged in zip(t1_over_pi, series.values.T, series.flagged.T)
        for t, v, f in zip(range(steps + 1), walk_values, walk_flagged)
    ]
    art = Artifacts()
    art.csv["fi_surface.csv"] = (("theta1_over_pi", "t", "value", "flagged"), rows)
    art.plots.append("fi_surface.csv")
    return art


def _run_phase_diagram(cfg: ExperimentConfig) -> Artifacts:
    t1s = cfg.phase_grid["theta1_over_pi"]
    t2s = cfg.phase_grid["theta2_over_pi"]
    grid = topology.phase_diagram(t1s * PI, t2s * PI)
    rows = []
    for i, row in enumerate(grid):
        for j, point in enumerate(row):
            rows.append((float(t1s[i]), float(t2s[j]), point.winding, point.min_gap, point.status))
    art = Artifacts()
    art.csv["phase_diagram.csv"] = (
        ("theta1_over_pi", "theta2_over_pi", "winding", "min_gap", "status"),
        rows,
    )
    art.plots.append("phase_diagram.csv")
    return art


def _run_spectrum(cfg: ExperimentConfig) -> Artifacts:
    params = cfg.walk
    decomp = spectral.decompose_step_operator(params)
    states = spectral.find_localized_states(decomp)
    localized_columns = {s.eigen_index for s in states}
    ipr = decomp.ipr
    order = np.argsort(decomp.quasi_energies, kind="stable")
    rows = []
    for idx, j in enumerate(order):
        e = float(decomp.quasi_energies[j])
        rows.append((idx, e, float(ipr[j]), int(j) in localized_columns))
    art = Artifacts()
    art.csv["spectrum.csv"] = (("index", "quasi_energy", "ipr", "is_localized"), rows)
    art.json["localized_states.json"] = [
        {
            "quasi_energy": s.quasi_energy,
            "ipr": s.ipr,
            "localization_length": s.localization_length,
        }
        for s in states
    ]
    art.health["schur_residual_max"] = float(decomp.residuals.max())
    art.health["conjugate_pairing_max"] = spectral.conjugate_pairing_max(decomp.eigenvalues)
    art.health["bulk_min_gap"] = topology.phase_diagram(params.theta1, params.theta2)[0][0].min_gap
    return art


def _estimation_config(
    cfg: ExperimentConfig,
) -> tuple[bayes.EstimationConfig, np.ndarray]:
    """The estimation config with the informative schedule the selector picks
    from ``cfg.estimation``'s steps t_min..steps on one clean candidate table,
    and that table's scheduled rows: a bayes run's likelihood reads them
    instead of walking again (a disorder msre run walks one table per
    realization)."""
    est = cfg.estimation
    t_min = est.schedule[0]
    selection = bayes.candidate_probability_table(cfg.walk, est.candidates(), est.schedule)
    est = replace(est, schedule=bayes.informative_schedule(selection, t_min))
    return est, selection[[t - t_min for t in est.schedule]]


def _run_bayes(cfg: ExperimentConfig) -> Artifacts:
    est, table = _estimation_config(cfg)
    curve = bayes.estimation_curve(est, table)
    est_rows = [(r.step, r.trials, r.successes, r.msre) for r in curve.records]
    thetas = (est.candidates() / PI).tolist()
    post_rows = []
    for record, weights in zip(curve.records, curve.weights.tolist()):
        post_rows.extend(zip(repeat(record.step), thetas, weights))
    art = Artifacts()
    art.csv["estimation.csv"] = (("t", "M", "m", "msre"), est_rows)
    art.csv["posterior.csv"] = (("t", "theta02_over_pi", "weight"), post_rows)
    if curve.fit is not None:
        art.json["fit.json"] = _fit_payload(curve.fit)
    art.plots += ["posterior.csv", "estimation.csv"]
    art.health["posterior_edge_mass"] = curve.edge_mass
    lo, hi = est.prior_interval
    spacing = (hi - lo) / (est.grid_points - 1)
    art.health["posterior_min_std_cells"] = min(r.posterior_std for r in curve.records) / spacing
    art.health["schedule_fold_ambiguity_max"] = max(map(bayes.fold_ambiguity, table))
    return art


def _run_disorder(cfg: ExperimentConfig) -> Artifacts:
    spec = cfg.disorder_spec
    art = Artifacts()
    if cfg.disorder_observable == "msre":
        est, _ = _estimation_config(cfg)
        result = disorder.ensemble_msre(spec, est)
    else:
        result = disorder.ensemble_fisher(spec, cfg.walk, cfg.steps)
        mean_series = metrology.FisherSeries(result.steps, result.mean, None)
        _fit_series(art, mean_series, cfg.fit_mode)
    rows = [
        (float(t), float(m), float(s), result.realizations)
        for t, m, s in zip(result.steps, result.mean, result.std)
    ]
    art.csv["ensemble.csv"] = (("t", "mean", "std", "n_realizations"), rows)
    art.plots.append("ensemble.csv")
    return art


_DRIVERS = {
    "fi-scaling": _run_fi_scaling,
    "fi-surface": _run_fi_surface,
    "phase-diagram": _run_phase_diagram,
    "spectrum": _run_spectrum,
    "bayes": _run_bayes,
    "disorder": _run_disorder,
    "avg-fi": _run_avg_fi,
    "gfi-qfi": _run_gfi_qfi,
}


def run(cfg: ExperimentConfig, out_dir, threads: int = 1) -> RunManifest:
    """Execute the configured experiment and write its artifacts.

    Every run writes its data CSVs, then its JSON sidecars, then its SVG
    plots, each SVG rendered from the rows its CSV was written from, so it
    equals ``qwsense plot`` on that CSV byte for byte.  The manifest is
    written last: the config, the seed, the BLAS thread settings found in
    the environment, the seconds each of the four parts took (``timings``),
    the run's ``health`` numbers (README) and a content hash of every
    emitted file.  Every experiment runs serially: ``threads`` accepts only
    1 and goes when the benchmark, which passes it, stops passing it.
    """
    if threads != 1:
        raise ValueError(f"threads: every run is serial, got {threads}")
    start = time.perf_counter()
    out_dir = Path(out_dir)
    art = _DRIVERS[cfg.experiment](cfg)
    marks = [start, time.perf_counter()]
    emitted = []
    for name, (header, rows) in art.csv.items():
        serialize.write_csv(out_dir / name, header, rows)
        emitted.append(name)
    marks.append(time.perf_counter())
    for name, payload in art.json.items():
        serialize.write_json(out_dir / name, payload)
        emitted.append(name)
    marks.append(time.perf_counter())
    for csv_name in art.plots:
        svg_name = Path(csv_name).stem + ".svg"
        plotting.render_plot(out_dir / csv_name, out_dir / svg_name, art.csv[csv_name])
        emitted.append(svg_name)
    marks.append(time.perf_counter())
    timings = {part: end - begin
               for part, begin, end in zip(("compute", "csv", "json", "svg"), marks, marks[1:])}
    payload = {
        "artifact": "qwsense",
        "version": __version__,
        "experiment": cfg.experiment,
        "config": cfg.raw,
        "rng": {"generator": bayes.RNG_NAME, "seed": cfg.seed},
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "duration_seconds": time.perf_counter() - start,
        "timings": timings,
        "health": art.health,
        "schemas": {name: list(header) for name, (header, _) in art.csv.items()},
        "files": [
            {"name": name, "sha256": serialize.sha256_path(out_dir / name)}
            for name in sorted(emitted)
        ],
    }
    manifest_path = out_dir / "manifest.json"
    serialize.write_json(manifest_path, payload)
    return RunManifest(manifest_path, payload)
