"""Experiment drivers: map a validated config to data files and a manifest.

Each driver computes with the library modules and returns the artifacts to
emit; the runner owns all file writes (single writer, atomic moves, manifest
last) so that identical configs reproduce byte-identical data files.
"""

import math
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, bayes, disorder, metrology, plotting, serialize, spectral, topology
from .config import ExperimentConfig
from .walk import CoinField, default_initial_state

PI = math.pi

# the dense spectrum's bits depend on the BLAS thread count these set
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Artifacts:
    csv: dict = field(default_factory=dict)  # name -> (header, rows)
    json: dict = field(default_factory=dict)  # name -> payload
    plots: list = field(default_factory=list)  # (csv name, plot kind)
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


def _run_fi_scaling(cfg: ExperimentConfig) -> Artifacts:
    params = cfg.walk
    series = metrology.fisher_at_defect(
        params, default_initial_state(params.lattice_size), cfg.steps
    )
    fit = metrology.fit_scaling(series, mode=cfg.fit_mode, window=cfg.fit_window)
    art = Artifacts()
    art.csv["fi_series.csv"] = (FI_HEADER, _fi_series_rows(series))
    art.json["fit.json"] = _fit_payload(fit)
    art.plots.append(("fi_series.csv", "scaling"))
    return art


def _run_gfi_qfi(cfg: ExperimentConfig) -> Artifacts:
    params = cfg.walk
    series = metrology.fisher_series(params, default_initial_state(params.lattice_size), cfg.steps)
    art = Artifacts()
    for name, kind in (
        ("fi_series.csv", metrology.DEFECT_SITE_FI),
        ("gfi_series.csv", metrology.GLOBAL_FI),
        ("qfi_series.csv", metrology.QUANTUM_FI),
    ):
        art.csv[name] = (FI_HEADER, _fi_series_rows(series[kind]))
        art.plots.append((name, "scaling"))
    return art


def _run_avg_fi(cfg: ExperimentConfig) -> Artifacts:
    params = cfg.walk
    series = metrology.fisher_at_defect(
        params, default_initial_state(params.lattice_size), cfg.steps
    )
    window, spacing = cfg.averaging
    averaged = metrology.averaged_fisher(series, window, spacing)
    art = Artifacts()
    art.csv["fi_series.csv"] = (FI_HEADER, _fi_series_rows(series))
    art.csv["avg_fi_series.csv"] = (FI_HEADER, _fi_series_rows(averaged))
    art.json["averaging.json"] = {"window": window, "spacing": spacing}
    art.plots.append(("avg_fi_series.csv", "scaling"))
    return art


def _run_fi_surface(cfg: ExperimentConfig) -> Artifacts:
    params = cfg.walk
    t1_over_pi = cfg.surface["theta1_over_pi"]
    steps = cfg.surface["steps"]
    # every theta1 walks as one row of a (B, N) batch; the batch buffers are
    # gone before the rows are built
    fields = CoinField.stack([
        CoinField.from_params(replace(params, theta1=float(t1) * PI)) for t1 in t1_over_pi
    ])
    values, flagged = metrology.information_values(
        params, default_initial_state(params.lattice_size), steps,
        (metrology.DEFECT_SITE_FI,), fields,
    )[metrology.DEFECT_SITE_FI]
    rows = [
        (float(t1), float(t), float(v), bool(f))
        for t1, walk_values, walk_flagged in zip(t1_over_pi, values.T, flagged.T)
        for t, v, f in zip(range(steps + 1), walk_values, walk_flagged)
    ]
    art = Artifacts()
    art.csv["fi_surface.csv"] = (("theta1_over_pi", "t", "value", "flagged"), rows)
    art.plots.append(("fi_surface.csv", "heatmap"))
    return art


def _run_phase_diagram(cfg: ExperimentConfig) -> Artifacts:
    t1s = cfg.phase_grid["theta1_over_pi"]
    t2s = cfg.phase_grid["theta2_over_pi"]
    n_k = cfg.phase_grid["n_k"]
    grid = topology.phase_diagram(t1s * PI, t2s * PI, n_k)
    rows = []
    for i, row in enumerate(grid):
        for j, point in enumerate(row):
            rows.append((float(t1s[i]), float(t2s[j]), point.winding, point.min_gap, point.status))
    art = Artifacts()
    art.csv["phase_diagram.csv"] = (
        ("theta1_over_pi", "theta2_over_pi", "winding", "min_gap", "status"),
        rows,
    )
    art.plots.append(("phase_diagram.csv", "heatmap"))
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
    return art


def _estimation_config(
    cfg: ExperimentConfig,
) -> tuple[bayes.EstimationConfig, np.ndarray | None]:
    """The estimation config and, for a bayes run, its clean candidate table
    (one row per scheduled step); None for a disorder msre run, which walks
    one table per realization."""
    settings = cfg.estimation
    lo, hi = settings.prior_over_pi
    t_min = 20 if cfg.steps > 40 else max(1, cfg.steps // 5)
    est = bayes.EstimationConfig(
        params=cfg.walk,
        prior_interval=(lo * PI, hi * PI),
        # without a schedule, the selector scores every step in t_min..steps
        schedule=settings.schedule or range(t_min, cfg.steps + 1),
        grid_points=settings.grid_points,
        trials=settings.trials,
        master_seed=cfg.seed,
        repetitions=settings.repetitions,
    )
    table = None
    if settings.schedule is None:
        # the bayes likelihood reads the scheduled rows instead of walking again
        selection = bayes.candidate_probability_table(cfg.walk, est.candidates(), est.schedule)
        est = replace(est, schedule=bayes.informative_schedule(selection, t_min))
        if cfg.experiment == "bayes":
            table = selection[[t - t_min for t in est.schedule]]
    elif cfg.experiment == "bayes":
        table = bayes.candidate_probability_table(cfg.walk, est.candidates(), est.schedule)
    return est, table


def _run_bayes(cfg: ExperimentConfig) -> Artifacts:
    est, table = _estimation_config(cfg)
    curve = bayes.estimation_curve(est, table, keep_posteriors=True)
    est_rows = [(r.step, r.trials, r.successes, r.msre) for r in curve.records]
    post_rows = []
    for record, grid in zip(curve.records, curve.posteriors):
        for cand, weight in zip(grid.candidates, grid.weights):
            post_rows.append((record.step, float(cand) / PI, float(weight)))
    art = Artifacts()
    art.csv["estimation.csv"] = (("t", "M", "m", "msre"), est_rows)
    art.csv["posterior.csv"] = (("t", "theta02_over_pi", "weight"), post_rows)
    if curve.fit is not None:
        art.json["fit.json"] = _fit_payload(curve.fit)
    art.plots.append(("posterior.csv", "posterior"))
    art.plots.append(("estimation.csv", "scaling"))
    art.health["posterior_edge_mass"] = curve.edge_mass
    return art


def _run_disorder(cfg: ExperimentConfig, threads: int) -> Artifacts:
    spec = cfg.disorder_spec
    art = Artifacts()
    if cfg.disorder_observable == "msre":
        est, _ = _estimation_config(cfg)
        result = disorder.ensemble_msre(spec, est, threads=threads)
    else:
        params = cfg.walk
        result = disorder.ensemble_fisher(
            spec, params, default_initial_state(params.lattice_size), cfg.steps
        )
        mean_series = metrology.FisherSeries(result.steps, result.mean, None)
        try:
            art.json["fit.json"] = _fit_payload(
                metrology.fit_scaling(mean_series, mode=cfg.fit_mode, window=cfg.fit_window)
            )
        except ValueError:
            pass  # short runs may not leave 5 usable points; the csv still stands
    rows = [
        (float(t), float(m), float(s), result.realizations)
        for t, m, s in zip(result.steps, result.mean, result.std)
    ]
    art.csv["ensemble.csv"] = (("t", "mean", "std", "n_realizations"), rows)
    art.plots.append(("ensemble.csv", "band"))
    return art


_DRIVERS = {
    "fi-scaling": _run_fi_scaling,
    "fi-surface": _run_fi_surface,
    "phase-diagram": _run_phase_diagram,
    "spectrum": _run_spectrum,
    "bayes": _run_bayes,
    "avg-fi": _run_avg_fi,
    "gfi-qfi": _run_gfi_qfi,
}


def run(cfg: ExperimentConfig, out_dir, threads: int = 1) -> RunManifest:
    """Execute the configured experiment and write its artifacts.

    Every run writes its data CSVs, then its JSON sidecars, then its SVG
    plots.  Each SVG is rendered from the rows its CSV was written from,
    read as the CSV gives them back, so it equals ``qwsense plot`` on that
    CSV byte for byte.  The manifest (with content hashes of every
    emitted file) is written last; it also records the BLAS thread settings
    found in the environment (None where unset), the seconds the run spent
    in each of its four parts (``timings``: ``compute``, ``csv``, ``json``,
    ``svg``) and the run's ``health``
    numbers: for a bayes run, ``posterior_edge_mass``, the largest posterior
    weight in the prior grid's two edge cells together over every step and
    repetition; for a spectrum run, ``schur_residual_max``, the largest
    ``||U v - lambda v||`` over the eigenvectors.  ``threads`` reaches only
    the disorder msre ensemble; every other experiment runs serially.
    """
    start = time.perf_counter()
    out_dir = Path(out_dir)
    if cfg.experiment == "disorder":
        art = _run_disorder(cfg, threads)
    else:
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
    for csv_name, kind in art.plots:
        svg_name = Path(csv_name).stem + ".svg"
        plotting.render_plot(out_dir / csv_name, kind, out_dir / svg_name, art.csv[csv_name])
        emitted.append(svg_name)
    marks.append(time.perf_counter())
    timings = {part: end - begin
               for part, begin, end in zip(("compute", "csv", "json", "svg"), marks, marks[1:])}
    payload = {
        "artifact": "qwsense",
        "version": __version__,
        "experiment": cfg.experiment,
        "config": cfg.raw,
        "effective_seed": cfg.seed,
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
