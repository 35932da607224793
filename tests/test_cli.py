"""CLI flows: run/validate/plot, file schemas, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qwsense
from qwsense import cli, experiments
from qwsense.bayes import (
    EstimationConfig,
    candidate_probability_table,
    estimation_curve,
    informative_schedule,
)
from qwsense.config import validate_config
from qwsense.spectral import RESIDUAL_TOL, conjugate_pairing_max, decompose_step_operator
from qwsense.topology import phase_diagram
from qwsense.walk import WalkParams

PI = math.pi

WALK = {"theta1_over_pi": 0.9, "theta2_over_pi": 0.75, "theta02_over_pi": -0.55}

PRESETS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def manifest_hashes(out_dir):
    payload = json.loads((out_dir / "manifest.json").read_text())
    return {f["name"]: f["sha256"] for f in payload["files"]}


def test_validate_accepts_good_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "fi-scaling", "steps": 30, "walk": WALK})
    assert cli.main(["validate", "--config", cfg]) == 0
    assert "config ok" in capsys.readouterr().out


REPO = Path(__file__).resolve().parents[1]
FI_SCALING_PRESET = str(REPO / "configs" / "fi_scaling_nontrivial.json")


def run_python(*args):
    """A fresh interpreter that imports this qwsense, run to completion."""
    package_root = str(Path(qwsense.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)


def test_module_entry_point_runs_the_cli():
    done = run_python("-m", "qwsense", "validate", "--config", FI_SCALING_PRESET)
    assert done.returncode == 0, done.stderr
    assert "config ok" in done.stdout


SCIPY_PROBE = """
import runpy, sys
def scipy_loaded():
    return any(name.partition(".")[0] == "scipy" for name in sys.modules)
import qwsense
print("import", scipy_loaded())
sys.argv = ["qwsense", "validate", "--config", sys.argv[1]]
try:
    runpy.run_module("qwsense", run_name="__main__", alter_sys=True)
except SystemExit as done:
    print("exit", done.code)
print("validate", scipy_loaded())
"""


def test_cold_start_leaves_scipy_unimported():
    # only the dense spectrum factors a matrix; every other run skips scipy's import
    done = run_python("-c", SCIPY_PROBE, FI_SCALING_PRESET)
    assert done.returncode == 0, done.stderr
    first, checked, *last = done.stdout.splitlines()
    assert first == "import False"
    assert checked.startswith("config ok")
    assert last == ["exit 0", "validate False"]


COLD_RUN_PROBE = """
import runpy, sys
sys.argv = ["qwsense", "run", "--config", sys.argv[1], "--out", sys.argv[2]]
try:
    runpy.run_module("qwsense", run_name="__main__", alter_sys=True)
except SystemExit as done:
    print("exit", done.code)
print("scipy", any(name.partition(".")[0] == "scipy" for name in sys.modules))
print("scipy.linalg", "scipy.linalg" in sys.modules)
"""


@pytest.mark.parametrize(
    "preset, expected",
    [
        ("fi_scaling_nontrivial", ["scipy False", "scipy.linalg False"]),
        ("spectrum_defect", ["scipy.linalg False"]),
    ],
)
def test_cold_run_never_imports_scipy_linalg(tmp_path, preset, expected):
    # a spectrum run loads LAPACK's zgees wrapper without importing the
    # scipy.linalg package; a run that factors nothing imports no scipy at all
    config = str(REPO / "configs" / f"{preset}.json")
    done = run_python("-c", COLD_RUN_PROBE, config, str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "exit 0" in lines
    for line in expected:
        assert line in lines


def test_validate_reports_every_violation(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "fi-scaling",
            "steps": -5,
            "seed": -1,
            "walk": {"theta1_over_pi": "bad", "theta2_over_pi": 0.75, "lattice_size": 10},
        },
    )
    assert cli.main(["validate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "steps" in err
    assert "seed" in err
    assert "theta1_over_pi" in err
    assert "theta02_over_pi" in err  # missing angle also reported


def test_validate_rejects_lattice_the_walk_would_wrap(tmp_path, capsys):
    small = {**WALK, "lattice_size": 21}
    cfg = write_config(tmp_path, {"experiment": "fi-scaling", "steps": 100, "walk": small})
    assert cli.main(["validate", "--config", cfg]) == 2
    assert "walk.lattice_size" in capsys.readouterr().err
    # fi-surface propagates surface.steps, not the top-level steps
    surface = {"theta1_over_pi": [-0.9, 0.9, 3]}
    fits = {"experiment": "fi-surface", "walk": small, "surface": {**surface, "steps": 9}}
    assert cli.main(["validate", "--config", write_config(tmp_path, fits)]) == 0
    wraps = {"experiment": "fi-surface", "walk": small, "surface": {**surface, "steps": 10}}
    assert cli.main(["validate", "--config", write_config(tmp_path, wraps)]) == 2
    # and sizes its default lattice from surface.steps: 303 sites, not 2 * 100 + 3
    unsized = {"experiment": "fi-surface",
               "walk": {"theta1_over_pi": 0.9, "theta2_over_pi": 0.75, "theta02_over_pi": -0.99},
               "surface": {"theta1_over_pi": [-1, 1, 5], "steps": 150}}
    assert cli.main(["validate", "--config", write_config(tmp_path, unsized)]) == 0
    assert validate_config(unsized).walk.lattice_size == 303


def test_validate_rejects_non_finite_values(tmp_path, capsys):
    # Python's json reads NaN and Infinity; each must be a violation (exit 2)
    nan, inf = float("nan"), float("inf")
    grid = {"theta1_over_pi": [nan, 1.0, 5], "theta2_over_pi": [-1.0, inf, 5], "n_k": 64}
    docs = {
        "phase_grid": {"experiment": "phase-diagram", "phase_grid": grid},
        "surface": {"experiment": "fi-surface", "walk": WALK,
                    "surface": {"theta1_over_pi": [-1.0, 1.0, inf], "steps": 5}},
        "estimation.prior_over_pi": {"experiment": "bayes", "steps": 30, "walk": WALK,
                                     "estimation": {"prior_over_pi": [-inf, 0.0]}},
    }
    # a single number that a live rule reads
    numbers = {
        "steps": {"experiment": "fi-scaling", "steps": inf, "walk": WALK},
        "walk.theta02_over_pi": {"experiment": "fi-scaling", "steps": 30,
                                 "walk": {**WALK, "theta02_over_pi": nan}},
        "estimation.trials": {"experiment": "bayes", "steps": 30, "walk": WALK,
                              "estimation": {"prior_over_pi": [-1.0, 0.0], "trials": inf}},
        "disorder.half_width_over_pi": {"experiment": "disorder", "steps": 30, "walk": WALK,
                                        "disorder": {"kind": "static",
                                                     "half_width_over_pi": -inf}},
        "averaging.window": {"experiment": "avg-fi", "steps": 30, "walk": WALK,
                             "averaging": {"window": nan}},
    }
    for field_name, doc in {**docs, **numbers}.items():
        assert cli.main(["validate", "--config", write_config(tmp_path, doc)]) == 2, field_name
        err = capsys.readouterr().err
        assert field_name in err
        if field_name in numbers:
            assert f"  {field_name}: must be finite" in err


def test_validate_rejects_prior_that_leaves_out_theta02(tmp_path, capsys):
    def bayes(theta02, prior, experiment="bayes"):
        doc = {"experiment": experiment, "steps": 30,
               "walk": {**WALK, "theta02_over_pi": theta02},
               "estimation": {"prior_over_pi": prior}}
        if experiment == "disorder":
            doc["disorder"] = {"kind": "static", "observable": "msre"}
        return cli.main(["validate", "--config", write_config(tmp_path, doc)])

    assert bayes(-0.55, [-0.5, -0.4]) == 2
    assert "estimation.prior_over_pi" in capsys.readouterr().err
    assert bayes(-0.55, [-0.7, -0.56], "disorder") == 2
    assert "estimation.prior_over_pi" in capsys.readouterr().err
    # inside, on either edge, and windows across +-pi as written that hold
    # no mirror image 2c - theta02 (odd c) but theta02's own
    for theta02, prior in ((-0.55, [-0.556, -0.544]), (-0.556, [-0.556, -0.544]),
                           (-0.544, [-0.556, -0.544]), (1.02, [0.99, 1.05]),
                           (-0.98, [-1.01, -0.95]), (1.0, [0.98, 1.02]),
                           (-0.55, [-1.4, -0.5])):
        assert bayes(theta02, prior) == 0, (theta02, prior)
    # an angle 2 pi away is another walk (R(theta + 2 pi) = -R(theta)), not in the
    # window; one 4 pi away is the same walk (R(theta + 4 pi) = R(theta)), so a
    # window 4 pi wide holds the angle twice and splits the posterior
    for theta02, prior in ((-0.98, [0.95, 1.05]), (1.0, [-1.02, -0.98]),
                           (0.99, [-1.05, -0.95]), (-0.9, [0.95, 1.05]),
                           (-0.55, [-4.6, -0.5]), (-0.55, [-4.5, -0.5])):
        assert bayes(theta02, prior) == 2, (theta02, prior)
        assert "estimation.prior_over_pi" in capsys.readouterr().err
    # clicks read theta02 and its mirror alike: a window holding both split the
    # posterior, and -0.55 with [-1.5, -0.5] read an msre near 1 at every step
    for theta02, prior in ((1.02, [0.95, 1.05]), (-0.98, [-1.05, -0.95]),
                           (-0.55, [-4.4, -0.5]), (-0.55, [-1.5, -0.5]), (1.0, [0.98, 5.0])):
        assert bayes(theta02, prior) == 2, (theta02, prior)
        assert "a mirror image of walk.theta02_over_pi" in capsys.readouterr().err


def test_a_prior_window_across_pi_estimates_the_angle_as_written(tmp_path):
    # theta02 = 1.02 pi once walked as -0.98 pi while its candidates walked as
    # written, and every step's msre read ~4; -0.98 pi is another walk, so that
    # window leaves it out.  The window holds 1.02 but not its mirror 0.98
    def config(theta02):
        return write_config(tmp_path, {
            "experiment": "bayes", "steps": 40, "seed": 1,
            "walk": {**WALK, "theta02_over_pi": theta02},
            "estimation": {"prior_over_pi": [0.99, 1.05], "grid_points": 101,
                           "trials": 1000},
        })

    out = tmp_path / "out"
    assert cli.main(["run", "--config", config(1.02), "--out", str(out)]) == 0
    _, rows = read_csv(out / "estimation.csv")
    assert rows and all(float(row[3]) < 1e-2 for row in rows)
    assert cli.main(["validate", "--config", config(-0.98)]) == 2


@pytest.mark.parametrize("preset", PRESETS, ids=lambda path: path.name)
def test_every_preset_validates(preset):
    assert cli.main(["validate", "--config", str(preset)]) == 0


def test_validate_rejects_a_selected_schedule_without_two_steps(tmp_path, capsys):
    # the model-selected schedule picks from steps t_min < t_max <= steps
    def estimation(experiment, steps, command="validate"):
        section = {"prior_over_pi": [-0.556, -0.544], "grid_points": 11, "trials": 10}
        doc = {"experiment": experiment, "steps": steps, "walk": WALK, "estimation": section}
        if experiment == "disorder":
            doc["disorder"] = {"kind": "static", "observable": "msre", "n_realizations": 2}
        args = [command, "--config", write_config(tmp_path, doc)]
        if command == "run":
            args += ["--out", str(tmp_path / f"out-{experiment}-{steps}")]
        return cli.main(args)

    for experiment in ("bayes", "disorder"):
        assert estimation(experiment, 1) == 2
        assert "steps: an estimation run needs steps >= 2" in capsys.readouterr().err
        assert estimation(experiment, 2) == 0
        assert estimation(experiment, 2, command="run") == 0


def test_validate_rejects_a_fit_window_with_fewer_than_five_steps(tmp_path, capsys):
    def fi(steps, fit=None, experiment="fi-scaling", command="validate"):
        doc = {"experiment": experiment, "steps": steps, "walk": WALK}
        if fit is not None:
            doc["fit"] = fit
        if experiment == "disorder":
            doc["disorder"] = {"kind": "static", "n_realizations": 2}
        args = [command, "--config", write_config(tmp_path, doc)]
        if command == "run":
            args += ["--out", str(tmp_path / f"out-{steps}")]
        return cli.main(args)

    # the fit window is the steps 10..steps: steps sets its size, with or
    # without a fit section
    for steps, fit in ((8, None), (13, None), (13, {"mode": "peaks_only"})):
        assert fi(steps, fit) == 2, (steps, fit)
        assert capsys.readouterr().err.splitlines()[1:] == [
            f"  steps: an fi-scaling run needs steps >= 14: its fit window 10..steps must "
            f"cover at least 5 steps, got {steps}"
        ]
    for steps, fit in ((14, None), (14, {"mode": "all_points"})):
        assert fi(steps, fit) == 0, (steps, fit)
        assert fi(steps, fit, command="run") == 0, (steps, fit)
    # the disorder FI fit is optional: a short run still writes its ensemble
    assert fi(8, experiment="disorder") == 0


def test_validate_unknown_experiment(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "teleport"})
    assert cli.main(["validate", "--config", cfg]) == 2
    assert "experiment" in capsys.readouterr().err


def test_validate_rejects_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["validate", "--config", str(path)]) == 2


def test_missing_config_file_is_io_like_validation_error(tmp_path):
    assert cli.main(["validate", "--config", str(tmp_path / "absent.json")]) == 2


def test_phase_diagram_shape_contract(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "phase-diagram",
            "phase_grid": {
                "theta1_over_pi": [0.88, 0.92, 3],
                "theta2_over_pi": [0.73, 0.77, 3],
                "n_k": 256,
            },
        },
    )
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "phase_diagram.csv")
    assert header == ["theta1_over_pi", "theta2_over_pi", "winding", "min_gap", "status"]
    assert len(rows) == 9
    assert {row[4] for row in rows} == {"gapped"}


def test_gapless_entries_have_empty_winding(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "phase-diagram",
            "phase_grid": {
                "theta1_over_pi": [0.75, 0.75, 1],
                "theta2_over_pi": [0.75, 0.75, 1],
                "n_k": 256,
            },
        },
    )
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "phase_diagram.csv")
    assert rows[0][2] == ""
    assert rows[0][4] == "gapless"


def test_fi_scaling_outputs_and_fit(tmp_path):
    cfg = write_config(
        tmp_path,
        {"experiment": "fi-scaling", "steps": 100, "walk": WALK, "seed": 3},
    )
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "fi_series.csv")
    assert header == ["t", "value", "flagged"]
    assert len(rows) == 101
    fit = json.loads((out / "fit.json").read_text())
    assert 1.8 <= fit["exponent"] <= 2.2
    health = json.loads((out / "manifest.json").read_text())["health"]
    assert health == {"fit_points": fit["n_points"]}


SHORT_FITS = {
    # theta2 = 0 with a tiny theta02: FI is 0 at about half the steps, and
    # peaks_only keeps 2 interior maxima in the window 10..20
    "fi-scaling": ({"experiment": "fi-scaling", "steps": 20,
                    "walk": {"theta1_over_pi": 0.5, "theta2_over_pi": 0.0,
                             "theta02_over_pi": 1e-9},
                    "fit": {"mode": "peaks_only"}}, "fi_series.csv", 2),
    # the window 10..12 holds 3 steps
    "disorder": ({"experiment": "disorder", "steps": 12, "walk": WALK,
                  "disorder": {"kind": "static", "n_realizations": 2}}, "ensemble.csv", 3),
    # the informative schedule picks each of the steps 1..4, and the fit
    # window is its first and last step
    "bayes": ({"experiment": "bayes", "steps": 4, "walk": WALK,
               "estimation": {"prior_over_pi": [-0.556, -0.544], "grid_points": 11,
                              "trials": 10}}, "estimation.csv", 4),
}


@pytest.mark.parametrize("experiment", sorted(SHORT_FITS))
def test_a_short_fit_writes_the_series_and_no_fit(tmp_path, experiment):
    # fi-scaling once exited 2 after walking and wrote nothing, while a
    # disorder run left out fit.json with no word; every run that fits now
    # keeps its series, leaves out fit.json and counts the fit's points
    doc, series, points = SHORT_FITS[experiment]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert cli.main(["validate", "--config", cfg]) == 0
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / series).exists()
    assert not (out / "fit.json").exists()
    health = json.loads((out / "manifest.json").read_text())["health"]
    if experiment == "bayes":
        # a bayes run reports its posterior's numbers beside the fit's
        assert health.pop("posterior_edge_mass") >= 0
        assert health.pop("posterior_min_std_cells") > 0
    assert health == {"fit_points": points}


def test_rerun_reproduces_identical_hashes(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "bayes",
            "steps": 50,
            "seed": 11,
            "walk": WALK,
            "estimation": {
                "prior_over_pi": [-0.556, -0.544],
                "grid_points": 61,
                "trials": 400,
            },
        },
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["run", "--config", cfg, "--out", str(out_b)]) == 0
    assert manifest_hashes(out_a) == manifest_hashes(out_b)


GRID = {"theta1_over_pi": [-1.0, 1.0, 3], "theta2_over_pi": [-1.0, 1.0, 3], "n_k": 64}
ESTIMATION = {"prior_over_pi": [-0.556, -0.544], "grid_points": 11, "trials": 10}
# one small run per experiment kind, and the SVGs it draws
SMALL_RUNS = [
    ({"experiment": "fi-scaling", "steps": 20, "walk": WALK}, ["fi_series.svg"]),
    ({"experiment": "avg-fi", "steps": 20, "walk": WALK,
      "averaging": {"window": 3, "spacing": 2}}, ["avg_fi_series.svg"]),
    ({"experiment": "gfi-qfi", "steps": 20, "walk": WALK},
     ["fi_series.svg", "gfi_series.svg", "qfi_series.svg"]),
    ({"experiment": "fi-surface", "walk": WALK,
      "surface": {"theta1_over_pi": [-0.95, 0.95, 3], "steps": 12}}, ["fi_surface.svg"]),
    ({"experiment": "phase-diagram", "phase_grid": GRID}, ["phase_diagram.svg"]),
    ({"experiment": "bayes", "steps": 20, "walk": WALK, "estimation": ESTIMATION},
     ["estimation.svg", "posterior.svg"]),
    ({"experiment": "disorder", "steps": 20, "walk": WALK,
      "disorder": {"kind": "static", "n_realizations": 2}}, ["ensemble.svg"]),
    ({"experiment": "disorder", "steps": 20, "walk": WALK,
      "disorder": {"kind": "dynamic", "n_realizations": 2}}, ["ensemble.svg"]),
    ({"experiment": "disorder", "steps": 20, "walk": WALK, "estimation": ESTIMATION,
      "disorder": {"kind": "static", "observable": "msre", "n_realizations": 2}},
     ["ensemble.svg"]),
    ({"experiment": "spectrum", "walk": {**WALK, "lattice_size": 11}}, []),
]


def test_svg_rerender_is_byte_identical(tmp_path):
    # each run draws the SVGs it always drew, and qwsense plot, which reads
    # the plot from the CSV's header, redraws each byte for byte
    replot = tmp_path / "replot.svg"
    for i, (doc, svgs) in enumerate(SMALL_RUNS):
        out = tmp_path / f"out{i}"
        assert cli.main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        assert sorted(path.name for path in out.glob("*.svg")) == svgs, doc
        for svg in svgs:
            data = str((out / svg).with_suffix(".csv"))
            assert cli.main(["plot", "--data", data, "--out", str(replot)]) == 0
            assert replot.read_bytes() == (out / svg).read_bytes(), (doc, svg)


def test_spectrum_schema_and_localized_states(tmp_path):
    cfg = write_config(
        tmp_path,
        {"experiment": "spectrum", "walk": {**WALK, "lattice_size": 101}},
    )
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "spectrum.csv")
    assert header == ["index", "quasi_energy", "ipr", "is_localized"]
    assert len(rows) == 202
    localized = [row for row in rows if row[3] == "1"]
    assert len(localized) == 2
    states = json.loads((out / "localized_states.json").read_text())
    assert len(states) == 2
    assert states[0]["localization_length"] > 0


def test_manifest_reports_the_schur_residual(tmp_path):
    walk = {**WALK, "theta02_over_pi": -1.0, "lattice_size": 41}
    cfg = write_config(tmp_path, {"experiment": "spectrum", "walk": walk})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    health = json.loads((out / "manifest.json").read_text())["health"]
    decomp = decompose_step_operator(WalkParams(0.9 * PI, 0.75 * PI, -PI, 41))
    bulk = phase_diagram(0.9 * PI, 0.75 * PI)[0][0]
    assert health == {"schur_residual_max": float(decomp.residuals.max()),
                      "conjugate_pairing_max": conjugate_pairing_max(decomp.eigenvalues),
                      "bulk_min_gap": bulk.min_gap}
    assert 0.0 < health["schur_residual_max"] < RESIDUAL_TOL
    # the step matrix is real: each eigenvalue's conjugate is an eigenvalue too
    assert 0.0 <= health["conjugate_pairing_max"] < 1e-12


def boundary_margin(walk):
    """||c2 s1| - |s2 c1|| with c_i, s_i = cos, sin(theta_i / 2): 0 on the phase boundary.

    It is the band-edge gap in exact arithmetic: ||a| - |b|| = min(|a - b|,
    |a + b|), and c2 s1 -+ s2 c1 = sin((theta1 -+ theta2) / 2), whose
    magnitudes are sin E at the band edges k = 0 and k = -pi.
    """
    half1, half2 = walk["theta1_over_pi"] * PI / 2.0, walk["theta2_over_pi"] * PI / 2.0
    return abs(abs(math.cos(half2) * math.sin(half1)) - abs(math.sin(half2) * math.cos(half1)))


def test_spectrum_health_reads_the_phase_boundary(tmp_path):
    # the preset's bulk sits well inside the winding-1 phase; theta1 = 0.76 pi
    # is 0.01 pi from the boundary theta1 = theta2, where the gap closes
    def bulk_health(doc, name):
        out = tmp_path / name
        cfg = write_config(tmp_path, doc, f"{name}.json")
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        health = json.loads((out / "manifest.json").read_text())["health"]
        return health["bulk_min_gap"], boundary_margin(doc["walk"])

    preset = json.loads((REPO / "configs" / "spectrum_defect.json").read_text())
    far_gap, far_margin = bulk_health(preset, "preset")
    walk = {**preset["walk"], "theta1_over_pi": 0.76, "lattice_size": 21}
    near_gap, near_margin = bulk_health({**preset, "walk": walk}, "near")
    assert 0.0 < near_margin < far_margin
    assert 0.0 < near_gap < far_gap
    # two formulas for one number: the closed-form margin is the recorded gap
    assert near_gap == pytest.approx(near_margin, rel=0, abs=1e-12)
    assert far_gap == pytest.approx(far_margin, rel=0, abs=1e-12)


def test_gfi_qfi_emits_three_series(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "gfi-qfi", "steps": 25, "walk": WALK})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    for name in ("fi_series.csv", "gfi_series.csv", "qfi_series.csv"):
        header, rows = read_csv(out / name)
        assert header == ["t", "value", "flagged"]
        assert len(rows) == 26


def test_manifest_reports_the_heisenberg_ratio(tmp_path):
    # theta02's generator has spectral range 1, so QFI(t) <= t^2.  At the paper's
    # point (theta2 = 0.3 pi, theta02 = 0.2 pi, T = 200) the nontrivial walk
    # (theta1 = 0.9 pi) ends at a third of the limit and the trivial one
    # (0.05 pi) at a thousandth: values measured here, pinned to 1e-3 relative
    health = {}
    for theta1, final in ((0.9, 0.35963), (0.05, 8.6506e-4)):
        walk = {"theta1_over_pi": theta1, "theta2_over_pi": 0.3, "theta02_over_pi": 0.2}
        cfg = write_config(tmp_path, {"experiment": "gfi-qfi", "steps": 200, "walk": walk})
        out = tmp_path / f"out-{theta1}"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        health[theta1] = json.loads((out / "manifest.json").read_text())["health"]
        qfi = np.array([float(row[1]) for row in read_csv(out / "qfi_series.csv")[1]])
        per_t2 = qfi[1:] / np.arange(1, 201) ** 2
        assert health[theta1] == {"qfi_over_t2_max": per_t2.max(),
                                  "qfi_over_t2_final": per_t2[-1]}
        assert per_t2[-1] <= per_t2.max() <= 1.0 + 1e-9
        assert per_t2[-1] == pytest.approx(final, rel=1e-3)
    for key in ("qfi_over_t2_max", "qfi_over_t2_final"):
        assert health[0.9][key] > health[0.05][key]


def test_avg_fi_emits_base_and_averaged(tmp_path):
    cfg = write_config(
        tmp_path,
        {"experiment": "avg-fi", "steps": 60, "walk": WALK,
         "averaging": {"window": 5, "spacing": 5}},
    )
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    _, base_rows = read_csv(out / "fi_series.csv")
    _, avg_rows = read_csv(out / "avg_fi_series.csv")
    assert len(base_rows) == 61
    assert len(avg_rows) == 41  # starts 0..40 admit a full window


def test_fi_surface_schema(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "fi-surface",
            "walk": {"theta2_over_pi": 0.75, "theta02_over_pi": -0.99,
                     "theta1_over_pi": 0.9, "lattice_size": 43},
            "surface": {"theta1_over_pi": [-0.95, 0.95, 5], "steps": 20},
        },
    )
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "fi_surface.csv")
    assert header == ["theta1_over_pi", "t", "value", "flagged"]
    assert len(rows) == 5 * 21


def test_ensemble_schema(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "disorder",
            "steps": 30,
            "walk": WALK,
            "disorder": {"kind": "dynamic", "half_width_over_pi": 0.05,
                          "n_realizations": 4},
        },
    )
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "ensemble.csv")
    assert header == ["t", "mean", "std", "n_realizations"]
    assert len(rows) == 31
    assert all(row[3] == "4" for row in rows)


def test_posterior_schema_and_weights(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "bayes",
            "steps": 40,
            "walk": WALK,
            "estimation": {"prior_over_pi": [-0.556, -0.544], "grid_points": 21,
                            "trials": 200},
        },
    )
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "estimation.csv")
    assert header == ["t", "M", "m", "msre"]
    scheduled = [row[0] for row in rows]
    assert len(scheduled) >= 2
    header, rows = read_csv(out / "posterior.csv")
    assert header == ["t", "theta02_over_pi", "weight"]
    assert len(rows) == len(scheduled) * 21
    by_t, grids = {}, {}
    for row in rows:
        by_t.setdefault(row[0], []).append(float(row[2]))
        grids.setdefault(row[0], []).append(float(row[1]))
    assert list(by_t) == scheduled
    for weights in by_t.values():
        assert abs(sum(weights) - 1.0) < 1e-12
    # every step's candidates are the config's prior grid, in units of pi
    for grid in grids.values():
        np.testing.assert_allclose(grid, np.linspace(-0.556, -0.544, 21), rtol=1e-15)


def test_manifest_reports_posterior_mass_at_the_prior_edge(tmp_path):
    # a window with theta02 = -0.55 in its first cell piles posterior mass
    # there; the centred window's edges hold only the tails of early, wide posteriors
    def edge_mass(prior):
        doc = {"experiment": "bayes", "steps": 40, "walk": WALK,
               "estimation": {"prior_over_pi": prior, "grid_points": 21, "trials": 200,
                              "repetitions": 3}}
        out = tmp_path / str(prior)
        assert cli.main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        return json.loads((out / "manifest.json").read_text())["health"]["posterior_edge_mass"]

    centred, edge = edge_mass([-0.556, -0.544]), edge_mass([-0.5502, -0.5382])
    assert 0.0 < 2 * centred < edge <= 1.0


def test_manifest_reports_posterior_resolution(tmp_path):
    estimation = {"prior_over_pi": [-0.556, -0.544], "grid_points": 21, "trials": 200,
                  "repetitions": 2}
    doc = {"experiment": "bayes", "steps": 40, "seed": 3, "walk": WALK, "estimation": estimation}
    out = tmp_path / "out"
    assert cli.main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    health = json.loads((out / "manifest.json").read_text())["health"]
    params = WalkParams(0.9 * PI, 0.75 * PI, -0.55 * PI, 83)
    prior = (-0.556 * PI, -0.544 * PI)
    candidates = np.linspace(*prior, 21)
    schedule = informative_schedule(candidate_probability_table(params, candidates, range(8, 41)), 8)
    config = EstimationConfig(params, prior, schedule, grid_points=21, trials=200,
                              master_seed=3, repetitions=2)
    table = candidate_probability_table(params, config.candidates(), config.schedule)
    posterior_std = estimation_curve(config, table).posterior_std
    spacing = (prior[1] - prior[0]) / 20
    assert health["posterior_min_std_cells"] == posterior_std.min() / spacing
    assert health["posterior_min_std_cells"] > 0


def test_bayes_with_selected_schedule_matches_the_library_path(tmp_path):
    # the run reuses the selector's candidate table for the likelihood
    estimation = {"prior_over_pi": [-0.556, -0.544], "grid_points": 21, "trials": 200}
    doc = {"experiment": "bayes", "steps": 30, "seed": 5, "walk": WALK, "estimation": estimation}
    out = tmp_path / "out"
    assert cli.main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    _, rows = read_csv(out / "estimation.csv")
    params = WalkParams(0.9 * PI, 0.75 * PI, -0.55 * PI, 63)
    prior = (-0.556 * PI, -0.544 * PI)
    candidates = np.linspace(*prior, 21)
    schedule = informative_schedule(candidate_probability_table(params, candidates, range(6, 31)), 6)
    config = EstimationConfig(params, prior, schedule, grid_points=21, trials=200, master_seed=5)
    table = candidate_probability_table(params, candidates, schedule)
    curve = estimation_curve(config, table)
    expected = list(zip(config.schedule, curve.successes.tolist(), curve.msre.tolist()))
    assert [(int(t), int(m), float(e)) for t, _, m, e in rows] == expected


def test_manifest_lists_each_file_with_hash(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "fi-scaling", "steps": 30, "walk": WALK})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "manifest.json").read_text())
    assert payload["experiment"] == "fi-scaling"
    assert payload["rng"]["generator"] == "numpy-pcg64"
    assert payload["schemas"]["fi_series.csv"] == ["t", "value", "flagged"]
    names = {f["name"] for f in payload["files"]}
    assert "manifest.json" not in names
    for entry in payload["files"]:
        assert len(entry["sha256"]) == 64
        assert (out / entry["name"]).exists()


def test_manifest_times_each_part_of_the_run(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "gfi-qfi", "steps": 30, "walk": WALK})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "manifest.json").read_text())
    timings = payload["timings"]
    assert list(timings) == ["compute", "csv", "json", "svg"]
    assert all(seconds >= 0.0 for seconds in timings.values())
    assert sum(timings.values()) <= payload["duration_seconds"]


def test_manifest_records_blas_thread_settings(tmp_path, monkeypatch):
    # spectrum.csv bits depend on the BLAS thread count, so runs must tell it apart
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfg = write_config(tmp_path, {"experiment": "fi-scaling", "steps": 20, "walk": WALK})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "manifest.json").read_text())
    assert payload["blas_threads"] == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None,
    }


# one small run per experiment kind, and per disorder observable
KIND_DOCS = {
    "fi-scaling": {"experiment": "fi-scaling", "steps": 20, "walk": WALK},
    "fi-surface": {"experiment": "fi-surface", "walk": WALK,
                   "surface": {"theta1_over_pi": [-1.0, 1.0, 3], "steps": 12}},
    "phase-diagram": {"experiment": "phase-diagram",
                      "phase_grid": {"theta1_over_pi": [-1.0, 1.0, 3],
                                     "theta2_over_pi": [-1.0, 1.0, 3], "n_k": 64}},
    "spectrum": {"experiment": "spectrum", "walk": {**WALK, "lattice_size": 11}},
    "bayes": {"experiment": "bayes", "steps": 30, "walk": WALK,
              "estimation": {"prior_over_pi": [-0.556, -0.544], "grid_points": 11,
                             "trials": 10}},
    "avg-fi": {"experiment": "avg-fi", "steps": 30, "walk": WALK,
               "averaging": {"window": 3, "spacing": 2}},
    "gfi-qfi": {"experiment": "gfi-qfi", "steps": 20, "walk": WALK},
    "disorder-fi": {"experiment": "disorder", "steps": 30, "walk": WALK,
                    "disorder": {"kind": "static", "observable": "fi", "n_realizations": 2}},
    "disorder-msre": {"experiment": "disorder", "steps": 30, "walk": WALK,
                      "disorder": {"kind": "static", "observable": "msre",
                                   "n_realizations": 2},
                      "estimation": {"prior_over_pi": [-0.556, -0.544], "grid_points": 11,
                                     "trials": 10}},
}


# the data file of each run that draws random numbers; every other run draws none
SEEDED = {"bayes": "estimation.csv", "disorder-fi": "ensemble.csv",
          "disorder-msre": "ensemble.csv"}


@pytest.mark.parametrize("kind", list(KIND_DOCS))
def test_only_runs_that_draw_depend_on_the_seed(tmp_path, kind):
    # a deterministic run's files keep their bytes at every seed
    hashes = []
    for seed in (1, 2):
        cfg = write_config(tmp_path, {**KIND_DOCS[kind], "seed": seed})
        out = tmp_path / f"seed-{seed}"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        hashes.append(manifest_hashes(out))
    if kind in SEEDED:
        assert hashes[0][SEEDED[kind]] != hashes[1][SEEDED[kind]]
    else:
        assert hashes[0] == hashes[1]


@pytest.mark.parametrize("kind", ["fi-scaling", "fi-surface", "avg-fi", "bayes"])
def test_clean_defect_only_runs_do_not_depend_on_the_ring_size(tmp_path, kind):
    # a T-step walk stays inside its light cone, which 2T + 3 sites hold, so a
    # larger ring changes no data bit; static disorder draws one angle per site
    # and gfi-qfi sums whole rows, so those runs do read the ring size
    doc = KIND_DOCS[kind]
    steps = doc["surface"]["steps"] if kind == "fi-surface" else doc["steps"]
    hashes = []
    for lattice_size in (2 * steps + 3, 2 * steps + 43):
        cfg = write_config(tmp_path, {**doc, "walk": {**WALK, "lattice_size": lattice_size}})
        out = tmp_path / f"ring-{lattice_size}"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        hashes.append(manifest_hashes(out))
    assert hashes[0] == hashes[1]


@pytest.mark.parametrize("flag, value", [("--seed", "1"), ("--threads", "2")])
def test_run_reads_the_config_and_out_only(tmp_path, capsys, flag, value):
    # the config's seed is the one seed, and every run is serial
    cfg = write_config(tmp_path, KIND_DOCS["disorder-msre"])
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as caught:
        cli.main(["run", "--config", cfg, "--out", str(out), flag, value])
    assert caught.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_a_negative_seed_override(tmp_path, capsys):
    # a negative seed stops the run before it writes, from the config or the command line
    fi = {"experiment": "fi-scaling", "steps": 30, "walk": WALK}
    for doc, seed in ((fi, -5), (KIND_DOCS["disorder-msre"], -1)):
        out = tmp_path / "out"
        args = ["run", "--config", write_config(tmp_path, {**doc, "seed": seed}), "--out", str(out)]
        assert cli.main(args) == 2
        assert f"seed: must be >= 0, got {seed}" in capsys.readouterr().err
        assert not out.exists()
        cfg = write_config(tmp_path, doc)
        with pytest.raises(SystemExit) as caught:
            cli.main(["run", "--config", cfg, "--out", str(out), "--seed", str(seed)])
        assert caught.value.code == 2
        assert f"unrecognized arguments: --seed {seed}" in capsys.readouterr().err
        assert not out.exists()


def test_an_estimation_run_rejects_a_theta02_whose_square_underflows(tmp_path, capsys):
    # theta02 = 1e-300 pi passed the == 0 check: validate said ok, and the run
    # walked, then divided by theta02 ** 2 = 0.0 (exit 1, ZeroDivisionError)
    doc = {"experiment": "bayes", "steps": 30, "walk": {**WALK, "theta02_over_pi": 1e-300},
           "estimation": {"prior_over_pi": [-0.5, 0.5], "grid_points": 11, "trials": 100}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    for args in (["validate", "--config", cfg], ["run", "--config", cfg, "--out", str(out)]):
        assert cli.main(args) == 2
        assert ("walk.theta02_over_pi: must not be 0 for an estimation run"
                in capsys.readouterr().err)
    assert not out.exists()


def test_run_rejects_any_thread_count_but_one(tmp_path):
    cfg = validate_config(KIND_DOCS["disorder-msre"])
    with pytest.raises(ValueError, match="threads: every run is serial, got 2"):
        experiments.run(cfg, tmp_path / "out", threads=2)
    assert not (tmp_path / "out").exists()


def test_io_failure_exit_code(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "fi-scaling", "steps": 20, "walk": WALK})
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    assert cli.main(["run", "--config", cfg, "--out", str(blocker / "out")]) == 4


def test_plot_missing_column_names_it(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("mean,std,n_realizations\n1,2,3\n")  # std picks the band plot, which reads t
    rc = cli.main(["plot", "--data", str(bad), "--out", str(tmp_path / "x.svg")])
    assert rc == 2
    assert f"{bad}: missing column 't'" in capsys.readouterr().err


def test_plot_empty_data_produces_no_data_annotation(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("t,value,flagged\n")
    out = tmp_path / "empty.svg"
    assert cli.main(["plot", "--data", str(empty), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("<svg")
    assert "no data" in text


def test_plot_heatmap_marks_gapless_with_sentinel(tmp_path):
    data = tmp_path / "pd.csv"
    data.write_text(
        "theta1_over_pi,theta2_over_pi,winding,min_gap,status\n"
        "0.7,0.75,0,0.1,gapped\n"
        "0.75,0.75,,1e-09,gapless\n"
        "0.8,0.75,1,0.1,gapped\n"
    )
    out = tmp_path / "pd.svg"
    assert cli.main(["plot", "--data", str(data), "--out", str(out)]) == 0
    from qwsense.plotting import SENTINEL

    assert SENTINEL in out.read_text()


def test_scaling_plot_includes_guide_line(tmp_path):
    data = tmp_path / "fi.csv"
    lines = ["t,value,flagged"] + [f"{t},{float(t * t)},0" for t in range(1, 30)]
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "fi.svg"
    assert cli.main(["plot", "--data", str(data), "--out", str(out)]) == 0
    assert "guide: t^+2" in out.read_text()
