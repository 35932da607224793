"""CLI flows: run/validate/plot, file schemas, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import qwsense
from qwsense import cli
from qwsense.bayes import EstimationConfig, estimation_curve, informative_schedule
from qwsense.walk import WalkParams

PI = math.pi

WALK = {"theta1_over_pi": 0.9, "theta2_over_pi": 0.75, "theta02_over_pi": -0.55}


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


def test_module_entry_point_runs_the_cli():
    repo = Path(__file__).resolve().parents[1]
    package_root = str(Path(qwsense.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "qwsense", "validate",
         "--config", str(repo / "configs" / "fi_scaling_nontrivial.json")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert "config ok" in done.stdout


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
        "estimation.schedule": {"experiment": "bayes", "steps": 30, "walk": WALK,
                                "estimation": {"prior_over_pi": [-1.0, 0.0], "schedule": [inf]}},
    }
    for field_name, doc in docs.items():
        assert cli.main(["validate", "--config", write_config(tmp_path, doc)]) == 2, field_name
        assert field_name in capsys.readouterr().err


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
                "schedule": [20, 30, 40, 50],
            },
        },
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["run", "--config", cfg, "--out", str(out_b)]) == 0
    assert manifest_hashes(out_a) == manifest_hashes(out_b)


def test_seed_override_changes_outputs(tmp_path):
    doc = {
        "experiment": "disorder",
        "steps": 30,
        "walk": WALK,
        "disorder": {"kind": "static", "half_width_over_pi": 0.05, "n_realizations": 3},
    }
    cfg = write_config(tmp_path, doc)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", cfg, "--out", str(out_a), "--seed", "1"]) == 0
    assert cli.main(["run", "--config", cfg, "--out", str(out_b), "--seed", "2"]) == 0
    assert (
        manifest_hashes(out_a)["ensemble.csv"] != manifest_hashes(out_b)["ensemble.csv"]
    )


def test_svg_rerender_is_byte_identical(tmp_path):
    cfg = write_config(
        tmp_path, {"experiment": "fi-scaling", "steps": 40, "walk": WALK}
    )
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    original = (out / "fi_series.svg").read_bytes()
    (out / "fi_series.svg").unlink()
    assert cli.main([
        "plot", "--data", str(out / "fi_series.csv"), "--kind", "scaling",
        "--out", str(out / "fi_series.svg"),
    ]) == 0
    assert (out / "fi_series.svg").read_bytes() == original


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


def test_gfi_qfi_emits_three_series(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "gfi-qfi", "steps": 25, "walk": WALK})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    for name in ("fi_series.csv", "gfi_series.csv", "qfi_series.csv"):
        header, rows = read_csv(out / name)
        assert header == ["t", "value", "flagged"]
        assert len(rows) == 26


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
                            "trials": 200, "schedule": [20, 30, 40]},
        },
    )
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "posterior.csv")
    assert header == ["t", "theta02_over_pi", "weight"]
    assert len(rows) == 3 * 21
    by_t = {}
    for row in rows:
        by_t.setdefault(row[0], []).append(float(row[2]))
    for weights in by_t.values():
        assert abs(sum(weights) - 1.0) < 1e-12
    header, rows = read_csv(out / "estimation.csv")
    assert header == ["t", "M", "m", "msre"]
    assert len(rows) == 3


def test_bayes_with_selected_schedule_matches_the_library_path(tmp_path):
    # the run reuses the selector's candidate table for the likelihood
    estimation = {"prior_over_pi": [-0.556, -0.544], "grid_points": 21, "trials": 200}
    doc = {"experiment": "bayes", "steps": 30, "seed": 5, "walk": WALK, "estimation": estimation}
    out = tmp_path / "out"
    assert cli.main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    _, rows = read_csv(out / "estimation.csv")
    params = WalkParams(0.9 * PI, 0.75 * PI, -0.55 * PI, 63)
    prior = (-0.556 * PI, -0.544 * PI)
    schedule = informative_schedule(params, prior, 6, 30, grid_points=21)
    config = EstimationConfig(params, prior, schedule, grid_points=21, trials=200, master_seed=5)
    expected = [(r.step, r.successes, r.msre) for r in estimation_curve(config).records]
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


def test_out_dir_env_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, {"experiment": "fi-scaling", "steps": 20, "walk": WALK})
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(env_dir))
    assert cli.main(["run", "--config", cfg]) == 0
    assert (env_dir / "fi_series.csv").exists()


def test_io_failure_exit_code(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "fi-scaling", "steps": 20, "walk": WALK})
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    assert cli.main(["run", "--config", cfg, "--out", str(blocker / "out")]) == 4


def test_plot_missing_column_names_it(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    rc = cli.main(["plot", "--data", str(bad), "--kind", "band",
                   "--out", str(tmp_path / "x.svg")])
    assert rc == 2
    assert "missing column 't'" in capsys.readouterr().err


def test_plot_empty_data_produces_no_data_annotation(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("t,value,flagged\n")
    out = tmp_path / "empty.svg"
    assert cli.main(["plot", "--data", str(empty), "--kind", "scaling",
                     "--out", str(out)]) == 0
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
    assert cli.main(["plot", "--data", str(data), "--kind", "heatmap",
                     "--out", str(out)]) == 0
    from qwsense.plotting import SENTINEL

    assert SENTINEL in out.read_text()


def test_scaling_plot_includes_guide_line(tmp_path):
    data = tmp_path / "fi.csv"
    lines = ["t,value,flagged"] + [f"{t},{float(t * t)},0" for t in range(1, 30)]
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "fi.svg"
    assert cli.main(["plot", "--data", str(data), "--kind", "scaling",
                     "--out", str(out)]) == 0
    assert "guide: t^+2" in out.read_text()
