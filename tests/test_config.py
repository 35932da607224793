"""Config validation: one minimal bad document per rule, unknown names, and
every benchmark job document."""

import json
import sys
from pathlib import Path

import pytest

from qwsense import cli
from qwsense.config import validate_config

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.jobs import WORKLOADS, job_list, warmup_jobs  # noqa: E402

WALK = {"theta1_over_pi": 0.9, "theta2_over_pi": 0.75, "theta02_over_pi": -0.55}
FI = {"experiment": "fi-scaling", "steps": 30, "walk": WALK}
GRID = {"theta1_over_pi": [-1.0, 1.0, 3], "theta2_over_pi": [-1.0, 1.0, 3], "n_k": 64}
PHASE = {"experiment": "phase-diagram", "phase_grid": GRID}
SURFACE = {"experiment": "fi-surface", "walk": WALK,
           "surface": {"theta1_over_pi": [-1.0, 1.0, 3], "steps": 12}}
ESTIMATION = {"prior_over_pi": [-0.556, -0.544], "grid_points": 11, "trials": 10}
BAYES = {"experiment": "bayes", "steps": 30, "walk": WALK, "estimation": ESTIMATION}
DISORDER = {"experiment": "disorder", "steps": 30, "walk": WALK,
            "disorder": {"kind": "static", "observable": "fi", "n_realizations": 2}}
AVERAGING = {"experiment": "avg-fi", "steps": 30, "walk": WALK,
             "averaging": {"window": 3, "spacing": 2}}
SPECTRUM = {"experiment": "spectrum", "walk": {**WALK, "lattice_size": 11}}


def with_(doc, **changes):
    """``doc`` with top-level keys replaced; a ``section__key`` name edits one key."""
    doc = json.loads(json.dumps(doc))
    for name, value in changes.items():
        section, _, key = name.partition("__")
        if key:
            doc[section][key] = value
        else:
            doc[section] = value
    return doc


def without(doc, section, key=None):
    doc = json.loads(json.dumps(doc))
    if key is None:
        del doc[section]
    else:
        del doc[section][key]
    return doc


# (id, document, the start of the violation it must report)
RULES = [
    ("seed-negative", with_(FI, seed=-1), "seed:"),
    ("seed-fraction", with_(FI, seed=1.5), "seed:"),
    ("out_dir", with_(FI, out_dir=7), "out_dir:"),
    # every run writes all its files: no rule reads a format list
    ("formats-unknown", with_(FI, formats=["csv"]), "formats: unknown name"),
    ("steps-zero", with_(FI, steps=0), "steps:"),
    ("steps-fraction", with_(FI, steps=2.5), "steps:"),
    ("fit-not-an-object", with_(FI, fit=[1]), "fit:"),
    ("fit.mode", with_(FI, fit={"mode": "best"}), "fit.mode:"),
    ("fit.t_min", with_(FI, fit={"t_min": 0}), "fit.t_min:"),
    ("fit.t_max", with_(FI, fit={"t_max": "end"}), "fit.t_max:"),
    ("fit-window-coverage", with_(FI, fit={"t_min": 28}), "fit:"),
    # only fi-scaling and disorder-FI runs fit; elsewhere fit was silently ignored
    ("fit-on-gfi-qfi", with_(FI, experiment="gfi-qfi", fit={"t_min": 30, "mode": "peaks_only"}),
     "fit: read only"),
    ("fit-on-bayes", with_(BAYES, fit={"mode": "peaks_only"}), "fit: read only"),
    ("fit-on-msre", with_(DISORDER, disorder__observable="msre", estimation=ESTIMATION, fit={}),
     "fit: read only"),
    ("fit-on-phase-diagram", with_(PHASE, fit={"t_min": 10}), "fit: read only"),
    ("walk-missing", without(FI, "walk"), "walk:"),
    ("walk.theta1-missing", without(FI, "walk", "theta1_over_pi"), "walk.theta1_over_pi:"),
    ("walk.theta2-not-a-number", with_(FI, walk__theta2_over_pi="x"), "walk.theta2_over_pi:"),
    ("walk.theta02-infinite", with_(FI, walk__theta02_over_pi=float("inf")),
     "walk.theta02_over_pi:"),
    ("walk.lattice_size-small", with_(FI, walk__lattice_size=1), "walk.lattice_size:"),
    ("walk.lattice_size-even", with_(FI, walk__lattice_size=64), "walk: lattice_size"),
    ("walk.lattice_size-wraps", with_(FI, walk__lattice_size=61), "walk.lattice_size:"),
    ("surface-lattice-wraps", with_(SURFACE, walk__lattice_size=25), "walk.lattice_size:"),
    ("spectrum-lattice-cap", with_(SPECTRUM, walk__lattice_size=513), "walk.lattice_size:"),
    ("phase_grid-missing", without(PHASE, "phase_grid"), "phase_grid:"),
    ("phase_grid.theta1-missing", without(PHASE, "phase_grid", "theta1_over_pi"),
     "phase_grid.theta1_over_pi:"),
    ("phase_grid.theta1-pair", with_(PHASE, phase_grid__theta1_over_pi=[-1.0, 1.0]),
     "phase_grid.theta1_over_pi:"),
    ("phase_grid.theta2-count-zero", with_(PHASE, phase_grid__theta2_over_pi=[-1.0, 1.0, 0]),
     "phase_grid.theta2_over_pi:"),
    ("phase_grid.theta2-count-fraction",
     with_(PHASE, phase_grid__theta2_over_pi=[-1.0, 1.0, 2.5]), "phase_grid.theta2_over_pi:"),
    ("phase_grid.n_k", with_(PHASE, phase_grid__n_k=63), "phase_grid.n_k:"),
    ("surface-missing", without(SURFACE, "surface"), "surface:"),
    ("surface.theta1-count-zero", with_(SURFACE, surface__theta1_over_pi=[-1.0, 1.0, 0]),
     "surface.theta1_over_pi:"),
    ("surface.steps-zero", with_(SURFACE, surface__steps=0), "surface.steps:"),
    ("estimation-missing", without(BAYES, "estimation"), "estimation:"),
    ("estimation.prior-missing", without(BAYES, "estimation", "prior_over_pi"),
     "estimation.prior_over_pi:"),
    ("estimation.prior-reversed", with_(BAYES, estimation__prior_over_pi=[-0.544, -0.556]),
     "estimation.prior_over_pi:"),
    ("estimation.prior-leaves-out-theta02",
     with_(BAYES, estimation__prior_over_pi=[-0.5, -0.4]), "estimation.prior_over_pi:"),
    ("estimation.grid_points", with_(BAYES, estimation__grid_points=10),
     "estimation.grid_points:"),
    ("estimation.trials", with_(BAYES, estimation__trials=0), "estimation.trials:"),
    ("estimation.repetitions", with_(BAYES, estimation__repetitions=0),
     "estimation.repetitions:"),
    ("estimation.schedule-empty", with_(BAYES, estimation__schedule=[]),
     "estimation.schedule:"),
    ("estimation.schedule-past-steps", with_(BAYES, estimation__schedule=[10, 31]),
     "estimation.schedule:"),
    ("estimation.schedule-fraction", with_(BAYES, estimation__schedule=[10.5]),
     "estimation.schedule:"),
    ("selected-schedule-steps", with_(BAYES, steps=1), "steps:"),
    # the relative error divides by theta02: the run used to walk, then crash
    ("theta02-zero-bayes", with_(BAYES, walk__theta02_over_pi=0.0,
                                 estimation__prior_over_pi=[-0.01, 0.01]),
     "walk.theta02_over_pi:"),
    ("theta02-zero-msre", with_(DISORDER, disorder__observable="msre",
                                walk={**WALK, "theta02_over_pi": 2.0},
                                estimation={**ESTIMATION, "prior_over_pi": [-0.01, 0.01]}),
     "walk.theta02_over_pi:"),
    ("disorder-missing", without(DISORDER, "disorder"), "disorder:"),
    ("disorder.kind", with_(DISORDER, disorder__kind="frozen"), "disorder.kind:"),
    ("disorder.observable", with_(DISORDER, disorder__observable="qfi"),
     "disorder.observable:"),
    ("disorder.half_width", with_(DISORDER, disorder__half_width_over_pi=-0.1),
     "disorder.half_width_over_pi:"),
    ("disorder.n_realizations", with_(DISORDER, disorder__n_realizations=0),
     "disorder.n_realizations:"),
    ("msre-estimation-missing", with_(DISORDER, disorder__observable="msre"), "estimation:"),
    ("averaging-not-an-object", with_(AVERAGING, averaging=5), "averaging:"),
    ("averaging.window", with_(AVERAGING, averaging__window=0), "averaging.window:"),
    ("averaging.spacing", with_(AVERAGING, averaging__spacing=1.5), "averaging.spacing:"),
    ("averaging-span", with_(AVERAGING, averaging__window=16), "averaging:"),
]


def validate(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return cli.main(["validate", "--config", str(path)])


@pytest.mark.parametrize("good", [FI, PHASE, SURFACE, BAYES, DISORDER, AVERAGING, SPECTRUM],
                         ids=lambda doc: doc["experiment"])
def test_every_base_document_validates(tmp_path, good):
    assert validate(tmp_path, good) == 0


@pytest.mark.parametrize("doc, violation", [case[1:] for case in RULES],
                         ids=[case[0] for case in RULES])
def test_each_rule_rejects_its_document_and_names_the_field(tmp_path, capsys, doc, violation):
    assert validate(tmp_path, doc) == 2
    assert f"\n  {violation}" in capsys.readouterr().err


def test_unknown_names_are_rejected_together(tmp_path, capsys):
    # each misspelling used to validate, and the run then read the default
    doc = {"experiment": "fi-scaling", "step": 40, "walk": {**WALK, "lattice": 21},
           "fit": {"tmin": 30}}
    assert validate(tmp_path, doc) == 2
    err = capsys.readouterr().err
    for name in ("step", "walk.lattice", "fit.tmin"):
        assert f"\n  {name}: unknown name" in err
    bayes = with_(BAYES, estimation={**ESTIMATION, "trails": 50, "shedule": [10, 20]})
    assert validate(tmp_path, bayes) == 2
    err = capsys.readouterr().err
    assert "\n  estimation.trails: unknown name" in err
    assert "\n  estimation.shedule: unknown name" in err
    for doc, name in ((with_(PHASE, phase_grid__nk=64), "phase_grid.nk"),
                      (with_(SURFACE, surface__step=12), "surface.step"),
                      (with_(DISORDER, disorder__realizations=2), "disorder.realizations"),
                      (with_(AVERAGING, averaging__windows=3), "averaging.windows")):
        assert validate(tmp_path, doc) == 2
        assert f"\n  {name}: unknown name" in capsys.readouterr().err


def test_a_section_the_experiment_does_not_read_is_not_checked(tmp_path):
    unread = {"anything": 1}
    assert validate(tmp_path, with_(FI, estimation=unread, disorder=unread, surface=unread,
                                    phase_grid=unread, averaging=unread)) == 0
    assert validate(tmp_path, with_(PHASE, walk=unread)) == 0


def test_omitted_names_read_the_defaults_they_always_read():
    # config reads its defaults from the library constants; a value or a type
    # that moved would move a data file (fit.json writes t_min as 10.0)
    fi = validate_config(FI)
    assert (fi.fit_mode, repr(fi.fit_window)) == ("all_points", "(10.0, 30.0)")
    grid = {name: GRID[name] for name in ("theta1_over_pi", "theta2_over_pi")}
    phase = validate_config({**PHASE, "phase_grid": grid})
    assert repr(phase.phase_grid["n_k"]) == "2048"
    disorder = validate_config({**DISORDER, "disorder": {"kind": "static"}})
    assert repr(disorder.disorder_spec.n_realizations) == "10"
    bayes = validate_config({**BAYES, "estimation": {"prior_over_pi": [-0.556, -0.544]}})
    assert repr((bayes.estimation.grid_points, bayes.estimation.trials)) == "(201, 1000)"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_benchmark_job_validates(tmp_path, workload):
    jobs = job_list(workload, 0)
    for job in jobs + warmup_jobs(jobs):
        assert validate(tmp_path, job.doc) == 0, job.id
