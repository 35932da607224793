"""Config validation: one minimal bad document per rule, unknown names, and
every benchmark job document."""

import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwsense import cli, config, experiments
from qwsense.config import _SECTIONS, _TOP_LEVEL, EXPERIMENTS, validate_config
from qwsense.errors import ConfigError, NumericalError

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
    ("seed-negative", with_(FI, seed=-1), "seed: must be >= 0, got -1"),
    ("seed-fraction", with_(FI, seed=1.5), "seed: expected an integer, got 1.5"),
    # --out is the one output path: a config names no directory
    ("out_dir", with_(FI, out_dir="runs/fi"), "out_dir: unknown name"),
    # every run writes all its files: no rule reads a format list
    ("formats-unknown", with_(FI, formats=["csv"]), "formats: unknown name"),
    ("steps-zero", with_(FI, steps=0), "steps:"),
    ("steps-fraction", with_(FI, steps=2.5), "steps:"),
    # these runs ignored a top-level steps; fi-surface reads surface.steps
    ("steps-on-spectrum", with_(SPECTRUM, steps=500), "steps: not read by spectrum"),
    ("steps-on-phase-diagram", with_(PHASE, steps=500), "steps: not read by phase-diagram"),
    ("steps-on-fi-surface", with_(SURFACE, steps=500), "steps: not read by fi-surface"),
    ("fit-not-an-object", with_(FI, fit=[1]), "fit:"),
    ("fit.mode", with_(FI, fit={"mode": "best"}), "fit.mode:"),
    # every fit runs over the steps 10..steps: a window is not an input
    ("fit.t_min", with_(FI, fit={"t_min": 0}), "fit.t_min: unknown name"),
    ("fit.t_max", with_(FI, fit={"t_max": "end"}), "fit.t_max: unknown name"),
    ("fit-window-coverage", with_(FI, steps=13), "steps: an fi-scaling run needs steps >= 14"),
    # only fi-scaling and disorder-FI runs fit; elsewhere fit was silently ignored
    ("fit-on-gfi-qfi", with_(FI, experiment="gfi-qfi", fit={"t_min": 30, "mode": "peaks_only"}),
     "fit: not read by gfi-qfi runs"),
    ("fit-on-bayes", with_(BAYES, fit={"mode": "peaks_only"}), "fit: not read by bayes runs"),
    ("fit-on-msre", with_(DISORDER, disorder__observable="msre", estimation=ESTIMATION, fit={}),
     "fit: not read by disorder runs with observable msre"),
    ("fit-on-phase-diagram", with_(PHASE, fit={"t_min": 10}),
     "fit: not read by phase-diagram runs"),
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
    ("phase_grid.n_k-odd", with_(PHASE, phase_grid__n_k=1025), "phase_grid.n_k: must be even"),
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
    # the informative selector picks every schedule: a schedule is not an input
    ("estimation.schedule-empty", with_(BAYES, estimation__schedule=[]),
     "estimation.schedule: unknown name"),
    ("estimation.schedule-past-steps", with_(BAYES, estimation__schedule=[10, 31]),
     "estimation.schedule: unknown name"),
    ("estimation.schedule-fraction", with_(BAYES, estimation__schedule=[10.5]),
     "estimation.schedule: unknown name"),
    ("selected-schedule-steps", with_(BAYES, steps=1), "steps:"),
    # the relative error divides by theta02: the run used to walk, then crash
    ("theta02-zero-bayes", with_(BAYES, walk__theta02_over_pi=0.0,
                                 estimation__prior_over_pi=[-0.01, 0.01]),
     "walk.theta02_over_pi:"),
    ("theta02-zero-msre", with_(DISORDER, disorder__observable="msre",
                                walk={**WALK, "theta02_over_pi": 0.0},
                                estimation={**ESTIMATION, "prior_over_pi": [-0.01, 0.01]}),
     "walk.theta02_over_pi:"),
    # theta02 ** 2 underflowed to 0.0 past the == 0 check: the run walked, then crashed
    ("theta02-underflow-bayes", with_(BAYES, walk__theta02_over_pi=1e-300,
                                      estimation__prior_over_pi=[-0.5, 0.5]),
     "walk.theta02_over_pi: must not be 0"),
    ("theta02-subnormal-square-msre", with_(DISORDER, disorder__observable="msre",
                                            walk={**WALK, "theta02_over_pi": -1e-160},
                                            estimation={**ESTIMATION,
                                                        "prior_over_pi": [-0.5, 0.5]}),
     "walk.theta02_over_pi: must not be 0"),
    # an msre of ~1e219 walked, then its squared spread was inf and the plot failed
    ("theta02-msre-overflow", with_(DISORDER, disorder__observable="msre",
                                    walk={**WALK, "theta02_over_pi": 1e-110},
                                    estimation={**ESTIMATION, "prior_over_pi": [-1.9, 1e-110]}),
     "walk.theta02_over_pi: 1e-110 is too small for the prior window"),
    # the cap reads the window's width, not hi + lo: 1.25 * 2.4**2 > 4 > 1.25 * 1.4**2
    ("theta02-msre-cap-width", with_(BAYES, walk__theta02_over_pi=2e-75,
                                     estimation__prior_over_pi=[-0.5, 1.9]),
     "walk.theta02_over_pi: 2e-75 is too small for the prior window"),
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
    # span (17 - 1) * 2 = 32 > 30 steps: no window fits
    ("averaging-span", with_(AVERAGING, averaging__window=17), "averaging:"),
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


def test_an_averaging_window_that_spans_every_step_runs(tmp_path):
    # span (5 - 1) * 5 = 20 = steps was rejected; it fits one window, centred at t = 10
    doc = with_(AVERAGING, steps=20, averaging={"window": 5, "spacing": 5})
    assert validate(tmp_path, doc) == 0
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 0
    rows = (out / "avg_fi_series.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("10,")


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


# each base document's run, and the top-level names its readers read besides
# experiment and seed, which every run reads
READS = [
    ("fi-scaling", FI, ("steps", "walk", "fit")),
    ("fi-surface", SURFACE, ("walk", "surface")),
    ("phase-diagram", PHASE, ("phase_grid",)),
    ("spectrum", SPECTRUM, ("walk",)),
    ("bayes", BAYES, ("steps", "walk", "estimation")),
    ("disorder-fi", DISORDER, ("steps", "walk", "disorder", "fit")),
    ("disorder-msre", with_(DISORDER, disorder__observable="msre", estimation=ESTIMATION),
     ("steps", "walk", "disorder", "estimation")),
    ("avg-fi", AVERAGING, ("steps", "walk", "averaging")),
    ("gfi-qfi", with_(FI, experiment="gfi-qfi"), ("steps", "walk")),
]
# (id, document with one name its run does not read, the one violation it must report);
# a section's value is malformed: the run would not have checked it either
UNREAD = [
    (f"{run}-{name}", {**doc, name: "x" if name == "steps" else {"theta1_over_pi": "x"}},
     f"{name}: not read by {doc['experiment']} runs"
     + (f" with observable {doc['disorder']['observable']}" if "disorder" in reads else ""))
    for run, doc, reads in READS
    for name in ("steps", *_SECTIONS)
    if name not in reads
]


@pytest.mark.parametrize("doc, violation", [case[1:] for case in UNREAD],
                         ids=[case[0] for case in UNREAD])
def test_a_name_the_experiment_does_not_read_is_a_violation(doc, violation):
    # a section the run did not read was never checked: a walk with theta1 "x"
    # validated on a phase diagram, and averaging on an fi-scaling run
    with pytest.raises(ConfigError) as caught:
        validate_config(doc)
    assert caught.value.violations == [violation]


def _read_window_only(check, doc, steps):
    """``_read_averaging`` with its read of ``averaging.spacing`` removed."""
    section = check.section(doc, "averaging")
    return check.number(section, "averaging.window", default=5, minimum=1, integer=True), 5


# (reader, the reader with one read removed, a document that sets the name, the violation)
REMOVED_READS = [
    ("_read_averaging", _read_window_only, AVERAGING,
     "averaging.spacing: not read by avg-fi runs"),
    ("_read_fit", lambda check, doc, cfg: None, with_(FI, fit={"mode": "peaks_only"}),
     "fit: not read by fi-scaling runs"),
]


@pytest.mark.parametrize("reader, replacement, doc, violation", REMOVED_READS,
                         ids=[case[2]["experiment"] for case in REMOVED_READS])
def test_removing_a_read_rejects_the_name_at_any_depth(monkeypatch, reader, replacement, doc,
                                                       violation):
    # a section name was accepted if _SECTIONS listed it, so a reader that
    # stopped reading averaging.spacing left the run ignoring it in silence
    validate_config(doc)
    monkeypatch.setattr(config, reader, replacement)
    with pytest.raises(ConfigError) as caught:
        validate_config(doc)
    assert caught.value.violations == [violation]


def test_a_repeated_name_is_rejected_at_any_depth(tmp_path, capsys):
    # the last value won: this validated and ran 100 steps at the second angle
    text = ('{"experiment": "fi-scaling", "steps": 20, "steps": 100,\n'
            ' "walk": {"theta1_over_pi": 0.9, "theta2_over_pi": 0.75,\n'
            '          "theta02_over_pi": -0.55, "theta02_over_pi": -0.5}}')
    path = tmp_path / "config.json"
    # an object is read before the object that holds it
    for text, name in ((text, "theta02_over_pi"), (text.replace(', "theta02_over_pi": -0.5', ""),
                                                     "steps")):
        path.write_text(text)
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.endswith(
            f"\n  config: name '{name}' is repeated in one JSON object\n")


def test_omitted_names_read_the_defaults_they_always_read():
    # config reads its defaults from the library constants; a value or a type
    # that moved would move a data file
    fi = validate_config(FI)
    assert fi.fit_mode == "all_points"
    disorder = validate_config({**DISORDER, "disorder": {"kind": "static"}})
    assert repr(disorder.disorder_spec.n_realizations) == "10"
    assert repr(disorder.disorder_spec.half_width) == "0.15707963267948966"  # 0.05 pi
    assert repr(validate_config(without(AVERAGING, "averaging")).averaging) == "(5, 5)"
    bayes = validate_config({**BAYES, "estimation": {"prior_over_pi": [-0.556, -0.544]}})
    assert repr((bayes.estimation.grid_points, bayes.estimation.trials)) == "(201, 1000)"


def test_a_zero_disorder_half_width_is_accepted():
    # the clean walk as a disorder run: the half-width's minimum, 0, is allowed
    cfg = validate_config(with_(DISORDER, disorder__half_width_over_pi=0.0))
    assert repr(cfg.disorder_spec.half_width) == "0.0"


def test_phase_grid_n_k_is_checked_and_read_by_nothing():
    # the gap is read at the two band edges; the benchmark's jobs still set n_k
    grids = [validate_config(with_(PHASE, phase_grid__n_k=n_k)).phase_grid
             for n_k in (64, 1024, 2048)]
    grids.append(validate_config(without(PHASE, "phase_grid", "n_k")).phase_grid)
    for grid in grids:
        assert set(grid) == {"theta1_over_pi", "theta2_over_pi"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_benchmark_job_validates(tmp_path, workload):
    for seed in (0, 5):
        jobs = job_list(workload, seed)
        for job in jobs + warmup_jobs(jobs):
            assert validate(tmp_path, job.doc) == 0, (seed, job.id)


def test_every_accepted_name_is_set_by_a_preset_or_a_benchmark_job():
    # a name that no caller sets keeps a code path that no run takes
    docs = [json.loads(path.read_text()) for path in sorted((ROOT / "configs").glob("*.json"))]
    for workload in WORKLOADS:
        jobs = job_list(workload, 0)
        docs += [job.doc for job in jobs + warmup_jobs(jobs)]
    set_names = set()
    for doc in docs:
        for name, value in doc.items():
            set_names.add(name)
            if isinstance(value, dict):
                set_names.update(f"{name}.{key}" for key in value)
    accepted = set(_TOP_LEVEL)
    accepted |= {f"{section}.{name}" for section, names in _SECTIONS.items() for name in names}
    assert sorted(accepted - set_names) == []


# --- a config that validates runs --------------------------------------------

# in units of pi: 0, the domain wall, the flat bands, a tiny and an underflowing
# theta02, angles past +-pi, which are used as written, and angles whose
# radians overflow
EDGE_ANGLES = st.sampled_from([0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 1e-9, 1e-300, 3.9,
                               1e308, -1e308])
SMALL_ANGLES = (EDGE_ANGLES | st.floats(-4.0, 4.0, allow_nan=False)
                | st.floats(-1e308, 1e308, allow_nan=False))


def small_grid(draw, count):
    return [draw(SMALL_ANGLES), draw(SMALL_ANGLES), draw(st.integers(1, count))]


@st.composite
def small_configs(draw):
    """Documents of every experiment, small enough to run: steps <= 12 (<= 20
    for fi-scaling, whose fit needs 14), 11 prior grid points, at most 2
    realizations, N <= 21; some are invalid."""
    experiment = draw(st.sampled_from(EXPERIMENTS))
    doc = {"experiment": experiment, "seed": draw(st.integers(0, 3))}
    if experiment == "phase-diagram":
        doc["phase_grid"] = {"theta1_over_pi": small_grid(draw, 4),
                             "theta2_over_pi": small_grid(draw, 4)}
        return doc
    walk = {name: draw(SMALL_ANGLES)
            for name in ("theta1_over_pi", "theta2_over_pi", "theta02_over_pi")}
    if experiment == "spectrum" or draw(st.booleans()):
        walk["lattice_size"] = draw(st.integers(1, 10)) * 2 + 1
    doc["walk"] = walk
    if experiment == "spectrum":
        return doc
    if experiment == "fi-surface":
        doc["surface"] = {"theta1_over_pi": small_grid(draw, 3),
                          "steps": draw(st.integers(1, 12))}
        return doc
    doc["steps"] = draw(st.integers(1, 20 if experiment == "fi-scaling" else 12))
    if experiment == "disorder":
        doc["disorder"] = {"kind": draw(st.sampled_from(["static", "dynamic"])),
                           "observable": draw(st.sampled_from(["fi", "msre"])),
                           "half_width_over_pi": draw(st.sampled_from([0.0, 0.05, 0.5, 1e308])),
                           "n_realizations": draw(st.integers(1, 2))}
    if experiment == "bayes" or experiment == "disorder" and doc["disorder"]["observable"] == "msre":
        t02 = walk["theta02_over_pi"]
        offsets = st.sampled_from([0.0, 1e-3, 0.1, 1.9, 1e308])
        doc["estimation"] = {
            "prior_over_pi": [t02 - draw(offsets), t02 + draw(offsets)],
            "grid_points": 11,
            "trials": draw(st.integers(1, 50)),
            "repetitions": draw(st.integers(1, 2)),
        }
    if experiment in ("fi-scaling", "disorder") and draw(st.booleans()):
        doc["fit"] = {"mode": draw(st.sampled_from(["all_points", "peaks_only"]))}
    if experiment == "avg-fi":
        doc["averaging"] = {"window": draw(st.integers(1, 4)), "spacing": draw(st.integers(1, 4))}
    return doc


@settings(max_examples=200, deadline=None)
@given(doc=small_configs())
@example(doc={"experiment": "disorder", "seed": 2, "steps": 5,
              "walk": {"theta1_over_pi": 3.9, "theta2_over_pi": -4e-118,
                       "theta02_over_pi": 1.6511888624783327e-110},
              "disorder": {"kind": "dynamic", "observable": "msre",
                           "half_width_over_pi": 0.0, "n_realizations": 2},
              "estimation": {"prior_over_pi": [-1.9, 1.6511888624783327e-110],
                             "grid_points": 11, "trials": 38, "repetitions": 1}})
# each ran at the float limit after validating: the prior window's bounds in
# radians were +-inf, each disorder draw's range overflowed, a grid's spacing
# overflowed, and theta02 ** 2 overflowed
@example(doc={"experiment": "bayes", "steps": 10, "walk": WALK,
              "estimation": {"prior_over_pi": [-1e308, 1e308], "grid_points": 11,
                             "trials": 10}})
@example(doc={"experiment": "disorder", "steps": 5, "walk": WALK,
              "disorder": {"kind": "static", "half_width_over_pi": 1e308}})
@example(doc={"experiment": "disorder", "steps": 5, "walk": WALK,
              "disorder": {"kind": "dynamic", "half_width_over_pi": 1e308}})
@example(doc={"experiment": "phase-diagram",
              "phase_grid": {"theta1_over_pi": [-1e308, 1e308, 3],
                             "theta2_over_pi": [0.5, 0.5, 1]}})
@example(doc={"experiment": "fi-surface", "walk": WALK,
              "surface": {"theta1_over_pi": [-1e308, 1e308, 3], "steps": 3}})
@example(doc={"experiment": "bayes", "steps": 4, "walk": {**WALK, "theta02_over_pi": 1e155},
              "estimation": {"prior_over_pi": [9.999999999999999e154, 1.0000000000000001e155],
                             "grid_points": 11, "trials": 10}})
def test_a_config_that_validates_runs(doc):
    # the config is rejected up front, or the run finishes, or it stops on a
    # breached numerical tolerance (exit 3): never a failure after validation
    try:
        cfg = validate_config(doc)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as out:
        try:
            experiments.run(cfg, out)
        except NumericalError:
            pass
