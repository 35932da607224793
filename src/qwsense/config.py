"""Experiment configuration: one JSON document per run, angles in units of pi.

A config names one experiment and the parameter sections it needs; each
section has one reader.  Every referenced value is validated against the
preconditions of the module that will consume it before any computation
starts, a name that no rule reads is a violation, and all violations are
reported together.  Angles are written as multiples of pi (0.9 means 0.9*pi)
to match how the parameter points are usually quoted.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bayes, metrology, topology
from .disorder import DEFAULT_REALIZATIONS, DisorderSpec
from .errors import ConfigError
from .spectral import DENSE_SOLVER_CAP
from .walk import WalkParams, dynamics_lattice_size

EXPERIMENTS = (
    "fi-scaling",
    "fi-surface",
    "phase-diagram",
    "spectrum",
    "bayes",
    "disorder",
    "avg-fi",
    "gfi-qfi",
)

DEFAULT_STEPS = 100
SPECTRUM_LATTICE = 101

# the names the rules of each section read; any other name in a section read is a violation
_SECTIONS = {
    "fit": ("mode", "t_min", "t_max"),
    "walk": ("theta1_over_pi", "theta2_over_pi", "theta02_over_pi", "lattice_size"),
    "phase_grid": ("theta1_over_pi", "theta2_over_pi", "n_k"),
    "surface": ("theta1_over_pi", "steps"),
    "estimation": ("prior_over_pi", "grid_points", "trials", "repetitions", "schedule"),
    "disorder": ("kind", "observable", "half_width_over_pi", "n_realizations"),
    "averaging": ("window", "spacing"),
}
_TOP_LEVEL = ("experiment", "seed", "out_dir", "steps", *_SECTIONS)


@dataclass
class EstimationSettings:
    prior_over_pi: tuple[float, float]
    grid_points: int
    trials: int
    schedule: tuple[int, ...] | None  # None -> informative schedule at run time
    repetitions: int


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int
    out_dir: str | None
    raw: dict
    steps: int = DEFAULT_STEPS
    walk: WalkParams | None = None
    fit_window: tuple[float, float] | None = None
    fit_mode: str = metrology.ALL_POINTS
    phase_grid: dict | None = None  # theta1/theta2 over-pi arrays + n_k
    surface: dict | None = None  # theta1 over-pi array + steps
    estimation: EstimationSettings | None = None
    disorder_spec: DisorderSpec | None = None
    disorder_observable: str = "fi"
    averaging: tuple[int, int] = (5, 5)


class _Check:
    """Collects violations so a bad config reports every problem at once.

    After a violation, what a reader returns is never used: the config is rejected.
    """

    def __init__(self):
        self.violations = []

    def fail(self, field_name, message):
        self.violations.append(f"{field_name}: {message}")

    def known(self, doc, names, prefix=""):
        for name in doc:
            if name not in names:
                self.fail(f"{prefix}{name}", f"unknown name; expected one of {', '.join(names)}")

    def section(self, doc, name, required=False):
        """The object ``doc[name]``, None after a violation; an absent optional
        section reads as {}."""
        value = doc.get(name, None if required else {})
        if not isinstance(value, dict):
            self.fail(name, "must be an object" if name in doc else "required section")
            return None
        self.known(value, _SECTIONS[name], f"{name}.")
        return value

    def number(self, doc, field_name, default=None, minimum=None, integer=False):
        value = doc.get(field_name.split(".")[-1], default)
        if value is None:
            if default is None:
                self.fail(field_name, "required")
            return default
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.fail(field_name, f"expected a number, got {value!r}")
            return default
        if not math.isfinite(value):
            self.fail(field_name, "must be finite")
            return default
        if integer and value != int(value):
            self.fail(field_name, f"expected an integer, got {value!r}")
            return default
        if minimum is not None and value < minimum:
            self.fail(field_name, f"must be >= {minimum}, got {value!r}")
            return default
        return int(value) if integer else float(value)

    def numbers(self, doc, field_name, shape, length=None, integer=False, low=None, high=None):
        """A tuple of finite numbers, None after a violation: ``length`` of
        them, or at least one; with ``integer``, whole numbers in [low, high].
        ``shape`` describes the expected list in the violation."""
        value = doc.get(field_name.split(".")[-1])
        if (
            not isinstance(value, (list, tuple))
            or (len(value) != length if length else not value)
            or not all(
                not isinstance(v, bool) and isinstance(v, (int, float)) and math.isfinite(v)
                and (not integer or (v == int(v) and low <= v <= high))
                for v in value
            )
        ):
            self.fail(field_name, f"expected {shape}, got {value!r}")
            return None
        return tuple(int(v) if integer else float(v) for v in value)


def load_config(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError([f"config: cannot read {path}: {exc}"]) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config: invalid JSON: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["config: top level must be a JSON object"])
    return doc


def _grid(check, section, field_name):
    """A [start, stop, count] entry as ``count`` evenly spaced values."""
    triple = check.numbers(section, field_name, "[start, stop, count] of finite numbers", length=3)
    if triple is None:
        return None
    start, stop, count = triple
    if count != int(count) or count < 1:
        check.fail(field_name, f"count must be a positive integer, got {count!r}")
        return None
    return np.linspace(start, stop, int(count))


def _holds_angle(lo, hi, angle):
    """Whether [lo, hi] holds ``angle`` modulo 2 (units of pi), up to rounding."""
    slack = 1e-12  # an angle on an edge may round to just outside it
    offset = (angle - lo) % 2.0  # lo + offset is the first image of angle from lo up
    return offset <= hi - lo + slack or offset >= 2.0 - slack


def _read_run(check, doc, experiment, seed_override):
    seed = check.number(doc, "seed", default=0, minimum=0, integer=True)
    if seed_override is not None:
        seed = check.number({"seed": seed_override}, "seed", minimum=0, integer=True)
    out_dir = doc.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        check.fail("out_dir", f"expected a string path, got {out_dir!r}")
    steps = check.number(doc, "steps", default=DEFAULT_STEPS, minimum=1, integer=True)
    return ExperimentConfig(experiment, seed, out_dir, doc, steps)


def _read_fit(check, doc, cfg):
    section = check.section(doc, "fit")
    if section is None:
        return
    cfg.fit_mode = section.get("mode", metrology.ALL_POINTS)
    if cfg.fit_mode not in (metrology.ALL_POINTS, metrology.PEAKS_ONLY):
        check.fail("fit.mode", f"must be all_points or peaks_only, got {cfg.fit_mode!r}")
    t_min = check.number(section, "fit.t_min", default=metrology.DEFAULT_FIT_T_MIN, minimum=1)
    t_max = check.number(section, "fit.t_max", default=float(cfg.steps))
    cfg.fit_window = (t_min, t_max)
    covered = math.floor(min(t_max, cfg.steps)) - math.ceil(t_min) + 1
    if cfg.experiment == "fi-scaling" and covered < 5:
        check.fail(
            "fit",
            f"window [{t_min}, {t_max}] covers {max(covered, 0)} of the steps "
            f"1..{cfg.steps}; the fit needs at least 5",
        )


def _read_walk(check, doc, default_lattice):
    section = check.section(doc, "walk", required=True)
    if section is None:
        return None
    t1 = check.number(section, "walk.theta1_over_pi")
    t2 = check.number(section, "walk.theta2_over_pi")
    t02 = check.number(section, "walk.theta02_over_pi")
    lattice = check.number(section, "walk.lattice_size", default=default_lattice, minimum=3, integer=True)
    if None in (t1, t2, t02):
        return None
    try:
        return WalkParams(t1 * math.pi, t2 * math.pi, t02 * math.pi, lattice)
    except ValueError as exc:
        check.fail("walk", str(exc))
        return None


def _read_phase_grid(check, doc):
    section = check.section(doc, "phase_grid", required=True)
    if section is None:
        return None
    t1 = _grid(check, section, "phase_grid.theta1_over_pi")
    t2 = _grid(check, section, "phase_grid.theta2_over_pi")
    n_k = check.number(section, "phase_grid.n_k", default=topology.DEFAULT_NK, minimum=64, integer=True)
    return {"theta1_over_pi": t1, "theta2_over_pi": t2, "n_k": n_k}


def _read_surface(check, doc):
    section = check.section(doc, "surface", required=True)
    if section is None:
        return None
    t1 = _grid(check, section, "surface.theta1_over_pi")
    steps = check.number(section, "surface.steps", default=60, minimum=1, integer=True)
    return {"theta1_over_pi": t1, "steps": steps}


def _read_dynamics(check, doc, cfg):
    """The walk of a run that propagates, and the surface of an fi-surface
    run; the ring must hold the light cone of the steps the run propagates,
    and by default holds exactly that."""
    propagated = cfg.steps
    if cfg.experiment == "fi-surface":
        cfg.surface = _read_surface(check, doc)
        propagated = cfg.surface["steps"] if cfg.surface is not None else None
    cfg.walk = _read_walk(check, doc, dynamics_lattice_size(propagated or cfg.steps))
    if cfg.walk is None or propagated is None:
        return
    if cfg.walk.lattice_size < dynamics_lattice_size(propagated):
        check.fail(
            "walk.lattice_size",
            f"{cfg.walk.lattice_size} sites let a {propagated}-step walk wrap the ring; "
            f"need >= {dynamics_lattice_size(propagated)}",
        )


def _read_disorder(check, doc, cfg):
    section = check.section(doc, "disorder", required=True)
    if section is None:
        return
    kind = section.get("kind")
    cfg.disorder_observable = observable = section.get("observable", "fi")
    half_width = check.number(section, "disorder.half_width_over_pi", default=0.05, minimum=0.0)
    n_real = check.number(section, "disorder.n_realizations", default=DEFAULT_REALIZATIONS,
                          minimum=1, integer=True)
    if observable not in ("fi", "msre"):
        check.fail("disorder.observable", f"must be fi or msre, got {observable!r}")
    if kind not in ("static", "dynamic"):
        check.fail("disorder.kind", f"must be static or dynamic, got {kind!r}")
    else:
        cfg.disorder_spec = DisorderSpec(kind, half_width * math.pi, n_real, master_seed=cfg.seed)


def _read_estimation(check, doc, cfg):
    section = check.section(doc, "estimation", required=True)
    if section is None:
        return None
    if cfg.walk is not None and cfg.walk.theta02 == 0:
        # the msre is relative to theta02: the run would walk, then divide by zero
        check.fail("walk.theta02_over_pi", "must not be 0 (modulo 2) for an estimation run")
    prior = check.numbers(section, "estimation.prior_over_pi", "[lo, hi] of finite numbers", 2)
    if prior is not None and not prior[0] < prior[1]:
        check.fail("estimation.prior_over_pi", "lo must be < hi")
    elif prior is not None and cfg.walk is not None:
        t02 = float(doc["walk"]["theta02_over_pi"])
        if not _holds_angle(*prior, t02):
            # the posterior would pile up at the grid edge, silently
            check.fail(
                "estimation.prior_over_pi",
                f"[{prior[0]}, {prior[1]}] leaves out walk.theta02_over_pi = {t02} (modulo 2)",
            )
    grid_points = check.number(section, "estimation.grid_points",
                               default=bayes.DEFAULT_GRID_POINTS, minimum=11, integer=True)
    trials = check.number(section, "estimation.trials", default=bayes.DEFAULT_TRIALS, minimum=1,
                          integer=True)
    repetitions = check.number(section, "estimation.repetitions", default=1, minimum=1, integer=True)
    schedule = None
    if section.get("schedule") is not None:
        schedule = check.numbers(
            section, "estimation.schedule", f"a non-empty list of steps in 1..{cfg.steps}",
            integer=True, low=1, high=cfg.steps,
        )
    elif cfg.steps < 2:
        # the model-selected schedule picks from steps t_min < t_max <= steps
        check.fail("steps", f"a run without estimation.schedule needs steps >= 2, got {cfg.steps}")
    return EstimationSettings(prior, grid_points, trials, schedule, repetitions)


def _read_averaging(check, doc, steps):
    section = check.section(doc, "averaging")
    if section is None:
        return None
    window = check.number(section, "averaging.window", default=5, minimum=1, integer=True)
    spacing = check.number(section, "averaging.spacing", default=5, minimum=1, integer=True)
    span = (window - 1) * spacing
    if span >= steps:
        check.fail("averaging", f"window span {span} does not fit in {steps} steps")
    return window, spacing


def validate_config(doc: dict, seed_override=None) -> ExperimentConfig:
    """Validate a parsed config document; raises ConfigError listing every violation.

    ``seed_override`` obeys the rule for ``seed``.  An fi-scaling fit window
    must cover at least 5 of the steps 1..steps; that is necessary, not
    sufficient: flagged or non-positive values, and ``peaks_only``, can still
    leave the run's fit fewer than 5 points.  ``fit`` is read only by the
    experiments that fit, and is a violation anywhere else; any other section
    that the experiment does not read is not checked.
    """
    experiment = doc.get("experiment")
    if experiment not in EXPERIMENTS:
        expected = ", ".join(EXPERIMENTS)
        raise ConfigError([f"experiment: must be one of {expected}; got {experiment!r}"])
    check = _Check()
    check.known(doc, _TOP_LEVEL)
    cfg = _read_run(check, doc, experiment, seed_override)
    if experiment == "phase-diagram":
        cfg.phase_grid = _read_phase_grid(check, doc)
    elif experiment == "spectrum":
        cfg.walk = _read_walk(check, doc, SPECTRUM_LATTICE)
        if cfg.walk is not None and cfg.walk.lattice_size > DENSE_SOLVER_CAP:
            check.fail(
                "walk.lattice_size",
                f"must be <= dense solver cap {DENSE_SOLVER_CAP} for spectrum runs",
            )
    else:
        _read_dynamics(check, doc, cfg)
    if experiment == "disorder":
        _read_disorder(check, doc, cfg)
    if experiment == "fi-scaling" or experiment == "disorder" and cfg.disorder_observable == "fi":
        _read_fit(check, doc, cfg)
    elif "fit" in doc:
        # an experiment that never fits would ignore the section
        check.fail("fit", "read only by fi-scaling and by disorder with observable fi; "
                          "this run never fits")
    if experiment == "bayes" or cfg.disorder_observable == "msre":
        cfg.estimation = _read_estimation(check, doc, cfg)
    if experiment == "avg-fi":
        cfg.averaging = _read_averaging(check, doc, cfg.steps) or cfg.averaging
    if check.violations:
        raise ConfigError(check.violations)
    return cfg
