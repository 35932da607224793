"""Experiment configuration: one JSON document per run, angles in units of pi.

A config names one experiment and the parameter sections it needs; each
section has one reader.  Every referenced value is validated against the
preconditions of the module that will consume it before any computation
starts, a name that no rule reads, or that no reader of the experiment
reads, is a violation, and all violations are reported together.  Angles
are written as multiples of pi (0.9 means 0.9*pi) to match how the
parameter points are usually quoted, and used as written: theta02 + 2 is
another walk than theta02 (``walk.WalkParams``).
"""

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bayes, metrology
from .disorder import DEFAULT_REALIZATIONS, DYNAMIC, STATIC, DisorderSpec
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
# an estimation record's relative error (variance + bias^2) / theta02^2 is at
# most 1.25 (hi - lo)^2 / theta02^2: the posterior and theta02 lie in the prior
# window; a disorder run's spread squares it, which past ~1.3e154 is inf
MSRE_CAP = 1e150

# the names each section's reader reads; a name outside them is unknown
_SECTIONS = {
    "fit": ("mode",),
    "walk": ("theta1_over_pi", "theta2_over_pi", "theta02_over_pi", "lattice_size"),
    "phase_grid": ("theta1_over_pi", "theta2_over_pi", "n_k"),
    "surface": ("theta1_over_pi", "steps"),
    "estimation": ("prior_over_pi", "grid_points", "trials", "repetitions"),
    "disorder": ("kind", "observable", "half_width_over_pi", "n_realizations"),
    "averaging": ("window", "spacing"),
}
_TOP_LEVEL = ("experiment", "seed", "steps", *_SECTIONS)


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int
    raw: dict
    steps: int = DEFAULT_STEPS
    walk: WalkParams | None = None
    fit_mode: str | None = None  # set by _read_fit, which owns its default
    phase_grid: dict | None = None  # theta1/theta2 over-pi arrays
    surface: dict | None = None  # theta1 over-pi array + steps
    # the schedule is every step the informative selector scores at run time
    estimation: bayes.EstimationConfig | None = None
    disorder_spec: DisorderSpec | None = None
    disorder_observable: str | None = None  # set by _read_disorder
    averaging: tuple[int, int] | None = None  # window, spacing


class _Check:
    """Collects violations so a bad config reports every problem at once.

    After a violation, what a reader returns is never used: the config is rejected.
    """

    def __init__(self):
        self.violations = []
        self.read = set()  # the dotted names ``get`` looked up

    def fail(self, field_name, message):
        self.violations.append(f"{field_name}: {message}")

    def get(self, doc, field_name, default=None):
        """The value of dotted ``field_name`` in ``doc``, its section or the top
        level (``default`` when absent); the one lookup that marks a name read."""
        self.read.add(field_name)
        return doc.get(field_name.split(".")[-1], default)

    def section(self, doc, name, required=False):
        """The object ``doc[name]``, None after a violation; an absent optional
        section reads as {}."""
        value = self.get(doc, name, None if required else {})
        if not isinstance(value, dict):
            self.fail(name, "must be an object" if name in doc else "required section")
            return None
        return value

    def number(self, doc, field_name, default=None, minimum=None, integer=False):
        value = self.get(doc, field_name, default)
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

    def choice(self, doc, field_name, options, default=None):
        """The value of ``field_name`` (``default`` when absent), which must be
        one of ``options``; returned as read, so a message can quote it."""
        value = self.get(doc, field_name, default)
        if value not in options:
            self.fail(field_name, f"must be {' or '.join(options)}, got {value!r}")
        return value

    def numbers(self, doc, field_name, shape, length):
        """A tuple of ``length`` finite numbers, None after a violation.
        ``shape`` describes the expected list in the violation."""
        value = self.get(doc, field_name)
        if (
            not isinstance(value, (list, tuple))
            or len(value) != length
            or not all(
                not isinstance(v, bool) and isinstance(v, (int, float)) and math.isfinite(v)
                for v in value
            )
        ):
            self.fail(field_name, f"expected {shape}, got {value!r}")
            return None
        return tuple(float(v) for v in value)


def _object(pairs):
    """A JSON object's dict; a repeated name is rejected, not read as its last value."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        repeated = next(name for i, (name, _) in enumerate(pairs) if name in dict(pairs[:i]))
        raise ConfigError([f"config: name {repeated!r} is repeated in one JSON object"])
    return doc


def load_config(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError([f"config: cannot read {path}: {exc}"]) from exc
    try:
        doc = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config: invalid JSON: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["config: top level must be a JSON object"])
    return doc


def _grid(check, section, field_name):
    """A [start, stop, count] entry as ``count`` evenly spaced values."""
    triple = check.numbers(section, field_name, "[start, stop, count] of finite numbers", 3)
    if triple is None:
        return None
    start, stop, count = triple
    if count != int(count) or count < 1:
        check.fail(field_name, f"count must be a positive integer, got {count!r}")
        return None
    return np.linspace(start, stop, int(count))


def _read_fit(check, doc, cfg):
    # the window is the steps t_min..steps, so steps is the one value that sets its size
    least = metrology.DEFAULT_FIT_T_MIN + metrology.MIN_FIT_POINTS - 1
    if cfg.experiment == "fi-scaling" and cfg.steps < least:
        check.fail("steps", f"an fi-scaling run needs steps >= {least}: its fit window "
                            f"{metrology.DEFAULT_FIT_T_MIN}..steps must cover at least "
                            f"{metrology.MIN_FIT_POINTS} steps, got {cfg.steps}")
    section = check.section(doc, "fit")
    if section is not None:
        modes = (metrology.ALL_POINTS, metrology.PEAKS_ONLY)
        cfg.fit_mode = check.choice(section, "fit.mode", modes, metrology.ALL_POINTS)


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
    # the gap is read at the two band edges, so no computation reads n_k; the
    # benchmark's jobs still set it, and it goes with the next benchmark change
    n_k = check.number(section, "phase_grid.n_k", default=64, minimum=64, integer=True)
    if n_k % 2:
        check.fail("phase_grid.n_k", f"must be even, got {n_k}")
    return {"theta1_over_pi": t1, "theta2_over_pi": t2}


def _read_surface(check, doc):
    section = check.section(doc, "surface", required=True)
    if section is None:
        return None
    t1 = _grid(check, section, "surface.theta1_over_pi")
    steps = check.number(section, "surface.steps", default=60, minimum=1, integer=True)
    return {"theta1_over_pi": t1, "steps": steps}


def _read_dynamics(check, doc, cfg):
    """The walk of a run that propagates, and its steps: top-level ``steps``,
    or an fi-surface run's surface; the ring must hold the light cone of the
    steps the run propagates, and by default holds exactly that."""
    if cfg.experiment == "fi-surface":
        cfg.surface = _read_surface(check, doc)
        propagated = cfg.surface["steps"] if cfg.surface is not None else None
    else:
        cfg.steps = propagated = check.number(doc, "steps", default=DEFAULT_STEPS, minimum=1,
                                              integer=True)
    least = dynamics_lattice_size(propagated or cfg.steps)
    cfg.walk = _read_walk(check, doc, least)
    if cfg.walk is not None and propagated is not None and cfg.walk.lattice_size < least:
        check.fail(
            "walk.lattice_size",
            f"{cfg.walk.lattice_size} sites let a {propagated}-step walk wrap the ring; "
            f"need >= {least}",
        )


def _read_disorder(check, doc, cfg):
    section = check.section(doc, "disorder", required=True)
    if section is None:
        return
    half_width = check.number(section, "disorder.half_width_over_pi", default=0.05, minimum=0.0)
    n_real = check.number(section, "disorder.n_realizations", default=DEFAULT_REALIZATIONS,
                          minimum=1, integer=True)
    cfg.disorder_observable = check.choice(section, "disorder.observable", ("fi", "msre"), "fi")
    kind = check.choice(section, "disorder.kind", (STATIC, DYNAMIC))
    if not check.violations:
        cfg.disorder_spec = DisorderSpec(kind, half_width * math.pi, n_real, master_seed=cfg.seed)


def _read_estimation(check, doc, cfg):
    """The estimation config, None after a violation; its schedule is the
    steps t_min..steps that the informative selector scores."""
    violations = len(check.violations)
    section = check.section(doc, "estimation", required=True)
    if section is None:
        return None
    square = cfg.walk.theta02 * cfg.walk.theta02 if cfg.walk is not None else None
    if square is not None and not square >= sys.float_info.min:
        # the msre is relative to theta02 ** 2: a square that is 0 or subnormal
        # (theta02_over_pi = 1e-300) would walk, then divide by zero
        check.fail("walk.theta02_over_pi", "must not be 0 for an estimation run")
    prior = check.numbers(section, "estimation.prior_over_pi", "[lo, hi] of finite numbers", 2)
    if prior is not None and not prior[0] < prior[1]:
        check.fail("estimation.prior_over_pi", "lo must be < hi")
    elif prior is not None and prior[1] - prior[0] >= 4:
        # R(theta + 4 pi) = R(theta): the window would hold one walk twice and
        # split the posterior between its copies
        check.fail("estimation.prior_over_pi", "hi - lo must be < 4")
    elif prior is not None and cfg.walk is not None:
        t02 = float(doc["walk"]["theta02_over_pi"])
        width = (prior[1] - prior[0]) * math.pi
        if not prior[0] <= t02 <= prior[1]:
            # the posterior would pile up at the grid edge, silently
            check.fail(
                "estimation.prior_over_pi",
                f"[{prior[0]}, {prior[1]}] leaves out walk.theta02_over_pi = {t02}",
            )
        elif square >= sys.float_info.min and 1.25 * width * width > MSRE_CAP * square:
            # theta02_over_pi = 1e-110 with a window 1.9 wide walked, then an
            # msre of ~1e219 made the disorder spread inf and its plot failed
            check.fail(
                "walk.theta02_over_pi",
                f"{t02} is too small for the prior window [{prior[0]}, {prior[1]}]: a "
                f"relative error could exceed {MSRE_CAP:.0e}",
            )
    grid_points = check.number(section, "estimation.grid_points", bayes.DEFAULT_GRID_POINTS,
                               bayes.MIN_GRID_POINTS, integer=True)
    trials = check.number(section, "estimation.trials", default=bayes.DEFAULT_TRIALS, minimum=1,
                          integer=True)
    repetitions = check.number(section, "estimation.repetitions", default=1, minimum=1, integer=True)
    if cfg.steps < 2:
        # the informative selector picks from at least two steps t_min < t_max <= steps
        check.fail("steps", f"an estimation run needs steps >= 2, got {cfg.steps}")
    if len(check.violations) > violations or cfg.walk is None:
        return None
    t_min = 20 if cfg.steps > 40 else max(1, cfg.steps // 5)
    return bayes.EstimationConfig(
        cfg.walk, (prior[0] * math.pi, prior[1] * math.pi), range(t_min, cfg.steps + 1),
        grid_points, trials, master_seed=cfg.seed, repetitions=repetitions,
    )


def _read_averaging(check, doc, steps):
    section = check.section(doc, "averaging")
    if section is None:
        return None
    window = check.number(section, "averaging.window", default=5, minimum=1, integer=True)
    spacing = check.number(section, "averaging.spacing", default=5, minimum=1, integer=True)
    span = (window - 1) * spacing
    if span > steps:
        check.fail("averaging", f"window span {span} does not fit in {steps} steps")
    return window, spacing


def validate_config(doc: dict) -> ExperimentConfig:
    """Validate a parsed config document; raises ConfigError listing every violation.

    An fi-scaling run's steps must leave ``metrology.MIN_FIT_POINTS`` in its
    fit window; that is necessary, not sufficient, since flagged or
    non-positive values and ``peaks_only`` can still leave fewer.  A name, top-level or in a section,
    that no reader of the experiment reads is a violation and is not checked
    further: ``fit`` is read only by the runs that fit, and top-level ``steps``
    only by the runs that propagate it (fi-surface reads ``surface.steps``).  An
    estimation run's ``estimation`` is a ``bayes.EstimationConfig`` whose
    schedule is every step the informative selector scores.
    """
    check = _Check()
    experiment = check.get(doc, "experiment")
    if experiment not in EXPERIMENTS:
        expected = ", ".join(EXPERIMENTS)
        raise ConfigError([f"experiment: must be one of {expected}; got {experiment!r}"])
    seed = check.number(doc, "seed", default=0, minimum=0, integer=True)
    cfg = ExperimentConfig(experiment, seed, doc)
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
    if experiment == "bayes" or cfg.disorder_observable == "msre":
        cfg.estimation = _read_estimation(check, doc, cfg)
    if experiment == "avg-fi":
        cfg.averaging = _read_averaging(check, doc, cfg.steps)
    observable = f" with observable {cfg.disorder_observable}" if cfg.disorder_observable else ""
    # every name the readers did not read, at the top level and in each section read
    levels = [("", _TOP_LEVEL, doc)]
    for prefix, names, level in levels:
        for name, value in level.items():
            if name not in names:
                check.fail(prefix + name, f"unknown name; expected one of {', '.join(names)}")
            elif prefix + name not in check.read:  # the run would ignore it
                check.fail(prefix + name, f"not read by {experiment} runs{observable}")
            elif prefix + name in _SECTIONS and isinstance(value, dict):
                levels.append((f"{name}.", _SECTIONS[name], value))
    if check.violations:
        raise ConfigError(check.violations)
    return cfg
