"""Experiment configuration: one JSON document per run, angles in units of pi.

A config names one experiment and the parameter sections it needs; every
referenced value is validated against the preconditions of the module that
will consume it before any computation starts, and all violations are
reported together.  Angles are written as multiples of pi (0.9 means 0.9*pi)
to match how the parameter points are usually quoted.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .disorder import DisorderSpec
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

FORMATS = ("csv", "json", "svg")

DEFAULT_STEPS = 100
SPECTRUM_LATTICE = 101

_DYNAMICS = {"fi-scaling", "fi-surface", "bayes", "disorder", "avg-fi", "gfi-qfi"}


@dataclass
class EstimationSettings:
    prior_over_pi: tuple[float, float]
    grid_points: int = 201
    trials: int = 1000
    schedule: tuple[int, ...] | None = None  # None -> informative schedule at run time
    repetitions: int = 1


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int
    out_dir: str | None
    formats: tuple[str, ...]
    raw: dict
    steps: int = DEFAULT_STEPS
    walk: WalkParams | None = None
    fit_window: tuple[float, float] | None = None
    fit_mode: str = "all_points"
    phase_grid: dict | None = None  # theta1/theta2 over-pi arrays + n_k
    surface: dict | None = None  # theta1 over-pi array + steps
    estimation: EstimationSettings | None = None
    disorder_spec: DisorderSpec | None = None
    disorder_observable: str = "fi"
    averaging: tuple[int, int] = (5, 5)


class _Check:
    """Collects violations so a bad config reports every problem at once."""

    def __init__(self):
        self.violations = []

    def fail(self, field_name, message):
        self.violations.append(f"{field_name}: {message}")

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

    def raise_if_failed(self):
        if self.violations:
            raise ConfigError(self.violations)


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


def _grid_triple(check, section, name, triple):
    if triple is None:
        check.fail(f"{section}.{name}", "required [start, stop, count] triple")
        return None
    if (
        not isinstance(triple, (list, tuple))
        or len(triple) != 3
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in triple)
    ):
        check.fail(f"{section}.{name}", f"expected [start, stop, count], got {triple!r}")
        return None
    if not all(math.isfinite(v) for v in triple):
        check.fail(f"{section}.{name}", f"entries must be finite, got {triple!r}")
        return None
    start, stop, count = triple
    if count != int(count) or int(count) < 1:
        check.fail(f"{section}.{name}", "count must be a positive integer")
        return None
    return np.linspace(float(start), float(stop), int(count))


def _holds_angle(lo, hi, angle):
    """Whether [lo, hi] holds ``angle`` modulo 2 (units of pi), up to rounding."""
    slack = 1e-12  # an angle on an edge may round to just outside it
    offset = (angle - lo) % 2.0  # lo + offset is the first image of angle from lo up
    return offset <= hi - lo + slack or offset >= 2.0 - slack


def _walk_params(check, doc, default_lattice, require_theta02=True):
    walk = doc.get("walk")
    if not isinstance(walk, dict):
        check.fail("walk", "required section")
        return None
    t1 = check.number(walk, "walk.theta1_over_pi")
    t2 = check.number(walk, "walk.theta2_over_pi")
    t02 = check.number(walk, "walk.theta02_over_pi", default=t2 if not require_theta02 else None)
    lattice = check.number(walk, "walk.lattice_size", default=default_lattice, minimum=3, integer=True)
    if None in (t1, t2, t02, lattice):
        return None
    try:
        return WalkParams(t1 * math.pi, t2 * math.pi, t02 * math.pi, lattice)
    except ValueError as exc:
        check.fail("walk", str(exc))
        return None


def validate_config(doc: dict, seed_override=None) -> ExperimentConfig:
    """Validate a parsed config document; raises ConfigError listing every violation.

    ``seed_override`` obeys the rule for ``seed``.  An fi-scaling fit window
    must cover at least 5 of the steps 1..steps; that is necessary, not
    sufficient: flagged or non-positive values, and ``peaks_only``, can still
    leave the run's fit fewer than 5 points.
    """
    check = _Check()

    experiment = doc.get("experiment")
    if experiment not in EXPERIMENTS:
        check.fail("experiment", f"must be one of {', '.join(EXPERIMENTS)}; got {experiment!r}")
        check.raise_if_failed()

    seed = check.number(doc, "seed", default=0, minimum=0, integer=True)
    if seed_override is not None:
        seed = check.number({"seed": seed_override}, "seed", minimum=0, integer=True)

    out_dir = doc.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        check.fail("out_dir", f"expected a string path, got {out_dir!r}")
        out_dir = None

    formats = doc.get("formats", list(FORMATS))
    if not isinstance(formats, list) or any(f not in FORMATS for f in formats):
        check.fail("formats", f"must be a subset of {list(FORMATS)}, got {formats!r}")
        formats = list(FORMATS)

    steps = check.number(doc, "steps", default=DEFAULT_STEPS, minimum=1, integer=True)
    cfg = ExperimentConfig(
        experiment=experiment,
        seed=seed or 0,
        out_dir=out_dir,
        formats=tuple(formats),
        raw=doc,
        steps=steps or DEFAULT_STEPS,
    )

    fit = doc.get("fit", {})
    if not isinstance(fit, dict):
        check.fail("fit", "must be an object")
        fit = {}
    mode = fit.get("mode", "all_points")
    if mode not in ("all_points", "peaks_only"):
        check.fail("fit.mode", f"must be all_points or peaks_only, got {mode!r}")
        mode = "all_points"
    cfg.fit_mode = mode
    t_min = check.number(fit, "fit.t_min", default=10.0, minimum=1)
    t_max = check.number(fit, "fit.t_max", default=float(cfg.steps))
    if t_min is not None and t_max is not None:
        cfg.fit_window = (t_min, t_max)
        covered = math.floor(min(t_max, cfg.steps)) - math.ceil(t_min) + 1
        if experiment == "fi-scaling" and covered < 5:
            check.fail(
                "fit",
                f"window [{t_min}, {t_max}] covers {max(covered, 0)} of the steps "
                f"1..{cfg.steps}; the fit needs at least 5",
            )

    if experiment == "phase-diagram":
        section = doc.get("phase_grid")
        if not isinstance(section, dict):
            check.fail("phase_grid", "required section")
        else:
            t1 = _grid_triple(check, "phase_grid", "theta1_over_pi", section.get("theta1_over_pi"))
            t2 = _grid_triple(check, "phase_grid", "theta2_over_pi", section.get("theta2_over_pi"))
            n_k = check.number(section, "phase_grid.n_k", default=2048, minimum=64, integer=True)
            if t1 is not None and t2 is not None and n_k is not None:
                cfg.phase_grid = {"theta1_over_pi": t1, "theta2_over_pi": t2, "n_k": n_k}
    elif experiment == "spectrum":
        params = _walk_params(check, doc, SPECTRUM_LATTICE)
        if params is not None and params.lattice_size > DENSE_SOLVER_CAP:
            check.fail(
                "walk.lattice_size",
                f"must be <= dense solver cap {DENSE_SOLVER_CAP} for spectrum runs",
            )
        cfg.walk = params
    else:
        cfg.walk = _walk_params(check, doc, dynamics_lattice_size(cfg.steps))

    if experiment == "fi-surface":
        section = doc.get("surface")
        if not isinstance(section, dict):
            check.fail("surface", "required section")
        else:
            t1 = _grid_triple(check, "surface", "theta1_over_pi", section.get("theta1_over_pi"))
            s_steps = check.number(section, "surface.steps", default=60, minimum=1, integer=True)
            if t1 is not None and s_steps is not None:
                cfg.surface = {"theta1_over_pi": t1, "steps": s_steps}

    if experiment in _DYNAMICS and cfg.walk is not None:
        # the ring must hold the light cone of the steps the run propagates
        propagated = cfg.steps
        if experiment == "fi-surface":
            propagated = cfg.surface["steps"] if cfg.surface is not None else None
        if propagated is not None and cfg.walk.lattice_size < dynamics_lattice_size(propagated):
            check.fail(
                "walk.lattice_size",
                f"{cfg.walk.lattice_size} sites let a {propagated}-step walk wrap the ring; "
                f"need >= {dynamics_lattice_size(propagated)}",
            )

    disorder_doc = doc.get("disorder") if isinstance(doc.get("disorder"), dict) else {}
    if experiment == "bayes" or (
        experiment == "disorder" and disorder_doc.get("observable") == "msre"
    ):
        section = doc.get("estimation")
        if not isinstance(section, dict):
            check.fail("estimation", "required section for Bayesian runs")
        else:
            prior = section.get("prior_over_pi")
            lo = hi = None
            if (
                not isinstance(prior, (list, tuple))
                or len(prior) != 2
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in prior)
            ):
                check.fail("estimation.prior_over_pi", f"expected [lo, hi], got {prior!r}")
            else:
                lo, hi = float(prior[0]), float(prior[1])
                if not (math.isfinite(lo) and math.isfinite(hi)):
                    check.fail("estimation.prior_over_pi", f"bounds must be finite, got {prior!r}")
                    lo = hi = None
                elif not lo < hi:
                    check.fail("estimation.prior_over_pi", "lo must be < hi")
                    lo = hi = None
                elif cfg.walk is not None:
                    t02 = float(doc["walk"]["theta02_over_pi"])
                    if not _holds_angle(lo, hi, t02):
                        # the posterior would pile up at the grid edge, silently
                        check.fail(
                            "estimation.prior_over_pi",
                            f"[{lo}, {hi}] leaves out walk.theta02_over_pi = {t02} (modulo 2)",
                        )
            grid_points = check.number(section, "estimation.grid_points", default=201, minimum=11, integer=True)
            trials = check.number(section, "estimation.trials", default=1000, minimum=1, integer=True)
            repetitions = check.number(section, "estimation.repetitions", default=1, minimum=1, integer=True)
            schedule = section.get("schedule")
            if schedule is not None:
                if (
                    not isinstance(schedule, list)
                    or not schedule
                    or any(isinstance(t, bool) or not isinstance(t, (int, float)) or not math.isfinite(t) or t != int(t) or not 1 <= t <= cfg.steps for t in schedule)
                ):
                    check.fail(
                        "estimation.schedule",
                        f"expected non-empty list of steps in 1..{cfg.steps}, got {schedule!r}",
                    )
                    schedule = None
                else:
                    schedule = tuple(int(t) for t in schedule)
            elif cfg.steps < 2:
                # the model-selected schedule picks from steps t_min < t_max <= steps
                check.fail(
                    "steps", f"a run without estimation.schedule needs steps >= 2, got {cfg.steps}"
                )
            if cfg.walk is not None and lo is not None and None not in (grid_points, trials, repetitions):
                cfg.estimation = EstimationSettings(
                    prior_over_pi=(lo, hi),
                    grid_points=grid_points,
                    trials=trials,
                    schedule=schedule,
                    repetitions=repetitions,
                )

    if experiment == "disorder":
        section = doc.get("disorder")
        if not isinstance(section, dict):
            check.fail("disorder", "required section")
        else:
            kind = section.get("kind")
            observable = section.get("observable", "fi")
            half_width = check.number(section, "disorder.half_width_over_pi", default=0.05, minimum=0.0)
            n_real = check.number(section, "disorder.n_realizations", default=10, minimum=1, integer=True)
            if observable not in ("fi", "msre"):
                check.fail("disorder.observable", f"must be fi or msre, got {observable!r}")
            if kind not in ("static", "dynamic"):
                check.fail("disorder.kind", f"must be static or dynamic, got {kind!r}")
            elif half_width is not None and n_real is not None:
                cfg.disorder_spec = DisorderSpec(
                    kind=kind,
                    half_width=half_width * math.pi,
                    n_realizations=n_real,
                    master_seed=cfg.seed,
                )
                cfg.disorder_observable = observable if observable in ("fi", "msre") else "fi"

    if experiment == "avg-fi":
        section = doc.get("averaging", {})
        if not isinstance(section, dict):
            check.fail("averaging", "must be an object")
            section = {}
        window = check.number(section, "averaging.window", default=5, minimum=1, integer=True)
        spacing = check.number(section, "averaging.spacing", default=5, minimum=1, integer=True)
        if window is not None and spacing is not None:
            cfg.averaging = (window, spacing)
            span = (window - 1) * spacing
            if span >= cfg.steps:
                check.fail("averaging", f"window span {span} does not fit in {cfg.steps} steps")

    check.raise_if_failed()
    return cfg
