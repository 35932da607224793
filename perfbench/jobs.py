"""Seeded job lists for the three benchmark workloads.

A job is one experiment config document, run through ``experiments.run``
exactly as the CLI would run it.  The seed draws the physics inputs (the true
defect angle theta02, the prior window around it, the trial seed, small grid
offsets) and never the sizes.  The work still moves a little with the seed:
a Bayesian job's schedule is model-selected from theta02, and the candidate
walks run to its last step, which falls anywhere in the schedule's last block.
Only the standard library is used here: the setup probe generates its job
list before it starts the clock on ``import qwsense``.
"""

import random
from dataclasses import dataclass

WORKLOADS = ("estimation", "fisher", "structure")
DEFAULT_SEED = 0

THETA2 = 0.75  # bulk layer-2 angle (units of pi) used by every preset
NONTRIVIAL = 0.9  # theta1 / pi in the winding-1 phase
TRIVIAL = 0.05  # theta1 / pi in the winding-0 phase
PRIOR_HALF_WIDTH = 0.006  # matches configs/bayes_*.json: [-0.556, -0.544]
# The Bayesian presets run 100 steps; 30 keeps the tracemalloc memory pass,
# about 7x slower than a plain pass on these jobs, inside one run's
# budget.  The lattice stays the presets' 2*100+3 sites, so every kernel call
# is as large as in the presets (30 steps alone would derive 63 sites).
ESTIMATION_STEPS = 30
ESTIMATION_LATTICE = 203


@dataclass(frozen=True)
class Job:
    id: str
    doc: dict

    @property
    def experiment(self) -> str:
        return self.doc["experiment"]


def _walk(theta1, theta02, lattice_size=None):
    walk = {"theta1_over_pi": theta1, "theta2_over_pi": THETA2, "theta02_over_pi": theta02}
    if lattice_size is not None:
        walk["lattice_size"] = lattice_size
    return walk


def _theta02(rng):
    return round(rng.uniform(-0.6, -0.5), 6)


def _estimation_section(rng, theta02):
    # the true angle stays inside the prior window, off its centre
    centre = round(theta02 + rng.uniform(-0.5, 0.5) * PRIOR_HALF_WIDTH, 6)
    return {
        "prior_over_pi": [round(centre - PRIOR_HALF_WIDTH, 6), round(centre + PRIOR_HALF_WIDTH, 6)],
        "grid_points": 201,
        "trials": 1000,
        "repetitions": 10,
    }


def _estimation(rng):
    jobs = []
    for name, theta1 in (("bayes-nontrivial", NONTRIVIAL), ("bayes-trivial", TRIVIAL)):
        t02 = _theta02(rng)
        jobs.append(Job(name, {
            "experiment": "bayes", "steps": ESTIMATION_STEPS, "seed": rng.randrange(1, 10**6),
            "walk": _walk(theta1, t02, ESTIMATION_LATTICE),
            "estimation": _estimation_section(rng, t02),
        }))
    t02 = _theta02(rng)
    jobs.append(Job("msre-static", {
        "experiment": "disorder", "steps": ESTIMATION_STEPS, "seed": rng.randrange(1, 10**6),
        "walk": _walk(NONTRIVIAL, t02, ESTIMATION_LATTICE),
        "disorder": {"kind": "static", "half_width_over_pi": 0.05, "n_realizations": 2,
                     "observable": "msre"},
        "estimation": _estimation_section(rng, t02),
    }))
    return jobs


def _fisher(rng):
    def fi_job(name, experiment, theta1, steps, **extra):
        doc = {"experiment": experiment, "steps": steps, "seed": rng.randrange(1, 10**6),
               "walk": _walk(theta1, _theta02(rng))}
        doc.update(extra)
        return Job(name, doc)

    peaks = {"fit": {"mode": "peaks_only"}}
    jobs = [
        fi_job("fi-scaling-nontrivial", "fi-scaling", NONTRIVIAL, 100),
        fi_job("fi-scaling-trivial", "fi-scaling", TRIVIAL, 100, **peaks),
        fi_job("fi-scaling-near-critical-nontrivial", "fi-scaling", 0.8, 100),
        fi_job("fi-scaling-near-critical-trivial", "fi-scaling", 0.7, 100),
        fi_job("avg-fi", "avg-fi", NONTRIVIAL, 100, averaging={"window": 5, "spacing": 5}),
        fi_job("gfi-qfi", "gfi-qfi", NONTRIVIAL, 100),
    ]
    for kind in ("static", "dynamic"):
        jobs.append(fi_job(
            f"disorder-{kind}-fi", "disorder", NONTRIVIAL, 100, **peaks,
            disorder={"kind": kind, "half_width_over_pi": 0.05, "n_realizations": 10,
                      "observable": "fi"},
        ))
    jobs.append(Job("fi-surface", {
        "experiment": "fi-surface", "seed": rng.randrange(1, 10**6),
        "walk": _walk(NONTRIVIAL, round(rng.uniform(-1.0, -0.95), 6), lattice_size=123),
        "surface": {"theta1_over_pi": [-1.0, 1.0, 81], "steps": 60},
    }))
    # long horizons: O(T*N) trajectory storage dominates peak memory here
    jobs.append(fi_job("fi-scaling-long", "fi-scaling", NONTRIVIAL, 2000))
    jobs.append(fi_job("gfi-qfi-long", "gfi-qfi", NONTRIVIAL, 1000))
    return jobs


def _structure(rng):
    offset = round(rng.uniform(0.0, 0.02), 6)
    grid = [round(-1.0 + offset, 6), round(1.0 - offset, 6), 41]
    return [
        Job("phase-diagram", {
            "experiment": "phase-diagram", "seed": rng.randrange(1, 10**6),
            "phase_grid": {"theta1_over_pi": grid, "theta2_over_pi": grid, "n_k": 1024},
        }),
        Job("spectrum-defect", {
            "experiment": "spectrum", "seed": rng.randrange(1, 10**6),
            "walk": _walk(NONTRIVIAL, _theta02(rng), lattice_size=101),
        }),
        Job("spectrum-domain-wall", {
            "experiment": "spectrum", "seed": rng.randrange(1, 10**6),
            "walk": _walk(round(rng.uniform(0.85, 0.95), 6), -1.0, lattice_size=101),
        }),
        Job("spectrum-large", {
            "experiment": "spectrum", "seed": rng.randrange(1, 10**6),
            "walk": _walk(NONTRIVIAL, _theta02(rng), lattice_size=301),
        }),
    ]


_BUILDERS = {"estimation": _estimation, "fisher": _fisher, "structure": _structure}


def job_list(workload: str, seed: int) -> list[Job]:
    """The workload's jobs for ``seed``; the same seed always gives the same list."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def warmup_jobs(jobs: list[Job]) -> list[Job]:
    """One tiny job per experiment kind in ``jobs``: pays lazy imports and first-call costs."""
    tiny = {}
    for job in jobs:
        key = (job.experiment, job.doc.get("disorder", {}).get("kind"))
        if key in tiny:
            continue
        doc = dict(job.doc, seed=1)
        if "steps" in doc:
            doc["steps"] = 30  # enough points for the power-law fit
        if "walk" in doc:
            doc["walk"] = {k: v for k, v in doc["walk"].items() if k != "lattice_size"}
            if doc["experiment"] == "spectrum":
                doc["walk"]["lattice_size"] = 11
        if "estimation" in doc:
            doc["estimation"] = dict(doc["estimation"], grid_points=11, trials=10, repetitions=1)
        if "disorder" in doc:
            doc["disorder"] = dict(doc["disorder"], n_realizations=2)
        if "surface" in doc:
            doc["surface"] = {"theta1_over_pi": [-1.0, 1.0, 3], "steps": 12}
        if "phase_grid" in doc:
            doc["phase_grid"] = {"theta1_over_pi": [-1.0, 1.0, 3],
                                 "theta2_over_pi": [-1.0, 1.0, 3], "n_k": 64}
        tiny[key] = Job(f"warmup-{job.id}", doc)
    return list(tiny.values())
