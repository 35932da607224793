"""Output checks for one finished job, read back from the files it wrote.

Every job must list its data files in ``manifest.json`` with hashes that
match the files on disk.  For the default seed the CSV and JSON digests must
also equal the ones recorded in ``digests.json`` (SVGs and the manifest are
excluded: the manifest carries a duration).  For any seed the physics
invariants below must hold.
"""

import csv
import hashlib
import json
import math
from collections import defaultdict
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

REL_TOL = 1e-9  # FI <= GFI <= QFI and sum(weights) == 1, up to roundoff
ABS_TOL = 1e-12


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _column(path, name):
    return [float(row[name]) for row in _rows(path)]


def _le(a, b):
    return a <= b + REL_TOL * abs(b) + ABS_TOL


def data_digests(out_dir) -> dict:
    """{file name: sha256} of the job's CSV and JSON data files."""
    out_dir = Path(out_dir)
    return {
        p.name: _sha256(p)
        for p in sorted(out_dir.iterdir())
        if p.suffix in (".csv", ".json") and p.name != "manifest.json"
    }


def _nonnegative(path, column):
    bad = [v for v in _column(path, column) if not v >= 0.0]
    return [f"{path.name}: {len(bad)} negative or NaN {column} values"] if bad else []


def _fisher_hierarchy(out):
    fi, gfi, qfi = (_column(out / f"{k}_series.csv", "value") for k in ("fi", "gfi", "qfi"))
    broken = sum(1 for a, b, c in zip(fi, gfi, qfi) if not (0.0 <= a and _le(a, b) and _le(b, c)))
    return [f"FI <= GFI <= QFI broken at {broken} steps"] if broken else []


def _posterior(out):
    sums = defaultdict(float)
    problems = []
    for row in _rows(out / "posterior.csv"):
        weight = float(row["weight"])
        if not weight >= 0.0:
            problems.append(f"posterior.csv: weight {weight} at t={row['t']}")
        sums[row["t"]] += weight
    problems += [f"posterior.csv: weights at t={t} sum to {s!r}" for t, s in sums.items()
                 if not abs(s - 1.0) <= REL_TOL]
    return problems + _nonnegative(out / "estimation.csv", "msre")


def _ensemble(out):
    return _nonnegative(out / "ensemble.csv", "mean") + _nonnegative(out / "ensemble.csv", "std")


def _phase_diagram(out):
    bad = 0
    for row in _rows(out / "phase_diagram.csv"):
        if row["status"] == "gapless":
            bad += row["winding"] != ""
        else:
            bad += row["status"] != "gapped" or row["winding"] not in ("-1", "0", "1")
    return [f"phase_diagram.csv: {bad} points outside {{-1, 0, 1, gapless}}"] if bad else []


def _spectrum(out):
    bad = [e for e in _column(out / "spectrum.csv", "quasi_energy") if not -math.pi < e <= math.pi]
    return [f"spectrum.csv: {len(bad)} quasi-energies outside (-pi, pi]"] if bad else []


_INVARIANTS = {
    "fi-scaling": lambda out: _nonnegative(out / "fi_series.csv", "value"),
    "avg-fi": lambda out: _nonnegative(out / "fi_series.csv", "value")
    + _nonnegative(out / "avg_fi_series.csv", "value"),
    "fi-surface": lambda out: _nonnegative(out / "fi_surface.csv", "value"),
    "gfi-qfi": _fisher_hierarchy,
    "bayes": _posterior,
    "disorder": _ensemble,
    "phase-diagram": _phase_diagram,
    "spectrum": _spectrum,
}


def check_job(experiment, out_dir, expected_digests=None) -> list[str]:
    """Problems found in a job's outputs; an empty list means the job passed."""
    out = Path(out_dir)
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        problems = [
            f"{entry['name']}: hash differs from manifest"
            for entry in manifest["files"]
            if _sha256(out / entry["name"]) != entry["sha256"]
        ]
        if expected_digests is not None:
            found = data_digests(out)
            problems += [
                f"{name}: digest {found.get(name)} != recorded {digest}"
                for name, digest in expected_digests.items() if found.get(name) != digest
            ]
            problems += [f"{name}: not in recorded digests" for name in found
                         if name not in expected_digests]
        return problems + _INVARIANTS[experiment](out)
    except (OSError, KeyError, ValueError) as exc:  # missing file or column, bad number
        return [f"unreadable output: {exc!r}"]


def load_digests(workload, seed):
    """Recorded {job id: {file: sha256}} for ``workload``, or None if ``seed`` has none."""
    recorded = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    if seed != recorded["seed"]:
        return None
    return recorded["workloads"][workload]
