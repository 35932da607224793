"""qwsense benchmark: seeded experiment jobs through the public entry point ``experiments.run``.

    python3 perfbench/run.py --workload estimation --seed 0 --seconds 20 --trace 0

Each workload is a closed loop with one client in one process: its jobs run
back to back, each as ``experiments.run(cfg, out_dir, threads=1)`` including
CSV/JSON/SVG emission and the manifest, and one pass runs every job once.

``--trace 0`` reports the end-to-end metrics:
  setup_s   median over cold set-ups (fresh interpreters running setup_probe.py)
  wall_s    median pass time over the passes run until ``--seconds`` of job
            time are measured; the process moves to the next CPU after
            every pass
  peak_mb   highest tracemalloc peak over the jobs, from a memory pass of its own
  ok_frac   share of attempted jobs that ran and passed the output checks
            (1 - fail_frac; both are printed)
``--trace 1`` alternates untraced and traced passes for ``--seconds`` and
reports the per-layer metrics named in BENCHMARK.json, the tracing overhead,
and whether the workload design in design.json holds.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Full results, the environment block and the traced spans are
written under ``.perfbench-work/``.  ``--workload all`` runs every workload
and prints their summaries; with ``--trace 1`` it also checks the design
expectations that compare workloads (structure's kernel work against
estimation's).  ``--record-digests`` rewrites digests.json from the default
seed.
"""

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, tracing  # noqa: E402
from perfbench.jobs import DEFAULT_SEED, WORKLOADS, job_list  # noqa: E402
from perfbench.setup_probe import PINNED_ENV, WORK, set_up  # noqa: E402

SETUP_SAMPLES = 9
PROBE_TIMEOUT_S = 60
MB = 1e6
SPANS_KEPT = 1  # traced passes whose spans are written out


def _metric_specs(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def environment(workload, seed):
    import numpy
    import scipy
    import qwsense

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "backend": qwsense.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in PINNED_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": sha or "unknown",
        "workload": workload,
        "seed": seed,
    }


def setup_sample(workload, seed):
    """Cold set-up seconds of one fresh interpreter running setup_probe.py."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: setup probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Runner:
    """Runs passes over one workload's jobs and checks every job's outputs."""

    def __init__(self, qwsense, jobs, configs, digests, out_root):
        self.qwsense = qwsense
        self.jobs = jobs
        self.configs = configs
        self.digests = digests
        self.out_root = Path(out_root)
        self.attempted = 0
        self.failed = 0  # job runs that raised or failed a check
        self.failures = []  # (job id, problem)

    def run_job(self, index):
        """Seconds spent in experiments.run for job ``index``; failures are recorded."""
        job, cfg = self.jobs[index], self.configs[index]
        out = self.out_root / job.id
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        start = time.perf_counter()
        try:
            self.qwsense.experiments.run(cfg, out, threads=1)
        except Exception as exc:  # a failing job is counted, the benchmark goes on
            elapsed = time.perf_counter() - start
            problems = [f"raised {exc!r}"]
        else:
            elapsed = time.perf_counter() - start
            expected = None if self.digests is None else self.digests.get(job.id, {})
            problems = checks.check_job(job.experiment, out, expected)
        self.failed += bool(problems)
        self.failures += [(job.id, problem) for problem in problems]
        return elapsed

    def run_pass(self, tracer=None):
        """Seconds in experiments.run for each job of one pass."""
        gc.collect()
        times = []
        for index, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = job.id
            times.append(self.run_job(index))
        return times

    def memory_pass(self):
        """(peak bytes per job, per-layer peak bytes) with tracemalloc on for this pass only."""
        tracker = tracing.PeakTracker()
        peaks = []
        gc.collect()
        tracemalloc.start()
        try:
            with tracing.patched(self.qwsense, tracker.replacements()):
                for index in range(len(self.jobs)):
                    with tracker.region() as peak:
                        self.run_job(index)
                    peaks.append(peak[0])
        finally:
            tracemalloc.stop()
        return peaks, dict(tracker.layer_peaks)


def timed_passes(runner, seconds, traced, probe=None, probes=0):
    """Passes until ``seconds`` of job time are measured, rotating over the allowed CPUs.

    On a shared host each CPU flips between a fast and a ~1.5x slower state
    for seconds at a time, independently of the other CPUs; moving to the
    next CPU after every pass (after every untraced/traced pair when
    ``traced``) samples all of them.  ``probe`` is called before each of the
    first ``probes`` passes so set-up samples are spread over the run too.

    Returns (per-job seconds of each untraced pass, [(per-job seconds, tracer)
    of each traced pass], probe results).
    """
    plain, traced_runs, probed = [], [], []
    cpus = sorted(os.sched_getaffinity(0))
    measured, step = 0.0, 0
    try:
        while not plain or (traced and len(traced_runs) < len(plain)) or measured < seconds:
            os.sched_setaffinity(0, {cpus[(step // (2 if traced else 1)) % len(cpus)]})
            step += 1
            if len(probed) < probes:
                probed.append(probe())
            if traced and len(traced_runs) < len(plain):
                tracer = tracing.Tracer()
                with tracing.patched(runner.qwsense, tracer.replacements()):
                    traced_runs.append((runner.run_pass(tracer), tracer))
                measured += sum(traced_runs[-1][0])
            else:
                plain.append(runner.run_pass())
                measured += sum(plain[-1])
        probed += [probe() for _ in range(probes - len(probed))]
    finally:
        os.sched_setaffinity(0, cpus)
    return plain, traced_runs, probed


def median_pass(passes):
    """Median over passes of the pass time (the sum of its per-job seconds)."""
    return statistics.median(sum(times) for times in passes)


# per-layer metrics that are not "<span or counter name>.<field>"
_SUMMED_COUNTERS = {
    "disorder.realizations": ("disorder.ensemble_fisher.realizations",
                              "disorder.ensemble_msre.realizations"),
    "topology.k_points": ("topology.winding_number.k_points",),
    "walk.CoinField.constructed": ("walk.CoinField.constructed.calls",),
}


def pass_layer_values(names, tracer, pass_s):
    """Every per-layer metric of one traced pass except peaks and overheads."""
    stats, counters = tracer.summary()
    values = {}
    for name in names:
        base, _, field = name.rpartition(".")
        if name in _SUMMED_COUNTERS:
            values[name] = sum(counters.get(c, 0) for c in _SUMMED_COUNTERS[name])
        elif field == "ns_per_site_step":
            steps = counters.get(f"{base}.site_steps", 0)
            values[name] = counters.get(f"{base}.busy_s", 0.0) * 1e9 / steps if steps else 0.0
        elif field == "pass_share":
            values[name] = stats.get(base, {}).get("busy_s", 0.0) / pass_s
        elif base in stats and field in stats[base]:
            values[name] = stats[base][field]
        elif field.endswith("peak_mb") or base == "trace":
            continue
        else:
            values[name] = counters.get(name, 0)
    return values


def layer_metrics(units, traced_runs, plain, layer_peaks, validate_s):
    """Per-layer values: counts from the first traced pass, times as medians over passes."""
    per_pass = [pass_layer_values(units, tracer, sum(times)) for times, tracer in traced_runs]
    unsteady = []
    values = {}
    for name, unit in units.items():
        base, _, field = name.rpartition(".")
        if field == "peak_mb":
            values[name] = layer_peaks.get(base, 0) / MB
        elif name in per_pass[0]:
            series = [p[name] for p in per_pass]
            if unit in ("count", "B"):
                values[name] = series[0]
                if any(v != series[0] for v in series):
                    unsteady.append(name)
            else:
                values[name] = statistics.median(series)
    traced_s = median_pass([times for times, _ in traced_runs])
    untraced_s = median_pass(plain)
    values.update({
        "config.validate_config.busy_s": validate_s,
        "trace.untraced_pass_s": untraced_s,
        "trace.traced_pass_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    })
    missing = set(units) - set(values)
    if missing:
        raise SystemExit(f"perfbench: no way to compute {sorted(missing)}")
    return {name: values[name] for name in units}, unsteady


def _design():
    return json.loads((HERE / "design.json").read_text(encoding="utf-8"))


def _finding(holds, metric, value, rule):
    return f"{'holds' if holds else 'DISAGREES'}: {metric} = {value:.6g} (expected {rule})"


def design_findings(workload, values):
    """Each workload-design expectation in design.json, with what was measured."""
    findings = []
    for check in _design()["workloads"][workload].get("expect", []):
        value = values[check["metric"]]
        if "at_least" in check:
            holds, rule = value >= check["at_least"], f">= {check['at_least']}"
        else:
            holds, rule = value == check["equals"], f"== {check['equals']}"
        findings.append(_finding(holds, check["metric"], value, rule))
    return findings


def cross_findings(values):
    """design.json's expectations that compare workloads; ``values`` is {workload: metrics}."""
    findings = []
    for workload, design in _design()["workloads"].items():
        for check in design.get("expect_share_of", []):
            metric, other = check["metric"], check["workload"]
            reference = values[other][metric]
            share = values[workload][metric] / reference if reference else float("inf")
            findings.append(_finding(share < check["below"], f"{workload} {metric} / {other}'s",
                                     share, f"< {check['below']}"))
    return findings


def write_spans(path, traced_runs):
    with open(path, "w", encoding="utf-8") as handle:
        for number, (_, tracer) in enumerate(traced_runs[:SPANS_KEPT]):
            for name, start, end, parent, job, error in tracer.spans:
                handle.write(json.dumps({"pass": number, "name": name, "start": start,
                                         "end": end, "parent": parent, "job": job,
                                         "error": error}) + "\n")


def benchmark(args):
    jobs = job_list(args.workload, args.seed)
    digests = checks.load_digests(args.workload, args.seed)
    out_root = WORK / f"{args.workload}-seed{args.seed}"
    qwsense, configs = set_up(jobs, out_root / "warmup")
    runner = Runner(qwsense, jobs, configs, digests, out_root)

    validate_s = 0.0
    if args.trace:  # validation under the tracer, for config.validate_config.busy_s
        tracer = tracing.Tracer()
        with tracing.patched(qwsense, tracer.replacements()):
            for job in jobs:
                qwsense.config.validate_config(job.doc)
        validate_s = tracer.summary()[0]["config.validate_config"]["busy_s"]

    plain, traced_runs, samples = timed_passes(
        runner, args.seconds, args.trace,
        probe=lambda: setup_sample(args.workload, args.seed),
        probes=0 if args.trace else SETUP_SAMPLES,
    )
    job_peaks, layer_peaks = runner.memory_pass()
    failed = runner.failed
    result = {
        "environment": environment(args.workload, args.seed),
        "jobs": [job.id for job in jobs],
        "setup_samples_s": samples,
        "untraced_job_s": plain,
        "traced_job_s": [p for p, _ in traced_runs],
        "job_peak_mb": {job.id: peak / MB for job, peak in zip(jobs, job_peaks)},
        "attempted": runner.attempted,
        "failed": failed,
        "failures": runner.failures[:50],
    }
    lines = [f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}",
             "environment " + json.dumps(result["environment"], sort_keys=True)]
    if args.trace:
        units = _metric_specs("per_layer")
        metrics, unsteady = layer_metrics(units, traced_runs, plain, layer_peaks, validate_s)
        lines += [f"{name} {value:.6g} {units[name]}" for name, value in metrics.items()]
        lines.append(f"tracing overhead {metrics['trace.overhead_s']:+.4f} s per pass "
                     f"({len(traced_runs)} traced, {len(plain)} untraced passes)")
        lines += design_findings(args.workload, metrics)
        lines += [f"count differs between traced passes: {name}" for name in unsteady]
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(spans_path, traced_runs)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        units = _metric_specs("end_to_end")
        fail_frac = failed / runner.attempted
        metrics = {
            "setup_s": statistics.median(samples),
            "wall_s": median_pass(plain),
            "peak_mb": max(job_peaks) / MB,
            "ok_frac": 1.0 - fail_frac,
        }
        lines += [
            f"setup_s {metrics['setup_s']:.4f} s (median of {len(samples)} cold set-ups)",
            f"wall_s {metrics['wall_s']:.4f} s (median of {len(plain)} passes, "
            f"{len(jobs)} jobs each)",
            f"peak_mb {metrics['peak_mb']:.3f} MB (max over {len(jobs)} jobs, memory pass)",
            f"fail_frac {fail_frac:.4g} ratio ({failed} of {runner.attempted} jobs)",
            f"ok_frac {metrics['ok_frac']:.4g} ratio",
        ]
    result["metrics"] = metrics
    lines += [f"FAILED {job}: {problem}" for job, problem in runner.failures[:10]]
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))


def run_all(args):
    """Every workload, one after another; prints each summary without the JSON.

    With ``--trace 1`` it then checks the design expectations that compare
    one workload's layer metrics with another's.
    """
    values = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        summary = proc.stdout.splitlines()[:-1]  # the last line is the JSON result
        print("\n".join(line for line in summary if not line.startswith("environment ")))
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: {workload} failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        values[workload] = {name: m["value"] for name, m in result["metrics"].items()}
    if args.trace:
        print("\n".join(["across workloads"] + cross_findings(values)))


def record_digests():
    """Rewrite digests.json from one pass of every workload at the default seed."""
    recorded = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        jobs = job_list(workload, DEFAULT_SEED)
        out_root = WORK / f"digests-{workload}"
        qwsense, configs = set_up(jobs, out_root / "warmup")
        runner = Runner(qwsense, jobs, configs, None, out_root)
        runner.run_pass()
        if runner.failures:
            raise SystemExit(f"perfbench: {workload} failed its checks: {runner.failures}")
        recorded["workloads"][workload] = {
            job.id: checks.data_digests(out_root / job.id) for job in jobs
        }
    checks.DIGESTS_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    os.environ.update(PINNED_ENV)  # before numpy loads OpenBLAS
    WORK.mkdir(exist_ok=True)
    if args.record_digests:
        record_digests()
    elif args.workload == "all":
        run_all(args)
    elif args.workload:
        benchmark(args)
    else:
        parser.error("--workload is required")


if __name__ == "__main__":
    main()
