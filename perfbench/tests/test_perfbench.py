"""The benchmark's own tests: job generation, tracing, self time, output checks.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import sys
import tracemalloc
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, tracing  # noqa: E402
from perfbench.jobs import WORKLOADS, job_list, warmup_jobs  # noqa: E402
from perfbench.run import _SUMMED_COUNTERS, Runner, cross_findings  # noqa: E402
from perfbench.setup_probe import import_qwsense  # noqa: E402


@pytest.fixture(scope="module")
def qwsense():
    return import_qwsense()


def tiny_jobs():
    """One small job per experiment kind across all workloads."""
    return [job for w in WORKLOADS for job in warmup_jobs(job_list(w, 0))]


def make_runner(qwsense, out_root):
    jobs = tiny_jobs()
    configs = [qwsense.config.validate_config(job.doc) for job in jobs]
    return Runner(qwsense, jobs, configs, None, out_root)


def digests_of(runner):
    return {job.id: checks.data_digests(runner.out_root / job.id) for job in runner.jobs}


def traced_pass(runner):
    tracer = tracing.Tracer()
    with tracing.patched(runner.qwsense, tracer.replacements()):
        runner.run_pass(tracer)
    return tracer


@pytest.mark.parametrize("workload", WORKLOADS)
def test_job_list_is_deterministic_and_follows_the_seed(workload):
    assert job_list(workload, 7) == job_list(workload, 7)
    assert job_list(workload, 7) != job_list(workload, 8)
    # the seed draws inputs, never the job set
    assert [j.id for j in job_list(workload, 7)] == [j.id for j in job_list(workload, 8)]


def test_every_patched_attribute_is_restored_and_outputs_match(qwsense, tmp_path):
    owners = [(module, attr) for module, attr, _ in tracing.SPAN_TARGETS]
    owners += [(path, attr) for path, attr, *_ in tracing.COUNTER_TARGETS]
    owners += list(tracing.MEMORY_TARGETS)
    before = {key: tracing._owner(qwsense, key[0]).__dict__[key[1]] for key in owners}

    runner = make_runner(qwsense, tmp_path / "traced")
    traced_pass(runner)
    traced = digests_of(runner)
    runner.memory_pass()
    after = {key: tracing._owner(qwsense, key[0]).__dict__[key[1]] for key in owners}
    assert all(after[key] is before[key] for key in owners)

    plain = make_runner(qwsense, tmp_path / "plain")
    plain.run_pass()
    assert digests_of(plain) == traced
    assert runner.failed == plain.failed == 0


def test_a_missing_target_stops_the_run_and_restores_the_rest(qwsense):
    original = qwsense.kernels.split_step
    replacements = {("kernels", "split_step"): lambda fn: None,
                    ("kernels", "no_such_kernel"): lambda fn: None}
    with pytest.raises(SystemExit, match="kernels.no_such_kernel"):
        with tracing.patched(qwsense, replacements):
            pass
    assert qwsense.kernels.split_step is original


def test_cross_workload_share_is_computed_from_both_workloads():
    site_steps = "kernels.split_step.site_steps"
    values = {w: {site_steps: 1000} for w in WORKLOADS}
    values["structure"][site_steps] = 5
    assert cross_findings(values) == [
        f"holds: structure {site_steps} / estimation's = 0.005 (expected < 0.01)"]
    values["structure"][site_steps] = 50
    assert cross_findings(values)[0].startswith("DISAGREES")


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ["root", 0.0, 10.0, None, "j", False],
        ["child", 1.0, 4.0, 0, "j", False],
        ["child", 3.0, 6.0, 0, "j", False],  # overlaps the first child: [1, 6] covered once
        ["leaf", 2.0, 3.0, 1, "j", True],
        ["child", 8.0, 12.0, 0, "j", False],  # runs past its parent: only [8, 10] counts
    ]
    stats = tracing.summarize(spans)
    assert stats["root"] == {"calls": 1, "busy_s": 10.0, "self_s": 3.0, "errors": 0}
    assert stats["child"]["calls"] == 3
    assert stats["child"]["busy_s"] == pytest.approx(10.0)
    assert stats["child"]["self_s"] == pytest.approx(9.0)
    assert stats["leaf"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0, "errors": 1}
    assert tracing.covered([(0, 2), (1, 3), (5, 6)]) == 4


def test_counts_repeat_exactly_across_traced_runs(qwsense, tmp_path):
    runner = make_runner(qwsense, tmp_path)
    first, second = traced_pass(runner), traced_pass(runner)
    calls = [{name: s["calls"] for name, s in t.summary()[0].items()} for t in (first, second)]
    assert calls[0] == calls[1]
    counts = [{k: v for k, v in t.counters.items() if not k.endswith("busy_s")}
              for t in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["kernels.split_step.site_steps"] > 0
    assert counts[0]["kernels.split_step_pair.site_steps"] > 0


def test_peak_tracker_folds_nested_regions():
    tracker = tracing.PeakTracker()
    tracemalloc.start()
    try:
        with tracker.region() as outer:
            big = bytearray(4_000_000)
            del big
            with tracker.region() as inner:
                small = bytearray(1_000_000)
                del small
    finally:
        tracemalloc.stop()
    assert 1_000_000 <= inner[0] < 2_000_000
    assert outer[0] >= 4_000_000  # the inner reset_peak must not hide the earlier peak


def test_output_checks_catch_broken_files(qwsense, tmp_path):
    runner = make_runner(qwsense, tmp_path)
    runner.run_pass()
    job = next(j for j in runner.jobs if j.experiment == "gfi-qfi")
    out = tmp_path / job.id
    recorded = checks.data_digests(out)
    assert checks.check_job(job.experiment, out, recorded) == []

    lines = (out / "qfi_series.csv").read_text().splitlines()
    t, *_ = lines[5].split(",")
    lines[5] = f"{t},0.0,0"  # QFI below GFI at one step
    (out / "qfi_series.csv").write_text("\n".join(lines) + "\n")
    problems = checks.check_job(job.experiment, out, recorded)
    assert any("manifest" in p for p in problems)
    assert any("recorded" in p for p in problems)
    assert any("FI <= GFI <= QFI" in p for p in problems)


def test_every_per_layer_metric_has_a_source():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sources = {f"{module}.{attr}" for module, attr, _ in tracing.SPAN_TARGETS}
    sources |= {name for _, _, name, *_ in tracing.COUNTER_TARGETS}
    for metric in spec["per_layer"]:
        name = metric["name"]
        base = name.rpartition(".")[0]
        assert name in _SUMMED_COUNTERS or base in sources or base == "trace", name
