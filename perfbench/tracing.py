"""Spans, counters and memory peaks recorded around qwsense's public functions.

Everything here wraps module or class attributes from outside the package and
puts the originals back afterwards.  qwsense modules call each other through
module attributes (``kernels.split_step``, ``bayes.candidate_probability_table``
looked up in the module globals), so the wrappers see every call.  Spans are
single-threaded: the benchmark runs every job with ``threads=1``.
"""

import contextlib
import os
import time
import tracemalloc
from collections import defaultdict


def _nbytes(args):
    return sum(getattr(a, "nbytes", 0) for a in args)


# A work counter is (field names, fn(args, kwargs, result) -> tuple of increments).

# args[0] is the (..., N, 2) state; every array argument is read or written once
_KERNEL_WORK = (("site_steps", "bytes_computed"),
                lambda args, kwargs, result: (args[0].size // 2, _nbytes(args)))

_CANDIDATE_WORK = (("candidate_site_steps",), lambda args, kwargs, result: (
    len(args[1]) * max(int(t) for t in args[2]) * args[0].lattice_size,))

_REALIZATIONS = (("realizations",), lambda args, kwargs, result: (args[0].n_realizations,))

# winding_number(theta1, theta2, n_k=topology.DEFAULT_NK)
_K_POINTS = (("k_points",), lambda args, kwargs, result: (
    args[2] if len(args) > 2 else kwargs.get("n_k", 2048),))

_FILE_BYTES = (("bytes",), lambda args, kwargs, result: (result.stat().st_size,))

_CSV_WORK = (("rows", "bytes"), lambda args, kwargs, result: (len(args[2]), result.stat().st_size))

_HASHED_BYTES = (("bytes",), lambda args, kwargs, result: (os.path.getsize(args[0]),))


# (module, attribute, work counter) wrapped with a span per call
SPAN_TARGETS = (
    ("config", "validate_config", None),
    ("experiments", "run", None),
    ("metrology", "pair_trajectory", None),
    ("metrology", "fisher_at_defect", None),
    ("metrology", "global_fisher", None),
    ("metrology", "quantum_fisher", None),
    ("metrology", "averaged_fisher", None),
    ("metrology", "fit_scaling", None),
    ("bayes", "candidate_probability_table", _CANDIDATE_WORK),
    ("bayes", "defect_probability_series", None),
    ("bayes", "informative_schedule", None),
    ("bayes", "estimation_curve", None),
    ("bayes", "posterior", None),
    ("disorder", "sample_disorder", None),
    ("disorder", "ensemble_fisher", _REALIZATIONS),
    ("disorder", "ensemble_msre", _REALIZATIONS),
    ("spectral", "build_step_matrix", None),
    ("spectral", "decompose_step_operator", None),
    ("spectral", "find_localized_states", None),
    ("topology", "phase_diagram", None),
    ("topology", "winding_number", _K_POINTS),
    ("serialize", "write_csv", _CSV_WORK),
    ("serialize", "write_json", None),  # the manifest holds a duration: bytes vary
    ("serialize", "sha256_path", _HASHED_BYTES),
    ("plotting", "render_plot", _FILE_BYTES),
)

# (owner path, attribute, metric name, work counter, timed) aggregated into
# counters only: an estimation pass makes ~10^5 kernel calls, too many for spans
COUNTER_TARGETS = (
    ("kernels", "split_step", "kernels.split_step", _KERNEL_WORK, True),
    ("kernels", "split_step_pair", "kernels.split_step_pair", _KERNEL_WORK, True),
    ("walk.CoinField", "half_angle_tables", "walk.CoinField.half_angle_tables", None, True),
    ("walk.CoinField", "__post_init__", "walk.CoinField.constructed", None, False),
)

# functions whose incremental tracemalloc peak the memory pass records
MEMORY_TARGETS = (
    ("metrology", "pair_trajectory"),
    ("bayes", "candidate_probability_table"),
    ("spectral", "decompose_step_operator"),
)


def _owner(qwsense, path):
    obj = qwsense
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


@contextlib.contextmanager
def patched(qwsense, replacements):
    """Install ``{(owner path, attribute): wrap(original)}`` and restore on exit.

    A target that does not exist stops the run: its metrics would otherwise
    read zero, which looks like a gain.
    """
    saved = []
    try:
        for (path, attr), wrap in replacements.items():
            try:
                owner = _owner(qwsense, path)
                original = owner.__dict__[attr]
            except (AttributeError, KeyError):
                raise SystemExit(f"perfbench: qwsense has no {path}.{attr} to trace") from None
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _work_keys(name, work):
    if work is None:
        return (), None
    fields, count = work
    return tuple(f"{name}.{field}" for field in fields), count


class Tracer:
    """In-memory spans plus per-name counters for one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, job id, error]
        self.counters = defaultdict(int)
        self.job = None
        self._stack = []

    def span(self, name, fn, work):
        spans, stack, counters = self.spans, self._stack, self.counters
        keys, count = _work_keys(name, work)

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.job, False]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[5] = True
                raise
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if work is not None:
                for key, value in zip(keys, count(args, kwargs, result)):
                    counters[key] += value
            return result

        return wrapper

    def counter(self, name, fn, work, timed):
        counters = self.counters
        calls, busy, errors = f"{name}.calls", f"{name}.busy_s", f"{name}.errors"
        keys, count = _work_keys(name, work)

        def wrapper(*args, **kwargs):
            start = time.perf_counter() if timed else 0.0
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counters[errors] += 1
                raise
            finally:
                counters[calls] += 1
                if timed:
                    counters[busy] += time.perf_counter() - start
            if work is not None:
                for key, value in zip(keys, count(args, kwargs, result)):
                    counters[key] += value
            return result

        return wrapper

    def replacements(self):
        """Wrappers for every span and counter target, keyed for :func:`patched`."""
        out = {}
        for module, attr, work in SPAN_TARGETS:
            out[(module, attr)] = lambda fn, n=f"{module}.{attr}", w=work: self.span(n, fn, w)
        for path, attr, name, work, timed in COUNTER_TARGETS:
            out[(path, attr)] = lambda fn, n=name, w=work, t=timed: self.counter(n, fn, w, t)
        return out

    def summary(self):
        """{name: {calls, busy_s, self_s, errors}} over spans, plus the raw counters."""
        return summarize(self.spans), dict(self.counters)


def covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def summarize(spans):
    """Per-name calls, inclusive busy time, self time and errors.

    A span's self time is its duration minus the part of that interval its
    child spans cover.
    """
    children = defaultdict(list)
    for name, start, end, parent, _job, _err in spans:
        if parent is not None:
            children[parent].append((start, end))
    stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0})
    for index, (name, start, end, _parent, _job, error) in enumerate(spans):
        inside = [(max(s, start), min(e, end)) for s, e in children.get(index, ())]
        entry = stats[name]
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += (end - start) - covered([iv for iv in inside if iv[1] > iv[0]])
        entry["errors"] += int(error)
    return dict(stats)


class PeakTracker:
    """Incremental tracemalloc peaks of nested regions (jobs and layer calls).

    ``tracemalloc.reset_peak`` is global, so every open region folds the
    current peak into its own maximum before any reset.
    """

    def __init__(self):
        self._frames = []  # [traced bytes at entry, highest traced bytes seen]
        self.layer_peaks = defaultdict(int)

    def _fold(self):
        peak = tracemalloc.get_traced_memory()[1]
        for frame in self._frames:
            frame[1] = max(frame[1], peak)

    @contextlib.contextmanager
    def region(self):
        """Yields a one-element list that holds the region's peak bytes on exit."""
        self._fold()
        frame = [tracemalloc.get_traced_memory()[0], 0]
        self._frames.append(frame)
        tracemalloc.reset_peak()
        out = [0]
        try:
            yield out
        finally:
            self._fold()
            self._frames.pop()
            out[0] = frame[1] - frame[0]

    def wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            with self.region() as peak:
                result = fn(*args, **kwargs)
            self.layer_peaks[name] = max(self.layer_peaks[name], peak[0])
            return result

        return wrapper

    def replacements(self):
        return {
            (module, attr): lambda fn, n=f"{module}.{attr}": self.wrap(n, fn)
            for module, attr in MEMORY_TARGETS
        }
