"""One cold set-up of a workload, timed from before ``import qwsense``.

Set-up is what a CLI user pays on every invocation before the first job can
start: the import, validating every job config, and the first call of each
code path the workload uses (one tiny job per experiment kind; with numba
present this is also where kernels compile).  ``run.py`` starts this script
in a fresh interpreter several times and reports the median.

    python3 perfbench/setup_probe.py --workload estimation --seed 0
"""

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# BLAS/OpenMP pools pinned to one thread: a job is single-threaded like the
# CLI default, and a second BLAS thread only adds run-to-run spread.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.jobs import WORKLOADS, job_list, warmup_jobs  # noqa: E402


def import_qwsense():
    """qwsense from this checkout's ``src``, never from an installed copy."""
    if not (SRC / "qwsense" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qwsense sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qwsense
    import qwsense.config
    import qwsense.experiments
    import qwsense.plotting
    import qwsense.serialize

    if not Path(qwsense.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported qwsense from {qwsense.__file__}, not {SRC}")
    return qwsense


def set_up(jobs, warmup_dir):
    """Import, validate every job config, run the warm-up jobs; returns (qwsense, configs)."""
    qwsense = import_qwsense()
    configs = [qwsense.config.validate_config(job.doc) for job in jobs]
    shutil.rmtree(warmup_dir, ignore_errors=True)
    for job in warmup_jobs(jobs):
        cfg = qwsense.config.validate_config(job.doc)
        qwsense.experiments.run(cfg, Path(warmup_dir) / job.id, threads=1)
    shutil.rmtree(warmup_dir, ignore_errors=True)
    return qwsense, configs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    os.environ.update(PINNED_ENV)
    jobs = job_list(args.workload, args.seed)
    start = time.perf_counter()
    set_up(jobs, WORK / f"setup-{os.getpid()}")
    print(json.dumps({"setup_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main()
