"""Benchmark for qwsense: seeded workloads run through ``experiments.run``.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root.  ``design.json`` records why each workload exists,
which layers it loads and which it leaves idle.
"""
