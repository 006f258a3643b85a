"""Measurement and reporting helpers for the ``benchmarks/`` scripts.

* :mod:`repro.bench.harness` — best-of-N timing (``time_repeated``) and the
  metadata block every ``BENCH_*.json`` report embeds (``bench_metadata``);
* :mod:`repro.bench.reporting` — aligned plain-text tables (``format_table``).
"""

from repro.bench.harness import bench_metadata, time_repeated
from repro.bench.reporting import format_table

__all__ = [
    "bench_metadata",
    "time_repeated",
    "format_table",
]
