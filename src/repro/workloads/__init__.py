"""Synthetic workload generation.

* :mod:`repro.workloads.generator` — :class:`ZipfSampler`, the seeded
  Zipf-skewed sampler the benchmark's rating streams are drawn from.
"""

from repro.workloads.generator import ZipfSampler

__all__ = ["ZipfSampler"]
