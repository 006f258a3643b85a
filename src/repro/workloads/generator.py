"""Seeded samplers for synthetic workloads.

:class:`ZipfSampler` draws the skewed fan-out of annotation traffic (a few
popular pictures soak up most ratings); the benchmark's hub workloads build
their rating streams from it.
"""

from __future__ import annotations

import bisect
import random
from typing import List, Optional

from repro.core.errors import WorkloadError


class ZipfSampler:
    """Draws ranks ``0..size-1`` with probability proportional to
    ``1 / (rank + 1) ** exponent`` — the fan-out law of real annotation
    traffic, where a handful of pictures receive most of the ratings.

    ``exponent`` 0 degenerates to uniform; around 1 is the classic Zipf
    shape; larger values concentrate harder on the head.  Sampling is
    inverse-CDF over a precomputed cumulative table (O(log size) per draw),
    so a million-fact workload costs a million bisections, not a million
    weight recomputations.  Deterministic given its ``rng``.
    """

    __slots__ = ("size", "exponent", "rng", "_cumulative", "_total")

    def __init__(self, size: int, exponent: float,
                 rng: Optional[random.Random] = None):
        if size < 1:
            raise WorkloadError("ZipfSampler needs a positive population size")
        if exponent < 0:
            raise WorkloadError("zipf exponent must be non-negative")
        self.size = size
        self.exponent = exponent
        self.rng = rng if rng is not None else random.Random(0)
        cumulative: List[float] = []
        total = 0.0
        for rank in range(1, size + 1):
            total += 1.0 / rank ** exponent
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total

    def sample(self) -> int:
        """One rank, head-biased according to the exponent."""
        return bisect.bisect_left(self._cumulative,
                                  self.rng.random() * self._total)

    def sample_many(self, count: int) -> List[int]:
        """``count`` independent ranks."""
        return [self.sample() for _ in range(count)]
