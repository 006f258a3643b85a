"""Timing and report-metadata helpers shared by the ``benchmarks/`` scripts."""

from __future__ import annotations

import datetime
import os
import platform
import time
from typing import Any, Callable, Dict, List, Tuple


def time_repeated(function: Callable[[], Any], repeats: int = 1
                  ) -> Tuple[Dict[str, float], Any]:
    """Best-of-N timing of ``function``.

    Runs ``function`` ``repeats`` times and returns ``(timing, last_result)``
    where ``timing`` holds the individual run times plus ``best`` and
    ``mean`` — the shape every ``BENCH_*.json`` embeds per measurement so a
    report is interpretable without knowing how it was produced.
    """
    times: List[float] = []
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = function()
        times.append(time.perf_counter() - start)
    timing = {
        "best_seconds": round(min(times), 6),
        "mean_seconds": round(sum(times) / len(times), 6),
        "runs_seconds": [round(t, 6) for t in times],
    }
    return timing, result


def machine_metadata() -> Dict[str, Any]:
    """The machine description embedded in every benchmark report."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def bench_metadata(repeats: int = 1, **extra: Any) -> Dict[str, Any]:
    """Standard metadata block for ``BENCH_*.json`` reports.

    Embeds the machine description, the repeat policy (``repeats`` runs,
    best-of-N timings) and a UTC timestamp; ``extra`` keys are merged in so
    benchmarks can record their parameters alongside.
    """
    metadata: Dict[str, Any] = {
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "repeats": max(1, repeats),
        "timing": "best-of-N wall clock (see runs_seconds per measurement)",
        "machine": machine_metadata(),
    }
    metadata.update(extra)
    return metadata
