"""cProfile over the timed ops of one kind of one benchmark workload.

    python tools/profile_ops.py --workload hub_board --kind insert --seed 7 --seconds 1

Runs the workload exactly as ``bench/run.py --workload W --trace 0`` does
(``bench.harness.run_workload``: set-up three times, warm-up ops, then the
measured ops) and profiles only the measured ops whose kind is ``K``.  The
profiler is switched on and off around ``Workload.apply`` by a subclass made
here, so ``bench/`` runs as written and set-up, warm-up, the oracle checks
and the ops of other kinds stay out of the profile.

Prints the top functions by self time and by cumulative time, in wall-clock
seconds of this run: read them as shares, not as calibrated latencies.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench import harness  # noqa: E402  (needs the path set up above)

#: Rows per table.
TOP = 25


def profiled(workload_class, kind: str, profiler: cProfile.Profile):
    """``workload_class`` with its measured ops of ``kind`` profiled."""

    class Profiled(workload_class):
        measuring = False
        profiled_ops = 0

        def begin_measured(self) -> None:
            super().begin_measured()
            self.measuring = True

        def apply(self, op):
            if not (self.measuring and op.kind == kind):
                return super().apply(op)
            type(self).profiled_ops += 1
            profiler.enable()
            try:
                return super().apply(op)
            finally:
                profiler.disable()

    Profiled.__name__ = f"Profiled{workload_class.__name__}"
    return Profiled


def table(stats: pstats.Stats, order: str) -> str:
    out = io.StringIO()
    stats.stream = out
    stats.sort_stats(order).print_stats(TOP)
    # pstats prints a header naming the sort; keep only the rows.
    lines = out.getvalue().splitlines()
    start = next((i for i, line in enumerate(lines) if line.lstrip().startswith("ncalls")), 0)
    return "\n".join(lines[start:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--kind", required=True, help="op kind to profile (e.g. insert)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args(argv)

    profiler = cProfile.Profile()
    original = harness.WORKLOADS[args.workload]
    harness.WORKLOADS[args.workload] = wrapped = profiled(original, args.kind, profiler)
    try:
        report = harness.run_workload(args.workload, args.seed, args.seconds)
    finally:
        harness.WORKLOADS[args.workload] = original

    print(f"{args.workload} seed {args.seed} {args.seconds:g} s: "
          f"{wrapped.profiled_ops} measured {args.kind!r} ops profiled, "
          f"failed {report['failed']}")
    if not wrapped.profiled_ops:
        sys.stderr.write(f"no measured op of kind {args.kind!r}\n")
        return 2
    stats = pstats.Stats(profiler).strip_dirs()
    print(f"total {stats.total_tt:.4f} s under the profiler")
    print(f"\n-- top {TOP} by self time --")
    print(table(stats, "tottime"))
    print(f"\n-- top {TOP} by cumulative time --")
    print(table(stats, "cumulative"))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
