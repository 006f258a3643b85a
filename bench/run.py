#!/usr/bin/env python3
"""One command for every number: ``python3 bench/run.py``.

Three ways to call it:

``--workload NAME --seed N --seconds S --trace 0|1``
    One workload in this process (the benchmark driver's contract).  Prints
    every metric by name with its unit, then — as the last line — one JSON
    object ``{"correct", "attempted", "failed", "metrics"}`` carrying the
    end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

*(no ``--workload``)* ``[--seed N] [--seconds S] [--traced]``
    The suite: each workload in its own subprocess, untraced; with
    ``--traced`` a second, traced subprocess per workload adds the per-layer
    breakdown, the layer x workload share matrix and the measured
    ``trace_overhead_share``.  Appends one line to
    ``bench/results/trajectory.jsonl``.

``--selfcheck``
    Two sets of runs of the same code on the same seed (three untraced suites
    a side, taking turns, plus one traced suite a side); fails if the median
    of an end-to-end metric moved by more than its bound, or a seeded count —
    traced ones included — moved at all.  About nine minutes.

Exit status is non-zero when any op failed, disagreed with its oracle or did
not converge.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SOURCE, "repro")):
    sys.stderr.write(f"bench/run.py: no program to measure: {SOURCE}/repro is missing\n")
    sys.exit(2)
for path in (SOURCE, ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench import metrics  # noqa: E402  (needs the path set up above)

MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
RESULTS = os.path.join(HERE, "results")
DEFAULT_SEED = 20130622          # SIGMOD 2013 opened on 22 June
CHILD_TIMEOUT_S = 170


def manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as handle:
        return json.load(handle)


def show(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


# ---------------------------------------------------------------------- #
# one workload, in this process
# ---------------------------------------------------------------------- #

def run_one(args) -> int:
    from bench.harness import run_workload

    traced = bool(args.trace)
    trace_path = None
    if traced:
        trace_path = os.path.join(RESULTS, "traces", f"{args.workload}-{args.seed}.jsonl")
    report = run_workload(args.workload, args.seed, args.seconds, traced=traced,
                          scale=args.scale, trace_path=trace_path)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, default=str)
    print_report(report)

    spec = manifest()
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    source = report["per_layer"] if traced else report["end_to_end"]
    values = {}
    for entry in wanted:
        value = source.get(entry["name"])
        if value is None:
            if not traced:
                sys.stderr.write(f"end-to-end metric {entry['name']} has no value on "
                                 f"{args.workload}\n")
                return 3
            value = 0.0      # a wrap target that is gone; named in trace_missing
        values[entry["name"]] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({"correct": report["failed"] == 0,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": values}))
    return 0 if report["failed"] == 0 else 1


def print_report(report: dict) -> None:
    name = report["workload"]
    print(f"== {name}  seed={report['seed']} seconds={report['seconds']} "
          f"traced={report['traced']} scale={report['scale']}")
    print(f"   plan sha256 {report['plan_sha256']}")
    print(f"   sizes {json.dumps(report['sizes'], sort_keys=True)}")
    print(f"   modes {json.dumps(report['modes'], sort_keys=True)}")
    print(f"   python {report['python']}  nproc {report['nproc']}  "
          f"scrubbed env {report['scrubbed_environment'] or 'nothing set'}")
    print(f"   samples {json.dumps(report['samples'], sort_keys=True)}  "
          f"attempted {report['attempted']}  failed {report['failed']}"
          f"{'  TRUNCATED' if report['truncated'] else ''}")
    for failure in report["failures"]:
        print(f"   FAILED {failure}")
    units = {n: u for n, u, _b, _bd in metrics.END_TO_END + metrics.WORKLOAD_METRICS}
    for section in ("end_to_end", "workload_metrics"):
        for metric, value in report[section].items():
            print(f"   {metric:<28} {show(value):>14} {units.get(metric, '')}")
    for metric, value in report["diagnostics"].items():
        if not isinstance(value, list):
            print(f"   ~{metric:<27} {show(value):>14} (diagnostic, not gated)")
    if report.get("per_layer") is not None:
        layer_units = {n: u for n, u, _b, _m in metrics.PER_LAYER}
        for metric, value in report["per_layer"].items():
            print(f"   {metric:<36} {show(value):>14} {layer_units.get(metric, '')}")
        for target in report.get("trace_missing", ()):
            print(f"   WARNING wrap target gone, its metrics read n/a: {target}")
        if report.get("trace_file"):
            print(f"   {report['trace_spans_written']} spans written to "
                  f"{os.path.relpath(report['trace_file'], ROOT)}")


# ---------------------------------------------------------------------- #
# the suite: one subprocess per workload
# ---------------------------------------------------------------------- #

def run_child(workload: str, seed: int, seconds: float, traced: bool, scale: float,
              quiet: bool = False) -> dict:
    os.makedirs(os.path.join(RESULTS, "scratch"), exist_ok=True)
    report_path = os.path.join(RESULTS, "scratch",
                               f"report-{workload}-{int(traced)}-{os.getpid()}.json")
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(traced)), "--scale", str(scale),
               "--report", report_path]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if not quiet:
        sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
    sys.stderr.write(done.stderr)
    if not os.path.exists(report_path):
        raise SystemExit(f"{workload}: no report (exit {done.returncode})")
    with open(report_path, encoding="utf-8") as handle:
        report = json.load(handle)
    os.unlink(report_path)
    return report


def run_suite(args, quiet: bool = False) -> dict:
    suite = {"at": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "seed": args.seed,
             "seconds": args.seconds, "scale": args.scale, "workloads": {}}
    for name in metrics.WORKLOADS:
        untraced = run_child(name, args.seed, args.seconds, False, args.scale, quiet)
        entry = {key: untraced[key] for key in (
            "plan_sha256", "sizes", "modes", "samples", "attempted", "failed",
            "end_to_end", "workload_metrics", "diagnostics", "python", "nproc")}
        if args.traced:
            traced = run_child(name, args.seed, args.seconds, True, args.scale, quiet)
            entry["per_layer"] = traced["per_layer"]
            entry["layer_self_s"] = traced["layer_self_s"]
            entry["trace_missing"] = traced["trace_missing"]
            entry["failed"] += traced["failed"]
            # layer self times are wall-clock; the overhead compares calibrated sums
            entry["traced_busy_s"] = traced["diagnostics"]["raw_busy_s"]
            busy = untraced["diagnostics"]["busy_s"]
            entry["trace_overhead_share"] = (traced["diagnostics"]["busy_s"] - busy) / busy
            wire = traced["per_layer"].get("runtime.wire_bytes_per_op")
            if wire:
                entry["workload_metrics"]["wire_bytes_per_op"] = wire
        suite["workloads"][name] = entry
    if not quiet:
        print_suite(suite, args.traced)
    return suite


def print_suite(suite: dict, traced: bool) -> None:
    names = list(suite["workloads"])
    width = max(len(n) for n in names) + 1
    print("\n== end-to-end (gated by BENCHMARK.json) and workload metrics")
    print(f"{'metric':<26}" + "".join(f"{n:>{width}}" for n in names))
    for section, table in (("end_to_end", metrics.END_TO_END),
                           ("workload_metrics", metrics.WORKLOAD_METRICS)):
        for metric, unit, _better, _bound in table:
            row = "".join(f"{show(suite['workloads'][n][section].get(metric)):>{width}}"
                          for n in names)
            print(f"{metric + ' [' + unit + ']':<26}{row}")
    if traced:
        print("\n== share of the traced wall by layer (self time)")
        print(f"{'layer':<26}" + "".join(f"{n:>{width}}" for n in names))
        for layer in metrics.LAYERS + ("client", "trace"):
            cells = []
            for n in names:
                entry = suite["workloads"][n]
                share = entry["layer_self_s"].get(layer, 0.0) / entry["traced_busy_s"]
                cells.append(f"{share:>{width}.1%}")
            print(f"{layer:<26}" + "".join(cells))
        row = "".join(f"{suite['workloads'][n]['trace_overhead_share']:>{width}.1%}"
                      for n in names)
        print(f"{'trace_overhead_share':<26}{row}")
    failed = sum(entry["failed"] for entry in suite["workloads"].values())
    print(f"\nfailed ops across the suite: {failed}")


def record(suite: dict) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "trajectory.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(suite, sort_keys=True) + "\n")


# ---------------------------------------------------------------------- #
# --selfcheck: is the benchmark itself steady?
# ---------------------------------------------------------------------- #

SELFCHECK_ROUNDS = 3


def selfcheck(args) -> int:
    """Two sets of runs of the same code and seed must agree within the bounds.

    One bad minute on this box moves a single run by 10-15 %, so each side is
    the median of :data:`SELFCHECK_ROUNDS` suites, the two sides taking turns;
    the last suite of each side also runs traced, for the traced counts.
    """
    suites = []
    for turn in range(2 * SELFCHECK_ROUNDS):
        args.traced = turn >= 2 * (SELFCHECK_ROUNDS - 1)      # the last pair only
        suites.append(run_suite(args, quiet=True)["workloads"])
    sides = (suites[0::2], suites[1::2])
    bounds = {n: b for n, _u, _better, b in metrics.END_TO_END + metrics.WORKLOAD_METRICS}
    bad = 0

    def verdict_line(name, metric, before, after, limit, gated=True):
        nonlocal bad
        if before is None and after is None:
            return
        if before is None or after is None:
            moved, verdict = float("inf"), "APPEARED/VANISHED"
        else:
            moved = abs(after - before) / abs(before) if before else abs(after)
            verdict = "ok" if moved <= limit else f"MOVED (limit {limit:.0%})"
        if gated:
            bad += verdict != "ok"
        elif verdict != "ok":
            verdict += ", not gated"
        print(f"{name:<13} {metric:<26} {show(before):>12} -> {show(after):>12} "
              f"{moved:>8.2%}  {verdict}")

    print(f"\n== selfcheck, seed {args.seed}: median of {SELFCHECK_ROUNDS} runs a side")
    for name in metrics.WORKLOADS:
        entries = [suite[name] for suite in suites]
        if len({entry["plan_sha256"] for entry in entries}) != 1:
            print(f"{name}: plan digest differs — the generator is not a function of the seed")
            bad += 1
        bad += sum(entry["failed"] for entry in entries)
        for section in ("end_to_end", "workload_metrics"):
            for metric in entries[0][section]:
                # wire_bytes_per_op exists in the traced suites only
                seen = [[value for value in (suite[name][section][metric] for suite in side)
                         if value is not None] for side in sides]
                if bounds[metric] == metrics.COUNT:
                    flat = seen[0] + seen[1]
                    if flat:
                        verdict_line(name, metric, min(flat), max(flat), metrics.COUNT)
                else:
                    # a class with three or five ops a run (view opens, deletes,
                    # crashes) cannot hold a bound: shown, gated by nobody
                    before, after = (metrics.median(values) for values in seen)
                    verdict_line(name, metric, before, after, bounds[metric],
                                 gated=section == "end_to_end")
        for metric in metrics.EXACT_PER_LAYER:
            before, after = (side[-1][name]["per_layer"].get(metric) for side in sides)
            verdict_line(name, metric, before, after, metrics.COUNT)
    print("selfcheck", "FAILED" if bad else "passed")
    return 1 if bad else 0


# ---------------------------------------------------------------------- #

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: report the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="suite: add a traced run per workload")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink sizes and op counts (smoke tests use 0.05)")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--report", help="with --workload: also write the full report here")
    args = parser.parse_args(argv)
    if args.workload and (args.traced or args.selfcheck):
        parser.error("--traced and --selfcheck run the suite; with --workload use --trace 1")
    if not args.workload and (args.trace or args.report):
        parser.error("--trace and --report go with --workload; the suite takes --traced")
    if args.seconds is None:
        args.seconds = float(manifest()["run_seconds"])
    if args.selfcheck:
        return selfcheck(args)
    if args.workload:
        return run_one(args)
    suite = run_suite(args)
    record(suite)
    return 1 if any(e["failed"] for e in suite["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
