"""One workload, one process: set up, warm up, measure, check, report.

Load is a **closed loop with one client**: the next op is issued only after
the previous one has settled and been checked.  Nothing contends, so an op's
duration is the sum of the layers on its blocking path — which is what the
traced run splits up.

Per run:

1. the workload generates its whole plan from ``--seed`` (the program sees
   none of it yet; the plan's sha256 is reported);
2. set-up runs :data:`SETUPS` times from scratch — build, bulk-load, open
   standing views, converge, replay the untimed warm-up prefix (the first 5 %
   of the ops) — and ``setup_s`` is the median; the last instance is kept;
3. every remaining op is applied (timed) and then checked against the oracle
   (untimed); an exception, a ``converge()`` that did not converge, or a view
   that disagrees with the oracle counts as a failure;
4. a final whole-state check, then the metrics.

**Calibrated time.**  This box's speed drifts by a third from one minute to
the next (a fixed pure-Python loop reads 21 ms or 29 ms per pass, CPU time
and wall time alike), so the same code on the same seed gave ``update_p50_ms``
anywhere from 30 to 46 in eight runs back to back.  The harness therefore
times a fixed :func:`reference` computation after every op and divides the
op's wall time by how much slower than :data:`REFERENCE_S` the box was just
then.  Every reported time is in those units — milliseconds on a box at
reference speed — and runs that spread 10-20 % in wall time spread 3-10 %.
The wall-clock sum is kept as a diagnostic (``raw_busy_s``, ``box_slowdown``).

End-to-end metrics always come from an untraced run.  With ``trace=True`` the
op list runs once with :mod:`bench.trace` wrappers installed and the report
carries the per-layer metrics (wall-clock seconds) instead.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from array import array
from typing import Dict, List, Optional

from bench import deploy, metrics, trace
from bench.workloads import WORKLOADS
from bench.workloads.base import (CHURN, EXPLAIN, READ, RETRACT, UPDATE, VIEW_OPEN,
                                  warmup_count)

#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 3
#: give up on the op list after this many times ``--seconds`` (a regression
#: must not turn into a hung driver); the ops not reached are not attempted
OVERRUN = 8.0
#: what :func:`reference` takes on the calibration box in its fast minutes
REFERENCE_S = 0.0005

#: a full-cycle permutation for :func:`reference` to walk
CHASE = array("l", [(index * 1664525 + 1013904223) & 0x1FFFF for index in range(1 << 17)])

RESULTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def reference() -> float:
    """Seconds the box needs right now for a fixed piece of engine-like work.

    A fifth of it builds and sorts a small table of tuples and strings, the
    rest chases indexes through an array without allocating.  Under a noisy
    neighbour the allocating part slows twice as much as the engine and the
    chase two thirds as much; this mix followed the engine within 2-3 %,
    either part alone or an arithmetic loop within 4-8 %.
    """
    start = time.perf_counter()
    table = {}
    for number in range(500):
        table[(number, str(number))] = [number]
    sorted(table)
    at = 0
    for _ in range(6000):
        at = CHASE[at]
    return time.perf_counter() - start


def run_workload(name: str, seed: int, seconds: float, traced: bool = False,
                 scale: float = 1.0, corrupt_reads: bool = False,
                 trace_path: Optional[str] = None) -> Dict[str, object]:
    """Run one workload in this process and return its full report."""
    scrubbed = deploy.scrub_environment()
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=_scratch())
    workload = WORKLOADS[name](seed=seed, seconds=seconds, scale=scale,
                               traced=traced, workdir=workdir)
    workload.generate()
    ops = workload.ops
    warm = warmup_count(len(ops))

    tracer = None
    if traced:
        tracer = trace.Tracer()
        tracer.install()

    failures: List[str] = []
    attempted = 0
    truncated = False
    setup_times: List[float] = []
    samples: Dict[str, List[float]] = {cls: [] for cls in (
        UPDATE, RETRACT, READ, VIEW_OPEN, EXPLAIN, CHURN)}
    update_rounds: List[int] = []
    stages = idle_stages = messages = 0
    try:
        # ---- set-up, several times, keeping the last ------------------- #
        for repeat in range(1 if traced else SETUPS):
            if repeat:
                workload.teardown()
            gc.collect()
            marks = [reference() for _ in range(3)]
            start = time.perf_counter()
            workload.setup()
            for index in range(warm):
                ok, _wall, _seen = _do(workload, ops[index], None, index)
                marks.append(reference())
                attempted += 1
                if not ok:
                    failures.append(f"warm-up op {index} {ops[index].kind}")
            took = time.perf_counter() - start
            marks += [reference() for _ in range(2)]
            setup_times.append(took * REFERENCE_S / metrics.median(marks))

        # ---- the measured phase ------------------------------------------- #
        workload.begin_measured()
        marks = marks[-2:]
        walls: List[float] = []
        phase_start = time.perf_counter()
        for index in range(warm, len(ops)):
            if time.perf_counter() - phase_start > OVERRUN * seconds:
                truncated = True
                break
            op = ops[index]
            ok, wall, seen = _do(workload, op, tracer, index,
                                 corrupt=corrupt_reads and op.cls == READ)
            attempted += 1
            walls.append(wall)
            marks.append(reference())
            if not ok:
                failures.append(f"op {index} {op.kind}{_brief(op.args)}")
            if seen is not None:
                stages += seen.stages
                idle_stages += seen.idle_stages
                messages += seen.messages
                if op.cls == UPDATE:
                    update_rounds.append(seen.rounds)
        marks.append(reference())
        # op k ran between marks[k + 1] and marks[k + 2]: two before, two after
        for k, wall in enumerate(walls):
            local = metrics.median(marks[k:k + 4])
            samples[ops[warm + k].cls].append(wall * REFERENCE_S / local * 1000.0)
        raw_busy = sum(walls)

        attempted += 1
        try:
            if not workload.final_check():
                failures.append("final state differs from the oracle's replay")
        except Exception:
            failures.append("final check raised: " + traceback.format_exc(limit=3))

        specific = workload.workload_metrics(samples)
        layer_counts = workload.layer_counts() if traced else {}
        modes = workload.modes()
    finally:
        if tracer is not None:
            tracer.uninstall()
        try:
            workload.teardown()
        except Exception:
            failures.append("teardown raised: " + traceback.format_exc(limit=3))

    measured = sum(len(values) for values in samples.values())
    busy = sum(sum(values) for values in samples.values()) / 1000.0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = {
        "setup_s": metrics.median(setup_times),
        "ops_per_s": measured / busy if busy else None,
        "update_p50_ms": metrics.median(samples[UPDATE]),
        "read_p50_ms": metrics.median(samples[READ]),
        "peak_rss_mb": peak_rss_mb,
    }
    specific_all = {name: None for name, *_rest in metrics.WORKLOAD_METRICS}
    specific_all.update({
        "update_p95_ms": _p95(samples[UPDATE]),
        "rounds_per_update_mean": (sum(update_rounds) / len(update_rounds)
                                   if update_rounds else None),
        "rounds_per_update_p95": metrics.percentile(update_rounds, 95),
        "retract_p50_ms": metrics.median(samples[RETRACT]),
        "read_p95_ms": _p95(samples[READ]),
        "view_open_p50_ms": metrics.median(samples[VIEW_OPEN]),
        "explain_p50_ms": metrics.median(samples[EXPLAIN]),
        "failed_share": len(failures) / attempted,
    })
    specific_all.update(specific)

    report: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "scale": scale,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "truncated": truncated,
        "plan_sha256": workload.plan_digest(),
        "sizes": workload.sizes(),
        "modes": modes,
        "scrubbed_environment": scrubbed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "samples": {cls: len(values) for cls, values in samples.items()},
        "diagnostics": {
            "busy_s": busy,
            "raw_busy_s": raw_busy,
            "box_slowdown": metrics.median(marks) / REFERENCE_S,
            "update_p99_ms": metrics.percentile(samples[UPDATE], 99),
            "update_max_ms": max(samples[UPDATE]) if samples[UPDATE] else None,
            "retract_max_ms": max(samples[RETRACT]) if samples[RETRACT] else None,
            "read_p99_ms": metrics.percentile(samples[READ], 99),
            "churn_p50_ms": metrics.median(samples[CHURN]),
            "stages": stages,
            "messages": messages,
        },
        "end_to_end": end_to_end,
        "workload_metrics": specific_all,
    }
    if tracer is not None:
        report["per_layer"] = _per_layer(tracer, layer_counts, raw_busy, measured,
                                         stages, idle_stages, messages)
        report["layer_self_s"] = tracer.layer_self_times()
        report["trace_missing"] = tracer.missing
        if trace_path is not None:
            os.makedirs(os.path.dirname(trace_path), exist_ok=True)
            report["trace_file"] = trace_path
            report["trace_spans_written"] = tracer.write(trace_path)
    shutil.rmtree(workdir, ignore_errors=True)
    return report


def _do(workload, op, tracer, index, corrupt: bool = False):
    """Apply one op (timed) and check it (untimed)."""
    seen = None
    start = time.perf_counter()
    if tracer is not None:
        tracer.begin_op(index)
    try:
        seen = workload.apply(op)
        failed = None
    except Exception:
        failed = traceback.format_exc(limit=4)
    if tracer is not None:
        tracer.end_op("client.op")
    elapsed = time.perf_counter() - start
    if failed is not None:
        sys.stderr.write(f"[{workload.name}] op {index} {op.kind} raised:\n{failed}")
        return False, elapsed, None
    if corrupt and seen.answer is not None:
        seen.answer = tuple(seen.answer)[1:]
    try:
        ok = bool(workload.check(op, seen))
    except Exception:
        sys.stderr.write(f"[{workload.name}] check of op {index} {op.kind} raised:\n"
                         f"{traceback.format_exc(limit=4)}")
        ok = False
    return ok, elapsed, seen


def _p95(values) -> Optional[float]:
    """A p95 is reported only with ten samples beyond it."""
    return metrics.percentile(values, 95) if len(values) >= 200 else None


def _ratio(numerator, denominator) -> Optional[float]:
    if numerator is None or denominator in (None, 0):
        return None if numerator is None else 0.0
    return numerator / denominator


def _per_layer(tracer, counts, busy, measured, stages, idle_stages, messages
               ) -> Dict[str, Optional[float]]:
    """Every :data:`metrics.PER_LAYER` name from the tracer and the counts."""
    inc, self_s, calls, count = (tracer.inclusive, tracer.self_time, tracer.calls,
                                 tracer.count)
    n_stages = count("core.stages")
    full = count("core.stages_full")
    computed = calls("planner.compute")
    planned = calls("planner.plan")
    cached = None if planned is None or computed is None else max(0, planned - computed)
    scanned = count("store.scan.rows")
    results = (count("core.derived") or 0) + (count("api.rows_returned") or 0)
    msgs = count("runtime.msgs")
    checks = calls("acl.check")
    frames = count("net.frames")
    values: Dict[str, Optional[float]] = {
        "core.run_stage_self_s": self_s("core.run_stage"),
        "core.evaluate_rule_s": inc("core.evaluate_rule"),
        "core.parse_s": inc("core.parse"),
        "core.stages": n_stages or 0,
        "core.stages_skip": count("core.stages_skip") or 0,
        "core.stages_delta": count("core.stages_delta") or 0,
        "core.stages_rederive": count("core.stages_rederive") or 0,
        "core.stages_full": full or 0,
        "core.full_stage_share": _ratio(full or 0, n_stages),
        "core.substitutions": count("core.substitutions") or 0,
        "core.derived_per_substitution": _ratio(count("core.derived") or 0,
                                                count("core.substitutions")),
        "core.emit_outputs_s": inc("core.emit_outputs"),
        "datalog.stratify_s": inc("datalog.stratify"),
        "datalog.aggregate_s": inc("datalog.aggregate"),
        "datalog.index_probe_calls": calls("datalog.index_probe"),
        "planner.plan_s": inc("planner.plan"),
        "planner.plans_computed": computed,
        "planner.plans_cached": cached,
        "planner.cache_hit_share": _ratio(cached, planned),
        "planner.magic_rewrite_s": inc("planner.magic_rewrite"),
        "store.insert_s": inc("store.insert"),
        "store.scan_s": inc("store.scan"),
        "store.scan_calls": calls("store.scan"),
        "store.rows_scanned_per_result": _ratio(scanned, results),
        "store.commit_s": inc("store.commit"),
        "store.commits": calls("store.commit"),
        "store.compiled_sql_s": inc("store.compiled_sql"),
        "store.compiled_statements": count("store.compiled_statements") or 0,
        "store.fallback_literals": count("store.fallback_literals") or 0,
        "store.bytes_on_disk_per_fact": 0.0,
        "api.query_compile_s": inc("api.query_compile"),
        "api.view_read_self_s": self_s("api.view_read"),
        "api.view_close_s": inc("api.view_close"),
        "api.callbacks_fired": 0,
        "provenance.record_s": inc("provenance.record"),
        "provenance.retract_s": inc("provenance.retract"),
        "provenance.explain_s": inc("provenance.explain"),
        "provenance.derivations_live": 0,
        "acl.filter_s": inc("acl.filter"),
        "acl.checks": checks,
        # the uncached path ends in AccessControlPolicy.can_read
        "acl.cache_hit_share": (1.0 - (calls("acl.policy_read") or 0) / checks
                                if checks else checks),
        "runtime.scheduler_self_s": self_s("runtime.scheduler"),
        "runtime.stages_per_op": _ratio(stages, measured),
        "runtime.idle_stage_share": _ratio(idle_stages, stages),
        "runtime.peer_deliver_s": inc("runtime.peer_deliver"),
        "runtime.transport_send_s": inc("runtime.transport_send"),
        "runtime.transport_receive_s": inc("runtime.transport_receive"),
        "runtime.msgs_per_op": _ratio(messages, measured),
        "runtime.msgs_dropped": 0,
        "runtime.msgs_duplicated": 0,
        "runtime.wire_encode_us_per_msg": _ratio((count("runtime.wire_encode_s") or 0) * 1e6, msgs),
        "runtime.wire_decode_us_per_msg": _ratio((count("runtime.wire_decode_s") or 0) * 1e6, msgs),
        # messages of the in-memory transport, or frames of the gossip overlay
        "runtime.wire_bytes_per_op": _ratio((count("runtime.wire_bytes") or 0)
                                            + (count("net.frame_bytes") or 0), measured),
        "replication.encode_outgoing_s": inc("replication.encode_outgoing"),
        "replication.apply_envelope_s": inc("replication.apply_envelope"),
        "replication.flush_s": inc("replication.flush"),
        "replication.persist_s": inc("replication.persist"),
        "replication.ops_sent": 0,
        "replication.retransmit_share": 0.0,
        "replication.dup_ops_absorbed": count("replication.dup_ops_absorbed") or 0,
        "replication.digests": 0,
        "replication.pulls": 0,
        "replication.acks": 0,
        "replication.oplog_peak_ops": count("replication.oplog_peak_ops") or 0,
        "net.node_handle_s": inc("net.node_handle"),
        "net.node_tick_s": inc("net.node_tick"),
        "net.frame_codec_s": inc("net.frame_codec"),
        "net.frames_sent": frames or 0,
        "net.frames_dropped": 0,
        "net.frames_per_envelope": 0.0,
        "net.pulls": calls("net.node_pull"),
        "net.envelopes_evicted": count("net.envelopes_evicted") or 0,
        "net.membership_converge_virtual_s": 0.0,
        "wepic.app_call_self_s": self_s("wepic.app_call"),
        "wrappers.poll_s": inc("wrappers.poll"),
        "wrappers.polls": calls("wrappers.poll"),
    }
    values.update(counts)
    layers = tracer.layer_self_times()
    program = sum(seconds for layer, seconds in layers.items()
                  if layer in metrics.LAYERS)
    own = layers.get("trace", 0.0)
    values["trace.layer_coverage_share"] = _ratio(program, busy - own)
    return values


def _brief(args) -> str:
    text = repr(args)
    return text if len(text) <= 80 else text[:77] + "..."


def _scratch() -> str:
    """Scratch space inside the checkout (the driver forbids anything else)."""
    path = os.path.join(RESULTS, "scratch")
    os.makedirs(path, exist_ok=True)
    return path
