"""Run-time tracing of the program's layer boundaries, from outside the program.

The program has no tracing of its own yet, so the benchmark wraps the
functions named in :data:`TARGETS` while a traced run lasts and unwraps them
afterwards.  Every wrapped call pushes a frame on one stack; when it returns,
its duration is added to its own totals and to its parent's *child time*, so

    self time = duration - time spent in wrapped callees

and the self times of all layers plus the benchmark's own root spans add up
to the traced wall exactly.  Three kinds of wrapper:

``SPAN``  records a span tuple ``(name, start, end, parent, op)`` as well —
          for calls that happen a few times per op;
``AGG``   keeps totals only — for calls that happen thousands of times per op;
``GEN``   for generator functions (table scans): times every ``next()`` and
          counts the rows, charging the consumer's frame.

A target the program no longer has is reported in :attr:`Tracer.missing`
and its metrics come out as ``None`` — never a crash — so a later PR that
renames a function loses one number, not the benchmark.

End-to-end numbers never come from a traced run; see ``harness.py``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

SPAN, AGG, GEN = "span", "agg", "gen"

#: (span name, module, qualified attribute, kind).  The span name's prefix is
#: the layer.  Several targets may share a name (their totals add up).
TARGETS: List[Tuple[str, str, str, str]] = [
    # -- core -------------------------------------------------------------- #
    ("core.run_stage", "repro.core.engine", "WebdamLogEngine.run_stage", SPAN),
    ("core.evaluate_rule", "repro.core.evaluation", "RuleEvaluator.evaluate_rule", AGG),
    ("core.evaluate_rule", "repro.core.evaluation", "RuleEvaluator.evaluate_rule_delta", AGG),
    ("core.emit_outputs", "repro.core.engine", "WebdamLogEngine._emit_outputs", AGG),
    ("core.parse", "repro.core.parser", "parse_rule", AGG),
    ("core.parse", "repro.core.parser", "parse_fact", AGG),
    ("core.parse", "repro.core.parser", "parse_program", AGG),
    ("core.parse", "repro.core.parser", "parse_query_program", AGG),
    # -- datalog ------------------------------------------------------------ #
    ("datalog.stratify", "repro.datalog.stratification", "stratify", AGG),
    ("datalog.aggregate", "repro.datalog.aggregation", "compute_aggregate", AGG),
    ("datalog.index_probe", "repro.datalog.indexes", "RelationIndex.lookup", AGG),
    # -- planner ------------------------------------------------------------ #
    ("planner.plan", "repro.planner.ordering", "BodyPlanner.plan_rule", AGG),
    ("planner.plan", "repro.planner.ordering", "BodyPlanner.plan_rule_delta", AGG),
    ("planner.compute", "repro.planner.ordering", "BodyPlanner._compute", AGG),
    ("planner.magic_rewrite", "repro.planner.magic", "apply_magic", AGG),
    # -- store -------------------------------------------------------------- #
    ("store.insert", "repro.store.memory", "MemoryTable.insert", AGG),
    ("store.insert", "repro.store.memory", "MemoryTable.insert_many", AGG),
    ("store.insert", "repro.store.memory", "MemoryTable.delete", AGG),
    ("store.insert", "repro.store.memory", "MemoryTable.clear", AGG),
    ("store.insert", "repro.store.sqlite", "SqliteTable.insert", AGG),
    ("store.insert", "repro.store.sqlite", "SqliteTable.insert_many", AGG),
    ("store.insert", "repro.store.sqlite", "SqliteTable.delete", AGG),
    ("store.insert", "repro.store.sqlite", "SqliteTable.clear", AGG),
    ("store.scan", "repro.store.memory", "MemoryTable.scan", GEN),
    ("store.scan", "repro.store.sqlite", "SqliteTable.scan", GEN),
    ("store.commit", "repro.store.memory", "MemoryBackend.commit", AGG),
    ("store.commit", "repro.store.sqlite", "SqliteBackend.commit", AGG),
    ("store.compiled_sql", "repro.store.compiler", "BodyPushdown.run", AGG),
    ("store.aggregate_sql", "repro.store.compiler", "BodyPushdown.aggregate", AGG),
    # -- api ---------------------------------------------------------------- #
    ("api.converge", "repro.api.facade", "System.converge", SPAN),
    ("api.query", "repro.api.facade", "PeerHandle.query", SPAN),
    ("api.query_compile", "repro.api.views", "compile_query", AGG),
    ("api.view_read", "repro.api.views", "LiveView._read", SPAN),
    ("api.view_close", "repro.api.views", "LiveView.close", SPAN),
    ("api.write", "repro.api.facade", "PeerHandle.insert", AGG),
    ("api.write", "repro.api.facade", "PeerHandle.insert_many", AGG),
    ("api.write", "repro.api.facade", "PeerHandle.delete", AGG),
    ("api.explain", "repro.api.facade", "System.explain", SPAN),
    ("api.notify", "repro.api.query", "Subscription.notify_stage", AGG),
    # -- provenance / acl ----------------------------------------------------- #
    ("provenance.record", "repro.provenance.graph", "ProvenanceTracker.record", AGG),
    ("provenance.record", "repro.provenance.graph", "ProvenanceTracker.record_remote", AGG),
    ("provenance.retract", "repro.provenance.graph", "ProvenanceTracker.on_base_deleted", AGG),
    ("provenance.retract", "repro.provenance.graph", "ProvenanceTracker.on_rederive", AGG),
    ("provenance.retract", "repro.provenance.graph", "ProvenanceTracker.on_full_recompute", AGG),
    ("provenance.explain", "repro.provenance.graph", "ProvenanceTracker.explain", AGG),
    ("acl.filter", "repro.acl.policies", "PolicyEngine.filter_readable", AGG),
    ("acl.check", "repro.acl.policies", "PolicyEngine.can_read_fact", AGG),
    ("acl.policy_read", "repro.acl.policies", "AccessControlPolicy.can_read", AGG),
    # -- runtime -------------------------------------------------------------- #
    ("runtime.scheduler", "repro.runtime.scheduler", "LockstepScheduler.converge", SPAN),
    ("runtime.scheduler", "repro.runtime.scheduler", "ReactiveScheduler.converge", SPAN),
    ("runtime.activate", "repro.runtime.system", "WebdamLogSystem.activate_peer", AGG),
    ("runtime.peer_stage", "repro.runtime.peer", "Peer.run_stage", AGG),
    ("runtime.peer_deliver", "repro.runtime.peer", "Peer.deliver_all", AGG),
    ("runtime.transport_send", "repro.runtime.inmemory", "InMemoryTransport.send", AGG),
    ("runtime.transport_receive", "repro.runtime.inmemory", "InMemoryTransport.receive", AGG),
    # -- replication ------------------------------------------------------------ #
    ("replication.encode_outgoing", "repro.replication.state", "ReplicationState.encode_outgoing", AGG),
    ("replication.apply_envelope", "repro.replication.state", "ReplicationState.apply_envelope", AGG),
    ("replication.flush", "repro.replication.state", "ReplicationState.flush", AGG),
    ("replication.persist", "repro.replication.state", "ReplicationState.persist", AGG),
    ("replication.control", "repro.replication.state", "ReplicationState.on_digest", AGG),
    ("replication.control", "repro.replication.state", "ReplicationState.on_pull", AGG),
    ("replication.control", "repro.replication.state", "ReplicationState.on_ack", AGG),
    ("replication.join", "repro.replication.dots", "CausalContext.add", AGG),
    # -- net ---------------------------------------------------------------------- #
    ("net.sim", "repro.net.sim", "SimulatedGossipNetwork.run", SPAN),
    ("net.sim", "repro.net.sim", "SimulatedGossipNetwork.submit", SPAN),
    ("net.transmit", "repro.net.sim", "SimulatedGossipNetwork._transmit", AGG),
    ("net.node_handle", "repro.net.node", "GossipNode.handle_frame", AGG),
    ("net.node_tick", "repro.net.node", "GossipNode.tick", AGG),
    ("net.node_submit", "repro.net.node", "GossipNode.submit", AGG),
    ("net.node_pull", "repro.net.node", "GossipNode._on_pull", AGG),
    ("net.buffer_observe", "repro.net.gossip", "GossipBuffer.observe", AGG),
    ("net.frame_codec", "repro.net.frames", "frame_from_wire", AGG),
    ("net.frame_codec", "repro.net.frames", "JoinFrame.to_wire", AGG),
    ("net.frame_codec", "repro.net.frames", "LeaveFrame.to_wire", AGG),
    ("net.frame_codec", "repro.net.frames", "PingFrame.to_wire", AGG),
    ("net.frame_codec", "repro.net.frames", "PingReqFrame.to_wire", AGG),
    ("net.frame_codec", "repro.net.frames", "AckFrame.to_wire", AGG),
    ("net.frame_codec", "repro.net.frames", "EnvelopeFrame.to_wire", AGG),
    ("net.frame_codec", "repro.net.frames", "DigestFrame.to_wire", AGG),
    ("net.frame_codec", "repro.net.frames", "PullFrame.to_wire", AGG),
    # -- wepic / wrappers ------------------------------------------------------------ #
    ("wepic.app_call", "repro.wepic.app", "WepicApp.upload_picture", SPAN),
    ("wepic.app_call", "repro.wepic.app", "WepicApp.rate_picture", SPAN),
    ("wepic.app_call", "repro.wepic.app", "WepicApp.select_attendee", SPAN),
    ("wepic.app_call", "repro.wepic.app", "WepicApp.deselect_attendee", SPAN),
    ("wepic.app_call", "repro.wepic.app", "WepicApp.remove_picture", SPAN),
    ("wepic.app_call", "repro.wepic.app", "WepicApp.attendee_pictures", SPAN),
    ("wepic.app_call", "repro.wepic.app", "WepicApp.ranked_attendee_pictures", SPAN),
    ("wepic.app_call", "repro.wepic.app", "WepicApp.select_picture_for_transfer", SPAN),
    ("wrappers.poll", "repro.wrappers.base", "PseudoPeerWrapper.before_stage", AGG),
    ("wrappers.poll", "repro.wrappers.base", "RelationWatchingWrapper.after_stage", AGG),
]

#: Span-file cap: a trace is a debugging aid, not an archive.
MAX_SPANS_WRITTEN = 200_000

# Frame layout on the stack: [child_time, span_index]
_CHILD, _SPAN = 0, 1


class Tracer:
    """One traced run's wrappers, stack, totals, spans and counts."""

    def __init__(self):
        self.stack: List[list] = []
        #: span name -> [calls, inclusive seconds, self seconds]
        self.totals: Dict[str, list] = {}
        #: (name, start, end, parent span index or -1, op id)
        self.spans: List[tuple] = []
        #: free-form counters bumped by the hooks below
        self.counts: Dict[str, float] = {}
        self.missing: List[str] = []
        self.op_id = -1
        #: wrappers record only between begin_op() and end_op(): set-up,
        #: warm-up and the oracle's own reads stay out of the numbers
        self.active = False
        self._installed: List[Tuple[object, str, object, List[Tuple[dict, str]]]] = []
        self._evictions: Dict[int, list] = {}

    # ------------------------------------------------------------------ #
    # wrappers
    # ------------------------------------------------------------------ #

    def _totals(self, name: str) -> list:
        return self.totals.setdefault(name, [0, 0.0, 0.0])

    def _wrap_call(self, name: str, fn: Callable, record_span: bool,
                   after: Optional[Callable]) -> Callable:
        stack, spans, totals, now = self.stack, self.spans, self._totals(name), perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent_span = stack[-1][_SPAN] if stack else -1
            if record_span:
                index = len(spans)
                spans.append(None)
            else:
                index = parent_span
            frame = [0.0, index]
            stack.append(frame)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[_CHILD]
                if stack:
                    stack[-1][_CHILD] += duration
                if record_span:
                    spans[index] = (name, start, end, parent_span, tracer.op_id)
            if after is not None:
                after(tracer, result, args)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        stack, totals, counts, now = self.stack, self._totals(name), self.counts, perf_counter
        tracer = self
        rows_key = name + ".rows"
        counts.setdefault(rows_key, 0)

        def timed(iterator):
            while True:
                start = now()
                try:
                    row = next(iterator)
                except StopIteration:
                    row = stack  # sentinel: no row can be the stack itself
                elapsed = now() - start
                totals[1] += elapsed
                totals[2] += elapsed
                if stack:
                    stack[-1][_CHILD] += elapsed
                if row is stack:
                    return
                counts[rows_key] += 1
                yield row

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            totals[0] += 1
            return timed(fn(*args, **kwargs))

        return wrapper

    def charge(self, name: str, seconds: float) -> None:
        """Book ``seconds`` spent by a hook under ``name`` (layer ``trace``)."""
        totals = self._totals(name)
        totals[0] += 1
        totals[1] += seconds
        totals[2] += seconds
        if self.stack:
            self.stack[-1][_CHILD] += seconds

    def bump(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # ------------------------------------------------------------------ #
    # install / uninstall
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        """Wrap every target that still exists; remember the rest as missing."""
        for name, module_name, qualname, kind in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner = module
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{qualname}")
                continue
            if kind == GEN:
                wrapped = self._wrap_generator(name, original)
            else:
                wrapped = self._wrap_call(name, original, kind == SPAN,
                                          HOOKS.get(f"{module_name}.{qualname}"))
            aliases: List[Tuple[dict, str]] = []
            if owner is module:
                # ``from module import fn`` copies the reference: rebind every
                # repro module global that still points at the original.
                for other_name, other in list(sys.modules.items()):
                    if other is None or not other_name.startswith("repro"):
                        continue
                    namespace = getattr(other, "__dict__", {})
                    for key, value in list(namespace.items()):
                        if value is original:
                            namespace[key] = wrapped
                            aliases.append((namespace, key))
            else:
                setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, original, aliases))

    def uninstall(self) -> None:
        for owner, attr, original, aliases in reversed(self._installed):
            if aliases:
                for namespace, key in aliases:
                    namespace[key] = original
            else:
                setattr(owner, attr, original)
        self._installed.clear()

    # ------------------------------------------------------------------ #
    # the benchmark's own root spans
    # ------------------------------------------------------------------ #

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.active = True
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append([0.0, index, perf_counter()])

    def end_op(self, name: str) -> float:
        end = perf_counter()
        frame = self.stack.pop()
        start = frame[2]
        duration = end - start
        totals = self._totals(name)
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - frame[_CHILD]
        self.spans[frame[_SPAN]] = (name, start, end, -1, self.op_id)
        self.op_id = -1
        self.active = False
        return duration

    # ------------------------------------------------------------------ #
    # reading the results
    # ------------------------------------------------------------------ #

    def calls(self, name: str) -> Optional[int]:
        return self.totals[name][0] if name in self.totals else None

    def inclusive(self, name: str) -> Optional[float]:
        return self.totals[name][1] if name in self.totals else None

    def self_time(self, name: str) -> Optional[float]:
        return self.totals[name][2] if name in self.totals else None

    def count(self, key: str) -> Optional[float]:
        return self.counts.get(key)

    def layer_self_times(self) -> Dict[str, float]:
        """Self seconds per layer (the span-name prefix)."""
        layers: Dict[str, float] = {}
        for name, (_calls, _inclusive, self_s) in self.totals.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self_s
        return layers

    def write(self, path) -> int:
        """Dump the spans as JSON lines; returns how many were written."""
        written = 0
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans[:MAX_SPANS_WRITTEN]):
                if span is None:
                    continue
                name, start, end, parent, op = span
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op}) + "\n")
                written += 1
        return written


# ---------------------------------------------------------------------- #
# hooks: counts taken where the work happens
# ---------------------------------------------------------------------- #

def _after_run_stage(tracer: Tracer, result, _args) -> None:
    path = getattr(result, "evaluation_path", None)
    tracer.bump("core.stages")
    if path is not None:
        tracer.bump(f"core.stages_{path}")
    tracer.bump("core.substitutions", getattr(result, "substitutions_explored", 0))
    tracer.bump("core.derived", getattr(result, "derived_intensional", 0))
    tracer.bump("store.compiled_statements", getattr(result, "compiled_sql", 0))


def _after_pushdown_run(tracer: Tracer, result, _args) -> None:
    if result is None:
        tracer.bump("store.fallback_literals")


def _after_view_read(tracer: Tracer, result, _args) -> None:
    tracer.bump("api.rows_returned", len(result))


def _after_flush(tracer: Tracer, _result, args) -> None:
    """Largest retransmission log any one peer held right after a flush."""
    held = sum(len(box.log) for box in args[0].outboxes.values())
    if held > tracer.counts.get("replication.oplog_peak_ops", 0):
        tracer.counts["replication.oplog_peak_ops"] = held


def _after_cc_add(tracer: Tracer, result, _args) -> None:
    if not result:
        tracer.bump("replication.dup_ops_absorbed")


def _after_send(tracer: Tracer, _result, args) -> None:
    """Round-trip the sent message through the wire codec and size it."""
    message = args[1]
    try:
        from repro.runtime.messages import message_from_wire
        start = perf_counter()
        encoded = message.to_wire()
        middle = perf_counter()
        message_from_wire(encoded)
        end = perf_counter()
        size = len(json.dumps(encoded, sort_keys=True))
        done = perf_counter()
    except Exception as error:  # a codec failure is a finding, not a crash
        tracer.bump("runtime.wire_errors")
        tracer.counts.setdefault("runtime.wire_error_text", repr(error))
        return
    tracer.bump("runtime.msgs")
    tracer.bump("runtime.wire_bytes", size)
    tracer.bump("runtime.wire_encode_s", middle - start)
    tracer.bump("runtime.wire_decode_s", end - middle)
    tracer.charge("trace.wire_roundtrip", done - start)


def _after_transmit(tracer: Tracer, _result, args) -> None:
    start = perf_counter()
    size = 0
    frames = 0
    for _dest, _address, frame in args[1]:
        size += len(json.dumps(frame, sort_keys=True, default=str))
        frames += 1
    tracer.bump("net.frame_bytes", size)
    tracer.bump("net.frames", frames)
    tracer.charge("trace.frame_size", perf_counter() - start)


def _after_buffer_observe(tracer: Tracer, result, args) -> None:
    if not result:
        return
    buffer = args[0]
    entry = tracer._evictions.setdefault(id(buffer), [0, buffer.config.buffer_size])
    entry[0] += 1
    if entry[0] > entry[1]:
        tracer.bump("net.envelopes_evicted")


HOOKS: Dict[str, Callable] = {
    "repro.core.engine.WebdamLogEngine.run_stage": _after_run_stage,
    "repro.store.compiler.BodyPushdown.run": _after_pushdown_run,
    "repro.api.views.LiveView._read": _after_view_read,
    "repro.replication.dots.CausalContext.add": _after_cc_add,
    "repro.replication.state.ReplicationState.flush": _after_flush,
    "repro.runtime.inmemory.InMemoryTransport.send": _after_send,
    "repro.net.sim.SimulatedGossipNetwork._transmit": _after_transmit,
    "repro.net.gossip.GossipBuffer.observe": _after_buffer_observe,
}
