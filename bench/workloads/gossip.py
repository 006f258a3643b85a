"""``gossip_sim``: the only workload where ``net`` works and the engine rests.

A :class:`~repro.net.SimulatedGossipNetwork` of a hundred nodes (5 ms ± 5 ms
links, 2 % frame loss) carries application envelopes between random live
nodes in a closed loop — submit, then advance the virtual clock tick by tick
until the recipient has drained it — while a churn wave replaces nodes (half
crash, half leave politely, a joiner each) and a monitor reads every node's
membership roster.  Wall seconds per simulated second is the number the
1000-peer run on file (1235 s for 50 virtual seconds) is about.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.facts import Fact
from repro.net import SimulatedGossipNetwork, SwimConfig
from repro.runtime.messages import FactMessage

from bench.metrics import median, percentile
from bench.oracle import GossipOracle
from bench.workloads.base import CHURN, READ, UPDATE, Op, Seen, Workload, exact_mix

#: virtual seconds the network may take to bootstrap or absorb a replacement
CONVERGE_BUDGET = 40.0
#: ticks between two looks at the whole membership while settling (a look
#: costs nodes x nodes table probes)
SETTLE_STRIDE = 5
#: With the default 1 s, 2 % frame loss buries a *live* node for good in about
#: one seed in ten (nobody routes the verdict to the victim, so it never
#: refutes it); at 5 s no false death was seen in 20 seeds.  See README.
SUSPECT_TIMEOUT = 5.0
#: ticks an envelope may take before it counts as lost
DELIVERY_TICKS = 200


class DeliveryLog:
    """An event sink that keeps only what envelope latency needs.

    The overlay reports every join, probe verdict, forward and drop; kept in
    memory that is hundreds of thousands of dicts by the end of a run, and
    their garbage-collection passes land inside the timed ops.  Only the
    ``emit`` method of :class:`~repro.net.NetEventLog` is ever called.
    """

    def __init__(self):
        self.sent: Dict[str, float] = {}
        self.latencies: List[float] = []

    def emit(self, action: str, node: str, ts: float, **fields) -> None:
        if action == "send":
            self.sent[fields["envelope"]] = ts
        elif action == "deliver" and fields.get("envelope") in self.sent:
            self.latencies.append(ts - self.sent.pop(fields["envelope"]))

    def clear(self) -> None:
        self.sent.clear()
        del self.latencies[:]


class GossipSim(Workload):
    name = "gossip_sim"
    ops_per_second = 40.0
    min_ops = 30

    nodes = 100
    latency = 0.005
    jitter = 0.005
    frame_loss = 0.02
    mix = (("envelope", 85), ("roster", 13), ("replace", 2))

    # -- generation ------------------------------------------------------------------ #

    def generate(self) -> None:
        rng = self.rng
        names = [f"n{i:03d}" for i in range(self.scaled(self.nodes, floor=12))]
        live = list(names)
        self.initial = {"nodes": names}
        ops: List[Op] = []
        joined = 0
        for position, kind in enumerate(exact_mix(
                self.op_count(), self.mix, rng, rare=("replace",))):
            if kind == "envelope":
                origin, recipient = rng.sample(live, 2)
                ops.append(Op(UPDATE, "envelope", (origin, recipient, f"m{position}")))
            elif kind == "roster":
                ops.append(Op(READ, "roster", ()))
            elif kind == "replace":
                victim = rng.choice(live)
                live.remove(victim)
                joiner = f"late{joined:03d}"
                seeds = sorted(rng.sample(live, 3))
                live.append(joiner)
                # even replacements leave politely, odd ones just vanish
                ops.append(Op(CHURN, "replace", (victim, joined % 2 == 0, joiner, seeds)))
                joined += 1
        self.ops = ops

    def sizes(self) -> Dict[str, object]:
        return {"nodes": len(self.initial["nodes"]), "latency_s": self.latency,
                "jitter_s": self.jitter, "frame_loss": self.frame_loss,
                "ops": len(self.ops)}

    # -- set-up -------------------------------------------------------------------------- #

    def setup(self) -> None:
        self.events = DeliveryLog()
        self.net = SimulatedGossipNetwork(
            latency=self.latency, latency_jitter=self.jitter,
            drop_probability=self.frame_loss, seed=self.seed, events=self.events,
            swim=SwimConfig(suspect_timeout=SUSPECT_TIMEOUT))
        for name in self.initial["nodes"]:
            self.net.add_node(name)
        self.oracle = GossipOracle(self.initial["nodes"])
        self.settle()
        self.begin_measured()

    def begin_measured(self) -> None:
        """Start of the window the clock and frame ratios are taken over.

        Once when the overlay has settled, then again — from the harness —
        when the warm-up ops are through.
        """
        self.events.clear()
        self.virtual_start = self.net.now
        self.frames_start = (self.net.frames_sent, self.net.frames_dropped)
        self.envelopes = 0
        self.converge_virtual: List[float] = []

    def settle(self) -> float:
        """Advance until every node can route to every other; virtual seconds."""
        start = self.net.now
        while self.net.now - start < CONVERGE_BUDGET:
            self.net.run(self.net.tick_interval * SETTLE_STRIDE)
            if self.net.converged():
                break
        return self.net.now - start

    def modes(self) -> Dict[str, object]:
        return {"transport": type(self.net).__name__, "engine": None,
                "tick_interval_s": self.net.tick_interval,
                "requested": {"swim.suspect_timeout": SUSPECT_TIMEOUT}}

    # -- the timed part --------------------------------------------------------------------- #

    def apply(self, op: Op) -> Seen:
        kind, args = op.kind, op.args
        if kind == "envelope":
            origin, recipient, payload = args
            self.net.submit(origin, FactMessage(
                sender=origin, recipient=recipient,
                inserted=frozenset({Fact("bench", recipient, (payload,))})))
            ticks, drained = 0, []
            while not drained and ticks < DELIVERY_TICKS:
                self.net.run(self.net.tick_interval)
                ticks += 1
                drained = self.net.drain(recipient)
            seen = Seen(converged=bool(drained), rounds=ticks, answer=drained)
            self.envelopes += 1
        elif kind == "roster":
            seen = Seen(answer={name: self.net.membership_view(name)
                                for name in sorted(self.net.nodes)})
        elif kind == "replace":
            victim, graceful, joiner, seeds = args
            self.net.remove_node(victim, graceful=graceful)
            self.net.add_node(joiner, seeds=seeds)
            spent = self.settle()
            self.converge_virtual.append(spent)
            seen = Seen(converged=self.net.converged(), answer=spent)
        else:
            raise ValueError(kind)
        return seen

    # -- the untimed part ---------------------------------------------------------------------- #

    def check(self, op: Op, seen: Seen) -> bool:
        kind, args, oracle = op.kind, op.args, self.oracle
        if kind == "envelope":
            oracle.submit(args[1], args[2])
            payloads = [fact.values[0] for message in seen.answer
                        for fact in message.inserted]
            return seen.converged and oracle.deliver(args[1], payloads)
        if kind == "roster":
            return (set(seen.answer) == oracle.live
                    and all(oracle.roster_ok(name, roster)
                            for name, roster in seen.answer.items()))
        if kind == "replace":
            oracle.replace(args[0], args[2])
            return seen.converged and set(self.net.nodes) == oracle.live
        raise ValueError(kind)

    def final_check(self) -> bool:
        """Envelope coverage: nothing owed, nothing delivered twice."""
        leftovers = {name: self.net.drain(name) for name in sorted(self.net.nodes)}
        return self.oracle.outstanding() == 0 and not any(leftovers.values())

    # -- what only this workload can measure ------------------------------------------------------ #

    def workload_metrics(self, samples) -> Dict[str, Optional[float]]:
        virtual = self.net.now - self.virtual_start
        busy = sum(sum(durations) for durations in samples.values()) / 1000.0
        p95 = percentile(self.events.latencies, 95)
        return {
            "wall_s_per_virtual_s": busy / virtual if virtual else None,
            "deliver_virtual_p95_ms": None if p95 is None else round(p95 * 1000.0, 3),
        }

    def layer_counts(self) -> Dict[str, Optional[float]]:
        sent = self.net.frames_sent - self.frames_start[0]
        return {
            "net.frames_sent": sent,
            "net.frames_dropped": self.net.frames_dropped - self.frames_start[1],
            "net.frames_per_envelope": sent / self.envelopes if self.envelopes else 0.0,
            "net.membership_converge_virtual_s": median(self.converge_virtual) or 0.0,
        }
