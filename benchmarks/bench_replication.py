#!/usr/bin/env python3
"""REPLICATION — delta envelopes vs full-state anti-entropy under loss.

Two experiments around :mod:`repro.replication`:

* **delta vs full state** — 120 peers replicate mixed insert/delete waves
  to their followers over a seeded lossy network with a mid-run churn wave
  (departed followers are forgotten, joiners bootstrap from the current
  live set).  The dotted delta protocol (envelopes + digest/pull/ack
  anti-entropy) is compared against a classic full-state shipper that
  retransmits its entire live set until acknowledged, on the two axes the
  paper's distributed setting cares about: **bytes on the wire** and
  **rounds to convergence** after the last update.
* **gossip at 1000 peers** — the virtual-clock gossip simulator
  (``repro.net.sim``) carries :class:`DeltaEnvelopeMessage` application
  payloads across a 1000-node overlay, reporting delivery coverage and
  propagation latency from the structured event log.

Run as a script (also smoke-run in CI, at reduced scale)::

    PYTHONPATH=src python benchmarks/bench_replication.py

Writes ``BENCH_replication.json`` next to this file (see ``--output``).
Convergence and the delta-protocol byte advantage are asserted before
reporting.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from collections import defaultdict
from pathlib import Path

from dataclasses import dataclass
from typing import FrozenSet

from repro.bench.harness import bench_metadata
from repro.bench.reporting import format_table
from repro.core import codec
from repro.core.facts import Fact
from repro.net.events import NetEventLog
from repro.net.sim import SimulatedGossipNetwork
from repro.replication.dots import Op
from repro.replication.state import ReplicationState
from repro.runtime.messages import (
    DeltaEnvelopeMessage,
    FactMessage,
    ReplicationAckMessage,
    ReplicationDigestMessage,
    ReplicationPullMessage,
)


@dataclass(frozen=True)
class FullStateMessage:
    """The baseline's anti-entropy unit: the producer's entire live set."""

    sender: str
    recipient: str
    version: int
    facts: FrozenSet[Fact]

    def to_wire(self) -> dict:
        return {
            "kind": "FullState",
            "sender": self.sender,
            "recipient": self.recipient,
            "version": self.version,
            "facts": [codec.encode_fact(f) for f in sorted(self.facts, key=str)],
        }


def wire_bytes(message) -> int:
    """Size of a message as it would travel: canonical JSON of its wire form."""
    return len(json.dumps(message.to_wire(), sort_keys=True))


def fact(owner: str, index: int) -> Fact:
    return Fact("replica", owner, (owner, index))


class LossyMesh:
    """Seeded per-message loss between directly-connected peers.

    The same instance (hence the same drop schedule position) serves both
    protocols in a comparison run, so neither gets a luckier network.
    """

    def __init__(self, drop: float, seed: int):
        self.rng = random.Random(seed)
        self.drop = drop
        self.mailboxes = defaultdict(list)
        self.bytes_sent = 0
        self.messages_sent = 0
        self.messages_dropped = 0

    def send(self, messages) -> None:
        for message in messages:
            self.messages_sent += 1
            self.bytes_sent += wire_bytes(message)
            if self.rng.random() < self.drop:
                self.messages_dropped += 1
                continue
            self.mailboxes[message.recipient].append(message)

    def deliver(self, name: str):
        due = self.mailboxes.pop(name, [])
        return due

    def forget(self, name: str) -> None:
        self.mailboxes.pop(name, None)

    @property
    def idle(self) -> bool:
        return not any(self.mailboxes.values())


def update_wave(producers, wave: int, inserts: int, deletes: int):
    """The facts each producer gains and loses in one wave (deterministic)."""
    changes = {}
    for name, state in sorted(producers.items()):
        gained = [fact(name, wave * inserts + i) for i in range(inserts)]
        lost = sorted(state["facts"], key=str)[:deletes] if wave else []
        state["facts"].difference_update(lost)
        state["facts"].update(gained)
        changes[name] = (gained, lost)
    return changes


# --------------------------------------------------------------------------- #
# protocol drivers: the same topology, waves, churn and drop schedule
# --------------------------------------------------------------------------- #

def run_delta(topology, waves, churn_plan, drop, seed, max_rounds=4000):
    """The dotted delta protocol end to end over the lossy mesh."""
    mesh = LossyMesh(drop, seed)
    # Nothing here persists a channel, so nothing journals its changes; the
    # round counter is the clock the digest and pull timers read.
    states = {name: ReplicationState(name, journal=False)
              for name in topology.producers}
    replicas = {name: ReplicationState(name, journal=False)
                for name in topology.followers}
    rounds = 0

    def deliver(state):
        for message in mesh.deliver(state.peer):
            if isinstance(message, DeltaEnvelopeMessage):
                state.apply_envelope(message, rounds)
            elif isinstance(message, ReplicationDigestMessage):
                state.on_digest(message.sender, message.frontier, rounds)
            elif isinstance(message, ReplicationPullMessage):
                state.on_pull(message.sender, message.want)
            elif isinstance(message, ReplicationAckMessage):
                state.on_ack(message.sender, message.acked)

    def everyone():
        yield from states.values()
        yield from replicas.values()

    def pump():
        nonlocal rounds
        rounds += 1
        for state in everyone():
            deliver(state)
            mesh.send(state.flush(rounds))

    last_update_round = 0
    for wave, changes in enumerate(waves):
        for name, (gained, lost) in changes.items():
            state = states[name]
            for follower in topology.followers_of[name]:
                state.encode_outgoing([FactMessage(
                    sender=name, recipient=follower,
                    inserted=frozenset(gained), deleted=frozenset(lost))])
        if wave == churn_plan["at_wave"]:
            for victim in churn_plan["departed"]:
                replicas.pop(victim, None)
                mesh.forget(victim)
                for followers in topology.followers_of.values():
                    if victim in followers:
                        followers.remove(victim)
                for state in states.values():
                    state.drop_channel(victim)
            for joiner, sponsor, live in churn_plan["joined"]:
                replicas[joiner] = ReplicationState(joiner, journal=False)
                topology.followers_of[sponsor].append(joiner)
                states[sponsor].encode_outgoing([FactMessage(
                    sender=sponsor, recipient=joiner,
                    inserted=frozenset(live), deleted=frozenset())])
        for _ in range(2):  # a couple of rounds of steady-state traffic per wave
            pump()
        last_update_round = rounds

    while rounds < max_rounds and (not mesh.idle or
                                   any(s.unsettled() for s in everyone())):
        pump()

    converged = mesh.idle and not any(s.unsettled() for s in everyone())
    replica_sets = {}
    for name, state in replicas.items():
        merged = set()
        for box in state.inboxes.values():
            merged.update(box.visible)
        replica_sets[name] = merged
    return {
        "protocol": "delta",
        "converged": converged,
        "rounds_total": rounds,
        "rounds_after_last_update": rounds - last_update_round,
        "bytes_on_wire": mesh.bytes_sent,
        "messages_sent": mesh.messages_sent,
        "messages_dropped": mesh.messages_dropped,
    }, replica_sets


def run_full_state(topology, waves, churn_plan, drop, seed, digest_interval=4,
                   max_rounds=4000):
    """The classic baseline: ship the entire live set until acknowledged."""
    mesh = LossyMesh(drop, seed)
    producers = {name: {"facts": set(), "version": 0,
                        "acked": defaultdict(int), "last_sent": defaultdict(int)}
                 for name in topology.producers}
    replicas = {name: defaultdict(set) for name in topology.followers}

    rounds = 0
    last_update_round = 0
    acks = defaultdict(list)

    def pump():
        nonlocal rounds
        rounds += 1
        for follower, store in sorted(replicas.items()):
            for message in mesh.deliver(follower):
                store[message.sender] = set(message.facts)
                acks[message.sender].append(ReplicationAckMessage(
                    sender=follower, recipient=message.sender,
                    acked=message.version))
        for name, state in sorted(producers.items()):
            for ack in mesh.deliver(name):
                state["acked"][ack.sender] = max(state["acked"][ack.sender],
                                                 ack.acked)
            for follower in topology.followers_of[name]:
                if follower not in replicas:
                    continue
                if state["acked"][follower] >= state["version"]:
                    continue
                if rounds - state["last_sent"][follower] < digest_interval \
                        and state["last_sent"][follower]:
                    continue
                mesh.send([FullStateMessage(
                    sender=name, recipient=follower,
                    version=state["version"],
                    facts=frozenset(state["facts"]))])
                state["last_sent"][follower] = rounds
        for follower, queued in sorted(acks.items()):
            mesh.send(queued)
        acks.clear()

    for wave, changes in enumerate(waves):
        for name, (gained, lost) in changes.items():
            state = producers[name]
            state["facts"].difference_update(lost)
            state["facts"].update(gained)
            state["version"] += 1
        if wave == churn_plan["at_wave"]:
            for victim in churn_plan["departed"]:
                replicas.pop(victim, None)
                mesh.forget(victim)
            for joiner, sponsor, _live in churn_plan["joined"]:
                replicas[joiner] = defaultdict(set)
                if joiner not in topology.followers_of[sponsor]:
                    topology.followers_of[sponsor].append(joiner)
        for _ in range(2):
            pump()
        last_update_round = rounds

    def settled():
        return all(state["acked"][follower] >= state["version"]
                   for name, state in producers.items()
                   for follower in topology.followers_of[name]
                   if follower in replicas)

    while rounds < max_rounds and (not mesh.idle or not settled()):
        pump()

    replica_sets = {name: set().union(*store.values()) if store else set()
                    for name, store in replicas.items()}
    return {
        "protocol": "full-state",
        "converged": mesh.idle and settled(),
        "rounds_total": rounds,
        "rounds_after_last_update": rounds - last_update_round,
        "bytes_on_wire": mesh.bytes_sent,
        "messages_sent": mesh.messages_sent,
        "messages_dropped": mesh.messages_dropped,
    }, replica_sets


class Topology:
    """Producers, their followers, and the follower fan-out map."""

    def __init__(self, peers: int, fanout: int, seed: int):
        rng = random.Random(seed)
        count = max(4, peers)
        self.producers = [f"prod{i:03d}" for i in range(count // 3)]
        self.followers = [f"repl{i:03d}"
                          for i in range(count - len(self.producers))]
        self.followers_of = {
            name: rng.sample(self.followers, min(fanout, len(self.followers)))
            for name in self.producers
        }


def run_anti_entropy_comparison(peers: int, waves: int, fanout: int,
                                inserts: int, deletes: int, churn: int,
                                drop: float, seed: int) -> dict:
    def topology():
        return Topology(peers, fanout, seed)

    # the wave schedule is deterministic, shared by both protocols
    producer_state = {name: {"facts": set()} for name in topology().producers}
    schedule = [update_wave(producer_state, wave, inserts, deletes)
                for wave in range(waves)]

    base = topology()
    rng = random.Random(seed + 1)
    departed = rng.sample(base.followers, min(churn, len(base.followers) // 2))
    sponsors = rng.sample(base.producers, min(churn, len(base.producers)))
    joined = []
    replay = {name: {"facts": set()} for name in base.producers}
    for changes in schedule[: waves // 2 + 1]:
        for name, (gained, lost) in changes.items():
            replay[name]["facts"].difference_update(lost)
            replay[name]["facts"].update(gained)
    for index, sponsor in enumerate(sponsors):
        joined.append((f"join{index:03d}", sponsor,
                       sorted(replay[sponsor]["facts"], key=str)))
    churn_plan = {"at_wave": waves // 2, "departed": departed, "joined": joined}

    delta, delta_sets = run_delta(topology(), schedule,
                                  dict(churn_plan, joined=list(joined)),
                                  drop, seed)
    full, full_sets = run_full_state(topology(), schedule,
                                     dict(churn_plan, joined=list(joined)),
                                     drop, seed)

    shared = sorted(set(delta_sets) & set(full_sets))
    replicas_identical = all(delta_sets[name] == full_sets[name]
                             for name in shared)
    return {
        "peers": peers,
        "producers": len(base.producers),
        "followers": len(base.followers),
        "waves": waves,
        "drop_probability": drop,
        "churned_followers": len(departed),
        "joined_followers": len(joined),
        "delta": delta,
        "full_state": full,
        "replicas_identical": replicas_identical,
        "bytes_reduction_factor": round(
            full["bytes_on_wire"] / delta["bytes_on_wire"], 2)
            if delta["bytes_on_wire"] else None,
    }


# --------------------------------------------------------------------------- #
# gossip overlay at 1000 peers, delta envelopes as payload
# --------------------------------------------------------------------------- #

def run_gossip_envelopes(peers: int, envelopes: int, drop: float,
                         seed: int) -> dict:
    events = NetEventLog()
    net = SimulatedGossipNetwork(latency=0.005, latency_jitter=0.005,
                                 drop_probability=drop, seed=seed,
                                 events=events)
    rng = random.Random(seed)
    wall_start = time.perf_counter()
    for index in range(peers):
        net.add_node(f"peer{index:04d}")
    bootstrap_budget = max(30.0, peers / 20.0)
    start = net.now
    while net.now - start < bootstrap_budget:
        net.run(0.5)
        if net.converged():
            break
    bootstrap_seconds = round(net.now - start, 3)

    names = sorted(net.nodes)
    for index in range(envelopes):
        origin, recipient = rng.sample(names, 2)
        ops = tuple(Op(seq=index * 2 + offset + 1, kind="insert",
                       fact=fact(origin, index * 2 + offset))
                    for offset in range(2))
        net.submit(origin, DeltaEnvelopeMessage(
            sender=origin, recipient=recipient,
            ops=ops, frontier=ops[-1].seq))
    net.run(5.0)

    sends = {e["envelope"]: e["ts"] for e in events.events(action="send")}
    delivered = {e["envelope"]: e["ts"] - sends[e["envelope"]]
                 for e in events.events(action="deliver")
                 if e["envelope"] in sends}
    latencies = sorted(delivered.values())
    return {
        "peers": peers,
        "envelopes": envelopes,
        "envelopes_delivered": len(delivered),
        "coverage": round(len(delivered) / envelopes, 4) if envelopes else 1.0,
        "drop_probability": drop,
        "bootstrap_virtual_seconds": bootstrap_seconds,
        "membership_converged": net.converged(),
        "latency_mean_virtual": round(sum(latencies) / len(latencies), 4)
            if latencies else None,
        "latency_p95_virtual": round(latencies[int(len(latencies) * 0.95) - 1], 4)
            if latencies else None,
        "frames_sent": net.frames_sent,
        "frames_dropped": net.frames_dropped,
        "elapsed_seconds": round(time.perf_counter() - wall_start, 3),
    }


def run_benchmark(args) -> dict:
    comparison = run_anti_entropy_comparison(
        peers=args.peers, waves=args.waves, fanout=args.fanout,
        inserts=args.inserts, deletes=args.deletes, churn=args.churn,
        drop=args.drop, seed=args.seed)
    gossip = run_gossip_envelopes(args.gossip_peers, args.envelopes,
                                  args.gossip_drop, args.seed)

    if not comparison["delta"]["converged"]:
        raise AssertionError("delta protocol failed to converge")
    if not comparison["full_state"]["converged"]:
        raise AssertionError("full-state baseline failed to converge")
    if not comparison["replicas_identical"]:
        raise AssertionError("protocols disagree on the surviving replicas")
    if gossip["coverage"] < 1.0:
        raise AssertionError(
            f"gossip lost delta envelopes: coverage {gossip['coverage']}")

    return {
        "experiment": "REPLICATION",
        "metadata": bench_metadata(repeats=1, parameters=vars(args) | {
            "output": str(args.output)}),
        "anti_entropy": comparison,
        "gossip_envelopes": gossip,
        "replicas_identical": comparison["replicas_identical"],
        "delta_converged": comparison["delta"]["converged"],
        "coverage_complete": gossip["coverage"] >= 1.0,
        "bytes_reduction_factor": comparison["bytes_reduction_factor"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--peers", type=int, default=120,
                        help="peers in the anti-entropy mesh (default 120)")
    parser.add_argument("--waves", type=int, default=20,
                        help="update waves per producer (default 20)")
    parser.add_argument("--fanout", type=int, default=3,
                        help="followers per producer (default 3)")
    parser.add_argument("--inserts", type=int, default=8,
                        help="facts gained per producer per wave")
    parser.add_argument("--deletes", type=int, default=2,
                        help="facts lost per producer per wave")
    parser.add_argument("--churn", type=int, default=10,
                        help="followers departed and joiners added mid-run")
    parser.add_argument("--drop", type=float, default=0.15,
                        help="per-message loss in the mesh (default 0.15)")
    parser.add_argument("--gossip-peers", type=int, default=1000,
                        help="nodes in the gossip overlay (default 1000)")
    parser.add_argument("--envelopes", type=int, default=60,
                        help="delta envelopes injected into the overlay")
    parser.add_argument("--gossip-drop", type=float, default=0.01,
                        help="per-frame loss in the overlay (default 0.01)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).parent / "BENCH_replication.json",
                        help="where to write the JSON report")
    args = parser.parse_args()

    result = run_benchmark(args)

    delta = result["anti_entropy"]["delta"]
    full = result["anti_entropy"]["full_state"]
    gossip = result["gossip_envelopes"]
    columns = ["protocol", "bytes on wire", "messages", "dropped",
               "rounds to converge"]
    rows = [
        ["delta envelopes", delta["bytes_on_wire"], delta["messages_sent"],
         delta["messages_dropped"], delta["rounds_after_last_update"]],
        ["full state", full["bytes_on_wire"], full["messages_sent"],
         full["messages_dropped"], full["rounds_after_last_update"]],
    ]
    print(format_table(columns, rows, title="[REPLICATION] "
                       f"{args.peers} peers, drop {args.drop}, "
                       f"churn {args.churn}"))
    print(f"delta ships {result['bytes_reduction_factor']}x fewer bytes; "
          f"gossip overlay at {gossip['peers']} peers delivered "
          f"{gossip['envelopes_delivered']}/{gossip['envelopes']} envelopes "
          f"(p95 {gossip['latency_p95_virtual']}s virtual, "
          f"{gossip['elapsed_seconds']}s wall)")

    args.output.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
