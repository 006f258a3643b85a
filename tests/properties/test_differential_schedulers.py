"""Differential equivalence of the default driver and the lockstep reference.

The reactive driver runs a stage only at the peers that can change
something; the lockstep reference (``tests.reference_engine.lockstep``) runs
every peer every cycle.  Skipping a peer is admissible
only if its stage would have been a no-op, so the two must be
indistinguishable from outside after *every* ``converge()``: the same
snapshot at every peer, the same number of cycles, the same messages on the
transport (a lossy one draws from one seeded stream, so the same messages are
lost), the same state of the wrapped services and the same ``explain()``
story — while the reactive driver runs no stage that found nothing to do.
``await aconverge()`` runs the same cycles from asyncio, so it must leave
exactly what ``converge()`` leaves, message for message.

One deployment exercises every way work can reach a peer: base-fact inserts
and deletes, rules added and removed (local, remote-extensional and
remote-intensional heads), a delegation that comes and goes with a fact, a
scratch relation (its end-of-stage clear is input of the *next* stage), a
local extensional head (stored by the next stage too), live views opened and
closed (one with negation), a wrapped service that is written to from inside
(a fact pushed to ``files@box``) and changed from outside between two
converges, and an outbox wrapper that never asks for a poll.  It runs once
over the program's defaults and once under causal replication with provenance
over a transport that loses, duplicates and reorders.

The reference polls every wrapper at every stage whatever ``wants_stage``
says (``before_stage`` never consults it), so a wrapper that fails to ask
for a poll it needs shows up here as a difference.

Under causal replication a peer that is only *waiting* — for an ack — is one
more peer with no work: it runs no stage until its digest falls due on the
scheduler's clock, while ``converge()`` still refuses to settle.  That this
moved no message is pinned twice: against the reference after every
``converge()``, and against sha256 digests of whole seeded message streams
recorded before the timers left the per-peer stage count
(:data:`STREAM_DIGESTS`).
"""

import asyncio
import hashlib
import json
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import InMemoryTransport, NetEventLog, system
from repro.core import codec
from repro.core.facts import Fact
from repro.runtime.messages import ReplicationAckMessage, ReplicationDigestMessage
from repro.wepic.scenario import build_demo_scenario
from repro.wrappers.dropbox import DropboxService, DropboxWrapper
from repro.wrappers.email import EmailService, EmailWrapper

from tests.fakes import UnpromisedTransport
from tests.reference_engine import lockstep

PROGRAMS = {
    "a": """
collection ext persistent item@a(x);
collection ext persistent friend@a(p);
collection ext scratch ping@a(x);
collection ext persistent log@a(x);
collection int echo@a(x);
collection int seen@a(x);
collection int both@a(x);
collection int boxed@a(path);
rule echo@a($x) :- ping@a($x);
rule seen@a($x) :- friend@a($p), item@$p($x);
rule log@a($x) :- seen@a($x);
rule boxed@a($p) :- files@box($p, $n, $s);
""",
    "b": """
collection ext persistent item@b(x);
rule inbox@c($x) :- item@b($x);
rule email@c("a", "item", $x, "b") :- item@b($x);
""",
    "c": """
collection ext persistent item@c(x);
collection ext persistent inbox@c(x);
collection int big@c(x);
rule big@c($x) :- inbox@c($x), item@c($x);
""",
}

#: Rules that come and go: a local intensional head, a remote extensional
#: head and a remote intensional one (its facts are *provided* at ``a``).
EXTRA_RULES = (
    ("a", "both@a($x) :- item@a($x), seen@a($x)"),
    ("b", "item@c($x) :- item@b($x)"),
    ("c", "seen@a($x) :- big@c($x)"),
)

#: Views that open and close: a join over a derived relation, and negation.
VIEWS = (
    ("a", "seen@a($x), item@a($x)"),
    ("c", "inbox@c($x), not item@c($x)"),
)

VALUES = st.integers(0, 2)
operation = st.one_of(
    st.tuples(st.just("item"), st.booleans(), st.sampled_from("abc"), VALUES),
    st.tuples(st.just("friend"), st.booleans(), st.sampled_from("bc")),
    st.tuples(st.just("ping"), VALUES),
    st.tuples(st.just("rule"), st.booleans(), st.integers(0, len(EXTRA_RULES) - 1)),
    st.tuples(st.just("view"), st.booleans(), st.integers(0, len(VIEWS) - 1)),
    st.tuples(st.just("push"), VALUES),
    st.tuples(st.just("upload"), VALUES),
)
#: A ``converge()`` follows every batch of one to three operations.
batches = st.lists(st.lists(operation, min_size=1, max_size=3), max_size=6)

#: Batches every run replays: one per way a skipped stage could go missing.
SCRIPTED = (
    # the scratch clear is the next stage's input, and nobody else's
    [[("ping", 1)], [("ping", 1), ("ping", 2)]],
    # the service changes from outside, nothing else does
    [[("upload", 0)], [("upload", 1)], [("upload", 1)]],
    # a pushed fact reaches the service one stage after it reached the peer
    [[("push", 2)], [("upload", 2), ("push", 0)]],
    # a delegation installed, fed, starved and retracted
    [[("friend", True, "b"), ("item", True, "b", 1)], [("item", False, "b", 1)],
     [("item", True, "b", 2), ("friend", False, "b")]],
    # the outbox wrapper: one email per fact, whoever else is idle
    [[("item", True, "b", 0)], [("item", False, "b", 0)], [("item", True, "b", 0)]],
    # a remote-head rule removed: nothing local changes, a retraction leaves
    [[("item", True, "b", 1), ("rule", True, 1)], [("rule", False, 1)]],
    # provided facts and a view over them, opened, changed, closed
    [[("item", True, "c", 1), ("item", True, "b", 1), ("rule", True, 2)],
     [("view", True, 0), ("item", True, "a", 1)], [("view", False, 0)],
     [("rule", False, 2)]],
    # negation in a view at a peer that is otherwise only written to
    [[("view", True, 1), ("item", True, "b", 2)], [("item", True, "c", 2)],
     [("view", False, 1)]],
    # a rule added and removed before a stage: the program is unchanged
    [[("rule", True, 0), ("rule", False, 0)]],
)


def scripted(test):
    for script in SCRIPTED:
        test = example(script)(test)
    return test


class AskCountingDropbox(DropboxWrapper):
    """Counts the times the wrapper asked the driver for a stage."""

    asked = 0

    def wants_stage(self, peer):
        wanted = super().wants_stage(peer)
        self.asked += wanted
        return wanted


class Deployment:
    """One deployment plus the handles the operations need."""

    def __init__(self, reference, lossy):
        self.dropbox, self.mail = DropboxService(), EmailService()
        self.box_wrapper = AskCountingDropbox(self.dropbox, "u", peer_name="box")
        builder = system()
        if lossy:
            builder.provenance().transport(InMemoryTransport(
                loss_probability=0.15, duplicate_probability=0.15,
                reorder_window=3, seed=7))
        for name, program in PROGRAMS.items():
            peer = builder.peer(name).program(program)
            if name == "c":
                peer.wrapper(EmailWrapper(self.mail))
        builder.peer("box").wrapper(self.box_wrapper)
        self.api = builder.build()
        if reference:
            lockstep(self.api)
        self.rules = {}
        self.views = {}
        # Program edits made through the API, per peer: one undone before
        # the next stage moves no program version, but is still its work.
        self.edits = Counter()
        self.idle_stages = []
        self._seen = {}
        self._attempts = 0

    # -- the no-idle-stage watch (reactive driver only) --------------------- #

    def watch_for_idle_stages(self):
        self.api.runtime.add_stage_observer(self._on_stage)

    def _on_stage(self, name, report):
        peer = self.api.runtime.peers[name]
        # A program change or edit and a poll the wrapper asked for are
        # work too.
        stamp = (peer.engine.program_version, self.edits[name],
                 self.box_wrapper.asked if name == "box" else 0)
        unchanged = self._seen.get(name) == stamp
        self._seen[name] = stamp
        # A message the transport lost was still work, and so is an update
        # the channel found it already carries: count attempts and outputs.
        attempts, self._attempts = self._attempts, self.api.stats.messages_sent
        # A causal peer waiting for an ack is not staged either: its digest
        # timer reads the scheduler's clock, not a count of its own stages.
        if (unchanged
                and report.stage_result.evaluation_path == "skip"
                and not report.delivered_messages
                and not report.stage_result.has_outgoing()
                and self._attempts == attempts):
            self.idle_stages.append((name, report.stage_result.stage))

    # -- operations ----------------------------------------------------------- #

    def apply(self, op):
        kind = op[0]
        if kind == "item":
            _, insert, peer, value = op
            handle = self.api.peer(peer)
            (handle.insert if insert else handle.delete)(Fact("item", peer, (value,)))
        elif kind == "friend":
            handle = self.api.peer("a")
            (handle.insert if op[1] else handle.delete)(Fact("friend", "a", (op[2],)))
        elif kind == "ping":
            self.api.peer("a").insert(Fact("ping", "a", (op[1],)))
        elif kind == "rule":
            _, add, index = op
            owner, text = EXTRA_RULES[index]
            peer = self.api.peer(owner).unwrap()
            if add and index not in self.rules:
                self.rules[index] = peer.add_rule(text).rule_id
                self.edits[owner] += 1
            elif not add and index in self.rules:
                peer.remove_rule(self.rules.pop(index))
                self.edits[owner] += 1
        elif kind == "view":
            _, open_, index = op
            owner, query = VIEWS[index]
            if open_ and index not in self.views:
                self.views[index] = self.api.query(owner, query)
                self.edits[owner] += 1
            elif not open_ and index in self.views:
                self.views.pop(index).close(settle=False)
                self.edits[owner] += 1
        elif kind == "push":
            # written at ``a``, stored at ``box``, uploaded by its wrapper
            self.api.peer("a").insert(Fact("files", "box", (f"/in{op[1]}", "in", op[1])))
        elif kind == "upload":
            # nobody tells the deployment: the wrapper has to notice
            self.dropbox.upload("u", f"/out{op[1]}", "out", op[1] + len(self.dropbox.files_of("u")))

    # -- what an outsider can observe ------------------------------------------ #

    def observed(self):
        stats = self.api.stats
        story = {
            "snapshot": self.api.snapshot(),
            "views": {index: view.rows() for index, view in sorted(self.views.items())},
            "messages": (stats.messages_sent, stats.messages_delivered,
                         stats.messages_dropped, stats.payload_items,
                         dict(stats.by_kind)),
            "dropbox": self.dropbox.files_of("u"),
            "emails": self.mail.sent_count,
        }
        if self.api.runtime.provenance:
            story["explain"] = {
                fact: self._explained("a", fact)
                for relation in ("seen", "both", "boxed")
                for fact in self.api.peer("a").unwrap().query(relation)}
        return story

    def _explained(self, at, fact):
        told = self.api.explain(at, fact)
        return (told.derived, frozenset(told.why), told.lineage,
                told.base_relations, told.peers)


def converge(deployment, asynchronous=False, **options):
    """``deployment.converge(**options)``, or the same through ``aconverge``."""
    if asynchronous:
        return asyncio.run(deployment.aconverge(**options))
    return deployment.converge(**options)


def _converge_both(reference, candidate, asynchronous=False):
    expected = reference.api.converge()
    summary = converge(candidate.api, asynchronous)
    assert expected.converged and summary.converged
    assert summary.round_count == expected.round_count
    assert summary.rounds_to_convergence == expected.rounds_to_convergence
    assert candidate.observed() == reference.observed()
    assert candidate.idle_stages == []
    return expected, summary


def _replay(reference, candidate, stream, asynchronous=False):
    """Apply ``stream`` to both, converging both after every batch."""
    candidate.watch_for_idle_stages()
    pairs = [_converge_both(reference, candidate, asynchronous)]
    for batch in stream:
        for op in batch:
            reference.apply(op)
            candidate.apply(op)
        pairs.append(_converge_both(reference, candidate, asynchronous))
    # settled means settled: asking again runs nothing new
    pairs.append(_converge_both(reference, candidate, asynchronous))
    reference.api.close()
    candidate.api.close()
    return pairs


LOSSY = pytest.mark.parametrize("lossy", [False, True],
                                ids=["defaults", "causal-lossy-provenance"])


class TestDefaultDriverMatchesLockstep:
    @LOSSY
    def test_every_converge_agrees_with_the_reference(self, lossy):
        stages = [0, 0]

        @scripted
        @given(batches)
        @settings(max_examples=15 if not lossy else 8, deadline=None)
        def run(stream):
            pairs = _replay(Deployment(True, lossy), Deployment(False, lossy), stream)
            stages[0] += sum(expected.total_stages() for expected, _ in pairs)
            stages[1] += sum(summary.total_stages() for _, summary in pairs)

        run()
        # ... and it is the same work, not the same waste.
        assert stages[1] * 2 < stages[0]


class TestAconvergeMatchesConverge:
    @LOSSY
    def test_every_aconverge_agrees_with_converge(self, lossy):
        @scripted
        @given(batches)
        @settings(max_examples=15 if not lossy else 8, deadline=None)
        def run(stream):
            _replay(Deployment(False, lossy), Deployment(False, lossy), stream,
                    asynchronous=True)

        run()


# --------------------------------------------------------------------------- #
# a waiting peer runs no stage, and the deployment does not settle around it
# --------------------------------------------------------------------------- #

SENDER = """
collection ext persistent item@a(x);
rule item@b($x) :- item@a($x);
"""
RECEIVER = "collection ext persistent item@b(x);"


def causal_pair(reference=False, **storage):
    # clean, but promising nothing: the ack is lost by hand later
    transport = UnpromisedTransport(event_log=NetEventLog())
    builder = system().transport(transport)
    if storage:
        builder.storage("sqlite", **storage)
    builder.peer("a").program(SENDER)
    builder.peer("b").program(RECEIVER)
    deployment = builder.build()
    return lockstep(deployment) if reference else deployment, transport


def moved(transport, action):
    """The messages of the event log's ``action`` records, in order."""
    return [record["message"] for record in transport.event_log.events(action)]


def lose_the_ack(deployment, transport):
    """One fact from ``a`` to ``b``; the ack back is lost.  Two cycles, after
    which ``a``'s digest is due in cycle ``current_round + 3``."""
    runtime = deployment.runtime
    assert deployment.converge().converged and not moved(transport, "send")
    deployment.peer("a").insert(Fact("item", "a", (1,)))
    assert runtime.step().peer_reports["a"].sent_messages == 1  # the envelope
    transport.drop_probability = 1.0
    assert runtime.step().peer_reports["b"].delivered_messages == 1
    transport.drop_probability = 0.0
    (lost,) = moved(transport, "drop")
    assert isinstance(lost, ReplicationAckMessage)
    assert not transport.has_in_flight()
    transport.event_log.clear()


#: The lockstep reference, and the reactive driver through either entry point.
DRIVERS = pytest.mark.parametrize(
    "reference,asynchronous", [(True, False), (False, False), (False, True)],
    ids=["lockstep", "reactive", "aconverge"])


class TestAWaitingPeerRunsNoStage:
    def test_no_stage_until_the_digest_is_due_then_exactly_one(self):
        deployment, transport = causal_pair()
        runtime = deployment.runtime
        lose_the_ack(deployment, transport)
        outbox = runtime.peer("a").replication.outbox("b")
        assert outbox.unacked and runtime.replication_unsettled()
        # the envelope left digest_interval - 1 cycles ago: two more to wait
        for _ in range(2):
            assert runtime.step().peer_reports == {}
            assert transport.event_log.clear() == []
        report = runtime.step()
        assert list(report.peer_reports) == ["a"]
        assert report.peer_reports["a"].sent_messages == 1
        (sent,) = moved(transport, "send")
        assert isinstance(sent, ReplicationDigestMessage)
        assert list(runtime.step().peer_reports) == ["b"]        # the re-ack
        assert list(runtime.step().peer_reports) == ["a"]        # ... arrives
        assert not outbox.unacked and not runtime.replication_unsettled()
        assert runtime.peer("a").replication.counters["digests_sent"] == 1
        assert runtime.step().peer_reports == {}

    @DRIVERS
    def test_converge_does_not_settle_around_a_dropped_digest(self, reference,
                                                               asynchronous):
        deployment, transport = causal_pair(reference)
        runtime = deployment.runtime
        lose_the_ack(deployment, transport)
        transport.drop_probability = 1.0
        summary = converge(deployment, asynchronous, max_steps=3)  # ... and the digest
        transport.drop_probability = 0.0
        (lost,) = moved(transport, "drop")
        assert isinstance(lost, ReplicationDigestMessage)
        # nothing in flight, nobody with work, and still not converged: for
        # three more cycles nobody even runs, and converge() keeps saying so
        assert not summary.converged and not transport.has_in_flight()
        waiting = converge(deployment, asynchronous, max_steps=3)
        assert not waiting.converged
        if not reference:
            assert waiting.total_stages() == 0
        summary = converge(deployment, asynchronous)
        assert summary.converged
        assert not runtime.peer("a").replication.outbox("b").unacked
        assert runtime.peer("a").replication.counters["digests_sent"] == 2

    def test_a_restored_outbox_still_repairs_a_lost_ack(self, tmp_path):
        deployment, transport = causal_pair(path=str(tmp_path))
        lose_the_ack(deployment, transport)
        deployment.close()

        # The reopened sender has an unacknowledged outbox and no timer.  It
        # retransmits (b absorbs the duplicate and, complete, stays silent),
        # waits without a stage, digests once, and b's re-ack closes it.
        reopened, transport = causal_pair(path=str(tmp_path))
        state = reopened.runtime.peer("a").replication
        assert state.outbox("b").unacked and state.unsettled()
        summary = reopened.converge()
        assert summary.converged and not state.outbox("b").unacked
        assert state.counters["digests_sent"] == 1
        kinds = [message.kind() for message in moved(transport, "send")]
        assert kinds == ["DeltaEnvelopeMessage", "ReplicationDigestMessage",
                         "ReplicationAckMessage"]
        assert [len(report.peer_reports) for report in summary.rounds] == [
            2, 1, 0, 0, 1, 1, 1, 0]
        reopened.close()


# --------------------------------------------------------------------------- #
# same seed, same messages: stream digests recorded at the parent commit
# --------------------------------------------------------------------------- #

#: The adversary's settings per cell: clean, heavy loss with jitter, slow
#: links, and a lossy duplicating mesh at latency 2.
CELLS = {
    "clean": dict(seed=1),
    "lossy": dict(loss_probability=0.3, duplicate_probability=0.3,
                  latency_jitter=2, reorder_window=4, seed=3),
    "slow": dict(loss_probability=0.15, duplicate_probability=0.1,
                 reorder_window=3, latency=3, seed=11),
    "mesh": dict(loss_probability=0.1, duplicate_probability=0.3,
                 reorder_window=4, latency=2, seed=20130622),
}

#: sha256 (first 16 hex digits) over every ``(cycle, send | drop | deliver,
#: sender, recipient, kind, canonical wire JSON)`` record of a run's
#: :class:`~repro.net.events.NetEventLog` plus its final
#: ``snapshot()``.  First recorded at the commit *before* digest and pull
#: timers moved from a per-peer stage count to the scheduler's cycle count
#: and waiting peers stopped running stages.  Re-recorded when rules came
#: to be named by their content and messages numbered by the deployment
#: that sends them (the wire JSON now keeps its ``message_id``): the same
#: messages in the same cycles with the same facts, but new rule,
#: delegation and message ids, and one stage's delegations listed in the
#: order of their new ids.  The lockstep, reactive and ``aconverge``
#: drivers agree on each, under any hash seed and on a second run in one
#: process.  A change that moves one of these has changed which message is
#: sent, when, or in which order.
STREAM_DIGESTS = {
    ("three_peers", "clean"): "5399f2fc6d691c8b",
    ("three_peers", "lossy"): "b7eb06a3b2f687ad",
    ("three_peers", "slow"): "d37b99fc7e5e4169",
    ("three_peers", "mesh"): "b1a007be52755a38",
    ("wepic", "clean"): "5f7a18336b5004ee",
    ("wepic", "lossy"): "405ba21b321155aa",
    ("wepic", "slow"): "6f956bb0606864fa",
    ("wepic", "mesh"): "61b76dc9958a4d84",
}

#: The confluence suite's three-peer chain and its insert/delete script.
CHAIN = {
    "alice": 'collection extensional persistent src@alice(item);\n'
             'rule mid@bob($x) :- src@alice($x);',
    "bob": 'collection extensional persistent mid@bob(item);\n'
           'rule sink@carol($x) :- mid@bob($x);',
    "carol": 'collection intensional sink@carol(item);',
}
CHAIN_SCRIPT = (("insert", "a"), ("insert", "b"), ("insert", "c"), ("delete", "b"),
                ("insert", "d"), ("insert", "e"), ("delete", "a"), ("insert", "b"),
                ("insert", "f"))


def stream_digest(log, snapshot):
    digest = hashlib.sha256()
    for record in log.events():
        if record["action"] not in ("send", "drop", "deliver"):
            continue
        message = record["message"]
        digest.update(json.dumps(
            [int(record["ts"]), record["action"], message.sender,
             message.recipient, message.kind(), message.to_wire()],
            sort_keys=True).encode())
    encoded = {peer: {relation: [codec.encode_fact(f) for f in sorted(facts, key=str)]
                      for relation, facts in sorted(relations.items())}
               for peer, relations in snapshot.items()}
    digest.update(json.dumps(encoded, sort_keys=True).encode())
    return digest.hexdigest()[:16]


def run_three_peers(transport, reference, asynchronous):
    builder = system().transport(transport).provenance(True)
    for name, program in CHAIN.items():
        builder.peer(name).program(program)
    deployment = builder.build()
    if reference:
        lockstep(deployment)
    for action, item in CHAIN_SCRIPT:
        handle = deployment.peer("alice")
        (handle.insert if action == "insert" else handle.delete)(f'src@alice("{item}")')
        assert converge(deployment, asynchronous, max_steps=800).converged
    return deployment.snapshot()


def run_wepic(transport, reference, asynchronous):
    scenario = build_demo_scenario(
        attendees=("Emilien", "Jules", "Julia"), pictures_per_attendee=2,
        transport=transport, provenance=True)
    if reference:
        lockstep(scenario.api)
    assert converge(scenario.api, asynchronous, max_steps=800).converged
    jules, emilien = scenario.app("Jules"), scenario.app("Emilien")
    steps = (
        lambda: jules.select_attendee("Emilien"),
        lambda: emilien.upload_picture(name="new.jpg", picture_id=77),
        lambda: jules.rate_picture(77, 4),
        lambda: scenario.app("Julia").select_attendee("Jules"),
        lambda: emilien.remove_picture(77),
        lambda: jules.deselect_attendee("Emilien"),
    )
    for step in steps:
        step()
        assert converge(scenario.api, asynchronous, max_steps=800).converged
    return scenario.api.snapshot()


class TestSameSeedSameMessages:
    @DRIVERS
    @pytest.mark.parametrize("deployment,cell", sorted(STREAM_DIGESTS))
    def test_the_recorded_stream_is_reproduced(self, deployment,
                                               cell, reference, asynchronous):
        # Every cell runs causal replication, the clean one too: its
        # transport promises nothing.
        log = NetEventLog()
        transport = UnpromisedTransport(event_log=log, **CELLS[cell])
        run = run_three_peers if deployment == "three_peers" else run_wepic
        snapshot = run(transport, reference, asynchronous)
        assert stream_digest(log, snapshot) == STREAM_DIGESTS[deployment, cell]
