"""The read path driven as a state machine through ``repro.api``.

Reads are answered from kept state — a relation's sorted snapshot and an
aggregate view's group rows, both patched from the change feed the stores
fill at the write.  Hypothesis interleaves writes at two peers (so a raw
tuple can be held by two sources), view opens and closes, stages, reads
taken before and after ``converge()``, views and relations left unread
while many stages run, and, on SQLite, process death (``abort()``) and a
reopen on the same path.  After every step each read that is not being left
unread must equal the uncached read of
``tests/properties/test_differential_reads.py`` (``expected`` / ``scan``),
down to the float bits and the order.  A plain view and a viewer's carry an
``on_change`` observer each: after every step that ran the deployment to
its fixpoint, the facts an observer was told were added, minus those it was
told were removed, are the view's ``facts()``.  The same machine runs over
a transport that drops, duplicates and reorders messages, where the hub and
the far peer replicate causally; each of its examples writes the
transport's events to a JSONL file that a failing example names, and that
``tests.fakes.ReplayTransport`` re-runs with no random draw.
"""

import os
import pathlib
import shutil
import tempfile

import pytest
from hypothesis import currently_in_test_context, note, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import facts as facts_module
from repro.core.facts import Fact
from repro.core.parser import parse_rule
from repro.net.events import NetEventLog
from repro.runtime.inmemory import InMemoryTransport

from tests.fakes import ReplayTransport
from tests.properties.test_differential_reads import (
    FAR, HUB, LIKED_RULE, OVERLAP_RULE, VIEWS, bits, build, expected, open_view, pics,
    scan, users)

#: A plain view, four aggregates (local raw tuples, a global group, tuples
#: provided by FAR, tuples held by two sources) and a viewer's aggregate,
#: join and copy of a relation whose lineage moves with what FAR provides.
PAGES = ("wall", "board", "total", "far", "overlap", "board_guest", "both_guest",
         "seen_guest")
#: Relations read directly: a base relation, and the raw relation of the
#: "overlap" view (derived at HUB and provided by FAR).
RELATIONS = ("rate", "ovl")

#: Every kind of view is open from the start; ``toggle_view`` closes and
#: reopens them.
OPEN_AT_START = ("wall", "board", "overlap", "board_guest", "both_guest", "seen_guest")
#: The pages an ``on_change`` observer watches while they are open.
OBSERVED = ("wall", "seen_guest")

#: Ratings as the differential suite draws them, and ``0.0`` besides: it
#: equals ``-0.0`` but renders apart, so one raw tuple can be kept under two
#: renderings, one per source.
ratings = st.tuples(users, pics, st.sampled_from([5, 1, 0.1, 0.2, 1e16, -0.0, 0.0, 2.5]))
pages = st.sampled_from(PAGES)
readable = st.sampled_from(PAGES + RELATIONS)
picks = st.integers(min_value=0, max_value=40)


class ReadPathMachine(RuleBasedStateMachine):
    """One deployment, HUB and FAR, with views and relation handles."""

    backend = "memory"
    #: The change feeds' floor while the machine runs; ``None`` keeps it.
    feed_floor = None
    #: With provenance a viewer's decisions follow lineage, so the viewer's
    #: observer drains the provenance graph's feeds too.
    provenance = False
    #: The in-memory transport's loss model; ``None`` keeps it clean.
    loss = None
    #: Cycles a run to the fixpoint may take.
    max_steps = 60

    def __init__(self):
        super().__init__()
        self.saved_floor = facts_module.FEED_FLOOR
        if self.feed_floor is not None:
            facts_module.FEED_FLOOR = self.feed_floor
        self.directory = (tempfile.mkdtemp(prefix="repro-reads-")
                          if self.backend == "sqlite" else None)
        self.deployment = build(self.backend, provenance=self.provenance,
                                path=self.directory, transport=self._transport())
        if self.loss:
            assert all(peer.replication is not None
                       for peer in self.deployment.runtime.peers.values())
        self.views, self.state = {}, {}
        # page -> (its observer, the facts it was told are there)
        self.observers = {}
        for name in OPEN_AT_START:
            self.open(name)
        self.relations = {name: self.deployment.query(HUB, name) for name in RELATIONS}
        self.unread = set()
        self.fresh = 0
        # Whether the last step ran the deployment to its fixpoint.
        self.settled = False

    def _transport(self):
        """The deployment's transport; ``None`` builds the default one."""
        return None

    def open(self, name):
        open_view(self.deployment.peer(HUB), self.views, self.state, name)
        if name not in OBSERVED:
            return
        told = set()

        def added(fact):
            assert fact not in told, fact
            told.add(fact)

        self.observers[name] = (self.views[name].on_change(added, told.remove,
                                                           include_existing=True),
                                told)

    # -- writes ----------------------------------------------------------------- #

    @rule(rating=ratings)
    def insert(self, rating):
        self.settled = False
        self.deployment.peer(HUB).insert(Fact("rate", HUB, rating))

    @rule(rows=st.lists(ratings, max_size=4))
    def insert_many(self, rows):
        self.settled = False
        self.deployment.peer(HUB).insert_many([Fact("rate", HUB, row) for row in rows])

    @rule(pick=picks)
    def delete(self, pick):
        self.settled = False
        hub = self.deployment.peer(HUB)
        stored = hub.unwrap().query("rate")
        if stored:
            hub.delete(stored[pick % len(stored)])

    @rule(rating=ratings)
    def far_insert(self, rating):
        self.settled = False
        self.deployment.peer(FAR).insert(Fact("score", FAR, rating))

    @rule(pick=picks)
    def far_delete(self, pick):
        self.settled = False
        far = self.deployment.peer(FAR)
        stored = far.unwrap().query("score")
        if stored:
            far.delete(stored[pick % len(stored)])

    @rule(pick=picks)
    def far_mirror(self, pick):
        """The n-th rating at FAR too: one raw ``ovl`` tuple, two sources."""
        self.settled = False
        stored = self.deployment.peer(HUB).unwrap().query("rate")
        if stored:
            self.deployment.peer(FAR).insert(
                Fact("score", FAR, stored[pick % len(stored)].values))

    # -- views and stages ---------------------------------------------------------- #

    @rule(name=pages, settle=st.booleans())
    def toggle_view(self, name, settle):
        hub = self.deployment.peer(HUB)
        if name in self.views:
            if name == "overlap":
                hub.unwrap().remove_rules([self.state.pop("overlap")])
            observer = self.observers.pop(name, (None,))[0]
            self.views.pop(name).close(settle=settle, max_steps=self.max_steps)
            self.unread.discard(name)
            self.settled = settle
            if observer is not None:
                assert not observer.active and observer._feeds == {}
        else:
            self.settled = False
            self.open(name)

    @rule()
    def converge(self):
        self.settle()

    def settle(self):
        """Run the deployment to its fixpoint."""
        assert self.deployment.converge(max_steps=self.max_steps).converged
        self.settled = True

    @rule(name=readable)
    def leave_unread(self, name):
        self.unread.add(name)

    @rule(name=readable, settle=st.booleans())
    def read(self, name, settle):
        if settle:
            self.settle()
        self.unread.discard(name)
        self.check(name)

    @rule(count=st.integers(min_value=2, max_value=6), mirror=st.booleans())
    def stages(self, count, mirror):
        """Many stages in a row: what is left unread sees none of them."""
        hub, far = self.deployment.peer(HUB), self.deployment.peer(FAR)
        for _ in range(count):
            self.fresh += 1
            row = (f"s{self.fresh}", self.fresh % 3, 0.1 * self.fresh)
            hub.insert(Fact("rate", HUB, row))
            if mirror:
                far.insert(Fact("score", FAR, row))
            self.settle()

    # -- after every step ---------------------------------------------------------- #

    def check(self, name):
        if name in self.relations:
            want = bits(scan(self.deployment, name))
            assert bits(self.relations[name].facts()) == want, name
            assert bits(self.deployment.runtime.peer(HUB).query(name)) == want, name
            return
        view = self.views.get(name)
        if view is None:
            return
        want = bits(expected(self.deployment, view))
        assert bits(view.facts()) == want, name
        assert [tuple(map(repr, row)) for row in view.rows()] == \
            [values for _, _, values in want], name
        assert view.sorted() == tuple(sorted(view.facts(), key=str)), name
        if view.viewer is None:
            assert bits(view.raw_facts()) == bits(scan(self.deployment, view.relation)), name

    @invariant()
    def every_read_equals_the_uncached_read(self):
        for name in PAGES + RELATIONS:
            if name not in self.unread:
                self.check(name)

    @invariant()
    def every_observer_was_told_what_its_view_reads(self):
        if not self.settled:
            return
        for name, (_, told) in self.observers.items():
            assert told == set(self.views[name].facts()), name

    def teardown(self):
        try:
            self.deployment.close()
        finally:
            facts_module.FEED_FLOOR = self.saved_floor
            if self.directory is not None:
                shutil.rmtree(self.directory, ignore_errors=True)


class DurableReadPathMachine(ReadPathMachine):
    """The same, on SQLite files that die and reopen, with provenance."""

    backend = "sqlite"
    provenance = True

    @rule()
    def crash(self):
        """Process death before the next commit, then a reopen on the path:
        the views that were open are asked again under the same names."""
        hub = self.deployment.peer(HUB)
        hub.insert(Fact("rate", HUB, ("doomed", 0, 1)))      # never committed
        for name in self.deployment.peer_names():
            self.deployment.runtime.peer(name).engine.state.backend.abort()
        # The process died, and with it what its observers kept watching.
        for observer, _ in self.observers.values():
            assert observer._feeds == {}
        self.deployment = build(self.backend, provenance=self.provenance,
                                path=self.directory)
        hub = self.deployment.peer(HUB)
        hub.unwrap().remove_rules([rule.rule_id for rule in hub.rules()])
        opened, self.views, self.state, self.observers = sorted(self.views), {}, {}, {}
        for name in opened:
            self.open(name)
        self.relations = {name: self.deployment.query(HUB, name) for name in RELATIONS}
        self.settled = False


class LossyReadPathMachine(ReadPathMachine):
    """The same over a transport that drops, duplicates and reorders: the
    views' owner and the far peer replicate causally, and a run to the
    fixpoint waits for anti-entropy to repair every loss."""

    loss = {"drop_probability": 0.2, "duplicate_probability": 0.2, "reorder_window": 2}
    max_steps = 400
    #: Where each example writes its transport's events, overwriting the
    #: example before it: the log left behind is the last example's, which
    #: is the failing one when the machine fails.
    log_path = pathlib.Path(tempfile.gettempdir()) / f"repro-lossy-reads-{os.getpid()}.jsonl"
    log = None

    def _transport(self):
        self.log_path.unlink(missing_ok=True)
        self.log = NetEventLog(self.log_path, keep_in_memory=False)
        if currently_in_test_context():
            note(f"transport events: {self.log_path} "
                 "(re-run them with tests.fakes.ReplayTransport)")
        return InMemoryTransport(seed=7, event_log=self.log, **self.loss)

    def teardown(self):
        try:
            super().teardown()
        finally:
            if self.log is not None:
                self.log.close()


class OverflowingReadPathMachine(ReadPathMachine):
    """Feeds bounded by what their readers keep, with no floor: a reader
    left unread while more facts change than it keeps reads the relation
    again.  With provenance, so the graph's feeds overflow too."""

    feed_floor = 1
    provenance = True


#: The views the resuming machine asks, each under a name, so that a
#: reopened owner finds it again: page -> view relation.  ``ovl`` is also
#: derived into by ``OVERLAP_RULE``, ``p_fans`` reads ``LIKED_RULE``'s head.
NAMED = {"board": "p_board", "wall": "p_wall", "total": "p_total", "far": "far",
         "overlap": "ovl", "fans": "p_fans", "board_guest": "p_gboard"}
#: The own rules the resuming machine adds and removes; ``seen`` derives
#: from what FAR provides to ``ovl``.
EXTRA_RULES = {"liked": LIKED_RULE, "overlap": OVERLAP_RULE,
               "seen": "seen@h($p) :- ovl@h($p, $s, $u)"}
_EXTRA_KEYS = {parse_rule(text, default_peer=HUB).canonical_key(): name
               for name, text in EXTRA_RULES.items()}


class _World:
    """One deployment of the resuming machine and what was asked of it."""

    def __init__(self, deployment):
        self.deployment = deployment
        self.views = {}
        self.hub.load_program("collection intensional seen@h(p);")
        self.relations = {name: deployment.query(HUB, name)
                          for name in ("rate", "ovl", "liked", "seen")}

    @property
    def hub(self):
        return self.deployment.peer(HUB)

    def ask(self, page):
        text, viewer = VIEWS[page]
        self.views[page] = self.hub.query(text, name=NAMED[page], viewer=viewer)

    def extra_rules(self):
        """The own rules of ``EXTRA_RULES`` the hub has, by name."""
        return {_EXTRA_KEYS[key]: rule for rule in self.hub.rules()
                if (key := rule.canonical_key()) in _EXTRA_KEYS}

    def toggle_rule(self, which, add):
        if add:
            self.hub.add_rule(EXTRA_RULES[which])
        else:
            self.hub.unwrap().remove_rules([self.extra_rules()[which].rule_id])

    def toggle_view(self, page, ask):
        if ask:
            self.ask(page)
        else:
            self.views.pop(page).close(settle=False)

    def reads(self):
        """Every read the machine compares, down to the bit and the order."""
        for page, view in sorted(self.views.items()):
            assert bits(view.facts()) == bits(expected(self.deployment, view)), page
            yield page, bits(view.facts()), [tuple(map(repr, row)) for row in view.rows()]
        for name, relation in sorted(self.relations.items()):
            want = bits(scan(self.deployment, name))
            assert bits(relation.facts()) == want, name
            yield name, want


class ResumingReadPathMachine(RuleBasedStateMachine):
    """A durable deployment that changes its program, closes without a
    stage, dies and reopens — resuming from its last fixpoint or
    recomputing — against a twin on the memory backend that never went
    down.  The twin takes each operation when the durable one commits it
    (a stage of the peer it wrote to, or ``close()``); an operation the
    durable one loses in a crash never reaches it.  Whenever the two hold
    the same committed input, every read and the snapshots of both peers
    must be equal."""

    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="repro-resume-")
        self.durable = _World(build("sqlite", path=self.directory))
        self.twin = _World(build("memory"))
        # What the durable deployment did since its last commit, in order:
        # (the peer written to, a function of a world).
        self.uncommitted = []
        for page in ("board", "wall", "overlap"):
            self.do(lambda world, page=page: world.ask(page))
        self.converge()

    def do(self, operation, peer=HUB):
        operation(self.durable)
        self.uncommitted.append((peer, operation))

    # -- writes and program changes ------------------------------------------------ #

    @rule(rating=ratings)
    def insert(self, rating):
        fact = Fact("rate", HUB, rating)
        self.do(lambda world: world.hub.insert(fact))

    @rule(pick=picks)
    def delete(self, pick):
        stored = self.durable.hub.unwrap().query("rate")
        if stored:
            fact = stored[pick % len(stored)]
            self.do(lambda world: world.hub.delete(fact))

    @rule(rating=ratings)
    def far_insert(self, rating):
        fact = Fact("score", FAR, rating)
        self.do(lambda world: world.deployment.peer(FAR).insert(fact), FAR)

    @rule(pick=picks)
    def far_delete(self, pick):
        stored = self.durable.deployment.peer(FAR).unwrap().query("score")
        if stored:
            fact = stored[pick % len(stored)]
            self.do(lambda world: world.deployment.peer(FAR).delete(fact), FAR)

    @rule(which=st.sampled_from(sorted(EXTRA_RULES)))
    def toggle_rule(self, which):
        add = which not in self.durable.extra_rules()
        self.do(lambda world: world.toggle_rule(which, add))

    @rule(page=st.sampled_from(sorted(NAMED)))
    def toggle_view(self, page):
        ask = page not in self.durable.views
        self.do(lambda world: world.toggle_view(page, ask))

    # -- commits, deaths and reopens ------------------------------------------------ #

    @rule()
    def converge(self):
        self.durable.deployment.converge(max_steps=60)
        self.commit()

    def commit(self, peers=(HUB, FAR)):
        """The twin takes what the durable deployment committed at
        ``peers``; the rest is lost."""
        for peer, operation in self.uncommitted:
            if peer in peers:
                operation(self.twin)
        self.uncommitted.clear()
        self.twin.deployment.converge(max_steps=60)

    @rule(drop=st.booleans())
    def close_without_a_stage(self, drop):
        """``close()`` commits the writes no stage has seen."""
        self.durable.deployment.close()
        self.commit()
        self.reopen(drop)

    @rule(drop=st.booleans(), far_stage=st.booleans())
    def crash(self, drop, far_stage):
        """Process death: what no stage committed is lost.  With
        ``far_stage``, FAR's writes are committed by a stage of its own
        first, and what it sent HUB is lost in flight."""
        if far_stage:
            self.durable.deployment.runtime.peer(FAR).engine.run_stage()
        self.durable.hub.insert(Fact("rate", HUB, ("doomed", 0, 1)))
        for name in self.durable.deployment.peer_names():
            self.durable.deployment.runtime.peer(name).engine.state.backend.abort()
        self.commit((FAR,) if far_stage else ())
        self.reopen(drop)

    def reopen(self, drop):
        """Reopen on the path and ask the open views again by name: with
        ``drop``, after removing the view rules the store restored (an
        equal rule under a new id); without, adopting them."""
        self.durable = _World(build("sqlite", path=self.directory))
        if drop:
            extra = {id(rule) for rule in self.durable.extra_rules().values()}
            self.durable.hub.unwrap().remove_rules(
                [rule.rule_id for rule in self.durable.hub.rules() if id(rule) not in extra])
        for page in sorted(self.twin.views):
            self.durable.ask(page)
        self.durable.deployment.converge(max_steps=60)

    # -- after every step ----------------------------------------------------------- #

    @invariant()
    def the_durable_deployment_answers_as_the_twin(self):
        durable = list(self.durable.reads())
        if self.uncommitted:
            return
        assert durable == list(self.twin.reads())
        assert self.durable.deployment.snapshot() == self.twin.deployment.snapshot()
        assert set(self.durable.extra_rules()) == set(self.twin.extra_rules())

    def teardown(self):
        try:
            self.durable.deployment.close()
            self.twin.deployment.close()
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)


_SETTINGS = settings(max_examples=25, stateful_step_count=30, deadline=None)
TestReadPath = ReadPathMachine.TestCase
TestReadPath.settings = _SETTINGS
TestDurableReadPath = DurableReadPathMachine.TestCase
TestDurableReadPath.settings = _SETTINGS


class TestLossyReadPath(LossyReadPathMachine.TestCase):
    settings = _SETTINGS

    def runTest(self):
        super().runTest()
        # Every example passed: no event log is worth keeping.
        LossyReadPathMachine.log_path.unlink(missing_ok=True)


TestOverflowingReadPath = OverflowingReadPathMachine.TestCase
TestOverflowingReadPath.settings = _SETTINGS
TestResumingReadPath = ResumingReadPathMachine.TestCase
TestResumingReadPath.settings = settings(max_examples=40, stateful_step_count=30,
                                         deadline=None)


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("first", [-0.0, 0.0])
def test_a_zero_held_under_both_signs_is_kept_once_per_source(backend, first, tmp_path):
    """``rate@h(u, p, -0.0)`` derives ``ovl@h(p, -0.0, u)`` at HUB while FAR
    provides ``ovl@h(p, 0.0, u)``: the two facts are equal, so the feed
    notes one of them, but each source holds its own and a read yields both,
    each where its own rendering sorts — through ``query``, ``rows()`` and a
    count, as each source arrives and leaves."""
    deployment = build(backend, path=str(tmp_path) if backend == "sqlite" else None)
    hub, far = deployment.peer(HUB), deployment.peer(FAR)
    views, state = {}, {}
    open_view(hub, views, state, "overlap")
    overlap, relation = views["overlap"], deployment.query(HUB, "ovl")
    filler = [Fact("rate", HUB, ("bob", 1, value)) for value in (-1.0, 0.5)]
    hub.insert_many(filler)

    def check():
        want = bits(scan(deployment, "ovl"))
        assert bits(relation.facts()) == want
        assert bits(deployment.runtime.peer(HUB).query("ovl")) == want
        assert [tuple(map(repr, row)) for row in relation.rows()] == \
            [values for _, _, values in want]
        aggregate = bits(expected(deployment, overlap))
        assert bits(overlap.facts()) == aggregate
        assert [tuple(map(repr, row)) for row in overlap.rows()] == \
            [values for _, _, values in aggregate]

    steps = [
        lambda: hub.insert(Fact("rate", HUB, ("ann", 1, first))),
        lambda: far.insert(Fact("score", FAR, ("ann", 1, -first))),
        lambda: hub.delete(Fact("rate", HUB, ("ann", 1, first))),
        lambda: hub.insert(Fact("rate", HUB, ("ann", 1, first))),
        lambda: far.delete(Fact("score", FAR, ("ann", 1, -first))),
    ]
    deployment.converge(max_steps=60)
    check()
    for step in steps:
        step()
        deployment.converge(max_steps=60)
        check()
    deployment.close()


def test_a_recorded_lossy_run_replays_to_the_same_reads(tmp_path):
    """One lossy machine run, re-run from the event log it wrote: the same
    snapshots, reads and transport ``stats``, every recorded record used."""
    class Recorded(LossyReadPathMachine):
        log_path = tmp_path / "run.jsonl"

    class Replayed(LossyReadPathMachine):
        def _transport(self):
            self.replay = ReplayTransport(Recorded.log_path)
            return self.replay

    def run(machine):
        try:
            machine.insert(("ann", 1, 5))
            machine.far_insert(("bob", 2, 0.1))
            machine.far_mirror(0)
            machine.converge()
            machine.toggle_view("total", settle=False)
            machine.stages(3, mirror=True)
            machine.delete(1)
            machine.far_delete(2)
            machine.toggle_view("wall", settle=True)
            machine.read("board", settle=True)
            machine.every_read_equals_the_uncached_read()
            machine.every_observer_was_told_what_its_view_reads()
            return (machine.deployment.snapshot(), machine.deployment.stats.as_dict(),
                    {name: view.rows() for name, view in machine.views.items()})
        finally:
            machine.teardown()

    recorded = run(Recorded())
    assert recorded[1]["messages_dropped"] > 0
    replayed_machine = Replayed()
    assert run(replayed_machine) == recorded
    replayed_machine.replay.finish()
