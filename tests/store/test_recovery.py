"""Crash recovery: a durable SQLite deployment killed at an arbitrary stage
boundary — or mid-stage, before the stage transaction commits — must reopen
to its last committed state and re-converge to exactly the fixpoint an
uninterrupted run reaches.  Facts, rules, schemas and installed delegation
remainders are durable; in-flight stage work is rolled back whole."""

from __future__ import annotations

import shutil
import sqlite3
from contextlib import closing

import pytest

from repro.api import system
from repro.core.engine import WebdamLogEngine
from repro.core.facts import Fact
from repro.core.parser import parse_rule
from repro.replication.state import META_KIND
from repro.store.memory import MemoryBackend

from tests.properties.test_differential_replication_state import (CHAIN, channel_fields,
                                                                  durable_chain)

PROGRAM_HUB = """
collection extensional persistent follows@hub(who);
collection extensional persistent local@hub(id);
collection intensional wall@hub(id);
collection intensional big@hub(id);
rule wall@hub($id) :- local@hub($id);
rule wall@hub($id) :- follows@hub($f), posts@$f($id);
rule big@hub($id) :- wall@hub($id), not small@hub($id);
collection extensional persistent small@hub(id);
"""

PROGRAM_HUB_RULES = [line for line in PROGRAM_HUB.splitlines() if line.startswith("rule ")]

PROGRAM_LEAF = "collection extensional persistent posts@{name}(id);"


def build(path, peers=("hub", "left", "right"), programs=True, provenance=False):
    builder = system().storage("sqlite", path=str(path))
    if provenance:
        builder = builder.provenance()
    for name in peers:
        peer = builder.peer(name)
        if programs:
            if name == "hub":
                peer.program(PROGRAM_HUB)
            else:
                peer.program(PROGRAM_LEAF.format(name=name))
    return builder.build()


def seed(deployment):
    deployment.peer("hub").insert(Fact("follows", "hub", ("left",)))
    deployment.peer("hub").insert(Fact("follows", "hub", ("right",)))
    deployment.peer("hub").insert(Fact("local", "hub", (0,)))
    deployment.peer("hub").insert(Fact("small", "hub", (3,)))
    for index in range(4):
        deployment.peer("left").insert(Fact("posts", "left", (index,)))
        deployment.peer("right").insert(Fact("posts", "right", (index + 10,)))


def churn(deployment, rounds):
    """A deterministic mixed stream: inserts, deletes, a follow retraction."""
    for i in range(rounds):
        deployment.peer("left").insert(Fact("posts", "left", (100 + i,)))
        deployment.peer("hub").insert(Fact("small", "hub", (100 + i,)))
        if i % 3 == 1:
            deployment.peer("left").delete(Fact("posts", "left", (100 + i - 1,)))
        if i == rounds - 1:
            deployment.peer("hub").delete(Fact("follows", "hub", ("right",)))
        deployment.converge()


def crash(deployment):
    """Simulated process death: every peer's backend drops its connection
    without committing.  The deployment object is unusable afterwards."""
    for name in deployment.peer_names():
        deployment.runtime.peer(name).engine.state.backend.abort()


class TestReopen:
    def test_reopen_reconverges_to_identical_fixpoint(self, tmp_path):
        deployment = build(tmp_path)
        seed(deployment)
        deployment.converge()
        expected = deployment.snapshot()
        assert expected["hub"]["wall@hub"]  # sanity: delegation produced facts
        deployment.close()

        reopened = build(tmp_path, programs=False)
        reopened.converge()
        assert reopened.snapshot() == expected
        reopened.close()

    def test_rules_stay_live_after_reopen(self, tmp_path):
        deployment = build(tmp_path)
        seed(deployment)
        deployment.converge()
        deployment.close()

        reopened = build(tmp_path, programs=False)
        reopened.converge()
        reopened.peer("left").insert(Fact("posts", "left", (77,)))
        reopened.converge()
        walls = reopened.snapshot()["hub"]["wall@hub"]
        assert Fact("wall", "hub", (77,)) in walls
        reopened.close()

    def test_new_rules_after_reopen_get_fresh_ids(self, tmp_path):
        deployment = build(tmp_path)
        seed(deployment)
        deployment.converge()
        old_ids = {rule.rule_id for rule
                   in deployment.runtime.peer("hub").engine.state.own_rules}
        deployment.close()

        reopened = build(tmp_path, programs=False)
        reopened.converge()
        state = reopened.runtime.peer("hub").engine.state
        assert {rule.rule_id for rule in state.own_rules} == old_ids
        added = reopened.peer("hub").add_rule(
            "rule big@hub($id) :- local@hub($id)")
        assert added.rule_id not in old_ids
        reopened.converge()
        reopened.close()

    def test_auto_named_views_do_not_collide_after_reopen(self, tmp_path):
        """The view counter restarts at zero with the process, the schemas of
        the views that were open at shutdown do not: the first ad-hoc query
        after a reopen must not be named like one of them."""
        deployment = build(tmp_path, peers=("hub",))
        deployment.peer("hub").insert(Fact("local", "hub", (1,)))
        view = deployment.peer("hub").query("ans($id, $id) :- local@hub($id)")
        deployment.converge()
        assert view.rows() == ((1, 1),)
        deployment.close()  # the view is still open

        reopened = build(tmp_path, peers=("hub",), programs=False)
        reopened.converge()
        again = reopened.peer("hub").query("ans($id) :- local@hub($id)")
        assert again.name != view.name
        reopened.converge()
        assert again.rows() == ((1,),)
        reopened.close()

    def test_a_named_view_asked_again_after_a_crash_adopts_its_rules(self, tmp_path):
        """A crash leaves a named view's rules in the store, restored with
        the program but held by no view: asking the query again takes them
        over instead of installing a second copy, and closing it leaves no
        rule behind."""
        deployment = build(tmp_path, peers=("hub",))
        deployment.peer("hub").insert(Fact("local", "hub", (1,)))
        deployment.query("hub", "ans($id) :- local@hub($id)", name="items")
        deployment.converge()
        crash(deployment)

        reopened = build(tmp_path, peers=("hub",), programs=False)
        reopened.converge()
        hub = reopened.runtime.peer("hub")
        assert len(hub.rules()) == len(PROGRAM_HUB_RULES) + 1
        view = reopened.query("hub", "ans($id) :- local@hub($id)", name="items")
        reopened.converge()
        assert len(hub.rules()) == len(PROGRAM_HUB_RULES) + 1
        assert view.rows() == ((1,),)
        reopened.peer("hub").insert(Fact("local", "hub", (2,)))
        reopened.converge()
        assert sorted(view.rows()) == [(1,), (2,)]
        view.close()
        assert len(hub.rules()) == len(PROGRAM_HUB_RULES)
        assert reopened.peer("hub").query("items").facts() == ()
        reopened.close()

    def test_an_auto_named_view_open_at_a_crash_leaves_nothing_deriving(self, tmp_path):
        """A crash leaves an auto-named view's rules and demand anchor in the
        store, and no handle can reach them: the reopened deployment drops
        them, so the query asked again installs one copy of its rules and
        closing it leaves no rule behind."""
        deployment = build(tmp_path, peers=("hub",))
        deployment.peer("hub").insert(Fact("local", "hub", (1,)))
        for edge in ((1, 2), (2, 3)):
            deployment.peer("hub").insert(Fact("link", "hub", edge))
        deployment.query("hub", "ans($id) :- local@hub($id)")
        magic = deployment.query(
            "hub", "reach($x, $y) :- link@hub($x, $y); "
                   "reach($x, $z) :- reach($x, $y), link@hub($y, $z); "
                   "ans($y) :- reach(1, $y)")
        deployment.converge()
        assert magic.plan()["magic_relations"], "magic rewrite did not fire"
        crash(deployment)

        reopened = build(tmp_path, peers=("hub",), programs=False)
        hub = reopened.runtime.peer("hub")
        assert len(hub.rules()) == len(PROGRAM_HUB_RULES)
        reopened.converge()
        assert not any(relation.startswith(("_view", "_magic_", "_demand_")) and facts
                       for relation, facts in reopened.peer("hub").snapshot().items())
        view = reopened.query("hub", "ans($id) :- local@hub($id)")
        reopened.converge()
        assert len(hub.rules()) == len(PROGRAM_HUB_RULES) + 1
        assert view.rows() == ((1,),)
        view.close()
        assert len(hub.rules()) == len(PROGRAM_HUB_RULES)
        reopened.close()

    def test_two_open_views_of_one_name_keep_a_rule_each(self, tmp_path):
        """Adoption takes only rules no open view holds: the first view
        asked after a crash adopts the restored rule, a second view of the
        same name installs its own, and closing either leaves the other
        answering."""
        deployment = build(tmp_path, peers=("hub",))
        deployment.peer("hub").insert(Fact("local", "hub", (1,)))
        deployment.query("hub", "ans($id) :- local@hub($id)", name="items")
        deployment.converge()
        crash(deployment)

        reopened = build(tmp_path, peers=("hub",), programs=False)
        hub = reopened.runtime.peer("hub")
        first = reopened.query("hub", "ans($id) :- local@hub($id)", name="items")
        second = reopened.query("hub", "ans($id) :- local@hub($id)", name="items")
        reopened.converge()
        assert len(hub.rules()) == len(PROGRAM_HUB_RULES) + 2
        assert set(first.compiled.rule_ids()).isdisjoint(second.compiled.rule_ids())
        first.close()
        assert len(hub.rules()) == len(PROGRAM_HUB_RULES) + 1
        assert second.rows() == ((1,),)
        second.close()
        assert len(hub.rules()) == len(PROGRAM_HUB_RULES)
        reopened.close()

    @pytest.mark.parametrize("removed", [0, 1])
    def test_a_rule_added_twice_reopens_as_two_rules(self, tmp_path, removed):
        """Each copy of one rule keeps its own ``rule`` record (the second
        is stored as ``<id>#2``): a reopened peer holds the rules it had,
        and removing either copy leaves what a peer never reopened keeps."""
        rule = parse_rule("rule wall@hub($id) :- small@hub($id)", default_peer="hub")

        def with_copies(path):
            deployment = build(path, peers=("hub",))
            deployment.peer("hub").insert(Fact("small", "hub", (7,)))
            copies = [deployment.peer("hub").add_rule(rule).rule_id for _ in range(2)]
            deployment.converge()
            return deployment, copies

        def after_removal(deployment, rule_id):
            deployment.runtime.peer("hub").remove_rule(rule_id)
            deployment.converge()
            rules = [r.rule_id for r in deployment.peer("hub").rules()]
            return rules, deployment.snapshot()

        control, copies = with_copies(tmp_path / "control")
        held = [r.rule_id for r in control.peer("hub").rules()]
        expected = after_removal(control, copies[removed])
        assert Fact("wall", "hub", (7,)) in expected[1]["hub"]["wall@hub"]
        control.close()

        deployment, _ = with_copies(tmp_path / "reopened")
        deployment.close()
        reopened = build(tmp_path / "reopened", peers=("hub",), programs=False)
        assert [r.rule_id for r in reopened.peer("hub").rules()] == held
        assert copies == [rule.rule_id, f"{rule.rule_id}#2"]
        reopened.converge()
        assert after_removal(reopened, copies[removed]) == expected
        reopened.runtime.peer("hub").remove_rule(copies[1 - removed])
        reopened.converge()
        assert Fact("wall", "hub", (7,)) not in reopened.snapshot()["hub"].get("wall@hub", ())
        reopened.close()

    def test_delegation_reinstall_is_idempotent(self, tmp_path):
        deployment = build(tmp_path)
        seed(deployment)
        deployment.converge()

        def installed(dep):
            return {name: len(dep.runtime.peer(name).installed_delegations())
                    for name in dep.peer_names()}

        first = installed(deployment)
        assert first["left"] == 1 and first["right"] == 1
        deployment.close()
        for _ in range(2):  # reopen twice: re-sent remainders must dedup
            reopened = build(tmp_path, programs=False)
            reopened.converge()
            assert installed(reopened) == first
            reopened.close()

    def test_a_removed_peer_is_closed_and_keeps_its_unstaged_writes(self, tmp_path):
        """``close()`` only reaches registered peers, so ``remove_peer``
        commits and releases the removed peer's backend itself."""
        deployment = (system().storage("sqlite", path=str(tmp_path))
                      .peer("a").peer("b").build())
        deployment.converge()
        deployment.peer("b").insert(Fact("note", "b", (1,)))
        removed = deployment.remove_peer("b")
        deployment.close()
        assert removed.engine.state.backend.closed

        reopened = build(tmp_path, peers=("b",), programs=False)
        assert reopened.peer("b").query("note").facts() == (Fact("note", "b", (1,)),)
        reopened.close()

    def test_provided_facts_stay_out_of_the_database(self, tmp_path):
        """Facts remote peers provide are volatile: no table of the peer's
        file holds them, and a reopened peer starts without them."""
        def open_hub():
            return WebdamLogEngine("hub", storage="sqlite",
                                   storage_options={"path": str(tmp_path)})

        engine = open_hub()
        engine.load_program("collection intensional inbox@hub(x);")
        engine.receive_facts("left", inserted=[Fact("inbox", "hub", (1,))])
        engine.run_stage()
        assert engine.query("inbox") == (Fact("inbox", "hub", (1,)),)
        assert type(engine.state.provided.backend) is MemoryBackend
        engine.close()
        database = sqlite3.connect(tmp_path / "hub.db")
        try:
            tables = database.execute(
                "SELECT namespace, table_name FROM _repro_catalog").fetchall()
            assert {namespace for namespace, _ in tables} <= {"store", "derived"}
            assert [database.execute(f'SELECT COUNT(*) FROM "{name}"').fetchone()[0]
                    for _, name in tables] == [0] * len(tables)
        finally:
            database.close()
        reopened = open_hub()
        assert reopened.state.restored and reopened.query("inbox") == ()
        reopened.close()


def stored_rows(path):
    """Rows over every relation table of one peer's database file."""
    with closing(sqlite3.connect(str(path))) as database:
        tables = database.execute("SELECT table_name FROM _repro_catalog").fetchall()
        return sum(database.execute(f'SELECT COUNT(*) FROM "{name}"').fetchone()[0]
                   for (name,) in tables)


class TestTheAttachIsCounted:
    """A reopen decodes every stored row into its table's kept facts; the
    peer's registry counts the rows and the time it took, and the time each
    stage's COMMIT took."""

    def test_a_reopened_peer_counts_every_stored_row_it_decoded(self, tmp_path):
        deployment = build(tmp_path)
        seed(deployment)
        deployment.converge()
        assert deployment.metrics(peer="hub")["store", "rows_decoded"] == 0
        deployment.close()
        rows = stored_rows(tmp_path / "hub.db")
        reopened = build(tmp_path)
        metrics = reopened.metrics(peer="hub")
        assert rows > 0 and metrics["store", "rows_decoded"] == rows
        assert metrics["store", "attach_decode_s"] > 0
        everyone = sum(stored_rows(tmp_path / f"{name}.db") for name in ("hub", "left", "right"))
        assert reopened.metrics()["store", "rows_decoded"] == everyone
        reopened.close()

    def test_a_durable_peer_times_its_commits(self, tmp_path):
        deployment = build(tmp_path)
        seed(deployment)
        deployment.converge()
        committed = deployment.metrics(peer="hub")["store", "commit_s"]
        assert committed > 0
        deployment.peer("hub").insert(Fact("local", "hub", (99,)))
        deployment.converge()
        assert deployment.metrics(peer="hub")["store", "commit_s"] > committed
        assert deployment.metrics()["store", "commit_s"] > committed
        deployment.close()

    def test_a_memory_peer_decodes_nothing(self):
        deployment = system().storage("memory").peer("hub").program(PROGRAM_HUB).build()
        deployment.peer("hub").insert(Fact("local", "hub", (1,)))
        deployment.converge()
        metrics = deployment.metrics(peer="hub")
        assert ("store", "rows_decoded") not in metrics
        assert ("store", "attach_decode_s") not in metrics
        assert ("store", "commit_s") not in metrics


class TestCrash:
    def test_uncommitted_inserts_roll_back(self, tmp_path):
        deployment = build(tmp_path)
        seed(deployment)
        deployment.converge()
        committed = deployment.snapshot()
        # These writes join the next stage transaction, which never commits.
        deployment.peer("left").insert(Fact("posts", "left", (999,)))
        deployment.peer("hub").insert(Fact("local", "hub", (999,)))
        crash(deployment)

        reopened = build(tmp_path, programs=False)
        reopened.converge()
        assert reopened.snapshot() == committed
        reopened.close()

    def test_crash_mid_churn_then_replay_matches_uninterrupted_run(self, tmp_path):
        """Kill the deployment partway through a churn stream (with an extra
        un-converged stage in flight), reopen, replay the remaining churn:
        the final fixpoint must be byte-identical to a run that never died."""
        control_path = tmp_path / "control"
        crash_path = tmp_path / "crashed"
        control = build(control_path)
        seed(control)
        control.converge()
        churn(control, rounds=6)
        expected = control.snapshot()
        control.close()

        victim = build(crash_path)
        seed(victim)
        victim.converge()
        churn(victim, rounds=3)
        # A fourth round begins: one stage runs (committed), then death
        # before quiescence.
        victim.peer("left").insert(Fact("posts", "left", (103,)))
        victim.peer("hub").insert(Fact("small", "hub", (103,)))
        victim.runtime.peer("left").engine.run_stage()
        crash(victim)

        survivor = build(crash_path, programs=False)
        survivor.converge()
        # Replay round 3 onward; re-inserting what the interrupted round
        # already committed is harmless (set semantics).
        for i in range(3, 6):
            survivor.peer("left").insert(Fact("posts", "left", (100 + i,)))
            survivor.peer("hub").insert(Fact("small", "hub", (100 + i,)))
            if i % 3 == 1:
                survivor.peer("left").delete(Fact("posts", "left", (100 + i - 1,)))
            if i == 5:
                survivor.peer("hub").delete(Fact("follows", "hub", ("right",)))
            survivor.converge()
        assert survivor.snapshot() == expected
        survivor.close()

    def test_explain_works_after_crash_recovery(self, tmp_path):
        """Provenance is rebuilt by the full recompute on reopen, so lineage
        queries keep working on a recovered deployment."""
        deployment = build(tmp_path, provenance=True)
        seed(deployment)
        deployment.converge()
        target = Fact("wall", "hub", (1,))
        before = deployment.explain("hub", target)
        assert before.why
        crash(deployment)

        reopened = build(tmp_path, programs=False, provenance=True)
        reopened.converge()
        after = reopened.explain("hub", target)
        assert after.why
        assert {tuple(sorted(str(s) for s in alt)) for alt in after.why} == \
               {tuple(sorted(str(s) for s in alt)) for alt in before.why}
        reopened.close()


PROGRAM_BOARD = """
collection extensional persistent rate@hub(user, id, stars);
collection extensional persistent hidden@hub(id);
"""

BOARD_VIEWS = {
    "page_board": "board($id, avg($stars), count($stars)) :- rate@hub($user, $id, $stars)",
    "page_wall": 'wall($id, $stars) :- rate@hub("u0", $id, $stars), not hidden@hub($id)',
    "page_agree": 'agree($id, $other) :- rate@hub("u0", $id, $stars), '
                  "rate@hub($other, $id, $stars)",
}


def open_board(deployment):
    hub = deployment.peer("hub")
    return {name: hub.query(text, name=name) for name, text in BOARD_VIEWS.items()}


def derived_writes(deployment, during):
    """The INSERT / DELETE statements ``during()`` runs against the hub's
    derived tables, as the SQLite connection traces them."""
    backend = deployment.runtime.peer("hub").engine.state.backend
    derived = {f'"{table}"' for (namespace, _, _), (table, _)
               in backend._physical.items() if namespace == "derived"}
    statements = []

    def trace(sql):
        words = sql.split()
        if words[0] == "INSERT":
            target = words[words.index("INTO") + 1]
        elif words[0] == "DELETE":
            target = words[2]
        else:
            return
        if target in derived:
            statements.append(sql)

    backend._conn.set_trace_callback(trace)
    try:
        during()
    finally:
        backend._conn.set_trace_callback(None)
    return statements


class TestRecoveryWritesOnlyTheDifference:
    """A reopened peer whose last commit closed a stage resumes from the
    derived tables it left behind: they hold the fixpoint, and views asked
    again over the rules the reopen restored change no rule.  A peer
    reopened over anything else recomputes its views, and the first stage
    compares instead of clearing and re-inserting them."""

    def seeded(self, path):
        deployment = system().storage("sqlite", path=str(path)).peer("hub") \
            .program(PROGRAM_BOARD).build()
        rows = [Fact("rate", "hub", (f"u{i % 5}", i % 7, 1 + i % 3)) for i in range(40)]
        deployment.peer("hub").insert_many(rows)
        deployment.peer("hub").insert(Fact("hidden", "hub", (3,)))
        deployment.converge()
        views = open_board(deployment)
        deployment.converge()
        return deployment, views

    def reopen(self, path):
        reopened = build(path, peers=("hub",), programs=False)
        hub = reopened.peer("hub")
        # The crashed views' rules come back with the store; re-asking the
        # queries by name installs them again over the same relations.
        hub.unwrap().remove_rules([rule.rule_id for rule in hub.rules()])
        return reopened, open_board(reopened)

    def test_first_stage_after_a_crash_writes_no_derived_row(self, tmp_path):
        deployment, views = self.seeded(tmp_path)
        answers = {name: sorted(view.rows()) for name, view in views.items()}
        assert all(answers.values())
        deployment.peer("hub").insert(Fact("rate", "hub", ("u0", 99, 5)))
        crash(deployment)

        reopened, views = self.reopen(tmp_path)
        writes = derived_writes(reopened, reopened.converge)
        assert writes == []
        counters = reopened.metrics(peer="hub")
        assert counters["core", "stages_full"] == 0
        assert counters["core", "substitutions_explored"] == 0
        assert {name: sorted(view.rows()) for name, view in views.items()} == answers
        # The views stay live after the reopen.
        reopened.peer("hub").insert(Fact("rate", "hub", ("u0", 99, 5)))
        reopened.converge()
        assert (99, 5) in views["page_wall"].rows()
        reopened.close()

    def test_stale_derived_rows_are_rewritten_by_difference(self, tmp_path):
        """A derived table that no longer matches — a view's rows written by
        hand behind the engine's back — gets exactly the missing and the
        surplus rows, and the answers match a never-crashed deployment."""
        deployment, views = self.seeded(tmp_path)
        answers = {name: sorted(view.rows()) for name, view in views.items()}
        deployment.runtime.peer("hub").engine.state.derived.insert(
            Fact("page_wall", "hub", (1000, 1)))
        deployment.runtime.peer("hub").engine.state.derived.delete(
            Fact("page_wall", "hub", answers["page_wall"][0]))
        deployment.runtime.peer("hub").engine.state.commit()
        crash(deployment)

        reopened, views = self.reopen(tmp_path)
        writes = derived_writes(reopened, reopened.converge)
        assert [sql.split()[0] for sql in writes] == ["DELETE", "INSERT"]
        assert {name: sorted(view.rows()) for name, view in views.items()} == answers
        reopened.close()


def first_path(deployment, name="hub"):
    """How the first stage of ``name`` in a reopened ``deployment`` ran:
    ``"full"`` when it recomputed every view, ``"resumed"`` otherwise."""
    return "full" if deployment.metrics(peer=name)["core", "stages_full"] else "resumed"


PROGRAM_SOLO = """
collection extensional persistent local@hub(id);
collection extensional persistent small@hub(id);
collection intensional wall@hub(id);
collection intensional big@hub(id);
rule wall@hub($id) :- local@hub($id);
rule big@hub($id) :- wall@hub($id), not small@hub($id);
"""

PROGRAM_PAIR = {
    "alice": "collection extensional persistent src@alice(item);\n"
             "collection intensional sink@bob(item);\n"
             "rule sink@bob($x) :- src@alice($x);",
    "bob": "collection intensional sink@bob(item);\n"
           "collection intensional seen@bob(item);\n"
           "rule seen@bob($x) :- sink@bob($x);",
}


def pair(path):
    """A two-peer chain on the reliable default transport: bob holds what
    alice derives for it as provided facts, and derives from them."""
    builder = system().storage("sqlite", path=str(path))
    for name, program in PROGRAM_PAIR.items():
        builder.peer(name).program(program)
    return builder.build()


class TestResumeFromTheCommittedFixpoint:
    """A reopened peer skips the recompute of its views only when its last
    commit closed a stage that left nothing behind; every other reopen
    recomputes, and each case reaches the answers of a deployment that
    never went down."""

    def test_a_peer_closed_at_a_fixpoint_resumes(self, tmp_path):
        deployment = build(tmp_path)
        seed(deployment)
        deployment.converge()
        expected = deployment.snapshot()
        deployment.close()

        reopened = build(tmp_path, programs=False)
        reopened.converge()
        # The leaves ship what they derive for the hub, so they re-evaluate
        # their delegated rules; the hub was fed provided facts.
        assert {name: first_path(reopened, name) for name in reopened.peer_names()} \
            == {"hub": "full", "left": "resumed", "right": "resumed"}
        assert reopened.snapshot() == expected
        reopened.close()

    def test_an_insert_closed_without_a_stage_is_recomputed(self, tmp_path):
        """(a) The insert is in the file but no stage saw it: resuming
        would never derive from it."""
        control = build(tmp_path / "control", peers=("hub",))
        control.peer("hub").insert(Fact("local", "hub", (1,)))
        control.converge()
        control.peer("hub").insert(Fact("local", "hub", (2,)))
        control.converge()
        expected = control.snapshot()
        control.close()

        deployment = build(tmp_path / "closed", peers=("hub",))
        deployment.peer("hub").insert(Fact("local", "hub", (1,)))
        deployment.converge()
        deployment.peer("hub").insert(Fact("local", "hub", (2,)))
        deployment.close()

        reopened = build(tmp_path / "closed", peers=("hub",), programs=False)
        reopened.converge()
        assert Fact("wall", "hub", (2,)) in reopened.snapshot()["hub"]["wall@hub"]
        assert reopened.snapshot() == expected
        assert first_path(reopened) == "full"
        reopened.close()

    def test_a_rule_added_before_close_is_recomputed(self, tmp_path):
        deployment = build(tmp_path, peers=("hub",))
        deployment.peer("hub").insert(Fact("local", "hub", (1,)))
        deployment.converge()
        deployment.peer("hub").add_rule("rule big@hub($id) :- small@hub($id)")
        deployment.peer("hub").insert(Fact("small", "hub", (7,)))
        deployment.close()

        reopened = build(tmp_path, peers=("hub",), programs=False)
        reopened.converge()
        assert Fact("big", "hub", (7,)) in reopened.snapshot()["hub"]["big@hub"]
        assert first_path(reopened) == "full"
        reopened.close()

    def test_a_crash_after_a_stage_resumes_and_takes_the_changes_since(self, tmp_path):
        """The uncommitted insert dies with the process; what is inserted
        after the reopen goes down the delta path of the first stage."""
        control = build(tmp_path / "control", peers=("hub",), programs=False)
        control.peer("hub").load_program(PROGRAM_SOLO)
        for item in (1, 2, 3):
            control.peer("hub").insert(Fact("local", "hub", (item,)))
        control.peer("hub").insert(Fact("small", "hub", (2,)))
        control.converge()
        control.peer("hub").insert(Fact("local", "hub", (4,)))
        control.peer("hub").delete(Fact("small", "hub", (2,)))
        control.converge()
        expected = control.snapshot()
        control.close()

        path = tmp_path / "crashed"
        deployment = build(path, peers=("hub",), programs=False)
        deployment.peer("hub").load_program(PROGRAM_SOLO)
        for item in (1, 2, 3):
            deployment.peer("hub").insert(Fact("local", "hub", (item,)))
        deployment.peer("hub").insert(Fact("small", "hub", (2,)))
        deployment.converge()
        deployment.peer("hub").insert(Fact("local", "hub", (99,)))
        crash(deployment)

        reopened = build(path, peers=("hub",), programs=False)
        reopened.peer("hub").insert(Fact("local", "hub", (4,)))
        reopened.peer("hub").delete(Fact("small", "hub", (2,)))
        reopened.converge()
        assert first_path(reopened) == "resumed"
        assert reopened.snapshot() == expected
        reopened.close()

    def test_a_peer_reopened_under_provenance_explains_every_fact(self, tmp_path):
        """(c) The provenance graph is not persisted: a tracker makes the
        first stage recompute, which records every derivation again."""
        def run(path, die):
            deployment = build(path, peers=("hub",), programs=False, provenance=True)
            deployment.peer("hub").load_program(PROGRAM_SOLO)
            for item in (1, 2, 3):
                deployment.peer("hub").insert(Fact("local", "hub", (item,)))
            deployment.peer("hub").insert(Fact("small", "hub", (2,)))
            deployment.converge()
            if die:
                deployment.close()
                deployment = build(path, peers=("hub",), programs=False,
                                   provenance=True)
                deployment.converge()
            return deployment

        def stories(deployment):
            return {str(fact): sorted(sorted(map(str, alternative))
                                      for alternative in deployment.explain("hub", fact).why)
                    for name in ("wall@hub", "big@hub")
                    for fact in deployment.snapshot()["hub"][name]}

        control = run(tmp_path / "control", die=False)
        reopened = run(tmp_path / "reopened", die=True)
        assert first_path(reopened) == "full"
        expected = stories(control)
        assert len(expected) == 5 and all(expected.values())
        assert stories(reopened) == expected
        control.close()
        reopened.close()

    def test_provided_facts_at_the_last_commit_are_recomputed(self, tmp_path):
        """(d) bob's views were derived from facts alice provided, which
        died with the process; alice's retraction of one of them was lost
        in flight.  Resuming bob would keep the retracted fact's
        consequence."""
        control = pair(tmp_path / "control")
        for item in "abc":
            control.peer("alice").insert(f'src@alice("{item}")')
        control.converge()
        control.peer("alice").delete('src@alice("b")')
        control.converge()
        expected = control.snapshot()
        control.close()

        path = tmp_path / "crashed"
        deployment = pair(path)
        for item in "abc":
            deployment.peer("alice").insert(f'src@alice("{item}")')
        deployment.converge()
        deployment.peer("alice").delete('src@alice("b")')
        # alice's stage commits; its retraction never reaches bob.
        deployment.runtime.peer("alice").engine.run_stage()
        crash(deployment)

        reopened = pair(path)
        reopened.converge()
        assert [fact.values for fact in reopened.snapshot()["bob"]["seen@bob"]] \
            == [("a",), ("c",)]
        assert reopened.snapshot() == expected
        assert first_path(reopened, "bob") == "full"
        assert first_path(reopened, "alice") == "resumed"
        reopened.close()

    @pytest.mark.parametrize("die", [False, True])
    def test_a_delegating_rule_removed_and_added_again_still_reaches_its_peer(
            self, tmp_path, die):
        """(e) A delegating rule removed and added again is no change: the
        equal rule has the same id, so it keeps the delegations its twin
        sent, the posts keep reaching the hub, and an unfollow retracts
        them.  The same before the first stage after a reopen, while the
        rule's memo is still to be rebuilt."""
        def swap_and_post(deployment):
            hub = deployment.peer("hub")
            delegating = [rule for rule in hub.rules() if "posts" in str(rule)]
            hub.unwrap().remove_rules([rule.rule_id for rule in delegating])
            for rule in delegating:
                hub.add_rule(str(rule))
            deployment.converge()
            deployment.peer("left").insert(Fact("posts", "left", (50,)))
            deployment.converge()

        control = build(tmp_path / "control")
        seed(control)
        control.converge()
        control.peer("left").insert(Fact("posts", "left", (50,)))
        control.converge()
        expected = control.snapshot()
        control.peer("hub").delete(Fact("follows", "hub", ("left",)))
        control.converge()
        unfollowed = control.snapshot()
        control.close()

        path = tmp_path / "swapped"
        deployment = build(path)
        seed(deployment)
        deployment.converge()
        if die:
            crash(deployment)
            deployment = build(path, programs=False)
        swap_and_post(deployment)
        assert Fact("wall", "hub", (50,)) in deployment.snapshot()["hub"]["wall@hub"]
        assert deployment.snapshot() == expected
        # Still one delegation at each leaf.
        assert [len(deployment.runtime.peer(name).engine.installed_delegations())
                for name in ("left", "right")] == [1, 1]
        deployment.peer("hub").delete(Fact("follows", "hub", ("left",)))
        deployment.converge()
        assert deployment.snapshot() == unfollowed
        deployment.close()

    def test_an_equal_rule_swap_is_no_program_change(self, tmp_path):
        """Views asked again over the rules a crash restored: removing a
        rule and adding it again (equal, so under the same id) evaluates
        nothing."""
        deployment = build(tmp_path, peers=("hub",), programs=False)
        deployment.peer("hub").load_program(PROGRAM_SOLO)
        deployment.peer("hub").insert(Fact("local", "hub", (1,)))
        deployment.converge()
        engine = deployment.runtime.peer("hub").engine
        before = engine.metrics.copy()
        hub = deployment.peer("hub")
        rules = hub.rules()
        hub.unwrap().remove_rules([rule.rule_id for rule in rules])
        for rule in rules:
            hub.add_rule(str(rule))
        result = engine.run_stage()
        assert result.evaluation_path == "skip"
        assert engine.metrics["core", "substitutions_explored"] \
            == before["core", "substitutions_explored"]
        hub.insert(Fact("local", "hub", (2,)))
        deployment.converge()
        assert Fact("big", "hub", (2,)) in hub.snapshot()["big@hub"]
        deployment.close()


class Crash(Exception):
    """Process death, raised right after the statement it interrupts."""


def written(backend, sql):
    """What a statement on ``backend``'s connection writes: ``fact`` or
    ``derived`` rows of a relation table, ``meta`` rows, or ``catalog`` (a
    new table, its index and its catalog row); ``None`` when it writes no
    row (``BEGIN``, ``COMMIT``, a ``SELECT``)."""
    words = sql.split()
    if words[0] == "CREATE" or "_repro_catalog" in words[:4]:
        return "catalog"
    if words[0] == "INSERT":
        target = words[words.index("INTO") + 1]
    elif words[0] == "DELETE":
        target = words[2]
    else:
        return None
    if target == "_repro_meta":
        return "meta"
    namespaces = {f'"{table}"': namespace for (namespace, _, _), (table, _)
                  in backend._physical.items()}
    return {"store": "fact", "derived": "derived"}[namespaces[target]]


class _Watched:
    """A connection that shows ``after`` each statement it has run, with
    its parameters."""

    def __init__(self, connection, after):
        self._connection, self._after = connection, after

    def execute(self, sql, params=()):
        cursor = self._connection.execute(sql, params)
        self._after(sql, params)
        return cursor

    def executemany(self, sql, rows):
        cursor = self._connection.executemany(sql, rows)
        self._after(sql, rows)
        return cursor

    def __getattr__(self, name):
        return getattr(self._connection, name)


def crash_after(deployment, point=None):
    """Watch the hub's write statements up to its next ``COMMIT``; return
    the list they are recorded in, as ``(kind, sql)`` (:func:`written`).

    With ``point = (kind, n)`` the hub's backend is aborted right after
    the ``n``-th write (from 0) of that kind, and :class:`Crash` raised."""
    backend = deployment.runtime.peer("hub").engine.state.backend
    writes, committed = [], []

    def after(sql, _params):
        if committed:
            return
        if sql == "COMMIT":
            committed.append(sql)
            return
        kind = written(backend, sql)
        if kind is None:
            return
        writes.append((kind, sql))
        if point is not None and [k for k, _ in writes].count(point[0]) == point[1] + 1:
            backend.abort()
            raise Crash(sql)

    backend._conn = _Watched(backend._conn, after)
    return writes


def dump(path):
    """The SQL text of everything the database file holds."""
    with closing(sqlite3.connect(str(path))) as connection:
        return list(connection.iterdump())


def stale_board(path):
    """A committed board deployment at ``path`` with its views open, and
    stale view rows so that the first stage after a reopen writes both
    ways; crashed.  Returns the views' answers."""
    deployment = system().storage("sqlite", path=str(path)).peer("hub") \
        .program(PROGRAM_BOARD).build()
    deployment.peer("hub").insert_many(
        [Fact("rate", "hub", (f"u{i % 5}", i % 7, 1 + i % 3)) for i in range(40)])
    deployment.peer("hub").insert(Fact("hidden", "hub", (3,)))
    deployment.converge()
    views = open_board(deployment)
    deployment.converge()
    answers = {name: sorted(view.rows()) for name, view in views.items()}
    derived = deployment.runtime.peer("hub").engine.state.derived
    derived.insert(Fact("page_wall", "hub", (1000, 1)))
    derived.delete(Fact("page_wall", "hub", answers["page_wall"][0]))
    deployment.runtime.peer("hub").engine.state.commit()
    crash(deployment)
    return answers


class TestCrashInsideAReplace:
    """A reopened peer's first stage replaces its views' relations by
    difference: the stale rows deleted, the missing ones inserted.  Death
    after either leaves the last committed state, and the next reopen
    reaches the answers of a run that never died."""

    @pytest.mark.parametrize("step", ["deleted", "inserted"])
    def test_death_after_each_step(self, tmp_path, step):
        answers = stale_board(tmp_path)
        committed = dump(tmp_path / "hub.db")
        # The views' rules come back with the store: the first stage
        # replaces their relations before anything else is written.
        victim = build(tmp_path, peers=("hub",), programs=False)
        crash_after(victim, ("derived", ["deleted", "inserted"].index(step)))
        with pytest.raises(Crash, match="^INSERT" if step == "inserted" else "^DELETE"):
            victim.converge()
        assert dump(tmp_path / "hub.db") == committed

        survivor = build(tmp_path, peers=("hub",), programs=False)
        views = open_board(survivor)
        survivor.converge()
        assert {name: sorted(view.rows()) for name, view in views.items()} == answers
        survivor.close()


def reopened_first_stage(deployment, views):
    """A reopened peer's first stage: a new rating, a new named view (its
    schema, rule and tables) and the recompute of every view."""
    deployment.peer("hub").insert(Fact("rate", "hub", ("u1", 99, 3)))
    views["page_top"] = deployment.peer("hub").query(
        "top($id) :- rate@hub($user, $id, 3)", name="page_top")
    deployment.converge()


def churn_stage(deployment, views):
    """An ordinary stage: ratings in and out, a hidden id, and a view
    closed (its rules' meta rows deleted)."""
    hub = deployment.peer("hub")
    hub.insert(Fact("rate", "hub", ("u0", 98, 1)))
    hub.delete(Fact("rate", "hub", ("u0", 0, 1)))
    hub.insert(Fact("hidden", "hub", (5,)))
    views.pop("page_agree").close(settle=False)
    deployment.converge()


class TestCrashAtEveryWriteOfAStage:
    """Death right after any one write statement of a stage's transaction
    — a fact row, a derived row, a meta row, a new table — leaves the
    database file byte for byte as the last commit left it, and a reopen
    that does the same work again reaches the answers and the state of a
    run that never died.  Swept over every statement of the reopened
    peer's first stage and of an ordinary churn stage."""

    STAGES = {"first after reopen": reopened_first_stage, "churn": churn_stage}

    def run(self, path, stage, point=None):
        """Reopen at ``path`` and run ``stage`` (a churn stage after the
        reopen's first); return ``(the file before the stage's
        transaction, its writes, the answers, the hub's snapshot)`` — or
        raise :class:`Crash` at ``point``, the file before the transaction
        in ``self.before``."""
        deployment = build(path, peers=("hub",), programs=False)
        views = open_board(deployment)
        if stage == "churn":
            deployment.converge()
        self.before = dump(path / "hub.db")
        writes = crash_after(deployment, point)
        self.STAGES[stage](deployment, views)
        result = (self.before, writes,
                  {name: sorted(view.rows()) for name, view in views.items()},
                  deployment.snapshot())
        deployment.close()
        return result

    @pytest.mark.parametrize("stage, kind", [
        ("first after reopen", "fact"), ("first after reopen", "derived"),
        ("first after reopen", "meta"), ("first after reopen", "catalog"),
        ("churn", "fact"), ("churn", "derived"), ("churn", "meta")])
    def test_death_after_every_write(self, tmp_path, stage, kind):
        base = tmp_path / "base"
        stale_board(base)
        shutil.copytree(base, tmp_path / "never_died")
        _, writes, answers, snapshot = self.run(tmp_path / "never_died", stage)
        points = [sql for written_kind, sql in writes if written_kind == kind]
        assert points, writes
        for n, sql in enumerate(points):
            path = tmp_path / f"died_{n}"
            shutil.copytree(base, path)
            with pytest.raises(Crash) as died:
                self.run(path, stage, (kind, n))
            assert str(died.value) == sql
            assert dump(path / "hub.db") == self.before, sql
            assert self.run(path, stage)[2:] == (answers, snapshot), sql


def channel_row(sql, params):
    """The key of the replication channel row a statement writes or
    deletes (``out:``/``in:`` headers, ``op:``, ``live:``, ``vis:`` ...
    rows), or ``None``."""
    words = sql.split()
    if words[0] in ("INSERT", "DELETE") and words[2] == "_repro_meta" \
            and params[0] == META_KIND:
        return params[1]
    return None


class TestCrashAtEveryWriteOfAChannelStage:
    """The same sweep over the stages that persist replication channel
    rows, on a durable chain over a lossy, duplicating transport: death
    right after any one write statement of such a stage — a fact row, a
    channel header, an op, live or visible dot, the delete an ack makes —
    leaves the peer's file as its last commit left it, the reopened peer
    restores the channels it had committed, and the deployment converges
    to the fixpoint of a run that never died."""

    def run(self, path, peer, point=None):
        """Reopen the chain at ``path``, change alice's facts and converge,
        watching ``peer``'s statements.  Return ``(the writes of each of
        its transactions, the snapshot)``, a write as ``(row kind, key)``
        for a channel row and ``(None, sql)`` for any other — or raise :class:`Crash` after
        write ``n`` of transaction ``k`` at ``point = (k, n)``, the file and
        the channels of the last commit before it in ``self.committed``.
        The channels ``peer`` reopened with are in ``self.restored``."""
        deployment = self.deployment = durable_chain(path, seed=6)
        watched = deployment.runtime.peer(peer)
        backend = watched.engine.state.backend
        transactions = [[]]
        self.restored = channel_fields(watched.replication)

        def committed():
            self.committed = (dump(path / f"{peer}.db"),
                              channel_fields(watched.replication))

        def after(sql, params):
            if sql == "COMMIT":
                transactions.append([])
                committed()
            elif sql.split()[0] in ("INSERT", "DELETE", "CREATE", "UPDATE"):
                key = channel_row(sql, params)
                transactions[-1].append((key and key.partition(":")[0], key or sql))
                if point == (len(transactions) - 1, len(transactions[-1]) - 1):
                    backend.abort()
                    raise Crash(key or sql)

        committed()
        backend._conn = _Watched(backend._conn, after)
        deployment.peer("alice").delete('src@alice("b")')
        deployment.peer("alice").insert('src@alice("d")')
        assert deployment.converge(max_steps=400).converged
        snapshot = deployment.snapshot()
        deployment.close()
        return transactions, snapshot

    @pytest.mark.parametrize("peer, rows", [
        ("alice", {"out", "op", "live"}),
        ("bob", {"in", "vis", "out", "op", "live"}),
        ("carol", {"in", "vis"})])
    def test_death_after_every_write(self, tmp_path, peer, rows):
        base = tmp_path / "base"
        deployment = durable_chain(base, seed=5)
        for item in "abc":
            deployment.peer("alice").insert(f'src@alice("{item}")')
            assert deployment.converge(max_steps=400).converged
        deployment.close()
        shutil.copytree(base, tmp_path / "never_died")
        transactions, uninterrupted = self.run(tmp_path / "never_died", peer)
        staged = [(k, writes) for k, writes in enumerate(transactions)
                  if any(kind for kind, _ in writes)]
        assert {kind for _, writes in staged for kind, _ in writes} - {None} \
            == rows, transactions
        for k, writes in staged:
            for n, (_, write) in enumerate(writes):
                path = tmp_path / f"died_{k}_{n}"
                shutil.copytree(base, path)
                with pytest.raises(Crash) as died:
                    self.run(path, peer, (k, n))
                assert str(died.value) == write
                file, channels = self.committed
                assert dump(path / f"{peer}.db") == file, write
                for name in CHAIN:
                    if name != peer:
                        self.deployment.runtime.peer(name).close()
                assert self.run(path, peer)[1] == uninterrupted, write
                assert self.restored == channels, write
