"""Differential equivalence of the cached read path and a from-scratch read.

Reads are answered from kept state — an aggregate view's groups, a relation's
sorted snapshot, a viewer's filtered answer, the provenance graph's lineage
index.  Whatever the interleaving of writes, stages, rule and view changes,
every read must equal what the uncached path computes from the raw facts of
that moment: the same tuples, in the same order, with the same float bits.

The oracle below is the read path as it was before any of it was cached
(scan, sort by rendering, filter with a full lineage walk, group and
aggregate in Python); it pins behaviour, it does not define a new one.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import system
from repro.core.facts import Fact
from repro.datalog.aggregation import Aggregate, compute_aggregate
from repro.provenance.graph import Derivation, ProvenanceGraph

HUB, FAR, GUEST = "h", "r", "guest"

HUB_PROGRAM = """
collection extensional persistent rate@h(user, pic, stars);
collection extensional persistent pick@h(user*, pic);
collection extensional persistent secret@h(pic);
collection intensional liked@h(user, pic);
"""

FAR_PROGRAM = """
collection extensional persistent score@r(user, pic, stars);
"""

LIKED_RULE = "liked@h($u, $p) :- rate@h($u, $p, 5)"
#: Derives into the raw relation of the "overlap" view, whose own rule is
#: delegated: a rating stored at both peers is one raw tuple held by two
#: sources (derived and provided), and grouping counts it twice.
OVERLAP_RULE = "ovl@h($p, $s, $u) :- rate@h($u, $p, $s)"

#: name -> (query text, viewer).  Aggregates over local, over provided
#: (cross-peer) and over doubly-held raw tuples, a global aggregate, a keyed
#: base relation, plain
#: views, and the ACL-filtered variants of an aggregate and of a join.
VIEWS = {
    "board": ("board($p, avg($s), count($s), min($s), max($s)) :- rate@h($u, $p, $s)", None),
    "total": ("total(count($u), sum($s)) :- rate@h($u, $p, $s)", None),
    "far": ("far($p, sum($s), count($u)) :- score@r($u, $p, $s)", None),
    "overlap": ("ovl($p, sum($s), count($u)) :- score@r($u, $p, $s)", None),
    "picked": ("picked($p, count($u)) :- pick@h($u, $p)", None),
    "fans": ("fans($p, count($u)) :- liked@h($u, $p)", None),
    "wall": ("wall($u, $p) :- rate@h($u, $p, $s), not secret@h($p)", None),
    "board_guest": ("gboard($p, sum($s), count($s)) :- rate@h($u, $p, $s)", GUEST),
    "both_guest": ("both($u, $p) :- rate@h($u, $p, $s), pick@h($u, $p)", GUEST),
}

BASE_RELATIONS = ("rate", "pick", "secret", "liked")

users = st.sampled_from(["ann", "bob", "cy"])
#: Group keys: no two of them compare equal across types.
pics = st.sampled_from([0, 1, 2, "a"])
#: Aggregated values: floats whose sums depend on the order of addition.
stars = st.sampled_from([5, 1, 3, 0.1, 0.2, 0.3, 1e16, -0.0, 2.5])
ratings = st.tuples(users, pics, stars)

operations = st.one_of(
    st.tuples(st.just("insert"), ratings),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("insert_many"), st.lists(ratings, max_size=4)),
    st.tuples(st.just("pick"), st.tuples(users, pics)),
    st.tuples(st.just("hide"), pics),
    st.tuples(st.just("unhide"), pics),
    st.tuples(st.just("far_insert"), ratings),
    st.tuples(st.just("far_delete"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("far_mirror"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("rule"), st.booleans()),
    st.tuples(st.just("grant"), st.booleans()),
    st.tuples(st.just("view"), st.sampled_from(sorted(VIEWS))),
    st.tuples(st.just("converge"), st.none()),
)
#: (operation, converge right after it?) — half the reads happen between a
#: write and the stage that will consume it.
streams = st.lists(st.tuples(operations, st.booleans()), max_size=24)


# --------------------------------------------------------------------------- #
# the oracle: the uncached read path
# --------------------------------------------------------------------------- #

def scan(deployment, relation):
    state = deployment.runtime.peer(HUB).engine.state
    return tuple(sorted(state.fact_view(relation, HUB), key=str))


def readable(deployment, fact, viewer):
    policy = deployment.access_policy(HUB)
    tracker = deployment.runtime.peer(HUB).engine.provenance
    graph = getattr(tracker, "graph", None)
    relation = fact.qualified_relation
    if graph is None or not graph.is_derived(fact):
        return policy.can_read(relation, viewer)
    if policy.is_declassified(relation, viewer):
        return viewer == policy.owner or policy.can_read(relation, viewer)
    return all(policy.can_read(base.qualified_relation, viewer)
               for base in graph.base_facts(fact))


def aggregate(view, raw):
    compiled = view.compiled
    specs = {a.position: Aggregate.from_name(a.function)
             for a in compiled.aggregates}
    width = len(compiled.head_args)
    group_positions = [i for i in range(width) if i not in specs]
    groups = {}
    for fact in raw:
        row = fact.values
        groups.setdefault(tuple(row[i] for i in group_positions), []).append(row)
    results = []
    for key, rows in groups.items():
        values = [None] * width
        for slot, index in enumerate(group_positions):
            values[index] = key[slot]
        for index, function in specs.items():
            values[index] = compute_aggregate(function, [row[index] for row in rows])
        results.append(Fact(view.relation, view.owner, tuple(values)))
    return tuple(sorted(results, key=str))


def expected(deployment, view):
    raw = scan(deployment, view.relation)
    if view.viewer is not None:
        raw = tuple(fact for fact in raw if readable(deployment, fact, view.viewer))
    return aggregate(view, raw) if view.compiled.is_aggregate() else raw


def bits(facts):
    """Facts down to the bit: ``repr`` tells ``-0.0`` from ``0.0``."""
    return [(fact.relation, fact.peer, tuple(map(repr, fact.values)))
            for fact in facts]


def check(deployment, views):
    for name, view in views.items():
        want = expected(deployment, view)
        assert bits(view.facts()) == bits(want), name
        assert [tuple(map(repr, row)) for row in view.rows()] == \
            [values for _, _, values in bits(want)], name
    hub = deployment.runtime.peer(HUB)
    for relation in BASE_RELATIONS + tuple(view.relation for view in views.values()):
        assert bits(hub.query(relation)) == bits(scan(deployment, relation)), relation
        assert bits(deployment.query(HUB, relation).facts()) == \
            bits(scan(deployment, relation)), relation


# --------------------------------------------------------------------------- #
# the system under test
# --------------------------------------------------------------------------- #

def build(backend="memory", provenance=False, strict=False, path=None):
    builder = system()
    builder = (builder.storage(backend, path=path) if path is not None
               else builder.storage(backend))
    if provenance:
        builder = builder.provenance()
    if strict:
        builder = builder.strict_stage_inputs()
    deployment = (builder.peer(HUB).program(HUB_PROGRAM)
                  .peer(FAR).program(FAR_PROGRAM).build())
    deployment.peer(HUB).grant("rate", GUEST)
    return deployment


def apply(deployment, views, state, operation):
    kind, argument = operation
    hub, far = deployment.peer(HUB), deployment.peer(FAR)
    if kind == "insert":
        hub.insert(Fact("rate", HUB, argument))
    elif kind == "delete":                           # the n-th stored rating
        stored = hub.unwrap().query("rate")
        if stored:
            hub.delete(stored[argument % len(stored)])
    elif kind == "insert_many":
        hub.insert_many([Fact("rate", HUB, row) for row in argument])
    elif kind == "pick":
        hub.insert(Fact("pick", HUB, argument))      # displaces the user's pick
    elif kind == "hide":
        hub.insert(Fact("secret", HUB, (argument,)))
    elif kind == "unhide":
        hub.delete(Fact("secret", HUB, (argument,)))
    elif kind == "far_insert":
        far.insert(Fact("score", FAR, argument))
    elif kind == "far_delete":
        stored = far.unwrap().query("score")
        if stored:
            far.delete(stored[argument % len(stored)])
    elif kind == "far_mirror":                       # the n-th rating, at both peers
        stored = hub.unwrap().query("rate")
        if stored:
            far.insert(Fact("score", FAR, stored[argument % len(stored)].values))
    elif kind == "rule":
        if argument and state.get("rule") is None:
            state["rule"] = hub.add_rule(LIKED_RULE).rule_id
        elif not argument and state.get("rule") is not None:
            hub.unwrap().remove_rules([state.pop("rule")])
    elif kind == "grant":
        if argument:
            hub.grant("pick", GUEST)
        else:
            hub.access_policy.revoke(f"pick@{HUB}", GUEST)
    elif kind == "view":
        if argument in views:
            close_view(hub, views, state, argument)
        else:
            open_view(hub, views, state, argument)
    elif kind == "converge":
        deployment.converge(max_steps=60)


def open_view(hub, views, state, name):
    text, viewer = VIEWS[name]
    if name == "overlap":
        views[name] = hub.query(text, name="ovl")
        state["overlap"] = hub.add_rule(OVERLAP_RULE).rule_id
    else:
        views[name] = hub.query(text, viewer=viewer)


def close_view(hub, views, state, name):
    if name == "overlap":
        hub.unwrap().remove_rules([state.pop("overlap")])
    views.pop(name).close(settle=False)


def run(deployment, stream):
    views, state = {}, {}
    for name in ("board", "far", "overlap", "wall", "board_guest", "both_guest"):
        open_view(deployment.peer(HUB), views, state, name)
    deployment.converge(max_steps=60)
    check(deployment, views)
    for operation, settle in stream:
        apply(deployment, views, state, operation)
        check(deployment, views)
        if settle:
            deployment.converge(max_steps=60)
            check(deployment, views)
    deployment.close()


class TestReadsMatchAFromScratchRecompute:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    @pytest.mark.parametrize("provenance", [False, True])
    @given(stream=streams)
    @settings(max_examples=20, deadline=None)
    def test_every_read_equals_the_uncached_path(self, backend, provenance, stream):
        run(build(backend, provenance=provenance), stream)

    @given(stream=streams)
    @settings(max_examples=15, deadline=None)
    def test_strict_stage_inputs_housekeeping(self, stream):
        """Provided raw tuples live for one stage: the end-of-stage clear
        reaches the views through the same delta as everything else."""
        run(build(strict=True), stream)

    def test_a_read_between_a_write_and_its_stage_sees_the_base_fact(self):
        deployment = build()
        hub = deployment.peer(HUB)
        board = hub.query(VIEWS["board"][0])
        deployment.converge()
        before = hub.unwrap().query("rate")
        assert hub.unwrap().query("rate") is before       # kept, not rebuilt
        hub.insert(Fact("rate", HUB, ("ann", 0, 5)))
        assert [f.values for f in hub.unwrap().query("rate")] == [("ann", 0, 5)]
        assert board.rows() == ()                          # not staged yet
        deployment.converge()
        assert board.rows() == ((0, 5.0, 1, 5, 5),)
        assert board.facts() is board.facts()              # and kept again
        deployment.close()

    def test_a_tuple_held_by_two_sources_is_counted_once_per_source(self):
        """Dropping one of the two holders changes no visibility — the stage's
        ``visible_delta`` is empty — and still changes the group."""
        deployment = build()
        hub, far = deployment.peer(HUB), deployment.peer(FAR)
        views, state = {}, {}
        open_view(hub, views, state, "overlap")
        hub.insert(Fact("rate", HUB, ("ann", 0, 3)))
        far.insert(Fact("score", FAR, ("ann", 0, 3)))
        deployment.converge()
        assert views["overlap"].rows() == ((0, 6, 2),)
        far.delete(Fact("score", FAR, ("ann", 0, 3)))
        deployment.converge()
        assert views["overlap"].rows() == ((0, 3, 1),)
        far.insert(Fact("score", FAR, ("ann", 0, 3)))
        deployment.converge()
        hub.delete(Fact("rate", HUB, ("ann", 0, 3)))
        deployment.converge()
        assert views["overlap"].rows() == ((0, 3, 1),)
        check(deployment, views)
        deployment.close()

    def test_a_grant_or_revoke_between_two_reads_is_seen(self):
        deployment = build(provenance=True)
        hub = deployment.peer(HUB)
        both = hub.query(VIEWS["both_guest"][0], viewer=GUEST)
        hub.insert(Fact("rate", HUB, ("ann", 0, 5)))
        hub.insert(Fact("pick", HUB, ("ann", 0)))
        deployment.converge()
        assert both.rows() == ()                   # pick@h is not granted
        hub.grant("pick", GUEST)
        assert both.rows() == (("ann", 0),)
        assert both.facts() is both.facts()        # nothing moved: kept
        hub.access_policy.revoke(f"pick@{HUB}", GUEST)
        assert both.rows() == ()
        deployment.close()

    def test_group_keys_are_type_strict_on_both_backends(self):
        """``1``, ``True`` and ``1.0`` are three facts and three groups.  The
        two backends used to disagree here (SQLite's in-store GROUP BY kept
        them apart, the Python grouping merged them under ``1``); one read
        path gives one answer, the one facts and joins already had."""
        for backend in ("memory", "sqlite"):
            deployment = build(backend)
            hub = deployment.peer(HUB)
            view = hub.query("n($p, count($u)) :- rate@h($u, $p, $s)")
            for pic in (1, True, 1.0):
                hub.insert(Fact("rate", HUB, ("ann", pic, 3)))
            deployment.converge()
            assert bits(view.facts()) == bits(
                Fact(view.relation, HUB, (pic, 1)) for pic in (1, 1.0, True))
            hub.insert(Fact("rate", HUB, ("bob", True, 3)))
            deployment.converge()
            assert bits(view.facts()) == bits(
                Fact(view.relation, HUB, row)
                for row in ((1, 1), (1.0, 1), (True, 2)))
            deployment.close()

    def test_reads_after_a_crash_and_reopen(self):
        with tempfile.TemporaryDirectory() as directory:
            path = str(Path(directory) / "store")
            deployment = build("sqlite", path=path)
            hub = deployment.peer(HUB)
            hub.insert_many([Fact("rate", HUB, row) for row in
                             (("ann", 0, 0.1), ("bob", 0, 0.2), ("cy", 0, 0.3),
                              ("ann", 1, 5))])
            views = {"board": hub.query(VIEWS["board"][0], name="page_board")}
            deployment.converge()
            check(deployment, views)
            hub.insert(Fact("rate", HUB, ("doomed", 2, 1)))   # never committed
            for name in deployment.peer_names():
                deployment.runtime.peer(name).engine.state.backend.abort()

            deployment = build("sqlite", path=path)
            hub = deployment.peer(HUB)
            hub.unwrap().remove_rules([rule.rule_id for rule in hub.rules()])
            views = {"board": hub.query(VIEWS["board"][0], name="page_board")}
            deployment.converge()
            check(deployment, views)
            assert [row[0] for row in views["board"].rows()] == [0, 1]
            hub.insert(Fact("rate", HUB, ("bob", 1, 2.5)))
            deployment.converge()
            check(deployment, views)
            deployment.close()


# --------------------------------------------------------------------------- #
# the lineage index
# --------------------------------------------------------------------------- #

nodes = st.integers(min_value=0, max_value=7)
#: add (head, support...) / retract a node / probe every node
graph_operations = st.lists(st.one_of(
    st.tuples(st.just("add"), nodes, st.lists(nodes, min_size=1, max_size=3)),
    st.tuples(st.just("retract"), nodes, st.none()),
    st.tuples(st.just("probe"), st.none(), st.none()),
), max_size=30)


def node(index):
    # Two relations, so that base *relations* differ between lineages.
    return Fact("even" if index % 2 == 0 else "odd", "p", (index,))


class TestLineageIndexReuse:
    @given(graph_operations)
    @settings(max_examples=150, deadline=None)
    def test_base_relations_equal_the_full_walk_on_cyclic_graphs(self, stream):
        """Heads and supports are drawn from one pool, so derivations form
        cycles freely; probing in a fixed order makes later probes stop at
        the entries earlier ones left behind."""
        graph = ProvenanceGraph()
        rule = 0
        for kind, head, support in stream + [("probe", None, None)]:
            if kind == "add":
                rule += 1
                graph.add(Derivation(node(head), f"rule-{rule}",
                                     tuple(node(s) for s in support)))
            elif kind == "retract":
                graph.retract_fact(node(head))
            else:
                for index in range(8):
                    fact = node(index)
                    assert graph.base_relations(fact) == frozenset(
                        base.qualified_relation
                        for base in graph.base_facts(fact)), fact
