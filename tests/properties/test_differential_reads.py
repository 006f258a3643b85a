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

from repro.acl.policies import AccessControlPolicy, PolicyEngine, Privilege
from repro.api import system
from repro.core import facts as facts_module
from repro.core.facts import Fact
from repro.datalog.aggregation import Aggregate, compute_aggregate
from repro.provenance.graph import Derivation, ProvenanceGraph, ProvenanceTracker

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
#: views, and the ACL-filtered variants of an aggregate, of a join and of
#: the "overlap" raw relation — whose lineage draws on ``score@r``, which
#: the viewer may not read, exactly while ``FAR`` provides the tuple.
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
    "seen_guest": ("gseen($p, $u) :- ovl@h($p, $s, $u)", GUEST),
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

def scan(deployment, relation, peer=HUB):
    state = deployment.runtime.peer(peer).engine.state
    return tuple(sorted(state.fact_view(relation, peer), key=str))


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

#: Declares the raw relations of the two views fed from ``FAR`` scratch:
#: the tuples ``FAR`` provides to them live one stage.
SCRATCH_VIEWS_PROGRAM = """
collection intensional scratch far@h(p, s, u);
collection intensional scratch ovl@h(p, s, u);
"""


def build(backend="memory", provenance=False, scratch=False, path=None, transport=None):
    builder = system() if transport is None else system().transport(transport)
    builder = (builder.storage(backend, path=path) if path is not None
               else builder.storage(backend))
    if provenance:
        builder = builder.provenance()
    hub = builder.peer(HUB).program(HUB_PROGRAM)
    if scratch:
        hub.program(SCRATCH_VIEWS_PROGRAM)
    deployment = hub.peer(FAR).program(FAR_PROGRAM).build()
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
    elif name == "far":
        views[name] = hub.query(text, name="far")
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
    def test_scratch_view_relations_housekeeping(self, stream):
        """Raw tuples provided to a scratch relation live for one stage: the
        end-of-stage clear reaches the views through the same delta as
        everything else."""
        run(build(scratch=True), stream)

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
        """Dropping one of the two holders changes no visibility, and still
        changes the group."""
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
# viewer reads over a recursive relation, against the uncached policy check
# --------------------------------------------------------------------------- #

TC = "t"
TC_PROGRAM = f"""
collection extensional persistent edge@{TC}(src, dst);
collection extensional persistent bridge@{TC}(src, dst);
collection intensional reach@{TC}(src, dst);
rule reach@{TC}($x, $y) :- edge@{TC}($x, $y);
rule reach@{TC}($x, $y) :- bridge@{TC}($x, $y);
rule reach@{TC}($x, $z) :- reach@{TC}($x, $y), edge@{TC}($y, $z);
rule reach@{TC}($x, $z) :- reach@{TC}($x, $y), bridge@{TC}($y, $z);
"""

#: name -> (query, viewer): the recursive relation itself, a compiled view
#: over it, a grouped one, and the ungranted base relation.
TC_VIEWS = {
    "reach": ("reach", GUEST),
    "pairs": (f"ans($x, $y) :- reach@{TC}($x, $y)", GUEST),
    "fanout": (f"fanout($x, count($y)) :- reach@{TC}($x, $y)", GUEST),
    "bridges": ("bridge", GUEST),
    "staff": ("reach", "staff"),
}

tc_nodes = st.integers(min_value=0, max_value=4)
tc_operations = st.one_of(
    st.tuples(st.just("edge"), st.tuples(tc_nodes, tc_nodes)),
    st.tuples(st.just("bridge"), st.tuples(tc_nodes, tc_nodes)),
    st.tuples(st.just("delete"), st.tuples(st.sampled_from(["edge", "bridge"]),
                                           st.integers(min_value=0, max_value=20))),
    st.tuples(st.just("grant"), st.tuples(st.sampled_from(["bridge", "reach"]),
                                          st.booleans())),
    st.tuples(st.just("declassify"), st.none()),
    st.tuples(st.just("provenance"), st.none()),
    st.tuples(st.just("converge"), st.none()),
)


def tc_expected(deployment, view):
    """Scan, sort by rendering, filter with the uncached policy check — and
    group in Python for the aggregate view."""
    raw = scan(deployment, view.relation, TC)
    tracker = deployment.runtime.peer(TC).engine.provenance
    readable = deployment.access_policy(TC).readable_facts(
        raw, view.viewer, provenance=getattr(tracker, "graph", None))
    return aggregate(view, readable) if view.compiled is not None \
        and view.compiled.is_aggregate() else readable


def tc_check(deployment, views):
    for name, view in views.items():
        want = tc_expected(deployment, view)
        assert bits(view.facts()) == bits(want), name
        assert view.facts() is view.facts(), name         # kept while still


def tc_apply(deployment, operation):
    kind, argument = operation
    hub = deployment.peer(TC)
    if kind in ("edge", "bridge"):
        hub.insert(Fact(kind, TC, (f"n{argument[0]}", f"n{argument[1]}")))
    elif kind == "delete":
        relation, index = argument
        stored = hub.unwrap().query(relation)
        if stored:
            hub.delete(stored[index % len(stored)])
    elif kind == "grant":
        relation, grant = argument
        if grant:
            hub.grant(relation, GUEST)
        else:
            hub.access_policy.revoke(f"{relation}@{TC}", GUEST)
    elif kind == "declassify":
        hub.declassify("reach", GUEST)
    elif kind == "provenance":
        engine = deployment.runtime.peer(TC).engine
        if engine.provenance is None:
            engine.provenance = ProvenanceTracker()
    else:
        deployment.converge(max_steps=60)


class TestViewerReadsMatchTheUncachedPolicyCheck:
    @given(provenance=st.booleans(),
           stream=st.lists(st.tuples(tc_operations, st.booleans()), max_size=24))
    @settings(max_examples=40, deadline=None)
    def test_every_viewer_read_equals_readable_facts(self, provenance, stream):
        """Half the reads land between a write and the stage that consumes
        it; provenance starts on or is switched on mid-run (after reads)."""
        builder = system().provenance() if provenance else system()
        deployment = builder.peer(TC).program(TC_PROGRAM).build()
        hub = deployment.peer(TC)
        hub.grant("edge", GUEST).grant("edge", "staff").grant("bridge", "staff")
        views = {name: hub.query(text, viewer=viewer)
                 for name, (text, viewer) in TC_VIEWS.items()}
        tc_check(deployment, views)
        for operation, settle in stream:
            tc_apply(deployment, operation)
            tc_check(deployment, views)
            if settle:
                deployment.converge(max_steps=60)
                tc_check(deployment, views)
        deployment.close()

    def test_a_bridge_between_insert_and_converge_is_not_shown(self):
        """The write moves the snapshot at once; the graph only at the
        stage.  Neither the ungranted base fact nor anything derived from it
        may reach the guest in between."""
        deployment = system().provenance().peer(TC).program(TC_PROGRAM).build()
        hub = deployment.peer(TC)
        hub.grant("edge", GUEST)
        views = {name: hub.query(text, viewer=viewer)
                 for name, (text, viewer) in TC_VIEWS.items()}
        hub.insert(Fact("edge", TC, ("n0", "n1")))
        deployment.converge()
        assert views["reach"].rows() == (("n0", "n1"),)
        hub.insert(Fact("bridge", TC, ("n1", "n2")))
        assert views["bridges"].rows() == ()
        assert views["reach"].rows() == (("n0", "n1"),)
        tc_check(deployment, views)
        deployment.converge()
        assert views["reach"].rows() == (("n0", "n1"),)
        hub.declassify("reach", GUEST).grant("reach", GUEST)
        assert views["reach"].rows() == (("n0", "n1"), ("n0", "n2"), ("n1", "n2"))
        tc_check(deployment, views)
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


# --------------------------------------------------------------------------- #
# the lineage index, its change feed and the maintained viewer answers
# --------------------------------------------------------------------------- #

RELATIONS = ("r0", "r1", "r2")
UNIVERSE = tuple(Fact(RELATIONS[index % 3], "p", (index,)) for index in range(9))
members = st.integers(min_value=0, max_value=len(UNIVERSE) - 1)

#: Every kind of graph mutation, grant changes, and probes that fill the
#: index.  Heads and supports share one pool: cycles and self-support.
mutations = st.lists(st.one_of(
    st.tuples(st.just("add"), members,
              st.tuples(st.integers(min_value=0, max_value=2),
                        st.lists(members, min_size=1, max_size=3))),
    st.tuples(st.just("drop_support"), members, st.none()),
    st.tuples(st.just("retract_fact"), members, st.none()),
    st.tuples(st.just("remove_derivation"), members, st.integers(0, 3)),
    st.tuples(st.just("retract_predicates"), st.sampled_from(RELATIONS), st.none()),
    st.tuples(st.just("clear"), st.none(), st.none()),
    st.tuples(st.just("grant"), st.sampled_from(RELATIONS), st.booleans()),
    st.tuples(st.just("declassify"), st.sampled_from(RELATIONS), st.none()),
    st.tuples(st.just("probe"), st.lists(members, max_size=9), st.none()),
), max_size=40)


def walked_bases(graph, fact):
    """Base relations of ``fact`` by a walk that consults no index."""
    if not graph.is_derived(fact):
        return frozenset({fact.qualified_relation})
    seen, frontier, bases = {fact}, [fact], set()
    while frontier:
        for derivation in graph.derivations_of(frontier.pop()):
            for supporting in derivation.support:
                if supporting in seen:
                    continue
                seen.add(supporting)
                if graph.is_derived(supporting):
                    frontier.append(supporting)
                else:
                    bases.add(supporting.qualified_relation)
    return frozenset(bases)


def lineage_answers(graph):
    return {fact: (graph.is_derived(fact), walked_bases(graph, fact))
            for fact in UNIVERSE}


def mutate(graph, policy, kind, argument, extra):
    if kind == "add":
        rule, support = extra
        graph.add(Derivation(UNIVERSE[argument], f"rule-{rule}",
                             tuple(UNIVERSE[index] for index in support)))
    elif kind == "drop_support":
        graph.drop_support(UNIVERSE[argument])
    elif kind == "retract_fact":
        graph.retract_fact(UNIVERSE[argument])
    elif kind == "remove_derivation":
        known = graph.derivations_of(UNIVERSE[argument])
        if known:
            graph.remove_derivation(known[extra % len(known)])
    elif kind == "retract_predicates":
        graph.retract_predicates([f"{argument}@p"])
    elif kind == "clear":
        graph.clear()
    elif kind == "grant":
        if extra:
            policy.grant(f"{argument}@p", "v", Privilege.READ)
        else:
            policy.revoke(f"{argument}@p", "v")
    elif kind == "declassify":
        policy.declassify(f"{argument}@p", "v")
    else:
        for index in argument:
            graph.base_relations(UNIVERSE[index])


class TestLineageIndexAndFeed:
    @given(mutations, st.booleans(), st.booleans(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_entries_feed_and_answers_follow_every_mutation(self, stream, read,
                                                             answers, cramped):
        """After every step: each index entry equals a walk that consults no
        index; when somebody watches the relations, each one's feed names
        every fact of it whose derived-ness or base relations moved (or
        overflowed); and the maintained (relation, viewer) answers equal the
        uncached reference.  Without the answers only the probes fill the
        index, so it stays sparse; ``cramped`` feeds overflow past two
        facts, so the readers' start-over path runs too."""
        saved_floor = facts_module.FEED_FLOOR
        if cramped:
            facts_module.FEED_FLOOR = 2
        try:
            self._follow(stream, read, answers, cramped)
        finally:
            facts_module.FEED_FLOOR = saved_floor

    def _follow(self, stream, read, answers, cramped):
        graph = ProvenanceGraph()
        policy = AccessControlPolicy("p")
        policy.grant("r0@p", "v", Privilege.READ)
        engine = PolicyEngine(policy, graph)
        # The same input tuples every step, so a kept answer can be reused.
        raws = {relation: tuple(fact for fact in UNIVERSE if fact.relation == relation)
                for relation in RELATIONS}
        feeds = {relation: graph.watch(relation, "p") for relation in RELATIONS} if read else {}
        before = lineage_answers(graph)
        for kind, argument, extra in stream:
            mutate(graph, policy, kind, argument, extra)
            for fact, entry in list(graph._bases_index.items()):
                assert entry == walked_bases(graph, fact), (kind, fact)
            after = lineage_answers(graph)
            for relation, feed in feeds.items():
                moved = {fact for fact in raws[relation] if before[fact] != after[fact]}
                if None in feed:
                    assert kind == "clear" or cramped
                else:
                    assert moved <= feed, (kind, moved - feed)
                feed.drain(0)
            before = after
            if not answers:
                continue
            for relation, raw in raws.items():
                for viewer in ("v", "w", "p"):
                    want = policy.readable_facts(raw, viewer, provenance=graph)
                    got = engine.filter_readable(raw, viewer, relation=f"{relation}@p")
                    assert got == want, (kind, relation, viewer)
                    assert engine.filter_readable(raw, viewer,
                                                  relation=f"{relation}@p") is got

    def test_growth_passes_through_an_unindexed_fact(self):
        """``top`` was probed and its walk went through ``mid`` without
        leaving an entry there: growth at ``low`` must reach ``top`` anyway,
        and the feed must name ``mid`` too — its base set grew as well."""
        graph = ProvenanceGraph()
        a, b, c = (Fact(name, "p", (0,)) for name in ("a", "b", "c"))
        low, mid, top = (Fact("v", "p", (index,)) for index in range(3))
        graph.add(Derivation(low, "r", (a,)))
        graph.add(Derivation(mid, "r", (low,)))
        graph.add(Derivation(top, "r", (mid,)))
        assert graph.base_relations(low) == graph.base_relations(top) == {"a@p"}
        assert mid not in graph._bases_index
        feed = graph.watch("v", "p")
        graph.add(Derivation(low, "s", (b,)))
        assert graph.base_relations(top) == {"a@p", "b@p"}
        assert feed == {low, mid, top}
        # A support that is derived but unindexed contributes its lineage.
        other = Fact("w", "p", (0,))
        graph.add(Derivation(other, "r", (c,)))
        graph.add(Derivation(low, "t", (other,)))
        assert graph.base_relations(top) == {"a@p", "b@p", "c@p"}

    def test_an_unread_feed_stays_bounded(self):
        graph = ProvenanceGraph()
        chain = [Fact("n", "p", (index,)) for index in range(2 * facts_module.FEED_FLOOR)]
        links = [Derivation(head, "rule", (support,))
                 for support, head in zip(chain, chain[1:])]
        for link in links:
            graph.add(link)
        feed = graph.watch("n", "p")
        held = []
        for _ in range(30):                          # and then nobody reads
            graph.remove_derivation(links[0])        # the whole chain dies
            for link in links:
                graph.add(link)
            held.append(len(feed))
        assert max(held) == facts_module.FEED_FLOOR + 1     # the bound, and None
        assert None in feed                          # overflowed: start over
        feed.drain(len(chain))
        graph.add(Derivation(chain[0], "root", (Fact("m", "p", (0,)),)))
        assert feed == set(chain)                    # then told again

    def test_forgotten_rows_take_their_verdicts_along(self):
        """A filter remembers rows by the identity of their ``values``
        tuple.  Rows that left the input are forgotten past a size bound;
        a new row may then reuse a forgotten one's address, and must not
        inherit its verdict."""
        graph = ProvenanceGraph()
        policy = AccessControlPolicy("p")
        policy.grant("b@p", "v", Privilege.READ)
        engine = PolicyEngine(policy, graph)
        base = Fact("b", "p", (0,))
        kept = Fact("r", "p", ("kept",))
        graph.add(Derivation(kept, "rule", (base,)))     # always an exception
        for step in range(40):
            derived = step % 2 == 0
            if derived:
                for index in range(60):
                    graph.add(Derivation(Fact("r", "p", (step, index)), "rule", (base,)))
            # Equal facts, but values tuples of their own: only the input
            # holds them, so they die with it.
            raw = (kept,) + tuple(Fact("r", "p", tuple([step, index]))
                                  for index in range(60))
            assert engine.filter_readable(raw, "v", relation="r@p") == \
                policy.readable_facts(raw, "v", provenance=graph), step

    def test_a_known_lineage_grows_without_dropping_an_entry(self):
        """The case the index exists for: a recursive relation whose every
        fact already draws on both bases gains derivations, and nothing
        downstream is walked again or named in the feed."""
        graph = ProvenanceGraph()
        edge, bridge = Fact("edge", "p", (0, 1)), Fact("bridge", "p", (0, 1))
        reach = [Fact("reach", "p", (0, index)) for index in range(1, 6)]
        graph.add(Derivation(reach[0], "e", (edge,)))
        graph.add(Derivation(reach[0], "b", (bridge,)))
        for head, support in zip(reach[1:], reach):
            graph.add(Derivation(head, "step", (support, edge)))
        assert {graph.base_relations(fact) for fact in reach} == {
            frozenset({"edge@p", "bridge@p"})}
        entries = dict(graph._bases_index)
        feed = graph.watch("reach", "p")
        graph.add(Derivation(reach[0], "again", (edge, bridge)))
        graph.add(Derivation(reach[2], "again", (reach[0],)))
        assert graph._bases_index == entries
        assert not feed
        # Something new in the lineage does move its dependents, up to the
        # first entry that already holds it.
        extra = Fact("extra", "p", (1,))
        graph.add(Derivation(reach[3], "extra", (extra,)))
        assert feed == set(reach[3:])
        feed.drain(0)
        graph.add(Derivation(reach[1], "extra", (extra,)))
        assert feed == {reach[1], reach[2]}
        assert {fact for fact in reach
                if "extra@p" in graph.base_relations(fact)} == set(reach[1:])
