"""The memory backend stores facts, not rows: reads hand out stored objects.

A scan, an index probe and a relation snapshot (``PeerState.query``) return
the very :class:`Fact` objects the store holds — the same ones on every
read, with their cached hash and rendering — and build no new fact.  Builds
are counted by wrapping ``Fact.__init__``.
"""

from __future__ import annotations

import pytest

from repro.core.engine import WebdamLogEngine
from repro.core.facts import Fact

PROGRAM = """
collection extensional persistent link@p(src, dst);
collection extensional persistent note@p(text);
collection intensional hop@p(src, dst);
rule hop@p($x, $z) :- link@p($x, $y), link@p($y, $z);
"""


@pytest.fixture
def built(monkeypatch):
    """Count every ``Fact`` built from now on."""
    counter = {"facts": 0}
    init = Fact.__init__

    def counting(self, *args, **kwargs):
        counter["facts"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Fact, "__init__", counting)
    return counter


def _engine():
    engine = WebdamLogEngine("p", storage="memory")
    engine.load_program(PROGRAM)
    engine.insert_facts([Fact("link", "p", (i, i + 1)) for i in range(20)])
    engine.run_to_quiescence()
    return engine


def _same_objects(first, second):
    return len(first) == len(second) and all(a is b for a, b in zip(first, second))


class TestReadsBuildNoFact:
    def test_two_scans_and_an_index_probe_hand_out_the_stored_objects(self, built):
        state = _engine().state
        built["facts"] = 0
        first = list(state.store.facts("link", "p"))
        second = list(state.store.facts("link", "p"))
        probed = list(state.store.facts("link", "p", {0: 4}))
        derived = list(state.derived.facts("hop", "p"))
        assert built["facts"] == 0
        assert len(first) == 20 and _same_objects(first, second)
        assert len(probed) == 1 and any(probed[0] is fact for fact in first)
        assert derived and _same_objects(derived, list(state.derived.facts("hop", "p")))
        assert _same_objects(list(state.store.all_facts())[:20], first)

    def test_query_after_writes_reuses_the_stored_facts(self, built):
        engine = _engine()
        state = engine.state
        links, hops = state.query("link"), state.query("hop")
        note = Fact("note", "p", ("unrelated",))
        link = Fact("link", "p", (100, 101))
        built["facts"] = 0
        state.insert_fact(note)                       # another relation
        assert state.query("link") is links
        state.insert_fact(link)                       # the same relation
        again = state.query("link")
        assert again is not links and len(again) == 21
        assert all(any(old is fact for fact in again) for old in links)
        assert any(fact is link for fact in again)
        assert built["facts"] == 0
        # A stage that re-derives nothing new leaves the derived facts alone.
        engine.run_to_quiescence()
        assert all(any(old is fact for fact in state.query("hop")) for old in hops)

    def test_the_inserted_fact_is_the_stored_one(self):
        state = _engine().state
        fact = Fact("note", "p", ("kept",))
        delta = state.insert_fact(fact)
        assert [stored for stored in delta.inserted] == [fact]
        assert next(iter(delta.inserted)) is fact
        assert next(state.store.facts("note", "p")) is fact
        assert state.query("note")[0] is fact
        # Inserting an equal fact again keeps the first object.
        assert not state.insert_fact(Fact("note", "p", ("kept",)))
        assert state.query("note")[0] is fact
