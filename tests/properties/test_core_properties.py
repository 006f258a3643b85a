"""Property-based tests (hypothesis) of the core data structures."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import codec
from repro.core.facts import Delta, Fact, FactStore, fact_matches_bindings
from repro.core.rules import Atom, Rule
from repro.core.terms import Constant, Variable
from repro.core.unification import CompiledAtom, match_atom_fact

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

identifiers = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8)

scalar_values = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.text(max_size=12),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.binary(max_size=8),
)


@st.composite
def facts(draw, relation=None, peer=None, max_arity=4):
    rel = relation or draw(identifiers)
    pr = peer or draw(identifiers)
    values = tuple(draw(st.lists(scalar_values, max_size=max_arity)))
    return Fact(rel, pr, values)


@st.composite
def same_relation_facts(draw, relation="r", peer="p", arity=2, max_size=30):
    """Lists of facts of one relation, all with the declared arity.

    A relation's arity is fixed by its first insertion (implicit schema), so
    store-level properties are stated over uniform-arity fact lists.
    """
    rows = draw(st.lists(st.tuples(*([scalar_values] * arity)), max_size=max_size))
    return [Fact(relation, peer, row) for row in rows]


# ---------------------------------------------------------------------------
# wire encoding round-trips
# ---------------------------------------------------------------------------

class TestWireRoundTrip:
    @given(facts())
    @settings(max_examples=150)
    def test_fact_roundtrip(self, fact):
        decoded = codec.decode_fact(codec.encode_fact(fact))
        assert decoded == fact
        for original, recovered in zip(fact.values, decoded.values):
            assert type(original) is type(recovered)

    @given(scalar_values)
    def test_constant_term_roundtrip(self, value):
        term = Constant(value)
        assert codec.decode_term(codec.encode_term(term)) == term

    @given(identifiers)
    def test_variable_term_roundtrip(self, name):
        term = Variable(name)
        assert codec.decode_term(codec.encode_term(term)) == term


# ---------------------------------------------------------------------------
# fact store invariants
# ---------------------------------------------------------------------------

class TestFactStoreProperties:
    @given(same_relation_facts())
    @settings(max_examples=100)
    def test_insert_is_idempotent_and_set_like(self, fact_list):
        store = FactStore()
        for fact in fact_list:
            store.insert(fact)
        for fact in fact_list:
            store.insert(fact)
        assert store.snapshot() == frozenset(fact_list)

    @given(same_relation_facts(max_size=20), same_relation_facts(max_size=20))
    @settings(max_examples=100)
    def test_delta_tracking_matches_final_state(self, inserts, deletes):
        store = FactStore()
        baseline = FactStore()
        for fact in inserts:
            store.insert(fact)
        for fact in deletes:
            store.delete(fact)
        delta = store.take_delta()
        baseline.apply(delta)
        assert baseline.snapshot() == store.snapshot()

    @given(same_relation_facts(max_size=20))
    @settings(max_examples=50)
    def test_bound_scan_agrees_with_filter(self, fact_list):
        store = FactStore()
        for fact in fact_list:
            store.insert(fact)
        if not fact_list:
            return
        probe = fact_list[0]
        expected = {f for f in store.snapshot()
                    if type(f.values[0]) is type(probe.values[0])
                    and f.values[0] == probe.values[0]}
        scanned = set(store.facts("r", "p", bindings={0: probe.values[0]}))
        assert scanned == expected


# ---------------------------------------------------------------------------
# delta algebra
# ---------------------------------------------------------------------------

class TestDeltaProperties:
    @given(st.lists(facts(max_arity=2), max_size=10), st.lists(facts(max_arity=2), max_size=10))
    @settings(max_examples=100)
    def test_merge_never_keeps_a_fact_on_both_sides(self, first, second):
        merged = Delta.insertion(first).merge(Delta.deletion(second))
        assert not (set(merged.inserted) & set(merged.deleted))

    @given(st.lists(facts(max_arity=2), max_size=10))
    def test_merge_with_empty_is_identity(self, fact_list):
        delta = Delta.insertion(fact_list)
        assert delta.merge(Delta.empty()) == delta
        assert Delta.empty().merge(delta) == delta


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------

#: Values that compare ``==`` across types in Python but are six different
#: constants here, plus the strings the location positions hold.
MATCH_VALUES = (1, True, 1.0, "1", b"1", None, 0, "r", "p")
MATCH_VARIABLES = tuple(Variable(name) for name in ("x", "y", "R", "P"))

match_slots = st.one_of(st.sampled_from(MATCH_VALUES).map(Constant),
                        st.sampled_from(MATCH_VARIABLES))


@st.composite
def atoms_facts_substitutions(draw):
    """An atom with constants, repeated variables and location variables;
    a fact whose arity may differ; a substitution binding some variables."""
    relation = draw(st.one_of(st.sampled_from(("r", "s")).map(Constant),
                              st.sampled_from(MATCH_VARIABLES)))
    peer = draw(st.one_of(st.sampled_from(("p", "q")).map(Constant),
                          st.sampled_from(MATCH_VARIABLES)))
    atom = Atom(relation, peer, tuple(draw(st.lists(match_slots, max_size=3))))
    fact = Fact(draw(st.sampled_from(("r", "s"))), draw(st.sampled_from(("p", "q"))),
                tuple(draw(st.lists(st.sampled_from(MATCH_VALUES), max_size=3))))
    substitution = draw(st.dictionaries(st.sampled_from(MATCH_VARIABLES),
                                        st.sampled_from(MATCH_VALUES).map(Constant)))
    return atom, fact, substitution


def naive_match(atom, fact, substitution):
    """Term-by-term matching: every value wrapped, compared as a Constant."""
    if len(atom.args) != len(fact.values):
        return None
    result = dict(substitution)
    for pattern, value in zip((atom.relation, atom.peer, *atom.args),
                              (fact.relation, fact.peer, *fact.values)):
        value = Constant(value)
        if isinstance(pattern, Variable):
            if result.setdefault(pattern, value) != value:
                return None
        elif pattern != value:
            return None
    return result


class TestCompiledMatcherAgainstNaiveMatcher:
    @given(atoms_facts_substitutions())
    @example((Atom.of("r", "p", 1), Fact("r", "p", (True,)), {}))
    @example((Atom.of("r", "p", "$x", "$x"), Fact("r", "p", (1, 1.0)), {}))
    @example((Atom.of("r", "$x", "$x"), Fact("r", "p", ("p",)), {}))
    @example((Atom.of("$R", "p", "$x"), Fact("r", "p", (1,)),
              {Variable("R"): Constant(None)}))
    @example((Atom.of("r", "p", "$x"), Fact("r", "p", (1, 2)), {}))
    @settings(max_examples=400)
    def test_same_answer_as_term_by_term_matching(self, case):
        atom, fact, substitution = case
        given_before = dict(substitution)
        expected = naive_match(atom, fact, substitution)
        assert match_atom_fact(atom, fact, substitution) == expected
        assert substitution == given_before
        if expected is not None:
            # Every position the substitution fixes agrees with the fact:
            # what an indexed fact source is probed with.
            bindings = CompiledAtom(atom).bindings(substitution) or {}
            assert fact_matches_bindings(fact, bindings)


class TestMatchingProperties:
    @given(facts(max_arity=3))
    @settings(max_examples=100)
    def test_fully_variable_atom_matches_any_fact(self, fact):
        atom = Atom(
            relation=Variable("R"), peer=Variable("P"),
            args=tuple(Variable(f"x{i}") for i in range(fact.arity)),
        )
        result = match_atom_fact(atom, fact)
        assert result is not None
        assert result[Variable("R")] == Constant(fact.relation)
        assert result[Variable("P")] == Constant(fact.peer)

    @given(facts(max_arity=3))
    @example(Fact("r", "p", ("$0",)))
    @settings(max_examples=100)
    def test_ground_atom_built_from_fact_matches_exactly_itself(self, fact):
        # Explicit constants: ``Atom.of`` would read a value such as "$0" as
        # a variable, and the atom would no longer be ground.
        atom = Atom(Constant(fact.relation), Constant(fact.peer),
                    tuple(Constant(value) for value in fact.values))
        assert match_atom_fact(atom, fact) == {}
        other = Fact(fact.relation, fact.peer, fact.values + ("extra",))
        assert match_atom_fact(atom, other) is None

    @given(facts(relation="pictures", max_arity=3))
    @settings(max_examples=50)
    def test_substituted_atom_converts_back_to_the_fact(self, fact):
        atom = Atom(
            relation=Constant(fact.relation), peer=Variable("P"),
            args=tuple(Variable(f"x{i}") for i in range(fact.arity)),
        )
        bindings = match_atom_fact(atom, fact)
        assert atom.substitute(bindings).to_fact() == fact
