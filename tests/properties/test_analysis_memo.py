"""A memoizing :class:`ProgramAnalysis` answers as a fresh one does.

The analysis of a program version memoizes, per predicate, the readers it
hands the seminaive loop and whether a predicate reaches a negated literal.
A stage asks the analysis of the program it runs, which the next program
change replaces (built from the superseded one, as
:class:`~repro.core.maintenance.Maintenance` does).  Whatever sequence of
rule adds, rule removes and intensional declarations led to a program, and
whatever was asked of the analyses before, the answers must be those of an
analysis built fresh for that program and asked once.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import ProgramAnalysis
from repro.core.errors import StratificationError
from repro.core.rules import Rule

from tests.datalog.test_stratification import LOCAL_INTENSIONAL, PEER, heads, literals
from tests.datalog.test_stratification import stratifiable_programs as programs

PREDICATES = sorted(f"{relation}@{peer}" for relation in ("a", "b", "c", "z")
                    for peer in (PEER, "q"))
predicate_sets = st.sets(st.sampled_from(PREDICATES), max_size=4)
rules = st.builds(lambda head, body: Rule(head, tuple(body)),
                  heads, st.lists(literals, min_size=1, max_size=3))
changes = st.one_of(
    st.tuples(st.just("add"), rules),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=10)),
    st.tuples(st.just("declare"), st.sampled_from(("c@p", "z@p"))))


def ids(found):
    return [id(rule) for rule in found]


def answers(analysis, questions):
    """What a stage asks: readers (per stratum too), reaches_negation and
    the affected closure, for each predicate set; rules by identity."""
    seen = []
    for predicates in questions:
        seen.append(ids(analysis.reading(predicates)))
        for number in range(len(analysis.strata)):
            seen.append(ids(analysis.reading(predicates, number)))
        seen.append(analysis.reaches_negation(set(predicates)))
        affected, affected_rules = analysis.affected_closure(
            set(predicates), list(analysis.rules[:1]), lambda rule: {"z@q"})
        seen.append((affected, sorted(ids(affected_rules))))
    return seen


class TestAMemoizingAnalysisAnswersAsAFreshOne:
    @given(programs, st.lists(changes, max_size=6),
           st.lists(predicate_sets, min_size=1, max_size=4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_after_any_program_changes(self, program, steps, questions, data):
        current, local_intensional = list(program), LOCAL_INTENSIONAL
        analysis = ProgramAnalysis(tuple(current), local_intensional)
        for kind, argument in steps:
            # Fill the memos of the version the change supersedes.
            answers(analysis, data.draw(st.lists(predicate_sets, max_size=3)))
            if kind == "add":
                changed, declared = current + [argument], local_intensional
            elif kind == "declare":
                changed, declared = current, local_intensional | {argument}
            elif current:
                changed = current[:]
                del changed[argument % len(current)]
                declared = local_intensional
            else:
                continue  # nothing left to remove
            try:
                analysis = ProgramAnalysis(tuple(changed), declared, analysis)
            except StratificationError:
                continue  # a program no stage runs
            current, local_intensional = changed, declared
            fresh = ProgramAnalysis(tuple(current), local_intensional)
            expected = answers(fresh, questions)
            # Cold, then warm from the same questions, then warm in reverse.
            assert answers(analysis, questions) == expected
            assert answers(analysis, questions) == expected
            assert answers(analysis, questions[::-1]) == answers(fresh, questions[::-1])

    @given(programs, st.sampled_from(PREDICATES))
    @settings(max_examples=200, deadline=None)
    def test_a_reading_list_is_shared_until_a_caller_copies_it(self, program, predicate):
        analysis = ProgramAnalysis(tuple(program), LOCAL_INTENSIONAL)
        first = ids(analysis.reading({predicate}))
        # affected_closure extends the readers of its seed with the rules
        # deriving into it: the memo keeps its own list intact.
        analysis.affected_closure({predicate}, [], lambda rule: set())
        assert ids(analysis.reading({predicate})) == first
