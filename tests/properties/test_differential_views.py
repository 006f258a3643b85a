"""Differential equivalence of compiled live views and hand-installed rules.

A declarative query compiled by :func:`repro.api.compile_query` must answer
exactly what an equivalent hand-written rule over an explicitly declared
intensional relation answers — under arbitrary insert/retract churn,
including churn that crosses peer boundaries through delegation.  The
acceptance query exercises a multi-literal join, a negated literal and a
``@remote`` literal at once.

On top of answer equivalence, the tests pin the *work* discipline: view
maintenance runs on the incremental ``delta``/``rederive`` paths — churn
stages at the view owner (and, for remote-relation churn, at the delegatee)
never fall back to ``evaluation_path == "full"`` once installation settled.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import system

OWNER_PROGRAM = """
collection extensional persistent a@q(x);
collection extensional persistent c@q(x);
collection intensional ref@q(x, y);
rule ref@q($x, $y) :- a@q($x), not c@q($x), b@r($x, $y);
"""

REMOTE_PROGRAM = """
collection extensional persistent b@r(x, y);
"""

QUERY = "ans($x, $y) :- a@q($x), not c@q($x), b@r($x, $y)"

#: One churn operation over a small domain: relation, insert?, a, b.
operations = st.lists(
    st.tuples(st.sampled_from(["a", "c", "b"]), st.booleans(),
              st.integers(min_value=0, max_value=4),
              st.integers(min_value=0, max_value=4)),
    max_size=25,
)


def build_deployment():
    deployment = (system()
                  .peer("q").program(OWNER_PROGRAM)
                  .peer("r").program(REMOTE_PROGRAM)
                  .build())
    return deployment


def apply_operation(deployment, operation):
    relation, insert, a, b = operation
    if relation == "b":
        fact = f"b@r({a}, {b})"
        peer = deployment.peer("r")
    else:
        fact = f"{relation}@q({a})"
        peer = deployment.peer("q")
    if insert:
        peer.insert(fact)
    else:
        peer.delete(fact)


class TestViewMatchesHandInstalledRule:
    @given(operations)
    @settings(max_examples=25, deadline=None)
    def test_answers_agree_under_churn(self, stream):
        deployment = build_deployment()
        view = deployment.query("q", QUERY)
        deployment.converge()
        reference = deployment.query("q", "ref")
        for operation in stream:
            apply_operation(deployment, operation)
            deployment.converge()
            assert sorted(view.rows()) == sorted(reference.rows())
        answers_before_close = sorted(reference.rows())
        view.close()
        # Closing the view must not disturb the hand-installed sibling rule.
        assert sorted(deployment.query("q", "ref").rows()) == answers_before_close

    @given(operations)
    @settings(max_examples=10, deadline=None)
    def test_reopened_view_agrees_after_interleaved_churn(self, stream):
        deployment = build_deployment()
        view = deployment.query("q", QUERY)
        deployment.converge()
        for index, operation in enumerate(stream):
            apply_operation(deployment, operation)
            deployment.converge()
            if index == len(stream) // 2:
                view.close()
                view = deployment.query("q", QUERY)
                deployment.converge()
            assert sorted(view.rows()) == \
                sorted(deployment.query("q", "ref").rows())


class TestChurnStaysIncremental:
    def test_owner_never_recomputes_fully_under_churn(self):
        """Once installed, every churn stage at the owner runs delta/rederive."""
        deployment = build_deployment()
        view = deployment.query("q", QUERY)
        deployment.converge()
        owner = deployment.runtime.peer("q").engine
        full_before = owner.metrics["core", "stages_full"]
        rng = random.Random(7)
        for _ in range(30):
            relation = rng.choice(["a", "c", "b"])
            insert = rng.random() < 0.6
            apply_operation(deployment, (relation, insert,
                                         rng.randrange(5), rng.randrange(5)))
            deployment.converge()
            assert sorted(view.rows()) == \
                sorted(deployment.query("q", "ref").rows())
        assert owner.metrics["core", "stages_full"] == full_before
        # And churn did exercise the incremental machinery, not just skips.
        assert (owner.metrics["core", "stages_delta"]
                + owner.metrics["core", "stages_rederive"]) > 0

    def test_remote_relation_churn_is_incremental_everywhere(self):
        """Churn on the delegated-to relation keeps every peer off the full
        path: the delegation set is stable, so the remote peer absorbs its
        base churn on delta/rederive stages too."""
        deployment = build_deployment()
        for value in (0, 1, 2):
            deployment.peer("q").insert(f"a@q({value})")
        deployment.peer("q").insert("c@q(1)")
        view = deployment.query("q", QUERY)
        deployment.converge()
        owner = deployment.runtime.peer("q").engine
        remote = deployment.runtime.peer("r").engine
        full_before = (owner.metrics["core", "stages_full"],
                       remote.metrics["core", "stages_full"])
        rng = random.Random(11)
        for _ in range(25):
            apply_operation(deployment, ("b", rng.random() < 0.6,
                                         rng.randrange(3), rng.randrange(5)))
            deployment.converge()
            assert sorted(view.rows()) == \
                sorted(deployment.query("q", "ref").rows())
        assert (owner.metrics["core", "stages_full"],
                remote.metrics["core", "stages_full"]) == full_before
        assert (remote.metrics["core", "stages_delta"]
                + remote.metrics["core", "stages_rederive"]) > 0
