"""Unit tests of the cost-based planner: body ordering, plan
caching/invalidation, the multi-clause query parser, the magic-set rewrite's
soundness bail-outs, and the work both save against written order."""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.api.builder import system
from repro.core.engine import WebdamLogEngine
from repro.core.errors import ParseError
from repro.core.facts import Fact
from repro.core.parser import parse_query_program, parse_rule
from repro.api.views import compile_query

from tests.reference_engine import written_order

PROGRAM = """
collection extensional persistent big@p(x, y);
collection extensional persistent sel@p(x);
collection extensional persistent flag@p(x);
collection intensional out@p(x, y);
"""


def make_engine():
    engine = WebdamLogEngine("p")
    engine.load_program(PROGRAM)
    for index in range(100):
        engine.insert_fact(Fact("big", "p", (index, index + 1)))
    engine.insert_fact(Fact("sel", "p", (7,)))
    engine.run_to_quiescence()
    return engine


class TestBodyOrdering:
    def test_selective_literal_moves_first(self):
        engine = make_engine()
        plan = engine._planner.plan_rule(parse_rule(
            "rule out@p($x, $y) :- big@p($x, $y), sel@p($x);",
            default_peer="p"))
        assert plan is not None
        assert plan.order == (1, 0)
        assert plan.reordered

    def test_written_order_kept_when_cheapest(self):
        engine = make_engine()
        plan = engine._planner.plan_rule(parse_rule(
            "rule out@p($x, $y) :- sel@p($x), big@p($x, $y);",
            default_peer="p"))
        assert plan.order == (0, 1)
        assert not plan.reordered

    def test_negation_placed_once_bound(self):
        engine = make_engine()
        plan = engine._planner.plan_rule(parse_rule(
            "rule out@p($x, $y) :- big@p($x, $y), not flag@p($x), sel@p($x);",
            default_peer="p"))
        # sel first (cheapest), then the negation filters as soon as $x is
        # bound, then the big scan.
        assert plan.order == (2, 1, 0)

    def test_remote_suffix_is_never_permuted(self):
        engine = make_engine()
        plan = engine._planner.plan_rule(parse_rule(
            "rule out@p($x, $y) :- big@p($x, $y), sel@p($x), "
            "other@q($x), big@p($y, $z);",
            default_peer="p"))
        # Only the local prefix (the first two literals) may be permuted;
        # everything from the first remote literal on keeps written order,
        # because that suffix is what a delegation would ship.
        assert plan.order == (1, 0, 2, 3)

    def test_delta_literal_stays_first(self):
        engine = make_engine()
        rule = parse_rule(
            "rule out@p($x, $y) :- big@p($x, $y), sel@p($x);",
            default_peer="p")
        plan = engine._planner.plan_rule_delta(rule, 0)
        assert plan.order[0] == 0
        assert plan.delta_index == 0

    def test_plan_is_cached_then_replanned_on_drift(self):
        engine = make_engine()
        rule = parse_rule(
            "rule out@p($x, $y) :- big@p($x, $y), sel@p($x);",
            default_peer="p")
        planner = engine._planner
        computed = engine.metrics["planner", "plans_computed"]
        first = planner.plan_rule(rule)
        assert engine.metrics["planner", "plans_computed"] == computed + 1
        second = planner.plan_rule(rule)
        assert second is first
        assert engine.metrics["planner", "plans_computed"] == computed + 1
        # 10x churn on a prefix relation invalidates the cached plan.
        for index in range(1000):
            engine.insert_fact(Fact("sel", "p", (1000 + index,)))
        engine.run_to_quiescence()
        replanned = planner.plan_rule(rule)
        assert replanned is not first
        assert engine.metrics["planner", "plans_computed"] == computed + 2
        assert first.order == second.order

    def test_cached_plan_is_immutable(self):
        """Every cache hit hands out the same plan object (see above), so no
        evaluation may write to it."""
        engine = make_engine()
        rule = parse_rule(
            "rule out@p($x, $y) :- big@p($x, $y), sel@p($x);",
            default_peer="p")
        plan = engine._planner.plan_rule(rule)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.order = (0, 1)

    def test_program_change_bumps_version_and_drops_the_removed_plans(self):
        """A program change is found by the next stage, not by the method
        that made it: only then does the version move and the plans of the
        rules it removed drop.  A surviving rule keeps its plans."""
        engine = make_engine()
        kept = engine.add_rule("rule out@p($x, $y) :- big@p($x, $y), sel@p($x);")
        key = (kept.rule_id, None, frozenset())
        engine._planner.plan_rule(kept)
        version = engine.program_version
        added = engine.add_rule("rule out@p($x, $x) :- sel@p($x), big@p($x, $x);")
        engine._planner.plan_rule(added)
        added_key = (added.rule_id, None, frozenset())
        assert engine.program_version == version
        engine.run_stage()
        assert engine.program_version > version
        assert key in engine._planner._cache and added_key in engine._planner._cache
        version = engine.program_version
        engine.remove_rules([added.rule_id])
        assert engine.program_version == version
        assert added_key in engine._planner._cache
        engine.run_stage()
        assert engine.program_version > version
        assert added_key not in engine._planner._cache
        assert key in engine._planner._cache


class TestQueryProgramParsing:
    def test_single_clause_program(self):
        program = parse_query_program("ans($x) :- sel@p($x)",
                                      default_peer="p")
        assert len(program.clauses) == 1
        assert program.auxiliary == ()
        assert program.answer.head_name == "ans"

    def test_multi_clause_split(self):
        program = parse_query_program(
            "r($x, $y) :- big@p($x, $y); "
            "r($x, $z) :- r($x, $y), big@p($y, $z); "
            "ans($y) :- r(1, $y)", default_peer="p")
        assert len(program.clauses) == 3
        assert [c.head_name for c in program.auxiliary] == ["r", "r"]
        assert program.answer.head_name == "ans"

    def test_auxiliary_clause_requires_a_head(self):
        with pytest.raises(ParseError):
            parse_query_program("big@p($x, $y); ans($x) :- sel@p($x)",
                                default_peer="p")

    def test_aggregates_only_in_final_clause(self):
        with pytest.raises(ParseError):
            parse_query_program(
                "r($x, count($y)) :- big@p($x, $y); ans($x) :- r($x, $c)",
                default_peer="p")


class TestMagicBailouts:
    def test_single_clause_query_is_not_rewritten(self):
        compiled = compile_query("ans($x) :- sel@p($x)", owner="p",
                                 view_name="_v")
        assert compiled.magic_relations == ()
        assert compiled.anchor_facts == ()

    def test_unbound_answer_is_not_rewritten(self):
        # No constant in the aux occurrence: nothing to seed demand from.
        compiled = compile_query(
            "r($x, $y) :- big@p($x, $y); ans($x, $y) :- r($x, $y)",
            owner="p", view_name="_v")
        assert compiled.magic_relations == ()

    def test_remote_aux_body_is_not_rewritten(self):
        # Demand propagation cannot cross peers soundly; bail out.
        compiled = compile_query(
            "r($x, $y) :- big@q($x, $y); ans($y) :- r(1, $y)",
            owner="p", view_name="_v")
        assert compiled.magic_relations == ()

    def test_bound_recursive_query_is_rewritten(self):
        compiled = compile_query(
            "r($x, $y) :- big@p($x, $y); "
            "r($x, $z) :- r($x, $y), big@p($y, $z); "
            "ans($y) :- r(1, $y)",
            owner="p", view_name="_v")
        assert compiled.magic_relations
        assert compiled.anchor_facts
        assert any(schema.name.startswith("_magic_")
                   for schema in compiled.extra_schemas)


class TestViewPlan:
    @staticmethod
    def selective_join_view():
        deployment = system().peer("p").program(PROGRAM).done().build()
        deployment.peer("p").insert_many(
            [f"big@p({index}, {index + 1})" for index in range(100)] + ["sel@p(7)"])
        view = deployment.query("p", "ans($x, $y) :- big@p($x, $y), sel@p($x)")
        deployment.converge()
        return view

    def test_plan_names_rules_magic_relations_and_cached_orders(self):
        """A compiled view's plan: its rules, no magic for a single clause,
        and the cost-ordered plan that probes ``big`` from ``sel``."""
        view = self.selective_join_view()
        assert sorted(view.rows()) == [(7, 8)]
        plan = view.plan()
        assert set(plan) == {"rules", "magic_relations", "rule_plans"}
        assert len(plan["rules"]) == 1 and plan["magic_relations"] == ()
        assert [1, 0] in [rule_plan["order"] for rule_plan in plan["rule_plans"]]

    def test_rule_plans_list_order_delta_position_and_bound_only(self):
        rule_plans = self.selective_join_view().plan()["rule_plans"]
        assert rule_plans
        for rule_plan in rule_plans:
            assert set(rule_plan) == {"rule_id", "order", "reordered",
                                      "delta_index", "bound"}


class TestWorkReduction:
    """The planner's two claims as substitution counts on the memory store,
    with identical answers and an identical fixpoint against the written-order
    reference."""

    @staticmethod
    def open_view(program, rows, query=None, rules=None, answer=None):
        """Open ``query`` as a view, or load ``rules`` in written order and
        read their ``answer`` relation (the reference); report the answers,
        the user relations and the substitutions the opening cost."""
        deployment = (system().storage("memory")
                      .peer("hub").program(program).done().build())
        engine = deployment.runtime.peer("hub").engine
        if query is None:
            written_order(engine)
        deployment.peer("hub").insert_many(rows)
        deployment.converge()
        before = engine.metrics["core", "substitutions_explored"]
        if query is None:
            deployment.peer("hub").load_program(rules)
            view = deployment.query("hub", answer)
        else:
            view = deployment.query("hub", query)
        deployment.converge()
        work = engine.metrics["core", "substitutions_explored"] - before
        private = ("_view", "_magic_", "_demand_") + tuple(
            f"{name}@" for name in ("reach", "ans", "picks"))
        visible = {relation: facts
                   for relation, facts in deployment.peer("hub").snapshot().items()
                   if not relation.startswith(private)}
        return sorted(view.rows()), visible, work

    def test_ordering_probes_the_selective_literal_first(self):
        """20 000 ratings joined with five VIPs: the written order scans the
        ratings, the planned order probes them from the VIPs."""
        rng = random.Random(42)
        rows = [f'rated@hub("user{rng.randrange(2000):05d}", '
                f'"pic{rng.randrange(500):05d}", {index % 5 + 1})'
                for index in range(20_000)]
        rows += [f'vip@hub("user{index * 7:05d}")' for index in range(5)]
        program = """
        collection extensional persistent rated@hub(user, picture, stars);
        collection extensional persistent vip@hub(user);
        """
        *written, written_work = self.open_view(program, rows, rules="""
        collection intensional picks@hub(user, picture, stars);
        rule picks@hub($u, $p, $s) :- rated@hub($u, $p, $s), vip@hub($u);
        """, answer="picks")
        *planned, planned_work = self.open_view(
            program, rows, "picks($u, $p, $s) :- rated@hub($u, $p, $s), vip@hub($u)")
        assert planned == written
        assert written_work >= 10 * planned_work

    def test_magic_sets_derive_only_what_the_bound_query_demands(self):
        """Reachability from one node of a 30-link chain: the baseline
        derives every pair, the demand transformation only the pairs leaving
        that node."""
        rows = [f'link@hub("n{index}", "n{index + 1}")' for index in range(30)]
        program = "collection extensional persistent link@hub(src, dst);"
        *written, written_work = self.open_view(program, rows, rules="""
        collection intensional reach@hub(src, dst);
        collection intensional ans@hub(dst);
        rule reach@hub($x, $y) :- link@hub($x, $y);
        rule reach@hub($x, $z) :- reach@hub($x, $y), link@hub($y, $z);
        rule ans@hub($y) :- reach@hub("n0", $y);
        """, answer="ans")
        *magic, magic_work = self.open_view(
            program, rows, 'reach($x, $y) :- link@hub($x, $y); '
            'reach($x, $z) :- reach($x, $y), link@hub($y, $z); '
            'ans($y) :- reach("n0", $y)')
        assert magic == written
        assert written_work >= 5 * magic_work

