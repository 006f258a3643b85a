"""Compilation of rule bodies into single SQL statements.

Nothing in the program calls this module: rule bodies and aggregates are
evaluated by :class:`~repro.core.evaluation.RuleEvaluator` and
:class:`~repro.api.views.LiveView` on every backend.  It stays, tested on
its own, while the benchmark's tracer names :meth:`BodyPushdown.run` and
:meth:`BodyPushdown.aggregate` (ROADMAP item 8 deletes it with them).

On a SQLite backend, a rule body whose literals are all
*store-resident* — constant relation/peer positions, located at the local
peer, with no ephemeral provided facts mixed into any referenced relation —
is compiled into **one** ``SELECT`` executed inside the store:

* each positive literal becomes an entry in the ``FROM`` list (the union of
  the extensional and derived tables of its relation);
* a constant argument becomes a bound-argument probe
  (``b0.t2 = ? AND b0.v2 = ?``);
* a variable occurring in several literals becomes a pairwise join condition
  over its (tag, value) column pair — type-strict, like the hash indexes;
* a negated literal becomes a correlated ``NOT EXISTS`` subquery
  (stratification is handled by the engine exactly as before — the compiler
  only sees one rule at a time);
* the ``SELECT DISTINCT`` output columns are the (tag, value) pairs of the
  head variables, decoded back into one substitution per row.

The compiler is deliberately conservative: anything it cannot prove
equivalent to the tuple-at-a-time Python evaluation (variable relation/peer
positions, remote literals, provided facts) returns ``None``.  The
aggregate entry point does the same for an aggregate view: ``GROUP BY``
pushdown of ``count/sum/min/max/avg`` with exactness guards (integer-only
SUM/AVG that fall back on a 64-bit overflow, the average divided in
Python, single-typed MIN/MAX) so pushed-down answers are bit-identical to
:func:`repro.datalog.aggregation.compute_aggregate`.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.rules import Atom, Rule
from repro.core.terms import Constant, Variable
from repro.datalog.aggregation import Aggregate
from repro.store.backend import DERIVED_NAMESPACE, STORE_NAMESPACE, StoreError
from repro.store.sqlite import (
    EXACT_SUM_TAGS,
    NUMERIC_TAGS,
    decode_column,
    encode_column,
)

#: Sentinel for a body that is *provably empty* (a positive literal reads a
#: relation with no facts at all) — compiled, but no statement needs to run.
_EMPTY = object()


@dataclass
class CompiledBody:
    """A rule body compiled to one SQL statement."""

    sql: str
    params: Tuple
    head_vars: Tuple[Variable, ...]

    def decode(self, row) -> Dict[Variable, Constant]:
        return {
            var: Constant(decode_column(row[2 * i], row[2 * i + 1]))
            for i, var in enumerate(self.head_vars)
        }


def _storable(term) -> bool:
    """``False`` for a constant no SQLite column can hold (an int beyond
    64 bits): no stored row matches it, and no head row can carry it."""
    if not isinstance(term, Constant):
        return True
    try:
        encode_column(term.value)
    except StoreError:
        return False
    return True


class BodyPushdown:
    """Compiles and executes whole rule bodies against a SQL backend.

    Bound to one :class:`~repro.core.state.PeerState` on a SQLite backend:
    ``BodyPushdown(engine.state)``.
    """

    def __init__(self, state):
        self.state = state
        self.backend = state.backend

    # ------------------------------------------------------------------ #
    # whole-body pushdown
    # ------------------------------------------------------------------ #

    def run(self, rule: Rule,
            order: Optional[Sequence[int]] = None
            ) -> Optional[List[Dict[Variable, Constant]]]:
        """Evaluate ``rule``'s body in the store.

        Returns one substitution (over the head variables) per distinct
        result row, or ``None`` when the body is not store-resident and the
        caller must fall back to tuple-at-a-time evaluation.  ``order`` is an
        optional planner-chosen permutation of body positions: the ``FROM``
        list (and SQLite's join nesting, which follows it) is emitted in that
        order.  Join conditions are symmetric, so results are identical.
        """
        compiled = self.compile(rule, order=order)
        if compiled is None:
            return None
        if compiled is _EMPTY:
            return []
        rows = self.backend.execute(compiled.sql, compiled.params).fetchall()
        self.backend.counters["compiled_statements"] += 1
        return [compiled.decode(row) for row in rows]

    def compile(self, rule: Rule, order: Optional[Sequence[int]] = None):
        """Compile the body of ``rule``; ``None`` means "not compilable"."""
        body = self._body(rule, order)
        if body is None or body is _EMPTY:
            return body
        head_vars = rule.head.variables()
        select = self._select(head_vars, body)
        if select is None:
            return None  # unsafe rule: let the Python evaluator raise.
        return CompiledBody(*select, head_vars=head_vars)

    @staticmethod
    def _select(terms, body) -> Optional[Tuple[str, Tuple]]:
        """``(sql, params)`` selecting ``terms`` over a compiled ``body``.

        A constant is a tag/value parameter pair, a variable the tag/value
        columns that first bind it (``None`` when none does).  ``DISTINCT``
        rows, or existence (``LIMIT 1``) when no variable is selected.
        """
        from_where, params, var_first = body
        columns: List[str] = []
        selected: List[object] = []
        for term in terms:
            if isinstance(term, Constant):
                selected.extend(encode_column(term.value))
                columns.append("?, ?")
                continue
            first = var_first.get(term)
            if first is None:
                return None
            alias, position = first
            columns.append(f"{alias}.t{position}, {alias}.v{position}")
        if any(isinstance(term, Variable) for term in terms):
            sql = f"SELECT DISTINCT {', '.join(columns)}{from_where}"
        else:
            sql = f"SELECT {', '.join(columns) or '0'}{from_where} LIMIT 1"
        return sql, tuple(selected) + tuple(params)

    def _body(self, rule: Rule, order: Optional[Sequence[int]] = None):
        """``(FROM/WHERE clause, its parameters, first binding position of
        each positively bound variable)`` of ``rule``'s body, ``_EMPTY`` for
        a provably empty body, ``None`` when the body is not compilable."""
        local_peer = self.state.peer
        for atom in rule.body:
            relation = atom.relation_constant()
            peer = atom.peer_constant()
            if relation is None or peer is None or peer != local_peer:
                return None
            if self.state.provided.count(relation, peer):
                # Provided facts live outside the store tables; mixing them
                # in would need a per-stage temp table — fall back instead.
                return None
            if not all(map(_storable, atom.args)):
                return None  # the Python path finds no row holding it

        params: List[object] = []
        from_items: List[str] = []
        conds: List[str] = []
        var_first: Dict[Variable, Tuple[str, int]] = {}

        if order is not None and len(order) == len(rule.body):
            body = [rule.body[position] for position in order]
        else:
            body = list(rule.body)
        positives = [a for a in body if not a.negated]
        negatives = [a for a in body if a.negated]

        for index, atom in enumerate(positives):
            ref = self._source_ref(atom)
            if ref is None:
                return _EMPTY
            alias = f"b{index}"
            from_items.append(f"{ref} AS {alias}")
            self._constrain(atom, alias, conds, params, var_first, var_first)

        for index, atom in enumerate(negatives):
            ref = self._source_ref(atom)
            if ref is None:
                # The negated relation holds no facts: the literal is always
                # satisfied and contributes no condition.
                continue
            alias = f"n{index}"
            inner_conds: List[str] = []
            # Variables not bound by a positive literal (anonymous, or unsafe
            # leftovers) are unconstrained, but repeated occurrences inside
            # the same negated literal must still agree with each other.
            local_first: Dict[Variable, Tuple[str, int]] = {}
            self._constrain(atom, alias, inner_conds, params, var_first, local_first)
            subquery = f"SELECT 1 FROM {ref} AS {alias}"
            if inner_conds:
                subquery += f" WHERE {' AND '.join(inner_conds)}"
            conds.append(f"NOT EXISTS ({subquery})")

        from_where = ""
        if from_items:
            from_where += f" FROM {', '.join(from_items)}"
        if conds:
            from_where += f" WHERE {' AND '.join(conds)}"
        return from_where, params, var_first

    def _source_ref(self, atom: Atom) -> Optional[str]:
        """SQL table expression for a literal's relation, or ``None`` if the
        relation holds no facts (no table in either namespace, or only tables
        of a different arity — which can never match the literal)."""
        relation = atom.relation_constant()
        peer = atom.peer_constant()
        tables = []
        for namespace in (STORE_NAMESPACE, DERIVED_NAMESPACE):
            ref = self.backend.table_ref(namespace, relation, peer)
            if ref is not None and ref[1] == atom.arity:
                tables.append(ref[0])
        if not tables:
            return None
        if atom.arity:
            cols = ", ".join(f"t{i}, v{i}" for i in range(atom.arity))
        else:
            cols = "u"
        if len(tables) == 1:
            return f'(SELECT {cols} FROM "{tables[0]}")'
        return (f'(SELECT {cols} FROM "{tables[0]}" '
                f'UNION SELECT {cols} FROM "{tables[1]}")')

    @staticmethod
    def _constrain(atom: Atom, alias: str, conds: List[str], params: List[object],
                   var_first: Dict[Variable, Tuple[str, int]],
                   bind_into: Dict[Variable, Tuple[str, int]]) -> None:
        """Emit equality conditions for one literal's argument positions.

        First occurrences of variables are recorded in ``bind_into`` (the
        global map for positive literals, a literal-local map for negated
        ones — a negated literal must not bind variables for the rest of the
        body, matching left-to-right semantics).
        """
        for position, term in enumerate(atom.args):
            if isinstance(term, Constant):
                tag, stored = encode_column(term.value)
                conds.append(f"{alias}.t{position} = ?")
                params.append(tag)
                conds.append(f"{alias}.v{position} = ?")
                params.append(stored)
                continue
            first = var_first.get(term)
            if first is None and bind_into is not var_first:
                first = bind_into.get(term)
            if first is None:
                bind_into[term] = (alias, position)
            else:
                other_alias, other_position = first
                conds.append(f"{alias}.t{position} = {other_alias}.t{other_position}")
                conds.append(f"{alias}.v{position} = {other_alias}.v{other_position}")

    # ------------------------------------------------------------------ #
    # GROUP BY pushdown for the live-view read path
    # ------------------------------------------------------------------ #

    def aggregate(self, relation: str, peer: str, width: int,
                  group_positions: Sequence[int],
                  specs: Dict[int, Aggregate]) -> Optional[List[Tuple]]:
        """Compute a grouped aggregate over ``relation@peer`` inside the store.

        ``width`` is the width of the *output* tuples (group keys at
        ``group_positions``, aggregate results at the spec positions) — the
        stored relation may be wider (aggregate views keep support columns
        whose only effect is row multiplicity, exactly like the Python
        grouping).  Returns one output tuple per group, or ``None`` when
        pushdown cannot be proven bit-identical to the Python path — the
        caller then aggregates in Python.
        """
        if peer != self.state.peer:
            return None
        if self.state.provided.count(relation, peer):
            return None
        schema = self.state.schemas.get(relation, peer)
        if schema is None:
            return []
        arity = schema.arity
        if width > arity or any(p >= arity for p in group_positions):
            return None
        sources: List[str] = []
        for namespace in (STORE_NAMESPACE, DERIVED_NAMESPACE):
            ref = self.backend.table_ref(namespace, relation, peer)
            if ref is None or ref[1] != arity:
                continue
            count = self.backend.execute(
                f'SELECT COUNT(*) FROM "{ref[0]}"').fetchone()[0]
            if count:
                sources.append(ref[0])
        if not sources:
            return []
        if len(sources) > 1:
            # A fact visible through both stores is counted twice by the
            # Python path (fact_view concatenates) — don't risk diverging.
            return None
        table = sources[0]

        min_max_tags: Dict[int, str] = {}
        for position, function in specs.items():
            if function is Aggregate.COUNT:
                continue
            if position >= arity:
                return None
            tags = {row[0] for row in self.backend.execute(
                f'SELECT DISTINCT t{position} FROM "{table}"')}
            if function in (Aggregate.SUM, Aggregate.AVG):
                # Integer arithmetic is associative; float accumulation order
                # is not — only push down exactly-representable sums.
                if not tags <= EXACT_SUM_TAGS:
                    return None
            else:  # MIN / MAX need one tag to decode the winner's type.
                if len(tags) != 1 or not tags <= (NUMERIC_TAGS | {"str"}):
                    return None
                min_max_tags[position] = next(iter(tags))

        select: List[str] = []
        for g in group_positions:
            select.append(f"t{g}")
            select.append(f"v{g}")
        agg_positions = sorted(specs)
        for p in agg_positions:
            function = specs[p]
            if function is Aggregate.COUNT:
                select.append("COUNT(*)")
            elif function is Aggregate.SUM:
                select.append(f"SUM(v{p})")
            elif function is Aggregate.AVG:
                # Divided in Python below: an int/int quotient is rounded
                # once, SQLite's would round the sum to a double first.
                select.append(f"SUM(v{p})")
            elif function is Aggregate.MIN:
                select.append(f"MIN(v{p})")
            else:
                select.append(f"MAX(v{p})")
        select.append("COUNT(*)")
        sql = f'SELECT {", ".join(select)} FROM "{table}"'
        if group_positions:
            group_cols = ", ".join(f"t{g}, v{g}" for g in group_positions)
            sql += f" GROUP BY {group_cols}"
        try:
            rows = self.backend.execute(sql).fetchall()
        except sqlite3.OperationalError as error:
            if "integer overflow" in str(error):
                return None  # Python's integers do not overflow
            raise
        self.backend.counters["aggregate_statements"] += 1

        results: List[Tuple] = []
        base = 2 * len(group_positions)
        for row in rows:
            output: List[object] = [None] * width
            for slot, g in enumerate(group_positions):
                output[g] = decode_column(row[2 * slot], row[2 * slot + 1])
            for offset, p in enumerate(agg_positions):
                function = specs[p]
                raw = row[base + offset]
                if function is Aggregate.COUNT:
                    output[p] = int(raw)
                elif function is Aggregate.AVG:
                    output[p] = int(raw) / row[-1]
                elif function in (Aggregate.MIN, Aggregate.MAX):
                    output[p] = decode_column(min_max_tags[p], raw)
                else:  # SUM over EXACT_SUM_TAGS: SQLite returns the exact int.
                    output[p] = int(raw)
            results.append(tuple(output))
        return results
