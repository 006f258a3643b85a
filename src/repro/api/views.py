"""Declarative queries compiled into incrementally-maintained live views.

The paper's demo is interactive: users pose ad-hoc *rule-shaped* questions
over a running peer network.  This module is the compilation pipeline behind
:meth:`repro.api.System.query` / :meth:`repro.api.PeerHandle.query`:

1. the query text (a rule body, or a full ``ans(...) :- body`` rule, possibly
   with aggregate head terms) is parsed by :func:`repro.core.parser.parse_query`;
2. :func:`compile_query` turns it into an **ephemeral intensional view
   relation** — a schema plus one rule whose head derives into it;
3. the facade installs the compiled rule into the owning peer's engine, where
   it is evaluated exactly like a user rule: cross-peer ``relation@peer``
   literals delegate to the remote peers, bound arguments are pushed down
   into the :class:`~repro.core.facts.FactStore` hash indexes, and churn is
   absorbed along the incremental ``delta``/``rederive`` paths;
4. the returned :class:`LiveView` reads, streams, observes, explains,
   ACL-filters and finally uninstalls the view.

A :class:`LiveView` is also what single-relation queries return — the
degenerate one-literal case installs nothing and reads the relation directly.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, Union)

from repro.core.errors import ParseError, SafetyError
from repro.core.facts import ChangeFeed, Fact, patch_sorted, typed_values
from repro.core.parser import (
    ParsedQuery,
    ParsedQueryProgram,
    QueryAggregate,
    parse_query_program,
)
from repro.core.rules import Atom, Rule
from repro.core.schema import RelationKind, RelationSchema
from repro.core.terms import Term, Variable
from repro.datalog.aggregation import Aggregate, compute_aggregate
from repro.planner.magic import apply_magic
from repro.api.errors import ReproApiError
from repro.api.query import FactCallback, Subscription, _ViewerSubscription

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.facade import System

#: A query as accepted by ``System.query`` / ``PeerHandle.query``: a text
#: (relation name, rule body, or full rule), a pre-built body atom, a
#: sequence of body atoms, a :class:`Rule`, or an already-parsed query.
QueryLike = Union[str, Atom, Sequence[Atom], Rule, ParsedQuery, ParsedQueryProgram]

_RELATION_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_\-]*$")

_ANONYMOUS_PREFIX = "_anon"


def is_declarative(query: QueryLike) -> bool:
    """``True`` when ``query`` needs compilation (anything but a bare name)."""
    if isinstance(query, str):
        return _RELATION_NAME_RE.match(query.strip()) is None
    return True


def _as_parsed_program(query: QueryLike, owner: str) -> ParsedQueryProgram:
    """Normalise any accepted query shape into a (possibly one-clause) program.

    Only query *text* can carry ``;``-separated auxiliary clauses; every
    pre-built shape (atoms, rules, parsed queries) is a one-clause program.
    """
    if isinstance(query, str):
        try:
            return parse_query_program(query, default_peer=owner)
        except ParseError as exc:
            raise ReproApiError(f"cannot parse query {query!r}: {exc}") from exc
    if isinstance(query, ParsedQueryProgram):
        return query
    if isinstance(query, ParsedQuery):
        return ParsedQueryProgram(clauses=(query,))
    if isinstance(query, Rule):
        name = query.head.relation_constant()
        return ParsedQueryProgram(clauses=(ParsedQuery(
            body=tuple(query.body), head_name=name or "ans",
            head_args=tuple(query.head.args)),))
    if isinstance(query, Atom):
        return ParsedQueryProgram(clauses=(ParsedQuery(
            body=(query.positive() if query.negated else query,)),))
    if isinstance(query, Sequence) and query and all(
            isinstance(item, Atom) for item in query):
        return ParsedQueryProgram(clauses=(ParsedQuery(body=tuple(query)),))
    raise ReproApiError(
        f"cannot interpret {query!r} as a query: expected a relation name, a "
        "rule body, a 'head :- body' rule, an Atom, a sequence of Atoms or a "
        "Rule"
    )


def _projected_variables(body: Sequence[Atom]) -> Tuple[Variable, ...]:
    """Non-anonymous variables of a body in order of first occurrence."""
    seen: List[Variable] = []
    for atom in body:
        for variable in atom.variables():
            if variable.name.startswith(_ANONYMOUS_PREFIX):
                continue
            if variable not in seen:
                seen.append(variable)
    return tuple(seen)


def _column_names(terms: Sequence[Term]) -> Tuple[str, ...]:
    names: List[str] = []
    used: Dict[str, int] = {}
    for index, term in enumerate(terms):
        base = term.name if isinstance(term, Variable) else f"c{index}"
        count = used.get(base, 0)
        used[base] = count + 1
        names.append(base if count == 0 else f"{base}_{count}")
    return tuple(names)


@dataclass(frozen=True)
class CompiledView:
    """The executable form of a declarative query at one owner peer.

    ``head_args`` describe the *answer* shape (aggregate positions hold the
    aggregated variable); ``rules`` derive the raw tuples into the view
    relation.  For aggregate queries the raw tuples carry, after the head
    columns, every remaining body variable as *support* columns — they keep
    one raw tuple per body substitution, so grouping on read aggregates with
    bag semantics over substitutions (the set semantics of the fact store
    still dedupes identical substitutions).
    """

    view_name: str
    owner: str
    schema: RelationSchema
    rules: Tuple[Rule, ...]
    head_args: Tuple[Term, ...]
    aggregates: Tuple[QueryAggregate, ...]
    query_text: str
    #: Schemas of view-scoped auxiliary relations (multi-clause queries) and
    #: of planner-generated magic/demand relations; declared on install.
    extra_schemas: Tuple[RelationSchema, ...] = ()
    #: Demand-anchor facts inserted on install and deleted on ``close()`` —
    #: their retraction erases every magic fact at the next fixpoint.
    anchor_facts: Tuple[Fact, ...] = ()
    #: Names of the magic predicates the planner installed (observability).
    magic_relations: Tuple[str, ...] = ()

    def is_aggregate(self) -> bool:
        """``True`` when reads must group-and-aggregate the raw tuples."""
        return bool(self.aggregates)

    def rule_ids(self) -> Tuple[str, ...]:
        """Identifiers of the installed rules (for uninstallation)."""
        return tuple(rule.rule_id for rule in self.rules)

    def aggregate_specs(self) -> Dict[int, Aggregate]:
        """Answer position -> aggregate function computed there."""
        return {a.position: Aggregate.from_name(a.function)
                for a in self.aggregates}

    def group_positions(self) -> Tuple[int, ...]:
        """Answer positions that hold group keys (every non-aggregate one)."""
        aggregated = {a.position for a in self.aggregates}
        return tuple(i for i in range(len(self.head_args))
                     if i not in aggregated)


def _scope_atom(atom: Atom, aux_map: Dict[str, str], owner: str) -> Atom:
    """Rename references to auxiliary relations to their view-scoped names."""
    name = atom.relation_constant()
    if name in aux_map and atom.peer_constant() == owner:
        return Atom(relation=aux_map[name], peer=atom.peer, args=atom.args,
                    negated=atom.negated)
    return atom


def compile_query(query: QueryLike, owner: str, view_name: str) -> CompiledView:
    """Compile a declarative query into a view schema plus view rules.

    The compiled answer rule's head derives into ``view_name@owner``
    (declared intensional); its body is the query body verbatim, so the
    engine evaluates it exactly like a user rule — joins and negation
    locally, ``relation@peer`` literals through delegation, bound arguments
    through the index probes.  Raises :class:`ReproApiError` on parse or
    safety problems (e.g. a head variable not bound by the body).

    A query *text* may carry several ``;``-separated clauses: every clause
    but the last defines a **view-scoped auxiliary relation**, renamed to
    ``{view_name}_{name}`` so concurrent views never collide, installed and
    uninstalled together with the answer rule.  An answer clause that probes
    an auxiliary relation with constant arguments is rewritten by
    :func:`repro.planner.magic.apply_magic` so only demand-reachable
    auxiliary facts are ever derived.
    """
    program = _as_parsed_program(query, owner)
    parsed = program.answer
    if not parsed.body:
        raise ReproApiError("query has an empty body")

    aux_map: Dict[str, str] = {}
    for clause in program.auxiliary:
        aux_map.setdefault(clause.head_name, f"{view_name}_{clause.head_name}")

    extra_schemas: List[RelationSchema] = []
    aux_rules: List[Rule] = []
    declared: set = set()
    for clause in program.auxiliary:
        if not clause.body:
            raise ReproApiError("query clause has an empty body")
        scoped = aux_map[clause.head_name]
        rule = Rule(
            head=Atom(relation=scoped, peer=owner, args=tuple(clause.head_args)),
            body=tuple(_scope_atom(atom, aux_map, owner) for atom in clause.body),
            author=owner,
        )
        try:
            rule.check_safety()
        except SafetyError as exc:
            raise ReproApiError(f"unsafe query clause: {exc}") from exc
        aux_rules.append(rule)
        if scoped not in declared:
            declared.add(scoped)
            extra_schemas.append(RelationSchema(
                name=scoped, peer=owner,
                columns=_column_names(clause.head_args),
                kind=RelationKind.INTENSIONAL, persistent=True,
            ))

    if parsed.head_name is not None:
        head_args = tuple(parsed.head_args)
        aggregates = tuple(parsed.aggregates)
    else:
        head_args = _projected_variables(parsed.body)
        aggregates = ()

    raw_args: Tuple[Term, ...] = head_args
    if aggregates:
        support = tuple(v for v in _projected_variables(parsed.body)
                        if v not in head_args)
        raw_args = head_args + support

    schema = RelationSchema(
        name=view_name, peer=owner, columns=_column_names(raw_args),
        kind=RelationKind.INTENSIONAL, persistent=True,
    )
    answer_rule = Rule(
        head=Atom(relation=view_name, peer=owner, args=raw_args),
        body=tuple(_scope_atom(atom, aux_map, owner) for atom in parsed.body),
        author=owner,
    )
    try:
        answer_rule.check_safety()
    except SafetyError as exc:
        raise ReproApiError(f"unsafe query: {exc}") from exc

    rules: Tuple[Rule, ...] = tuple(aux_rules) + (answer_rule,)
    anchor_facts: Tuple[Fact, ...] = ()
    magic_relations: Tuple[str, ...] = ()
    if aux_rules:
        rewrite = apply_magic(view_name, owner, answer_rule,
                              tuple(aux_rules), set(aux_map.values()))
        if rewrite is not None:
            rules = rewrite.rules
            extra_schemas.extend(rewrite.extra_schemas)
            anchor_facts = rewrite.anchor_facts
            magic_relations = rewrite.magic_relations

    return CompiledView(
        view_name=view_name, owner=owner, schema=schema, rules=rules,
        head_args=head_args, aggregates=aggregates,
        query_text=query if isinstance(query, str) else str(answer_rule),
        extra_schemas=tuple(extra_schemas), anchor_facts=anchor_facts,
        magic_relations=magic_relations,
    )


def _noop_callback(fact: Fact) -> None:
    return None


_values_of = attrgetter("values")


class LiveView:
    """A standing, incrementally-maintained answer to a declarative query.

    The one handle unifying the three historical half-APIs:

    * **read** — :meth:`facts` / :meth:`rows` / iteration, always reflecting
      the current engine state (maintained along the delta/rederive paths,
      never by re-running the query), so a view opened before a run can be
      read after it;
    * **stream** — :meth:`iter_facts` drives the deployment's cycles and
      yields answers as the deriving stages complete;
    * **observe** — :meth:`on_change` registers add/remove callbacks fed
      from the relation's change feed after each stage;
    * **explain** — :meth:`explain` answers why/lineage through the
      provenance index (``system().provenance()`` deployments);
    * **access control** — a ``viewer=`` peer filters every read, stream and
      callback through the owner's
      :meth:`~repro.acl.policies.PolicyEngine.filter_readable`;
    * **lifecycle** — :meth:`close` uninstalls the compiled rules, retracts
      the view's derived facts (including delegated remainders at remote
      peers) and cancels the view's subscriptions.  Also a context manager.
    """

    def __init__(self, system: "System", owner: str, relation: str,
                 location: Optional[str] = None,
                 compiled: Optional[CompiledView] = None,
                 viewer: Optional[str] = None,
                 description: Optional[str] = None):
        self._system = system
        self._owner = owner
        self.relation = relation
        self._location = location or owner
        self.compiled = compiled
        self.viewer = viewer
        self._closed = False
        self._subscriptions: List[Subscription] = []
        aggregate = compiled is not None and compiled.is_aggregate()
        self._specs = compiled.aggregate_specs() if aggregate else {}
        self._positions = compiled.group_positions() if aggregate else ()
        # -- read-path state (docs/storage.md, "Read path") ---------------- #
        # Aggregate view without a viewer: the change feed of the raw
        # relation (``None`` until the first read primes the view), each
        # group's raw rows in rendering order — a row once per source that
        # holds it — keyed by typed group key, and how many rows they hold in
        # all (the feed's bound), the group's answer fact, the
        # answer facts in rendering order with their value tuples beside
        # them, and the two tuples handed to readers.
        self._feed: Optional[ChangeFeed] = None
        self._group_rows: Dict[Tuple, List[Fact]] = {}
        self._row_count = 0
        self._groups: Optional[Dict[Tuple, Fact]] = None
        self._ordered: List[Fact] = []
        self._values: List[Tuple] = []
        self._answer: Tuple[Fact, ...] = ()
        self._answer_rows: Tuple[Tuple, ...] = ()
        # Aggregate view with a viewer: (filtered raw facts, their groups).
        self._viewer_answer: Optional[
            Tuple[Tuple[Fact, ...], Tuple[Fact, ...]]] = None
        # (answer, its value tuples): an unchanged page is not re-projected.
        self._rows: Optional[Tuple[Tuple[Fact, ...], Tuple[Tuple, ...]]] = None
        if description is None:
            description = (f"view {relation}@{owner}" if compiled is not None
                           else f"{relation}@{self._location} as seen by {owner}")
            if viewer is not None:
                description += f" for viewer {viewer}"
        self.description = description

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        """The (view) relation name answers are published under."""
        return self.relation

    @property
    def owner(self) -> str:
        """The peer hosting the view."""
        return self._owner

    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` ran."""
        return self._closed

    def raw_facts(self) -> Tuple[Fact, ...]:
        """The maintained raw tuples, before aggregation and ACL filtering.

        For non-aggregate views (after ACL filtering) this is exactly
        :meth:`facts`; for aggregate views these are the per-substitution
        support tuples the groups are computed from, and the facts
        :meth:`explain` can answer about.
        """
        if self._closed:
            return ()
        return self._system.runtime.peer(self._owner).query(
            self.relation, self._location)

    def _read(self) -> Tuple[Fact, ...]:
        if self._closed:
            return ()
        aggregate = bool(self._specs)
        if self.viewer is None:
            return self._maintained() if aggregate else self.raw_facts()
        # The owner's policy engine keeps what this viewer may read of the
        # raw relation and hands back the same tuple while nothing moved.  A
        # group cannot be patched from a raw delta — a grant or a lineage
        # change moves rows no delta names — so an aggregate is recomputed
        # from the filtered rows whenever they are a different tuple.
        answer = self._system.policies.engine(self._owner).filter_readable(
            self.raw_facts(), self.viewer,
            relation=f"{self.relation}@{self._location}")
        if not aggregate:
            return answer
        kept = self._viewer_answer
        if kept is None or kept[0] is not answer:
            kept = self._viewer_answer = (answer, self._aggregate(answer))
        return kept[1]

    def facts(self) -> Tuple[Fact, ...]:
        """The current answers (ACL-filtered, aggregated where applicable)."""
        return self._read()

    def rows(self) -> Tuple[Tuple, ...]:
        """The value tuples of :meth:`facts` (relation/peer stripped)."""
        facts = self._read()
        if facts is self._answer:
            # A maintained aggregate keeps its value tuples with its facts.
            return self._answer_rows
        kept = self._rows
        if kept is None or kept[0] is not facts:
            kept = self._rows = (facts, tuple(map(_values_of, facts)))
        return kept[1]

    def sorted(self) -> Tuple[Fact, ...]:
        """The current answers in a deterministic (string) order: every
        answer already is — a relation's snapshot is kept sorted, a viewer's
        filter keeps its order and groups are kept sorted."""
        return self.facts()

    def first(self) -> Optional[Fact]:
        """The first current answer, or ``None`` when there is none."""
        facts = self.facts()
        return facts[0] if facts else None

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.facts())

    def __len__(self) -> int:
        return len(self.facts())

    def __bool__(self) -> bool:
        return bool(self.facts())

    def plan(self) -> Optional[Dict[str, object]]:
        """The plan behind this view: rules, magic relations, orders.

        ``rule_plans`` holds :meth:`~repro.planner.plans.RulePlan.as_dict` of
        the cost-based planner's cached plans for the view's installed rules
        (rule id, literal order, whether it was reordered, delta position
        and bound variables); it is empty until a stage has evaluated the
        view's rules, and it skips a rule whose local body prefix has nothing
        to order.
        Relation-scan views (no compiled query), which read the relation
        directly, return ``None``.
        """
        if self.compiled is None:
            return None
        planner = self._system.runtime.peer(self._owner).engine._planner
        rule_ids = {rule.rule_id for rule in self.compiled.rules}
        rule_plans = []
        for key in sorted(planner._cache, key=str):
            entry = planner._cache[key]
            if entry is not None and entry[0].rule_id in rule_ids:
                rule_plans.append(entry[0].as_dict())
        return {
            "rules": tuple(str(rule) for rule in self.compiled.rules),
            "magic_relations": tuple(self.compiled.magic_relations),
            "rule_plans": tuple(rule_plans),
        }

    # -- aggregate views: groups kept and patched from the change feed ---- #

    def _owner_state(self):
        return self._system.runtime.peer(self._owner).engine.state

    def _maintained(self) -> Tuple[Fact, ...]:
        """The grouped answer, recomputing only the groups whose rows changed."""
        feed = self._feed
        if feed is None or None in feed:
            self._prime()
        elif feed:
            self._refresh(feed)
        return self._answer

    def _prime(self) -> None:
        """First read (or first after a reopen, or after a feed overflowed):
        group the whole relation, one scan in rendering order, whatever the
        backend, and watch it from then on."""
        state = self._owner_state()
        raw = sorted(state.fact_view(self.relation, self._owner), key=str)
        self._group_rows, self._row_count = self._grouped(raw), len(raw)
        self._groups = {key: self._group_fact(rows)
                        for key, rows in self._group_rows.items()}
        self._ordered = sorted(self._groups.values(), key=str)
        self._values = list(map(_values_of, self._ordered))
        self._publish()
        if self._feed is None:
            self._feed = state.watch(self.relation, self._owner, self._forget_groups)
        self._feed.drain(self._row_count)

    def _refresh(self, feed: ChangeFeed) -> None:
        """Patch the kept rows of each group the feed names and recompute
        those groups.

        A group's rows stay in rendering order, which is the order a sorted
        scan of the whole relation would have grouped them in — so float sums
        and averages keep their bits; a row is kept once per source that
        holds it, so a row dropped by one of two sources counts once.
        """
        touched = self._grouped(feed)
        held = self._owner_state().held
        rows_of, groups = self._group_rows, self._groups
        ordered, values = self._ordered, self._values
        for key, changed in touched.items():
            stale = groups.pop(key, None)
            if stale is not None:
                index = bisect_left(ordered, str(stale), key=str)
                while ordered[index] is not stale:
                    index += 1
                del ordered[index], values[index]
            before = rows_of.get(key, ())
            rows = patch_sorted(before, changed, held)
            self._row_count += len(rows) - len(before)
            if not rows:
                rows_of.pop(key, None)
                continue
            rows_of[key] = rows
            fresh = groups[key] = self._group_fact(rows)
            index = bisect_right(ordered, str(fresh), key=str)
            ordered.insert(index, fresh)
            values.insert(index, fresh.values)
        feed.drain(self._row_count)
        self._publish()

    def _publish(self) -> None:
        self._answer, self._answer_rows = tuple(self._ordered), tuple(self._values)

    def _forget_groups(self) -> None:
        """Drop the kept groups; the next read primes them again."""
        self._feed = self._groups = None
        self._group_rows, self._ordered, self._values = {}, [], []
        self._row_count = 0
        self._answer, self._answer_rows = (), ()

    def _grouped(self, raw: Iterable[Fact]) -> Dict[Tuple, List[Fact]]:
        """``raw`` by typed group key, each group in the order of ``raw``."""
        positions = self._positions
        groups: Dict[Tuple, List[Fact]] = {}
        for fact in raw:
            values = fact.values
            groups.setdefault(typed_values([values[i] for i in positions]),
                              []).append(fact)
        return groups

    def _group_fact(self, rows: Sequence[Fact]) -> Fact:
        """The answer fact of one group: its key values and its aggregates."""
        first = rows[0].values
        values: List[object] = [None] * len(self.compiled.head_args)
        for position in self._positions:
            values[position] = first[position]
        for position, function in self._specs.items():
            values[position] = compute_aggregate(
                function, [row.values[position] for row in rows])
        return Fact(self.relation, self._owner, tuple(values))

    def _aggregate(self, raw: Sequence[Fact]) -> Tuple[Fact, ...]:
        """Group-and-aggregate ``raw`` from scratch, keys compared type-strictly."""
        return tuple(sorted(map(self._group_fact, self._grouped(raw).values()),
                            key=str))

    # ------------------------------------------------------------------ #
    # streaming
    # ------------------------------------------------------------------ #

    def iter_facts(self, max_steps: Optional[int] = None) -> Iterator[Fact]:
        """Stream the answers while driving the deployment to a fixpoint.

        Yields the answers already visible, then steps the system and yields
        each new answer as the deriving stage completes, until convergence.
        Aggregate views converge first and then yield the grouped results
        (a per-stage aggregate stream would re-report groups on every raw
        change); views over a relation located at another peer degrade to a
        plain iteration of the answers visible now.
        """
        if self._closed:
            return iter(())
        if self.compiled is not None and self.compiled.is_aggregate():
            self._system.converge(max_steps=max_steps)
            return iter(self.facts())
        if self._location != self._owner:
            return iter(self.facts())
        stream = self._system.stream_facts(self._owner, self.relation,
                                           max_steps=max_steps)
        if self.viewer is None:
            return stream
        return self._filtered(stream)

    def _filtered(self, stream: Iterator[Fact]) -> Iterator[Fact]:
        engine = self._system.policies.engine(self._owner)
        for fact in stream:
            if engine.can_read_fact(fact, self.viewer):
                yield fact

    # ------------------------------------------------------------------ #
    # observation
    # ------------------------------------------------------------------ #

    def on_change(self, on_add: Optional[FactCallback] = None,
                  on_remove: Optional[FactCallback] = None,
                  include_existing: bool = False) -> Subscription:
        """Watch the view: ``on_add(fact)`` fires once per answer that becomes
        visible, ``on_remove(fact)`` once per answer that is retracted.

        Deliveries drain the relation's change feed after each completed
        stage at the owner and when execution resumes — O(changes), no
        relation re-scans.  When the view has a ``viewer=``,
        the observer holds what the viewer may read: additions are filtered
        through the owner's policy engine, a removal is reported exactly for
        a delivered fact, and a stage that moves the lineage of an answer
        without changing its visibility is followed too (see
        :class:`~repro.api.query._ViewerSubscription`).  The returned
        :class:`~repro.api.query.Subscription` is cancelled automatically by
        :meth:`close`.
        """
        if self._closed:
            raise ReproApiError(f"live view {self.description} is closed")
        add = on_add or _noop_callback
        if self.viewer is None:
            subscription = self._system.subscribe(
                self.relation, add, peer=self._owner,
                include_existing=include_existing, on_remove=on_remove)
        else:
            subscription = self._system._attach(
                _ViewerSubscription(self.relation, self._owner, self._system.policies,
                                    self.viewer, add, on_remove),
                include_existing)
        self._subscriptions.append(subscription)
        return subscription

    # ------------------------------------------------------------------ #
    # provenance
    # ------------------------------------------------------------------ #

    def explain(self, fact: Union[str, Fact]):
        """Why/lineage story of one answer (see :meth:`repro.api.System.explain`).

        For aggregate views, explain the *raw* tuples (:meth:`raw_facts`) —
        grouped results are computed on read and have no single derivation.
        """
        if self._closed:
            raise ReproApiError(f"live view {self.description} is closed")
        return self._system.explain(self._owner, fact)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self, settle: bool = True,
              max_steps: Optional[int] = None) -> None:
        """Tear the view down; idempotent.

        Uninstalls the compiled rules from the owning engine and cancels the
        view's subscriptions.  With ``settle=True`` (default) the system is
        then driven to convergence so every residue is retracted: the owner
        rederives the removed heads, which drops the view's derived facts
        (standing views are not re-evaluated), delegation diffs retract
        the remainders installed at remote peers, and those peers' updates
        withdraw the answers they had pushed.  Reads on a closed view return
        ``()``; :meth:`on_change` / :meth:`explain` raise
        :class:`~repro.api.errors.ReproApiError`.
        """
        if self._closed:
            return
        self._closed = True
        for subscription in self._subscriptions:
            subscription.cancel()
        self._subscriptions.clear()
        if self.compiled is not None:
            try:
                peer = self._system.runtime.peer(self._owner)
            except KeyError:
                peer = None
            if peer is not None:
                peer.remove_rules(self.compiled.rule_ids())
                for fact in self.compiled.anchor_facts:
                    # Retracting the demand anchor erases every magic fact at
                    # the next fixpoint — no planner residue survives close.
                    peer.delete_fact(fact)
                if settle:
                    self._system.converge(max_steps=max_steps)
        self._system._forget_view(self)
        self._drop_read_state()

    def _drop_read_state(self) -> None:
        """Release everything the read path kept for this view."""
        feed = self._feed
        self._forget_groups()
        self._viewer_answer = self._rows = None
        peer = self._system.runtime.peers.get(self._owner)
        if peer is not None and self.compiled is not None:
            state = peer.engine.state
            if feed is not None:
                state.unwatch(self.relation, self._owner, feed)
            state.forget_snapshot(self.relation, self._location)

    def __enter__(self) -> "LiveView":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"{len(self)} facts"
        return f"LiveView({self.description}, {state})"
