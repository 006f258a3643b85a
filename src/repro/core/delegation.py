"""Delegation: the distinguishing feature of WebdamLog.

When a rule's body refers to relations that live on a remote peer, the local
peer evaluates the longest *local prefix* of the body (left to right) and,
for every satisfying assignment of that prefix, installs the partially
instantiated *remainder* of the rule at the peer owning the first non-local
atom.  Example from the paper — the rule at peer ``Jules``::

    attendeePictures@Jules($id, $name, $owner, $data) :-
        selectedAttendee@Jules($attendee),
        pictures@$attendee($id, $name, $owner, $data)

together with the fact ``selectedAttendee@Jules("Émilien")`` leads Jules to
delegate to ``Émilien`` the rule::

    attendeePictures@Jules($id, $name, $owner, $data) :-
        pictures@Émilien($id, $name, $owner, $data)

Every delegation split from one rule at one remote literal, to one target,
has the same **shape**: it differs from its siblings only in the values the
prefix bound.  So a delegation travels as data.  The receiver holds one
**template** per shape — the remainder with each bound argument left a
variable, read from a *binding relation* ``_bind_<shape>@target`` by a first
literal — and each delegation is one **binding**: a fact of that relation.
An install is a fact insert, a retract a fact delete, and neither changes the
receiver's program.  A bound value in a relation or peer position is part of
the shape, so a template never has a variable location the prefix fixed.

Delegations are *provisional*: they remain installed only as long as the
facts that justified them hold at the delegator.  The engine therefore
re-computes the set of required bindings at every stage and the
:class:`DelegationTracker` diffs it against what was previously sent.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.errors import DelegationError
from repro.core.facts import Fact
from repro.core.rules import Atom, Rule
from repro.core.terms import Constant, Variable
from repro.core.unification import Substitution

#: Every binding relation's name starts with this; no other relation may.
BINDING_PREFIX = "_bind_"


def binding_relation(shape: str) -> str:
    """The binding relation of the shape named ``shape``."""
    return BINDING_PREFIX + shape


def is_binding(relation: str) -> bool:
    """``True`` for the name of a binding relation."""
    return relation.startswith(BINDING_PREFIX)


def shape_of(relation: str) -> str:
    """The name of the shape whose binding relation is ``relation``."""
    return relation[len(BINDING_PREFIX):]


#: The relation of a delegator's records of the templates it sent:
#: ``_sent@target(shape, *rule key)``.
SENT_TEMPLATE = "_sent"


def rule_key(rule: Rule) -> Tuple:
    """The delegating rule as written, which a shape's name is a digest of:
    a template stays while a rule with this key is live."""
    return (rule.origin or rule.rule_id, str(rule), rule.author)


def delegation_id(delegator: str, target: str, origin_rule_id: str, rule: Rule) -> str:
    """The name a delegation is shown and approved by: a digest of its
    delegator, target, origin rule and delegated rule up to variable names."""
    canonical = repr((delegator, target, origin_rule_id, rule.canonical_key()))
    return f"deleg-{hashlib.sha256(canonical.encode('utf-8')).hexdigest()[:16]}"


def stands_for(template: Rule, values: Tuple, target: str) -> Rule:
    """The delegated rule a binding of ``template`` with ``values`` stands
    for: the template without its binding literal, the values substituted."""
    substitution = {variable: Constant(value)
                    for variable, value in zip(template.body[0].args, values)}
    return Rule(head=template.head.substitute(substitution),
                body=tuple(atom.substitute(substitution) for atom in template.body[1:]),
                author=template.author, origin=template.origin,
                rule_id=(f"{template.origin}@{target}" if template.origin
                         else template.rule_id))


class Shape:
    """One delegated remainder with its bound arguments left open.

    ``template`` is the rule the target installs: ``rule``'s head and body
    from ``index`` on, the located values substituted, behind the literal
    ``_bind_<name>@target(free...)``.  ``located`` are the values of the
    prefix-bound variables in a relation or peer position."""

    __slots__ = ("name", "relation", "delegator", "target", "rule", "split", "located",
                 "template")

    def __init__(self, split: "Split", delegator: str, target: str, located: Tuple):
        rule = split.rule
        self.delegator = delegator
        self.target = target
        self.rule = rule
        self.split = split
        self.located = located
        substitution = {variable: Constant(value)
                        for variable, value in zip(split.located, located)}
        head = rule.head.substitute(substitution)
        remainder = tuple(atom.substitute(substitution) for atom in rule.body[split.index:])
        origin = rule.origin or rule.rule_id
        # Named by content: the rule as written (a replacement may keep its
        # id), the split point and the located values (``repr`` tells ``1``,
        # ``True`` and ``1.0`` apart).
        content = repr((delegator, target, split.content, located))
        self.name = f"deleg-{hashlib.sha256(content.encode('utf-8')).hexdigest()[:16]}"
        #: The binding relation: one string, shared by every binding.
        self.relation = binding_relation(self.name)
        self.template = Rule(
            head=head,
            body=(Atom(Constant(self.relation), Constant(target),
                       split.free), *remainder),
            author=delegator, origin=origin, rule_id=self.name)

    def substitution(self, binding: Fact) -> Substitution:
        """The prefix's bindings of ``rule`` that ``binding`` stands for."""
        substitution: Substitution = {}
        for variables, values in ((self.split.located, self.located),
                                  (self.split.free, binding.values)):
            for variable, value in zip(variables, values):
                substitution[variable] = Constant(value)
        return substitution


class Split:
    """What a rule delegates at one remote literal: which prefix-bound
    variables the remainder reads, and the shapes met so far.

    The prefix binds the same variables in every walk (a plan permutes only
    the local prefix, so every literal before ``index`` was walked):
    ``located`` are those in a relation or peer position of the head or the
    remainder, ``free`` the others the remainder or the head reads, each in
    order of first occurrence.  Kept per rule (:attr:`Rule.splits`)."""

    __slots__ = ("rule", "index", "located", "free", "content", "_shapes")

    def __init__(self, rule: Rule, index: int):
        self.rule = rule
        self.index = index
        self.content = (*rule_key(rule), index)
        compiled = rule.compiled
        bound: Set[Variable] = set()
        for atom in compiled.body[:index]:
            if not atom.negated:
                bound.update(slot for slot in (atom.relation, atom.peer, *atom.args)
                             if slot.__class__ is Variable)
        order: Dict[Variable, bool] = {}
        for atom in (compiled.head, *compiled.body[index:]):
            for position, slot in enumerate((atom.relation, atom.peer, *atom.args)):
                if slot.__class__ is Variable and slot in bound:
                    order[slot] = order.get(slot, False) or position < 2
        self.located = tuple(variable for variable, located in order.items() if located)
        self.free = tuple(variable for variable, located in order.items() if not located)
        self._shapes: Dict[Tuple, Shape] = {}

    @classmethod
    def of(cls, rule: Rule, index: int) -> "Split":
        """The split of ``rule`` at body position ``index``, built once."""
        split = rule.splits.get(index)
        if split is None:
            split = rule.splits[index] = cls(rule, index)
        return split

    def bind(self, delegator: str, target: str, substitution: Substitution,
             shapes: Dict[str, Shape]) -> Fact:
        """The binding the walk's ``substitution`` delegates to ``target``;
        its shape is built the first time it is met, and filed in ``shapes``."""
        located = tuple([substitution[variable].value for variable in self.located])
        key = (delegator, target, located)
        shape = self._shapes.get(key)
        if shape is None:
            shape = self._shapes[key] = Shape(self, delegator, target, located)
        shapes[shape.name] = shape
        return Fact(shape.relation, target,
                    tuple([substitution[variable].value for variable in self.free]))


class Delegation:
    """One binding as its delegator sends it, with its shape (``None`` for
    one a reopened peer had out under a shape it has not met since).  The
    rule it stands for is built only when asked for."""

    __slots__ = ("binding", "shape")

    def __init__(self, binding: Fact, shape: Optional[Shape]):
        self.binding = binding
        self.shape = shape

    @property
    def target(self) -> str:
        """The peer the delegation is installed at."""
        return self.binding.peer

    @property
    def delegator(self) -> str:
        """The peer that sends the delegation."""
        return self.shape.delegator

    @property
    def rule(self) -> Rule:
        """The delegated rule the binding stands for."""
        return stands_for(self.shape.template, self.binding.values, self.target)

    def __repr__(self) -> str:
        return f"Delegation({self.binding})"


@dataclass(frozen=True)
class InstalledDelegation:
    """A delegation as seen by the *receiving* peer: a template as held
    (``delegation_id`` its shape, ``rule`` the template), or one binding
    as shown (``rule`` the delegated rule it stands for)."""

    delegation_id: str
    delegator: str
    rule: Rule

    def __str__(self) -> str:
        return f"[from {self.delegator}] {self.rule}"


@dataclass
class DelegationDiff:
    """Difference between the bindings required now and those already sent:
    the templates the targets must learn first, the bindings to install and
    retract, and the ``(target, shape)`` templates no rule will bind again."""

    templates: List[Shape] = field(default_factory=list)
    to_install: List[Delegation] = field(default_factory=list)
    to_retract: List[Delegation] = field(default_factory=list)
    retired: List[Tuple[str, str]] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.to_install or self.to_retract or self.retired)

    def counts(self) -> Tuple[int, int]:
        """``(installs, retracts)``."""
        return len(self.to_install), len(self.to_retract)


def _order(binding: Fact) -> Tuple[str, str, str]:
    """A deterministic order of bindings that keeps no rendering alive
    (``repr`` tells ``1``, ``True`` and ``1.0`` apart)."""
    return binding.relation, binding.peer, repr(binding.values)


class DelegationTracker:
    """The bindings this peer has out, and the templates each target holds.

    The engine computes the full set of bindings required by the current
    stage; :meth:`diff` compares it with the outstanding set and returns what
    must be newly installed and retracted.  :meth:`commit` records the new
    outstanding set once the messages have actually been emitted.
    ``shapes`` holds every shape this peer's rules delegated, by name.
    """

    def __init__(self, owner: str):
        self.owner = owner
        self.shapes: Dict[str, Shape] = {}
        self._outstanding: Set[Fact] = set()
        # The templates sent: their target, by binding relation.
        self._templates: Dict[str, str] = {}
        # The delegating rule (:func:`rule_key`) of each template restored
        # from disk, whose shape this process has not met.
        self._written: Dict[str, Tuple] = {}
        # Set when rules left the program (or templates were restored): the
        # next :meth:`retire` checks every template sent.
        self._recheck = False
        # Set by :meth:`restore`: the next diff installs every required
        # binding (and its template) again, since what was in flight at the
        # last commit is lost.
        self._resend = False

    def restore(self, bindings: Iterable[Fact], templates: Iterable[Fact] = ()) -> None:
        """Take back what a previous process had outstanding (a reopened
        durable peer): the next diff retracts what is no longer required
        and installs everything required, already outstanding or not, and
        the first :meth:`retire` retires the ``templates`` (their
        :data:`SENT_TEMPLATE` records) whose rule is gone."""
        self._outstanding.update(bindings)
        for record in templates:
            relation = binding_relation(record.values[0])
            self._templates[relation] = record.peer
            self._written[relation] = record.values[1:]
        self._recheck = True
        self._resend = True

    def outstanding(self) -> Tuple[Delegation, ...]:
        """Every delegation currently believed to be installed remotely."""
        return tuple(Delegation(binding, self.shapes.get(shape_of(binding.relation)))
                     for binding in sorted(self._outstanding, key=_order))

    def outstanding_for(self, target: str) -> Tuple[Delegation, ...]:
        """Outstanding delegations for one target peer."""
        return tuple(d for d in self.outstanding() if d.target == target)

    def diff(self, required: Set[Fact]) -> DelegationDiff:
        """Compare ``required`` with the outstanding set.  A template whose
        bindings all go is listed in ``retired`` only if its shape is no
        longer one of this peer's (see :meth:`retire`).

        Raises :class:`~repro.core.errors.DelegationError` for a binding of
        a shape another peer delegates: a peer sends only its own."""
        installs = required if self._resend else required - self._outstanding
        retracts = self._outstanding - required
        shapes = self.shapes
        diff = DelegationDiff(
            to_install=[Delegation(binding, shapes[shape_of(binding.relation)])
                        for binding in sorted(installs, key=_order)],
            to_retract=[Delegation(binding, shapes.get(shape_of(binding.relation)))
                        for binding in sorted(retracts, key=_order)])
        for delegation in diff.to_install:
            if delegation.shape.delegator != self.owner:
                raise DelegationError(
                    f"peer {self.owner} cannot send {delegation.binding}, a delegation "
                    f"of {delegation.shape.delegator}")
        sent = () if self._resend else self._templates
        fresh = {binding.relation for binding in installs if binding.relation not in sent}
        diff.templates = sorted((self.shapes[shape_of(relation)]
                                 for relation in fresh), key=lambda shape: shape.name)
        if retracts:
            kept = {binding.relation for binding in required}
            diff.retired = sorted({(binding.peer, shape_of(binding.relation)) for binding in retracts
                                   if binding.relation not in kept})
        return diff

    def rules_removed(self) -> None:
        """Rules left the program: the next :meth:`retire` checks whether a
        template sent lost its rule."""
        self._recheck = True

    def needs_retire(self) -> bool:
        """Whether rules left the program since :meth:`retire` last looked,
        with templates out that may have lost their rule."""
        return self._recheck and bool(self._templates)

    def retire(self, diff: DelegationDiff, live_rules: Sequence[Rule]) -> None:
        """Keep in ``diff.retired`` only the templates whose rule is not
        among ``live_rules``: a live rule may bind its shape again.  After
        rules left the program (:meth:`rules_removed`) add every template
        sent whose rule is gone, though none of its bindings went with this
        diff (they went while the rule was live, or before a reopen).

        A rule is matched by content, so an equal rule added again keeps
        the templates its twin sent; a template restored from disk is
        matched by its record (:func:`rule_key`)."""
        changed = self.needs_retire()
        self._recheck = False
        if not (diff.retired or changed):
            return
        live = {id(rule) for rule in live_rules}
        equal: Optional[Set[Rule]] = None
        written: Optional[Set[Tuple]] = None

        def gone(relation: str) -> bool:
            nonlocal equal, written
            shape = self.shapes.get(shape_of(relation))
            if shape is not None:
                if id(shape.rule) in live:
                    return False
                if equal is None:
                    equal = set(live_rules)
                return shape.rule not in equal
            if relation not in self._written:
                return True
            if written is None:
                written = {rule_key(rule) for rule in live_rules}
            return self._written[relation] not in written

        retired = {(target, name) for target, name in diff.retired
                   if gone(binding_relation(name))}
        if changed:
            retired.update((target, shape_of(relation))
                           for relation, target in self._templates.items() if gone(relation))
        diff.retired = sorted(retired)

    def commit(self, diff: DelegationDiff) -> Tuple[List[Fact], List[Fact]]:
        """Record that ``diff``'s messages have been sent; returns the
        :data:`SENT_TEMPLATE` records of the templates it sent and of those
        it retired."""
        self._resend = False
        self._outstanding.difference_update(d.binding for d in diff.to_retract)
        self._outstanding.update(d.binding for d in diff.to_install)
        sent = []
        for shape in diff.templates:
            self._templates[shape.relation] = shape.target
            self._written.pop(shape.relation, None)
            sent.append(Fact(SENT_TEMPLATE, shape.target, (shape.name, *shape.split.content[:3])))
        retired = []
        for target, name in diff.retired:
            relation = binding_relation(name)
            if self._templates.pop(relation, None) is None:
                continue
            shape = self.shapes.get(name)
            key = shape.split.content[:3] if shape is not None else self._written.pop(relation)
            retired.append(Fact(SENT_TEMPLATE, target, (name, *key)))
        return sent, retired


class DelegationStore:
    """The templates held at this peer, by shape, and which of them are in
    the program (*active*).

    A template is learned when it arrives and enters the program with its
    first admitted binding; it stays there while its shape may be bound
    again, so re-binding it changes no rule.  It leaves the program when its
    delegator retires it, or when, bound to nothing, it stands in the way of
    a change that would otherwise close a cycle through negation."""

    def __init__(self, owner: str):
        self.owner = owner
        self._held: Dict[str, InstalledDelegation] = {}
        self._active: Set[str] = set()
        # Shapes of rules delegated whole (no binding literal).
        self._whole: Set[str] = set()
        # The active templates and their rules in shape order, rebuilt after
        # a change: every stage, and every binding received, asks for them.
        self._ordered: Optional[Tuple[Tuple[InstalledDelegation, ...],
                                      Tuple[Rule, ...]]] = None

    def __len__(self) -> int:
        return len(self._active)

    def __contains__(self, shape: str) -> bool:
        return shape in self._held

    def get(self, shape: str) -> Optional[InstalledDelegation]:
        """The template held for ``shape``, or ``None``."""
        return self._held.get(shape)

    def learn(self, shape: str, delegator: str, rule: Rule, whole: bool = False) -> bool:
        """Hold a template (not yet in the program); ``False`` when nothing
        changed.  ``whole``: a rule delegated whole, a template with no
        binding literal, in the program exactly while installed.

        A held shape is never handed to another delegator, and a template
        is never changed: a shape's name is its delegator's digest of the
        rule, split point and located values, so another template under a
        held name is forged, and would run over bindings admitted for the
        held one.  Only a rule delegated whole may be replaced by its own
        delegator: it reaches here through the controller's trust check and
        the engine's stratification check."""
        held = self._held.get(shape)
        if held is not None and (held.delegator != delegator or held.rule == rule
                                 or not (whole and shape in self._whole)):
            return False
        self._held[shape] = InstalledDelegation(shape, delegator, rule)
        if whole:
            self._whole.add(shape)
        else:
            self._whole.discard(shape)
        if shape in self._active:
            self._ordered = None
        return True

    def holds(self, shape: str, delegator: str, rule: Rule) -> bool:
        """``True`` when the template held for ``shape`` is ``delegator``'s
        ``rule``."""
        held = self._held.get(shape)
        return held is not None and held.delegator == delegator and held.rule == rule

    def is_whole(self, shape: str) -> bool:
        """``True`` when ``shape`` is a rule delegated whole."""
        return shape in self._whole

    def is_active(self, shape: str) -> bool:
        """``True`` when the template of ``shape`` is in the program."""
        return shape in self._active

    def activate(self, shape: str) -> None:
        """Put a held template in the program."""
        self._active.add(shape)
        self._ordered = None

    def deactivate(self, shape: str) -> None:
        """Take a template out of the program, still holding it."""
        self._active.discard(shape)
        self._ordered = None

    def forget(self, shape: str) -> Optional[InstalledDelegation]:
        """Drop a template altogether; returns it if it was held."""
        self.deactivate(shape)
        self._whole.discard(shape)
        return self._held.pop(shape, None)

    def active(self) -> Tuple[InstalledDelegation, ...]:
        """The templates in the program, in shape order."""
        return self._ordering()[0]

    def rules(self) -> Tuple[Rule, ...]:
        """The active templates' rules, in a deterministic order."""
        return self._ordering()[1]

    def _ordering(self) -> Tuple[Tuple[InstalledDelegation, ...], Tuple[Rule, ...]]:
        if self._ordered is None:
            active = tuple(self._held[shape] for shape in sorted(self._active))
            self._ordered = (active, tuple(held.rule for held in active))
        return self._ordered
