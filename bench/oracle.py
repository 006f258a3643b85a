"""Pure-Python reference models, one per workload family.

Each oracle is stepped with the same op the program just ran and answers
"what should every dependent view hold now?" with nothing but dicts, sets and
a breadth-first search — no engine, no SQL, nothing imported from ``repro``.
The op generators step a private copy of the same model to know which ops
are valid (which pictures exist, who is selected, which bridges are up), so
an op list is fully determined by the seed before the program sees it.

Semantics worth knowing (each checked against the program, not assumed):

* a fact a rule derives into another peer's *extensional* relation is
  insert-only there — ``pictures@sigmod``, ``wepic@x`` and ``email@x`` keep
  what they received after the source retracts;
* the ACL hides a derived fact from a viewer unless the viewer may read
  **every** base relation anywhere in its lineage (all alternative
  derivations included).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple


# ---------------------------------------------------------------------- #
# Wepic frames as set algebra
# ---------------------------------------------------------------------- #

Picture = Tuple[int, str, str, str]          # id, name, owner, data


class WepicOracle:
    """Attendee frames of the Figure-2 deployment."""

    def __init__(self, attendees: Iterable[str], protocols: Dict[str, str]):
        self.attendees = tuple(attendees)
        self.protocol = dict(protocols)
        self.pictures: Dict[str, Set[Picture]] = {a: set() for a in self.attendees}
        self.selected: Dict[str, Set[str]] = {a: set() for a in self.attendees}
        self.rates: Dict[str, Set[Tuple[int, int]]] = {a: set() for a in self.attendees}
        self.marks: Dict[str, Set[Tuple[str, int, str]]] = {a: set() for a in self.attendees}
        self.sigmod: Set[Picture] = set()
        #: insert-only deliveries of the transfer rule, per recipient
        self.delivered: Dict[str, Set[Tuple[str, int, str]]] = {a: set() for a in self.attendees}

    # -- ops -------------------------------------------------------------- #

    def upload(self, attendee: str, picture: Picture) -> None:
        self.pictures[attendee].add(picture)
        self.sigmod.add(picture)

    def remove(self, attendee: str, picture_id: int) -> None:
        self.pictures[attendee] = {p for p in self.pictures[attendee]
                                   if p[0] != picture_id}

    def rate(self, picture_id: int, rating: int, owner: str) -> None:
        """A rating lands in ``rate@owner`` (whoever gave it)."""
        self.rates[owner].add((picture_id, rating))

    def select(self, attendee: str, other: str) -> None:
        self.selected[attendee].add(other)
        self._route(attendee)

    def deselect(self, attendee: str, other: str) -> None:
        self.selected[attendee].discard(other)

    def mark_for_transfer(self, attendee: str, picture: Picture) -> None:
        self.marks[attendee].add((picture[1], picture[0], picture[2]))
        self._route(attendee)

    def _route(self, sender: str) -> None:
        for recipient in self.selected[sender]:
            self.delivered[recipient] |= self.marks[sender]

    # -- frames ------------------------------------------------------------ #

    def attendee_pictures(self, attendee: str) -> Set[Picture]:
        frame: Set[Picture] = set()
        for other in self.selected[attendee]:
            frame |= self.pictures[other]
        return frame

    def attendee_ratings(self, attendee: str) -> Set[Tuple[int, int]]:
        frame: Set[Tuple[int, int]] = set()
        for other in self.selected[attendee]:
            frame |= self.rates[other]
        return frame

    def ranking(self, attendee: str) -> List[Tuple[Picture, float, int]]:
        """The ranking page: the frame ordered by average gathered rating.

        Ratings come from the selected attendees' ``rate`` relations plus the
        attendee's own; unrated pictures close the list with an average of 0.
        """
        stars: Dict[int, List[int]] = {}
        for picture_id, rating in (list(self.attendee_ratings(attendee))
                                   + list(self.rates[attendee])):
            stars.setdefault(picture_id, []).append(rating)
        page = []
        for picture in self.attendee_pictures(attendee):
            given = stars.get(picture[0], [])
            page.append((picture, sum(given) / len(given) if given else 0.0, len(given)))
        page.sort(key=lambda row: (-row[1], -row[2], row[0][2], row[0][0]))
        return page

    def received(self, attendee: str, protocol: str) -> Set[Tuple[str, str, int, str]]:
        """Rows of ``<protocol>@attendee`` the transfer rule has produced."""
        if self.protocol[attendee] != protocol:
            return set()
        return {(attendee,) + mark for mark in self.delivered[attendee]}

    def explain_bases(self, attendee: str, picture: Picture) -> Optional[FrozenSet[str]]:
        """Base relations ``explain(attendeePictures@attendee(picture))`` must name.

        The remote ``pictures`` relations the picture is gathered from
        (``None`` when it is not in the frame at all).  The local
        ``selectedAttendee`` fact that caused the delegation is part of the
        story too, but the program's lineage stops at the delegated rule, so
        it is not required here (recorded in the README).
        """
        sources = [o for o in self.selected[attendee] if picture in self.pictures[o]]
        if not sources:
            return None
        return frozenset(f"pictures@{source}" for source in sources)

    def snapshot(self) -> Dict[str, Set[tuple]]:
        """Every modelled relation, keyed ``relation@peer``."""
        state: Dict[str, Set[tuple]] = {"pictures@sigmod": set(self.sigmod)}
        for a in self.attendees:
            state[f"pictures@{a}"] = set(self.pictures[a])
            state[f"selectedAttendee@{a}"] = {(o,) for o in self.selected[a]}
            state[f"rate@{a}"] = set(self.rates[a])
            state[f"selectedPictures@{a}"] = set(self.marks[a])
            state[f"attendeePictures@{a}"] = self.attendee_pictures(a)
            state[f"attendeeRatings@{a}"] = self.attendee_ratings(a)
            state[f"wepic@{a}"] = self.received(a, "wepic")
        return {name: rows for name, rows in state.items() if rows}


# ---------------------------------------------------------------------- #
# the rating board: group-by without SQL
# ---------------------------------------------------------------------- #

class BoardOracle:
    """``rate(user, picture, stars)`` + ``hidden(picture)`` and the four pages."""

    def __init__(self, focus: str):
        self.focus = focus
        self.by_picture: Dict[int, Dict[str, int]] = {}
        self.by_user: Dict[str, Dict[int, int]] = {}
        self.hidden: Set[int] = set()

    def __len__(self) -> int:
        return sum(len(ratings) for ratings in self.by_user.values())

    def has(self, user: str, picture: int) -> bool:
        return picture in self.by_user.get(user, ())

    def insert(self, user: str, picture: int, stars: int) -> None:
        self.by_picture.setdefault(picture, {})[user] = stars
        self.by_user.setdefault(user, {})[picture] = stars

    def delete(self, user: str, picture: int) -> None:
        del self.by_picture[picture][user]
        del self.by_user[user][picture]
        if not self.by_picture[picture]:
            del self.by_picture[picture]
        if not self.by_user[user]:
            del self.by_user[user]

    def hide(self, picture: int) -> None:
        self.hidden.add(picture)

    # -- pages -------------------------------------------------------------- #

    def board(self) -> Set[tuple]:
        return {(picture, sum(r.values()) / len(r), len(r))
                for picture, r in self.by_picture.items()}

    def profile(self) -> Set[tuple]:
        return {(user, min(r.values()), max(r.values()), len(r))
                for user, r in self.by_user.items()}

    def wall(self) -> Set[tuple]:
        return {(picture, stars)
                for picture, stars in self.by_user.get(self.focus, {}).items()
                if picture not in self.hidden}

    def agree(self) -> Set[tuple]:
        return {(picture, other)
                for picture, stars in self.by_user.get(self.focus, {}).items()
                for other, theirs in self.by_picture[picture].items()
                if theirs == stars}

    def ratings_of(self, user: str) -> Set[tuple]:
        return set(self.by_user.get(user, {}).items())

    def page(self, name: str) -> Set[tuple]:
        return getattr(self, name)()


# ---------------------------------------------------------------------- #
# reachability by breadth-first search
# ---------------------------------------------------------------------- #

class ReachOracle:
    """``reach`` over ``edge`` (public) and ``bridge`` (restricted) edges."""

    def __init__(self):
        self.edges: Set[Tuple[str, str]] = set()
        self.bridges: Set[Tuple[str, str]] = set()
        self._closure: Optional[Dict[str, Set[str]]] = None
        self._taint: Dict[str, Set[Tuple[str, str]]] = {}

    def _changed(self) -> None:
        self._closure = None
        self._taint.clear()

    def add_edge(self, source: str, target: str) -> None:
        self.edges.add((source, target))
        self._changed()

    def add_bridge(self, source: str, target: str) -> None:
        self.bridges.add((source, target))
        self._changed()

    def remove_bridge(self, source: str, target: str) -> None:
        self.bridges.discard((source, target))
        self._changed()

    def closure(self) -> Dict[str, Set[str]]:
        """``node -> every node reachable in one or more steps``."""
        if self._closure is None:
            successors: Dict[str, List[str]] = {}
            for source, target in self.edges | self.bridges:
                successors.setdefault(source, []).append(target)
            closure: Dict[str, Set[str]] = {}
            for start in successors:
                seen: Set[str] = set()
                queue = deque(successors[start])
                while queue:
                    node = queue.popleft()
                    if node in seen:
                        continue
                    seen.add(node)
                    queue.extend(successors.get(node, ()))
                closure[start] = seen
            self._closure = closure
        return self._closure

    def reach(self) -> Set[Tuple[str, str]]:
        return {(source, target) for source, targets in self.closure().items()
                for target in targets}

    def reach_from(self, source: str) -> Set[Tuple[str]]:
        return {(target,) for target in self.closure().get(source, ())}

    def _tainted(self, relation: str) -> Set[Tuple[str, str]]:
        """Pairs with a ``relation`` fact on *some* path between them."""
        if relation in self._taint:
            return self._taint[relation]
        edges = self.bridges if relation == "bridge" else self.edges
        closure = self.closure()
        ancestors: Dict[str, Set[str]] = {}
        for source, targets in closure.items():
            for target in targets:
                ancestors.setdefault(target, set()).add(source)
        pairs: Set[Tuple[str, str]] = set()
        for head, tail in edges:
            before = ancestors.get(head, set()) | {head}
            after = closure.get(tail, set()) | {tail}
            pairs.update((source, target) for source in before for target in after)
        self._taint[relation] = pairs
        return pairs

    def bases(self, source: str, target: str) -> FrozenSet[str]:
        """Base relations used by *any* path from ``source`` to ``target``."""
        pair = (source, target)
        return frozenset(name for name in ("edge", "bridge")
                         if pair in self._tainted(name))

    def visible_without(self, relation: str) -> Set[Tuple[str, str]]:
        """``reach`` facts with no ``relation`` fact anywhere in their lineage."""
        return self.reach() - self._tainted(relation)


# ---------------------------------------------------------------------- #
# envelope coverage for the gossip overlay
# ---------------------------------------------------------------------- #

class GossipOracle:
    """Who is up, and which payload each recipient is still owed."""

    def __init__(self, nodes: Iterable[str]):
        self.live: Set[str] = set(nodes)
        self.ever: Set[str] = set(self.live)
        self.owed: Dict[str, Set[str]] = {}
        self.delivered = 0

    def submit(self, recipient: str, payload: str) -> None:
        self.owed.setdefault(recipient, set()).add(payload)

    def deliver(self, recipient: str, payloads: Iterable[str]) -> bool:
        """``True`` when every payload was owed to ``recipient`` exactly once."""
        owed = self.owed.get(recipient, set())
        ok = True
        for payload in payloads:
            if payload in owed:
                owed.discard(payload)
                self.delivered += 1
            else:
                ok = False
        return ok

    def outstanding(self) -> int:
        return sum(len(owed) for owed in self.owed.values())

    def replace(self, victim: str, joiner: str) -> None:
        self.live.discard(victim)
        self.live.add(joiner)
        self.ever.add(joiner)

    def roster_ok(self, owner: str, roster: Dict[str, str]) -> bool:
        """A node's membership view names every live node and nobody unknown."""
        names = set(roster) | {owner}
        return self.live <= names and names <= self.ever
