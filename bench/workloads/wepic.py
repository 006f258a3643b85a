"""``wepic_fanout`` and ``lossy_mesh``: the paper's own scenario, twice.

Both run the *same* generator on the same seed over the Figure-2 topology
grown to twelve attendees plus ``sigmod`` and ``SigmodFB`` (email and Facebook
wrappers attached): ``lossy_mesh`` starts from the identical deployment and
replays a prefix of ``wepic_fanout``'s op list.  ``wepic_fanout`` leaves every
mode at the program's default on a lossless transport; ``lossy_mesh`` names
causal replication and provenance, loses 3 % of the messages, duplicates
10 %, reorders within a window of four, and adds ``explain()`` ops (drawn
from a stream of their own).  The difference between the two *is* the price of
replication + provenance on the runtime's update path.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.api import InMemoryTransport, NetEventLog
from repro.core.facts import Fact
from repro.wepic import Picture

from bench import deploy
from bench.oracle import WepicOracle
from bench.workloads.base import (EXPLAIN, READ, RETRACT, UPDATE, Op, Seen, Workload,
                                  exact_mix)

SIGMOD = deploy.SIGMOD_PEER


class WepicFanout(Workload):
    name = "wepic_fanout"
    family = "wepic"
    ops_per_second = 43.0
    min_ops = 30

    attendees = 12
    pictures_each = 5
    selections_each = 4
    causal = False
    provenance = False
    #: op mix — upload/rate/select are insert-type updates, deselect/remove retracts
    mix = (("upload", 38), ("rate", 27), ("select", 4), ("deselect", 4),
           ("remove", 5), ("read", 40), ("transfer", 2))
    # a read is the ranking page: the attendee-pictures frame ordered by the
    # ratings gathered from the selected attendees
    explain_every = 0

    # -- generation ----------------------------------------------------------- #

    def _picture(self, picture_id: int, owner: str) -> tuple:
        data = "".join(self.rng.choice("01") for _ in range(64))
        return (picture_id, f"pic{picture_id}.jpg", owner, data)

    def generate(self) -> None:
        """Stratified on everything that sets an op's cost.

        The seed decides who is who, which picture, which rating, and the
        order of the ops; it does not decide how much fan-out an op meets.
        Every attendee starts selected by exactly ``selections_each`` others
        (a ring), acts equally often in every op kind (round robin over a
        seeded permutation), and select/deselect keep the in-degrees level —
        so two seeds differ in content, not in load.
        """
        rng = self.rng
        explain_rng = random.Random(f"explain/{self.seed}")
        names = [f"att{i:02d}" for i in range(self.scaled(self.attendees, floor=4))]
        protocols = {name: ("wepic", "email")[i % 2] for i, name in enumerate(names)}
        model = WepicOracle(names, protocols)
        next_id = 1
        libraries: Dict[str, List[tuple]] = {}
        for name in names:
            libraries[name] = []
            for _ in range(self.pictures_each):
                picture = self._picture(next_id, name)
                next_id += 1
                libraries[name].append(picture)
                model.upload(name, picture)
        ring = list(names)
        rng.shuffle(ring)
        reach = min(self.selections_each, len(names) - 2)
        selections = {}
        for index, name in enumerate(ring):
            selections[name] = sorted(ring[(index + step) % len(ring)]
                                      for step in range(1, reach + 1))
            for other in selections[name]:
                model.select(name, other)
        self.initial = {"attendees": names, "protocols": protocols,
                        "libraries": libraries, "selections": selections}

        rotations: Dict[str, List[str]] = {}

        def turn(role: str, fit=lambda name: True) -> str:
            """Next attendee in ``role``'s rotation for whom ``fit`` holds."""
            for _ in range(2 * len(names)):
                if not rotations.get(role):
                    rotations[role] = rng.sample(names, len(names))
                name = rotations[role].pop()
                if fit(name):
                    return name
            raise RuntimeError(f"nobody fits {role}")

        def watchers(name: str) -> int:
            return sum(1 for chosen in model.selected.values() if name in chosen)

        ops: List[Op] = []
        rated = set()
        # Always wepic_fanout's whole list, whichever of the two this is.
        # Page reads get dearer as the frames fill up: evenly spaced, so their
        # median does not depend on where a seed dropped them.
        for kind in exact_mix(self.op_count(WepicFanout.ops_per_second), self.mix, rng,
                              rare=("read",)):
            if kind == "upload":
                who = turn(kind)
                picture = self._picture(next_id, who)
                next_id += 1
                model.upload(who, picture)
                ops.append(Op(UPDATE, "upload", (who, picture)))
            elif kind == "rate":
                # A (picture, rating) pair is used once and stored at the
                # owner's peer only: the same view fact provided by two
                # delegates vanishes when either retracts (see README).
                owner = turn("rated", lambda n: any(
                    (p[0], r) not in rated for p in model.pictures[n] for r in range(1, 6)))
                picture_id, rating = rng.choice(sorted(
                    (p[0], r) for p in model.pictures[owner] for r in range(1, 6)
                    if (p[0], r) not in rated))
                rated.add((picture_id, rating))
                model.rate(picture_id, rating, owner)
                ops.append(Op(UPDATE, "rate", (turn(kind), picture_id, rating, owner)))
            elif kind == "select":
                who = turn(kind, lambda n: len(model.selected[n]) < len(names) - 1)
                free = [n for n in names if n != who and n not in model.selected[who]]
                fewest = min(watchers(n) for n in free)
                other = rng.choice([n for n in free if watchers(n) == fewest])
                model.select(who, other)
                ops.append(Op(UPDATE, "select", (who, other)))
            elif kind == "deselect":
                who = turn(kind, lambda n: len(model.selected[n]) > 1)
                most = max(watchers(n) for n in model.selected[who])
                other = rng.choice(sorted(n for n in model.selected[who]
                                          if watchers(n) == most))
                model.deselect(who, other)
                ops.append(Op(RETRACT, "deselect", (who, other)))
            elif kind == "remove":
                who = turn(kind, lambda n: len(model.pictures[n]) > 2)
                picture = rng.choice(sorted(model.pictures[who]))
                model.remove(who, picture[0])
                ops.append(Op(RETRACT, "remove", (who, picture[0])))
            elif kind == "read":
                ops.append(Op(READ, "read", (turn(kind),)))
            elif kind == "transfer":
                who = turn(kind, lambda n: bool(model.pictures[n]))
                picture = rng.choice(sorted(model.pictures[who]))
                model.mark_for_transfer(who, picture)
                ops.append(Op(UPDATE, "transfer", (who, picture)))
            if self.explain_every and len(ops) % self.explain_every == 0:
                framed = [(n, p) for n in names
                          for p in sorted(model.attendee_pictures(n))]
                viewer, picture = explain_rng.choice(framed)
                ops.append(Op(EXPLAIN, "explain", (viewer, picture)))
        self.ops = ops[:self.op_count()]

    def sizes(self) -> Dict[str, object]:
        return {"attendees": len(self.initial["attendees"]), "peers": len(self.initial["attendees"]) + 2,
                "pictures_each": self.pictures_each, "selections_each": self.selections_each,
                "ops": len(self.ops)}

    # -- set-up ------------------------------------------------------------------ #

    def make_transport(self):
        return InMemoryTransport()

    def setup(self) -> None:
        init = self.initial
        self.events: Optional[NetEventLog] = None
        self.site = deploy.build_wepic(
            init["attendees"], self.make_transport(),
            causal=self.causal, provenance=self.provenance)
        self.api = self.site.api
        self.oracle = WepicOracle(init["attendees"], init["protocols"])
        for name in init["attendees"]:
            app = self.site.apps[name]
            app.set_protocol(init["protocols"][name])
            for picture in init["libraries"][name]:
                app.upload_picture(picture=Picture(*picture))
                self.oracle.upload(name, tuple(picture))
            for other in init["selections"][name]:
                app.select_attendee(other)
                self.oracle.select(name, other)
        self.sigmod_wall = self.api.query(SIGMOD, "pictures")
        self.api.converge()

    def begin_measured(self) -> None:
        self.before = self.counters()

    def teardown(self) -> None:
        self.api.close()

    def modes(self) -> Dict[str, object]:
        modes = deploy.resolved_modes(self.api)
        modes["requested"] = dict(self.site.requested)
        return modes

    # -- the timed part ------------------------------------------------------------ #

    def apply(self, op: Op) -> Seen:
        kind, args = op.kind, op.args
        app = self.site.apps[args[0]]
        if kind == "read":
            return Seen(answer=app.ranked_attendee_pictures())
        if kind == "explain":
            picture = args[1]
            fact = Fact("attendeePictures", args[0], tuple(picture))
            return Seen(answer=self.api.explain(args[0], fact))
        if kind == "upload":
            app.upload_picture(picture=Picture(*args[1]))
        elif kind == "rate":
            if args[3] == args[0]:
                app.rate_picture(args[1], args[2])
            else:
                self.api.peer(args[0]).insert(Fact("rate", args[3], (args[1], args[2])))
        elif kind == "select":
            app.select_attendee(args[1])
        elif kind == "deselect":
            app.deselect_attendee(args[1])
        elif kind == "remove":
            app.remove_picture(args[1])
        elif kind == "transfer":
            app.select_picture_for_transfer(Picture(*args[1]))
        return Seen().absorb(self.api.converge())

    # -- the untimed part ------------------------------------------------------------ #

    def check(self, op: Op, seen: Seen) -> bool:
        oracle, kind, args = self.oracle, op.kind, op.args
        if kind == "read":
            page = [(_row(entry.picture), entry.average_rating, entry.rating_count)
                    for entry in seen.answer]
            return page == oracle.ranking(args[0])
        if kind == "explain":
            expected = oracle.explain_bases(args[0], tuple(args[1]))
            story = seen.answer
            return (expected is not None and story.derived
                    and expected <= set(story.base_relations))
        if kind == "upload":
            oracle.upload(args[0], tuple(args[1]))
        elif kind == "rate":
            oracle.rate(*args[1:])
        elif kind == "select":
            oracle.select(*args)
        elif kind == "deselect":
            oracle.deselect(*args)
        elif kind == "remove":
            oracle.remove(*args)
        elif kind == "transfer":
            oracle.mark_for_transfer(args[0], tuple(args[1]))
        return seen.converged and self.frames_match()

    def frames_match(self) -> bool:
        """Every attendee's frames, the sigmod wall and the transfer inboxes."""
        oracle = self.oracle
        for name, app in self.site.apps.items():
            if _picture_rows(app.attendee_pictures()) != oracle.attendee_pictures(name):
                return False
            if {f.values for f in app.gathered_ratings()} != oracle.attendee_ratings(name):
                return False
            if {f.values for f in app.received_transfers()} != oracle.received(name, "wepic"):
                return False
            mailbox = self.site.email.inbox_size(f"{name}@wepic.example")
            if mailbox != len(oracle.received(name, "email")):
                return False
        return set(self.sigmod_wall.rows()) == oracle.sigmod

    def final_check(self) -> bool:
        """The whole deployment equals the oracle's replay, relation by relation."""
        expected = self.oracle.snapshot()
        actual: Dict[str, set] = {}
        for relations in self.api.snapshot().values():
            for name, facts in relations.items():
                actual.setdefault(name, set()).update(f.values for f in facts)
        return all(actual.get(name, set()) == rows for name, rows in expected.items())

    # -- counts ------------------------------------------------------------------------ #

    def counters(self) -> Dict[str, float]:
        """Running totals the deployment keeps since it was built."""
        totals = {"dropped": self.api.stats.messages_dropped,
                  "duplicated": (len(self.events.events(action="dup"))
                                 if self.events is not None else 0)}
        replication = deploy.replication_counters(self.api)
        for key in ("ops_sent", "ops_assigned", "digests_sent", "pulls_sent", "acks_sent"):
            totals[key] = replication.get(key, 0)
        return totals

    def layer_counts(self) -> Dict[str, Optional[float]]:
        now = self.counters()
        since = {key: now[key] - self.before[key] for key in now}
        sent = since["ops_sent"]
        return {
            "runtime.msgs_dropped": since["dropped"],
            "runtime.msgs_duplicated": since["duplicated"],
            "provenance.derivations_live": deploy.provenance_derivations(self.api) or 0,
            "replication.ops_sent": sent,
            "replication.retransmit_share":
                (1.0 - since["ops_assigned"] / sent) if sent else 0.0,
            "replication.digests": since["digests_sent"],
            "replication.pulls": since["pulls_sent"],
            "replication.acks": since["acks_sent"],
        }


class LossyMesh(WepicFanout):
    name = "lossy_mesh"
    ops_per_second = 27.0
    causal = True
    provenance = True
    explain_every = 10

    def make_transport(self):
        # The event log only feeds the traced run's duplicate count.
        self.events = NetEventLog() if self.traced else None
        # At a loss of 0.1 two updates in three wait for a retransmission and
        # the median update sits on the edge between 8 and 10 rounds: its
        # seed-to-seed spread was 11 % in stage counts alone.  At 0.03 three in
        # four go straight through (4 rounds on every seed) and the
        # retransmissions are the tail: ops_per_s, update_p95_ms, rounds.
        return InMemoryTransport(loss_probability=0.03, duplicate_probability=0.1,
                                 reorder_window=4, seed=self.seed,
                                 event_log=self.events)


def _row(picture) -> tuple:
    return (picture.picture_id, picture.name, picture.owner, picture.data)


def _picture_rows(pictures) -> set:
    return {_row(picture) for picture in pictures}
