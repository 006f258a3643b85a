"""``hub_board`` and ``durable_hub``: one big store, reads beside writes.

One hub peer holds Zipf-skewed ``rate(user, picture, stars)`` facts and keeps
four standing live views open — an avg/count board, a min/max/count profile,
a join-with-negation wall and a self-join "who agrees with me" page.  The op
list inserts and deletes ratings, reads the standing views, and opens ad-hoc
bound-argument views (open, converge, read, close).

``durable_hub`` is the same generator at the same size on durable SQLite with
stage-boundary commits, plus crashes in the middle of the run: an
uncommitted insert, ``abort()``, reopen, re-converge, first selective answer
(several, so ``recovery_s`` is a median).
Same layer (``store``) used differently, so a gain for the memory backend
that costs SQLite — or the reverse — shows.
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict, List, Optional

from repro.core.facts import Fact
from repro.workloads.generator import ZipfSampler

from bench import deploy
from bench.metrics import median
from bench.oracle import BoardOracle
from bench.workloads.base import (CHURN, READ, RETRACT, UPDATE, VIEW_OPEN, Op, Seen,
                                  Workload, exact_mix)

HUB = "hub"
FOCUS = "u0"
PROGRAM = f"""
collection extensional persistent rate@{HUB}(user, id, stars);
collection extensional persistent hidden@{HUB}(id);
"""
PAGES = {
    "board": f"board($id, avg($stars), count($stars)) :- rate@{HUB}($user, $id, $stars)",
    "profile": f"profile($user, min($stars), max($stars), count($stars)) :- "
               f"rate@{HUB}($user, $id, $stars)",
    "wall": f'wall($id, $stars) :- rate@{HUB}("{FOCUS}", $id, $stars), '
            f"not hidden@{HUB}($id)",
    "agree": f'agree($id, $other) :- rate@{HUB}("{FOCUS}", $id, $stars), '
             f"rate@{HUB}($other, $id, $stars)",
}
#: which pages a read draws — weighted so the median and the p95 each fall
#: inside one page's cost band, not on the gap between a cheap and a dear page
READ_MIX = (("board", 40), ("profile", 20), ("wall", 20), ("agree", 20))


class HubBoard(Workload):
    name = "hub_board"
    family = "hub"
    ops_per_second = 88.0
    min_ops = 40

    facts = 1200
    users = 500
    pictures = 2000
    zipf = 1.1
    mix = (("insert", 222), ("delete", 3), ("read", 222), ("adhoc", 2))
    durable = False
    crashes = 3

    # -- generation ------------------------------------------------------------- #

    def generate(self) -> None:
        rng = self.rng
        users = ZipfSampler(self.scaled(self.users, floor=20), self.zipf, rng)
        pictures = ZipfSampler(self.scaled(self.pictures, floor=40), self.zipf, rng)
        model = BoardOracle(FOCUS)

        def fresh_rating():
            while True:
                user, picture = f"u{users.sample()}", pictures.sample()
                if not model.has(user, picture):
                    return user, picture, rng.randint(1, 5)

        rows = []
        for _ in range(self.scaled(self.facts, floor=60)):
            row = fresh_rating()
            model.insert(*row)
            rows.append(row)
        hidden = list(range(0, pictures.size, 10))
        self.initial = {"rows": rows, "hidden": hidden}

        ops: List[Op] = []
        check = 0
        kinds = exact_mix(self.op_count(), self.mix, rng, rare=("delete", "adhoc"))
        reads = exact_mix(kinds.count("read"), READ_MIX, rng)
        for kind in kinds:
            if kind == "insert":
                row = fresh_rating()
                model.insert(*row)
                # Reading a whole aggregate page costs tens of inserts, so an
                # insert is verified on one page only: the focus user's on
                # the selective pages they feed, every fourth other insert on
                # an aggregate page.  Reads, deletes and the final check
                # compare whole pages.
                if row[0] == FOCUS:
                    page = ("wall", "agree")[check % 2]
                else:
                    page = ("board", "", "", "", "profile", "", "", "")[check % 8]
                check += 1
                ops.append(Op(UPDATE, "insert", row + (page,)))
            elif kind == "delete":
                user = rng.choice(sorted(model.by_user))
                picture = rng.choice(sorted(model.by_user[user]))
                stars = model.by_user[user][picture]
                model.delete(user, picture)
                ops.append(Op(RETRACT, "delete", (user, picture, stars)))
            elif kind == "read":
                ops.append(Op(READ, "read", (reads.pop(),)))
            elif kind == "adhoc":
                ops.append(Op(VIEW_OPEN, "adhoc", (f"u{users.sample()}",)))
        if self.durable:
            for crash in range(self.crashes, 0, -1):
                ops.insert(len(ops) * crash // (self.crashes + 1),
                           Op(CHURN, "crash", fresh_rating()))
        self.ops = ops

    def sizes(self) -> Dict[str, object]:
        return {"facts": len(self.initial["rows"]), "hidden": len(self.initial["hidden"]),
                "standing_views": len(PAGES), "ops": len(self.ops)}

    # -- set-up -------------------------------------------------------------------- #

    def setup(self) -> None:
        self.path = tempfile.mkdtemp(dir=self.workdir) if self.durable else None
        self.api, self.requested = deploy.build_hub(HUB, PROGRAM, durable_path=self.path)
        self.hub = self.api.peer(HUB)
        self.oracle = BoardOracle(FOCUS)
        facts = []
        for user, picture, stars in self.initial["rows"]:
            facts.append(Fact("rate", HUB, (user, picture, stars)))
            self.oracle.insert(user, picture, stars)
        for picture in self.initial["hidden"]:
            facts.append(Fact("hidden", HUB, (picture,)))
            self.oracle.hide(picture)
        self.hub.insert_many(facts)
        self.api.converge()
        self.callbacks = 0
        self.open_pages()
        self.api.converge()

    def begin_measured(self) -> None:
        self.callbacks = 0          # the warm-up's do not count

    def open_pages(self) -> None:
        """Open the standing views, named so a reopened store finds them."""
        self.views = {name: self.hub.query(text, name=f"page_{name}")
                      for name, text in PAGES.items()}
        for name in ("wall", "agree"):
            self.views[name].on_change(on_add=self._fired, on_remove=self._fired)

    def _fired(self, _fact) -> None:
        self.callbacks += 1

    def teardown(self) -> None:
        # Views are closed before the store: a durable store reopened with
        # its views still installed re-declares them (see README).
        for view in self.views.values():
            view.close(settle=False)
        self.api.close()

    def modes(self) -> Dict[str, object]:
        modes = deploy.resolved_modes(self.api)
        modes["requested"] = dict(self.requested)
        return modes

    # -- the timed part ---------------------------------------------------------------- #

    def apply(self, op: Op) -> Seen:
        kind, args = op.kind, op.args
        if kind == "read":
            return Seen(answer=self.views[args[0]].rows())
        if kind == "insert":
            self.hub.insert(Fact("rate", HUB, args[:3]))
            return Seen().absorb(self.api.converge())
        if kind == "delete":
            self.hub.delete(Fact("rate", HUB, args))
            return Seen().absorb(self.api.converge())
        if kind == "adhoc":
            view = self.hub.query(
                f'ans($id, $stars) :- rate@{HUB}("{args[0]}", $id, $stars)')
            seen = Seen().absorb(self.api.converge())
            seen.answer = view.rows()
            view.close()
            return seen
        if kind == "crash":
            return self.crash_and_recover(args)
        raise ValueError(kind)

    def crash_and_recover(self, doomed) -> Seen:
        """An uncommitted insert, process death, reopen, first correct answer."""
        self.hub.insert(Fact("rate", HUB, doomed))
        deploy.crash(self.api)
        self.api, _requested = deploy.build_hub(HUB, None, durable_path=self.path)
        self.hub = self.api.peer(HUB)
        deploy.drop_own_rules(self.hub)
        self.open_pages()
        seen = Seen().absorb(self.api.converge())
        seen.answer = self.views["wall"].rows()
        return seen

    # -- the untimed part --------------------------------------------------------------- #

    def check(self, op: Op, seen: Seen) -> bool:
        kind, args, oracle = op.kind, op.args, self.oracle
        if kind == "read":
            return set(seen.answer) == oracle.page(args[0])
        if kind == "insert":
            oracle.insert(*args[:3])
            return seen.converged and (not args[3] or self.page_matches(args[3]))
        if kind == "delete":
            oracle.delete(args[0], args[1])
            return seen.converged and all(self.page_matches(page) for page in PAGES)
        if kind == "adhoc":
            return seen.converged and set(seen.answer) == oracle.ratings_of(args[0])
        if kind == "crash":
            # the doomed insert was never committed: the oracle never saw it
            return (seen.converged and set(seen.answer) == oracle.wall()
                    and all(self.page_matches(page) for page in PAGES))
        raise ValueError(kind)

    def page_matches(self, page: str) -> bool:
        return set(self.views[page].rows()) == self.oracle.page(page)

    def final_check(self) -> bool:
        stored = set(self.api.query(HUB, "rate").rows())
        expected = {(user, picture, stars)
                    for user, ratings in self.oracle.by_user.items()
                    for picture, stars in ratings.items()}
        return stored == expected and all(self.page_matches(page) for page in PAGES)

    # -- what only this workload can measure ---------------------------------------------- #

    def workload_metrics(self, samples) -> Dict[str, Optional[float]]:
        return {"recovery_s": median(samples[CHURN]) / 1000.0} if self.durable else {}

    def layer_counts(self) -> Dict[str, Optional[float]]:
        counts: Dict[str, Optional[float]] = {"api.callbacks_fired": self.callbacks}
        if self.path is not None:
            size = sum(os.path.getsize(os.path.join(self.path, name))
                       for name in os.listdir(self.path))
            counts["store.bytes_on_disk_per_fact"] = size / max(1, len(self.oracle))
        return counts


class DurableHub(HubBoard):
    name = "durable_hub"
    durable = True
