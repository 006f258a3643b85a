"""``tc_churn``: recursion, delete-and-rederive, provenance and ACL, small store.

One peer, provenance on.  ``reach`` is the transitive closure of eight chains
of twenty nodes (with forward shortcuts, so most pairs have several
derivations) over two base relations: ``edge`` (readable by ``guest``) and
``bridge`` (chain-to-chain links only ``staff`` may read).  Ops insert a
bridge (tens to hundreds of new ``reach`` facts on the delta path), delete one
(delete-and-rederive), ``explain()`` a derived pair, open a bound recursive
view (the magic-set rewrite), and read ``reach`` through the ACL.

The counterpart to ``hub_board`` for "is it the engine or the store":
``core``/``datalog``/``provenance`` carry it, ``store`` and ``runtime``
messaging are idle.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.facts import Fact

from bench import deploy
from bench.oracle import ReachOracle
from bench.workloads.base import (EXPLAIN, READ, RETRACT, UPDATE, VIEW_OPEN, Op, Seen,
                                  Workload, exact_mix)

HUB = "hub"
PROGRAM = f"""
collection extensional persistent edge@{HUB}(src, dst);
collection extensional persistent bridge@{HUB}(src, dst);
collection intensional reach@{HUB}(src, dst);
rule reach@{HUB}($x, $y) :- edge@{HUB}($x, $y);
rule reach@{HUB}($x, $y) :- bridge@{HUB}($x, $y);
rule reach@{HUB}($x, $z) :- reach@{HUB}($x, $y), edge@{HUB}($y, $z);
rule reach@{HUB}($x, $z) :- reach@{HUB}($x, $y), bridge@{HUB}($y, $z);
"""
#: an ad-hoc bound query with its own recursive clauses — the shape the
#: planner's magic-set rewrite exists for
BOUND_QUERY = (
    f"path($x, $y) :- edge@{HUB}($x, $y); "
    f"path($x, $y) :- bridge@{HUB}($x, $y); "
    f"path($x, $z) :- path($x, $y), edge@{HUB}($y, $z); "
    f"path($x, $z) :- path($x, $y), bridge@{HUB}($y, $z); "
    'ans($y) :- path("{start}", $y)'
)


def node(chain: int, index: int) -> str:
    return f"c{chain}n{index}"


class TcChurn(Workload):
    name = "tc_churn"
    ops_per_second = 50.0
    min_ops = 30

    chains = 6
    length = 10
    initial_bridges = 6
    mix = (("insert", 120), ("delete", 2), ("explain", 90), ("open", 2), ("read", 24))

    # -- generation --------------------------------------------------------------- #

    def generate(self) -> None:
        rng = self.rng
        chains = self.scaled(self.chains, floor=4)
        length = self.scaled(self.length, floor=6)
        model = ReachOracle()
        edges = []
        for chain in range(chains):
            for index in range(length - 1):
                edges.append((node(chain, index), node(chain, index + 1)))
                if index % 4 == 0 and index + 3 < length:
                    edges.append((node(chain, index), node(chain, index + 3)))
        for edge in edges:
            model.add_edge(*edge)

        # A bridge leads from the far half of a source chain (the first half
        # of the chains) to the near half of a sink chain: the graph stays
        # acyclic, bridges never cascade, and a bridge at offsets (k, l) adds
        # (k + 1) x (length - l) pairs.  The seed orders the (k, l) cells and
        # the chain pairs, but every run works through whole rounds of all
        # cells and all pairs — so ``reach`` grows along the same curve
        # whatever the seed, and two seeds differ in content, not in load.
        cells = [(k, l) for k in range(length // 2, length) for l in range(length // 2)]
        pairs = [(a, b) for a in range(chains // 2) for b in range(chains // 2, chains)]
        def rounds():
            pair_order = rng.sample(pairs, len(pairs))
            while True:
                for shift in rng.sample(range(len(pairs)), len(pairs)):
                    for index, cell in enumerate(rng.sample(cells, len(cells))):
                        yield cell, pair_order[(index + shift) % len(pairs)]

        used = set()
        impact = {}
        schedule = rounds()

        def fresh_bridge():
            if len(used) == len(cells) * len(pairs):
                raise RuntimeError("every possible bridge is already up")
            while True:
                (k, l), (a, b) = next(schedule)
                bridge = (node(a, k), node(b, l))
                if bridge not in used:
                    used.add(bridge)
                    impact[bridge] = (k + 1) * (length - l)
                    return bridge

        bridges = []
        for _ in range(self.initial_bridges):
            bridge = fresh_bridge()
            model.add_bridge(*bridge)
            bridges.append(bridge)
        self.initial = {"edges": edges, "bridges": bridges}

        ops: List[Op] = []
        live = list(bridges)
        middling = (3 * length // 4 + 1) * (length - length // 4)
        reads = 0
        # two staff reads to one guest read: the class median then sits inside
        # the staff band instead of on the gap between the two answer sizes
        viewers = ("staff", "guest", "staff")
        for kind in exact_mix(self.op_count(), self.mix, rng, rare=("delete", "open", "read")):
            if kind == "insert":
                bridge = fresh_bridge()
                model.add_bridge(*bridge)
                live.append(bridge)
                ops.append(Op(UPDATE, "insert", bridge))
            elif kind == "delete":
                # the oldest bridge of middling reach: a delete rederives in
                # proportion to the pairs its bridge carried
                bridge = min(live, key=lambda b: abs(impact[b] - middling))
                live.remove(bridge)
                model.remove_bridge(*bridge)
                ops.append(Op(RETRACT, "delete", bridge))
            elif kind == "explain":
                ops.append(Op(EXPLAIN, "explain", rng.choice(sorted(model.reach()))))
            elif kind == "open":
                start = node(rng.randrange(chains // 2), 0)     # a source chain's head
                ops.append(Op(VIEW_OPEN, "open", (start,)))
            elif kind == "read":
                ops.append(Op(READ, "read", (viewers[reads % 3],)))
                reads += 1
        self.ops = ops

    def sizes(self) -> Dict[str, object]:
        return {"edges": len(self.initial["edges"]),
                "bridges": len(self.initial["bridges"]), "ops": len(self.ops)}

    # -- set-up ---------------------------------------------------------------------- #

    def setup(self) -> None:
        self.api, self.requested = deploy.build_hub(HUB, PROGRAM, provenance=True)
        self.hub = self.api.peer(HUB)
        self.oracle = ReachOracle()
        facts = []
        for edge in self.initial["edges"]:
            facts.append(Fact("edge", HUB, tuple(edge)))
            self.oracle.add_edge(*edge)
        for bridge in self.initial["bridges"]:
            facts.append(Fact("bridge", HUB, tuple(bridge)))
            self.oracle.add_bridge(*bridge)
        self.hub.insert_many(facts)
        self.hub.grant("edge", "guest").grant("edge", "staff").grant("bridge", "staff")
        self.readers = {viewer: self.api.query(HUB, "reach", viewer=viewer)
                        for viewer in ("guest", "staff")}
        self.everything = self.api.query(HUB, "reach")
        self.callbacks = 0
        self.api.subscribe("reach", self._fired, peer=HUB, on_remove=self._fired)
        self.api.converge()

    def begin_measured(self) -> None:
        self.callbacks = 0          # the warm-up's do not count

    def _fired(self, _fact) -> None:
        self.callbacks += 1

    def teardown(self) -> None:
        self.api.close()

    def modes(self) -> Dict[str, object]:
        modes = deploy.resolved_modes(self.api)
        modes["requested"] = dict(self.requested)
        return modes

    # -- the timed part ----------------------------------------------------------------- #

    def apply(self, op: Op) -> Seen:
        kind, args = op.kind, op.args
        if kind == "read":
            return Seen(answer=self.readers[args[0]].rows())
        if kind == "explain":
            return Seen(answer=self.api.explain(HUB, Fact("reach", HUB, tuple(args))))
        if kind == "insert":
            self.hub.insert(Fact("bridge", HUB, tuple(args)))
            return Seen().absorb(self.api.converge())
        if kind == "delete":
            self.hub.delete(Fact("bridge", HUB, tuple(args)))
            return Seen().absorb(self.api.converge())
        if kind == "open":
            view = self.hub.query(BOUND_QUERY.replace("{start}", args[0]))
            seen = Seen().absorb(self.api.converge())
            seen.answer = view.rows()
            view.close()
            return seen
        raise ValueError(kind)

    # -- the untimed part ------------------------------------------------------------------ #

    def check(self, op: Op, seen: Seen) -> bool:
        kind, args, oracle = op.kind, op.args, self.oracle
        if kind == "read":
            expected = oracle.reach() if args[0] == "staff" \
                else oracle.visible_without("bridge")
            return set(seen.answer) == expected
        if kind == "explain":
            story = seen.answer
            bases = {f"{name}@{HUB}" for name in oracle.bases(*args)}
            return story.derived and set(story.base_relations) == bases
        if kind == "open":
            return seen.converged and set(seen.answer) == oracle.reach_from(args[0])
        if kind == "insert":
            oracle.add_bridge(*args)
        elif kind == "delete":
            oracle.remove_bridge(*args)
        return seen.converged and set(self.everything.rows()) == oracle.reach()

    def final_check(self) -> bool:
        return (set(self.everything.rows()) == self.oracle.reach()
                and set(self.readers["guest"].rows()) == self.oracle.visible_without("bridge"))

    def layer_counts(self) -> Dict[str, Optional[float]]:
        return {"api.callbacks_fired": self.callbacks,
                "provenance.derivations_live": deploy.provenance_derivations(self.api) or 0}
