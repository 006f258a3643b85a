#!/usr/bin/env python3
"""PROVENANCE-ACL — provenance-attached evaluation and lineage-filtered reads.

Before this subsystem, attaching a :class:`ProvenanceTracker` pinned the
engine to ``evaluation_path="full"`` at every stage, and every access-control
check re-walked the whole lineage graph.  This benchmark measures both fixes:

* **evaluation** — two provenance-attached variants of
  :class:`~repro.core.engine.WebdamLogEngine` run identical workloads:

  - ``pinned_full``   — the same tracker on a ``"naive"``-mode engine
                        (the pre-subsystem behaviour: every stage is a
                        full recompute that re-records everything);
  - ``incremental``   — the maintained :class:`ProvenanceTracker` riding the
                        delta / rederive paths.

  Why/lineage answers are verified identical before anything is written.

* **acl filtering** — throughput of filtering a derived view down to the
  facts a peer may read:

  - ``walk_per_check`` — the historical per-fact lineage walk;
  - ``policy_engine``  — :class:`~repro.acl.policies.PolicyEngine` probing
                         the graph's maintained lineage index with cached,
                         delta-invalidated decisions.

Workloads: **transitive_closure** (chain + incremental edge inserts) and
**wepic_ranking** (WEPIC-style visibility/recommendation joins with streamed
likes), both with provenance attached throughout.

Run as a script (also smoke-run in CI)::

    PYTHONPATH=src python benchmarks/bench_provenance_acl.py

Writes ``BENCH_provenance_acl.json`` next to this file (see ``--output``).
"""

from __future__ import annotations

import argparse
import json
import random
import time
from pathlib import Path

from repro.acl.policies import AccessControlPolicy, PolicyEngine, Privilege
from repro.bench.harness import bench_metadata, time_repeated
from repro.bench.reporting import format_table
from repro.core.engine import WebdamLogEngine
from repro.core.facts import Fact
from repro.provenance.graph import ProvenanceTracker


#: Variant name -> the engine's evaluation mode; both attach the tracker.
VARIANTS = {
    "pinned_full": "naive",
    "incremental": "incremental",
}

TC_PROGRAM = """
collection extensional persistent link@bench(src, dst);
collection intensional tc@bench(src, dst);
rule tc@bench($x, $y) :- link@bench($x, $y);
rule tc@bench($x, $z) :- link@bench($x, $y), tc@bench($y, $z);
"""

RANKING_PROGRAM = """
collection extensional persistent pictures@bench(id, owner);
collection extensional persistent friend@bench(viewer, owner);
collection extensional persistent liked@bench(id, user);
collection intensional visible@bench(id, viewer);
collection intensional recommended@bench(id, viewer);
rule visible@bench($id, $v) :- friend@bench($v, $o), pictures@bench($id, $o);
rule recommended@bench($id, $v) :- visible@bench($id, $v), friend@bench($v, $u), liked@bench($id, $u);
"""


def _engine(variant: str) -> WebdamLogEngine:
    engine = WebdamLogEngine("bench", evaluation_mode=VARIANTS[variant])
    engine.provenance = ProvenanceTracker()
    return engine


def transitive_closure(variant: str, chain: int, inserts: int) -> WebdamLogEngine:
    """A chain of links, then incremental edges — provenance attached."""
    engine = _engine(variant)
    engine.load_program(TC_PROGRAM)
    for i in range(chain - 1):
        engine.insert_fact(Fact("link", "bench", (i, i + 1)))
    engine.run_to_quiescence(max_stages=10)
    for i in range(inserts):
        engine.insert_fact(Fact("link", "bench", (chain + i, i % chain)))
        engine.run_to_quiescence(max_stages=10)
    return engine


def wepic_ranking(variant: str, users: int, pictures: int, likes: int) -> WebdamLogEngine:
    """WEPIC-style ranking joins with streamed uploads and likes.

    After the initial album load the workload interleaves new picture
    uploads with incoming likes (one stage each), the shape of the demo's
    live phase.  Provenance stays attached throughout.
    """
    engine = _engine(variant)
    engine.load_program(RANKING_PROGRAM)
    for picture in range(pictures):
        engine.insert_fact(Fact("pictures", "bench",
                                (picture, f"user{picture % users}")))
    for viewer in range(users):
        for offset in (1, 2):
            engine.insert_fact(Fact("friend", "bench",
                                    (f"user{viewer}", f"user{(viewer + offset) % users}")))
    engine.run_to_quiescence(max_stages=10)
    rng = random.Random(1729)
    next_picture = pictures
    for step in range(likes):
        if step % 2 == 0:
            engine.insert_fact(Fact("pictures", "bench",
                                    (next_picture, f"user{next_picture % users}")))
            next_picture += 1
        else:
            engine.insert_fact(Fact("liked", "bench",
                                    (rng.randrange(next_picture),
                                     f"user{rng.randrange(users)}")))
        engine.run_to_quiescence(max_stages=10)
    return engine


def provenance_story(graph):
    """Comparable why/lineage answers for every fact in the graph."""
    return {
        str(fact): {
            "why": sorted(sorted(str(f) for f in alt) for alt in graph.why(fact)),
            "bases": sorted(graph.base_relations(fact)),
        }
        for fact in graph.facts()
    }


def measure_evaluation(workload, repeats: int) -> dict:
    """Run ``workload`` per variant; verify snapshots and provenance agree."""
    measurements = {}
    snapshots = {}
    stories = {}
    for variant in VARIANTS:
        timing, engine = time_repeated(lambda v=variant: workload(v), repeats)
        counters = engine.eval_counters
        snapshots[variant] = engine.snapshot()
        stories[variant] = provenance_story(engine.provenance.graph)
        measurements[variant] = {
            **timing,
            "substitutions_explored": counters["substitutions_explored"],
            "fixpoint_iterations": counters["fixpoint_iterations"],
            "rules_evaluated": counters["rules_evaluated"],
            "derivations_tracked": len(engine.provenance.graph),
            "stage_paths": {
                path: counters[f"stages_{path}"]
                for path in ("full", "delta", "rederive", "skip")
            },
        }
    if snapshots["incremental"] != snapshots["pinned_full"]:
        raise AssertionError("variants reached different fixpoints")
    if stories["incremental"] != stories["pinned_full"]:
        raise AssertionError("variants answered why/lineage differently")
    pinned = measurements["pinned_full"]
    incremental = measurements["incremental"]
    measurements["substitutions_reduction"] = round(
        pinned["substitutions_explored"]
        / max(1, incremental["substitutions_explored"]), 2)
    measurements["speedup"] = round(
        pinned["best_seconds"] / max(1e-9, incremental["best_seconds"]), 2)
    measurements["provenance_identical"] = True
    return measurements


# --------------------------------------------------------------------------- #
# ACL-filtered query throughput
# --------------------------------------------------------------------------- #

def _walk_filter(policy: AccessControlPolicy, graph, facts, peer: str):
    """The historical check: walk the lineage of every fact, every time."""
    readable = []
    for fact in facts:
        if not graph.derivations_of(fact):
            if policy.can_read(fact.qualified_relation, peer):
                readable.append(fact)
            continue
        bases = {f.qualified_relation
                 for f in graph.lineage(fact) if not graph.derivations_of(f)}
        if all(policy.can_read(base, peer) for base in bases):
            readable.append(fact)
    return tuple(readable)


def measure_acl(users: int, pictures: int, likes: int, queries: int) -> dict:
    """Filter the WEPIC recommendation view repeatedly, both ways."""
    engine = wepic_ranking("incremental", users, pictures, likes)
    graph = engine.provenance.graph
    facts = engine.query("visible") + engine.query("recommended")

    policy = AccessControlPolicy("bench")
    # Reader profiles: "friendly" may read everything the views draw from,
    # "nosy" lacks the likes relation, so recommendations are filtered out.
    for relation in ("pictures@bench", "friend@bench", "liked@bench"):
        policy.grant(relation, "friendly", Privilege.READ)
    for relation in ("pictures@bench", "friend@bench"):
        policy.grant(relation, "nosy", Privilege.READ)
    acl = PolicyEngine(policy, graph)
    readers = ("friendly", "nosy")

    expected = {peer: _walk_filter(policy, graph, facts, peer) for peer in readers}
    for peer in readers:
        if acl.filter_readable(facts, peer) != expected[peer]:
            raise AssertionError("PolicyEngine disagrees with the lineage walk")

    start = time.perf_counter()
    for _ in range(queries):
        for peer in readers:
            _walk_filter(policy, graph, facts, peer)
    walk_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(queries):
        for peer in readers:
            acl.filter_readable(facts, peer)
    engine_seconds = time.perf_counter() - start

    checks = queries * len(readers) * len(facts)
    return {
        "facts_filtered": len(facts),
        "queries": queries,
        "checks": checks,
        "readable_friendly": len(expected["friendly"]),
        "readable_nosy": len(expected["nosy"]),
        "walk_per_check": {
            "seconds": walk_seconds,
            "checks_per_second": round(checks / max(1e-9, walk_seconds)),
        },
        "policy_engine": {
            "seconds": engine_seconds,
            "checks_per_second": round(checks / max(1e-9, engine_seconds)),
        },
        "speedup": round(walk_seconds / max(1e-9, engine_seconds), 2),
        "decisions_identical": True,
    }


def run_benchmark(args) -> dict:
    workloads = {
        "transitive_closure": lambda v: transitive_closure(v, args.chain, args.inserts),
        "wepic_ranking": lambda v: wepic_ranking(v, args.users, args.pictures,
                                                 args.likes),
    }
    results = {name: measure_evaluation(workload, args.repeats)
               for name, workload in workloads.items()}
    acl = measure_acl(args.users, args.pictures, args.likes, args.queries)
    incremental_paths = {
        name: results[name]["incremental"]["stage_paths"] for name in results
    }
    return {
        "experiment": "PROVENANCE-ACL",
        "metadata": bench_metadata(
            repeats=args.repeats,
            parameters={
                "chain": args.chain, "inserts": args.inserts,
                "users": args.users, "pictures": args.pictures,
                "likes": args.likes, "queries": args.queries,
            },
        ),
        "workloads": results,
        "acl_filtering": acl,
        "substitutions_reduction_tc": results["transitive_closure"][
            "substitutions_reduction"],
        "substitutions_reduction_ranking": results["wepic_ranking"][
            "substitutions_reduction"],
        "acl_speedup": acl["speedup"],
        "provenance_identical": all(
            r["provenance_identical"] for r in results.values()),
        "incremental_paths_used": all(
            paths["delta"] + paths["rederive"] > 0
            for paths in incremental_paths.values()),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chain", type=int, default=25,
                        help="chain length of the transitive-closure workload")
    parser.add_argument("--inserts", type=int, default=8,
                        help="incremental edge insertions after the chain")
    parser.add_argument("--users", type=int, default=8,
                        help="users in the WEPIC ranking workload")
    parser.add_argument("--pictures", type=int, default=50,
                        help="pictures in the WEPIC ranking workload")
    parser.add_argument("--likes", type=int, default=20,
                        help="streamed like insertions")
    parser.add_argument("--queries", type=int, default=50,
                        help="repetitions of the ACL-filtered query")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timing runs per variant (best-of-N is reported)")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).parent / "BENCH_provenance_acl.json",
                        help="where to write the JSON report")
    args = parser.parse_args()

    report = run_benchmark(args)

    for name, result in report["workloads"].items():
        columns = ["variant", "best (s)", "substitutions", "derivations",
                   "full/delta/rederive"]
        rows = []
        for variant in VARIANTS:
            paths = result[variant]["stage_paths"]
            rows.append([
                variant,
                result[variant]["best_seconds"],
                result[variant]["substitutions_explored"],
                result[variant]["derivations_tracked"],
                f"{paths['full']}/{paths['delta']}/{paths['rederive']}",
            ])
        print(f"\n== {name} (provenance attached) ==")
        print(format_table(columns, rows))
        print(f"substitutions reduction: {result['substitutions_reduction']}x, "
              f"speedup: {result['speedup']}x")

    acl = report["acl_filtering"]
    print("\n== ACL-filtered query throughput ==")
    print(format_table(
        ["filter", "seconds", "checks/s"],
        [["walk_per_check", acl["walk_per_check"]["seconds"],
          acl["walk_per_check"]["checks_per_second"]],
         ["policy_engine", acl["policy_engine"]["seconds"],
          acl["policy_engine"]["checks_per_second"]]],
    ))
    print(f"speedup: {acl['speedup']}x over {acl['checks']} checks")

    args.output.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"\nwrote {args.output}")


if __name__ == "__main__":
    main()
