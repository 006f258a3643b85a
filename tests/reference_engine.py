"""The reference the differential suites compare the engine against.

The engine has one configuration: every stage maintains the fixpoint from
what changed (seminaive inserts, delete-and-rederive), and every body
literal with bound arguments is a hash-index probe.  The reference keeps
the two textbook baselines, built from the outside with no option of the
engine's:

* **recompute every stage** — every local intensional relation is emptied
  and the program analysis forgotten before each stage, so the engine has
  nothing to diff against and takes the path of its first stage, deriving
  every relation again from nothing.  That ``full`` path drains a recursive
  stratum's deltas as the ``delta`` path does, so against it a differential
  suite checks what a stage *changed*, not how a recursion is evaluated;
  ``tests/core/test_recursive_passes.py`` checks that against an
  enumerator of its own;
* **scan every probe** — each probe is answered by an unbound scan of the
  relation, filtered in Python by the bound positions, so no store index is
  consulted;
* **written order** — the engine's planner is swapped for one that never
  has anything to order, so every body is walked left to right as written.

A reference runs in written order on the memory store.
A view's magic-set rewrite is part of compiling the query; a reference for
a view installs the query's clauses as ordinary rules instead.

The runtime's reference is a driver, not an engine: :func:`lockstep` swaps a
deployment's reactive driver for the one that runs every peer every cycle.
"""

from repro.core.engine import WebdamLogEngine
from repro.core.facts import fact_matches_bindings
from repro.planner import BodyPlanner
from repro.runtime.scheduler import LockstepScheduler
from repro.runtime.system import WebdamLogSystem


class _WrittenOrderPlanner(BodyPlanner):
    """A planner whose every answer is "nothing to order"."""

    def _compute(self, rule, delta_index, initially_bound=frozenset()):
        return None, {}


def written_order(engine: WebdamLogEngine) -> WebdamLogEngine:
    """Make ``engine`` evaluate every rule body in written order."""
    engine._planner = _WrittenOrderPlanner(engine.peer, engine._planner.stats)
    return engine


def recompute_every_stage(engine: WebdamLogEngine) -> WebdamLogEngine:
    """Make every stage of ``engine`` a full recompute from nothing.

    The engine's own full stage replaces a non-recursive relation by diff
    and drains a recursive stratum's deltas; the reference empties every
    local intensional relation itself first, so each stage really derives
    everything from nothing.
    """
    run_stage = engine.run_stage
    state = engine.state

    def recomputing_stage(*args, **kwargs):
        engine._analysis = None
        for schema in list(state.schemas):
            if schema.peer == engine.peer and schema.is_intensional():
                state.derived.clear_relation(schema.name, schema.peer)
        return run_stage(*args, **kwargs)

    engine.run_stage = recomputing_stage
    return engine


def scan_every_probe(engine: WebdamLogEngine) -> WebdamLogEngine:
    """Answer every probe of ``engine``'s evaluator with a filtered scan."""
    fact_view = engine.state.fact_view

    def scan(relation, peer, bindings=None):
        facts = fact_view(relation, peer)
        if not bindings:
            return facts
        return (fact for fact in facts if fact_matches_bindings(fact, bindings))

    engine.state.fact_view = scan
    return engine


def as_reference(engine: WebdamLogEngine) -> WebdamLogEngine:
    return scan_every_probe(recompute_every_stage(written_order(engine)))


def reference_engine(peer: str = "p", **options) -> WebdamLogEngine:
    """A reference engine; ``options`` go to :class:`WebdamLogEngine`."""
    return as_reference(WebdamLogEngine(peer, storage="memory", **options))


class ReferenceSystem(WebdamLogSystem):
    """A :class:`WebdamLogSystem` whose every peer runs a reference engine."""

    def __init__(self, **options):
        super().__init__(storage="memory", **options)

    def add_peer(self, name, *args, **kwargs):
        peer = super().add_peer(name, *args, **kwargs)
        as_reference(peer.engine)
        return peer


def reference_deployment(builder):
    """Build ``builder``'s deployment with a reference engine at every peer."""
    deployment = builder.storage("memory").build()
    for peer in deployment.runtime.peers.values():
        as_reference(peer.engine)
    return deployment


def lockstep(deployment):
    """Make ``deployment`` (a built ``repro.api.System`` or a
    :class:`WebdamLogSystem`) run every peer every cycle, in name order."""
    getattr(deployment, "runtime", deployment).scheduler = LockstepScheduler()
    return deployment
