"""The reference the differential suites compare the engine against.

The engine has one configuration: every stage maintains the fixpoint from
what changed (seminaive inserts, delete-and-rederive), and every body
literal with bound arguments is a hash-index probe.  The reference keeps
the two textbook baselines, built from the outside with no option of the
engine's:

* **recompute every stage** — the program analysis is forgotten before each
  stage, so the engine has nothing to diff against and takes the path of its
  first stage: clear every local intensional relation and derive it again;
* **scan every probe** — each probe is answered by an unbound scan of the
  relation, filtered in Python by the bound positions, so no store index is
  consulted.

A reference runs with the planner off (written body order) on the memory
store (no SQL pushdown).
"""

from repro.core.engine import WebdamLogEngine
from repro.core.facts import fact_matches_bindings
from repro.runtime.system import WebdamLogSystem


def recompute_every_stage(engine: WebdamLogEngine) -> WebdamLogEngine:
    """Make every stage of ``engine`` a full clear-and-recompute."""
    run_stage = engine.run_stage

    def recomputing_stage(*args, **kwargs):
        engine._analysis = None
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
    return scan_every_probe(recompute_every_stage(engine))


def reference_engine(peer: str = "p", **options) -> WebdamLogEngine:
    """A reference engine; ``options`` go to :class:`WebdamLogEngine`."""
    return as_reference(WebdamLogEngine(peer, planner="off", storage="memory",
                                        **options))


class ReferenceSystem(WebdamLogSystem):
    """A :class:`WebdamLogSystem` whose every peer runs a reference engine."""

    def __init__(self, **options):
        super().__init__(planner="off", storage="memory", **options)

    def add_peer(self, name, *args, **kwargs):
        peer = super().add_peer(name, *args, **kwargs)
        as_reference(peer.engine)
        return peer


def reference_deployment(builder):
    """Build ``builder``'s deployment with a reference engine at every peer."""
    deployment = builder.planner("off").storage("memory").build()
    for peer in deployment.runtime.peers.values():
        as_reference(peer.engine)
    return deployment
