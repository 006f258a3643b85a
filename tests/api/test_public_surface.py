"""The public surface as a ledger: adding a builder knob, an export or a
deprecation shim has to edit this file."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import repro
import repro.api
from repro.acl.delegation_control import DelegationController
from repro.api import SystemBuilder
from repro.api.builder import PeerBuilder
from repro.core.evaluation import RuleEvaluator
from repro.net import tcp
from repro.net.tcp import TcpTransport
from repro.runtime.peer import Peer
from repro.runtime.system import WebdamLogSystem
from repro.store.backend import StoreError, resolve_backend
from repro.store.memory import MemoryBackend
from repro.store.sqlite import SqliteBackend

#: Every system-scope switch a deployment can be built with.
SYSTEM_KNOBS = {
    "transport", "default_trusted", "auto_accept_delegations",
    "provenance", "storage",
}

#: Every peer-scope call: whom the peer trusts, and what it runs and holds.
#: Trust is the one delegation-acceptance setting at peer scope.
PEER_KNOBS = {
    "trusts", "trust_all", "wrapper", "program", "rule", "fact", "schema",
    "grant", "declassify",
}

#: Builder methods that describe topology or realise it, not a mode.
CHAIN_VERBS = {"peer", "build"}


def public_methods(cls):
    return {name for name, member in vars(cls).items()
            if callable(member) and not name.startswith("_")}


def test_system_scope_builder_knobs_are_exactly_the_ledger():
    assert public_methods(SystemBuilder) - CHAIN_VERBS == SYSTEM_KNOBS


def test_peer_scope_builder_knobs_are_exactly_the_ledger():
    assert public_methods(PeerBuilder) - CHAIN_VERBS - {"done"} == PEER_KNOBS


#: What a peer is created with at run time.  Acceptance of a delegation
#: is the peer's trust alone: no per-peer switch, no join announcement,
#: no schemas or provenance a call site never passes.
CONSTRUCTOR_PARAMETERS = {
    "System.add_peer": (repro.api.System.add_peer,
                        ("self", "name", "program", "trusted", "trust_all")),
    "WebdamLogSystem.add_peer": (WebdamLogSystem.add_peer,
                                 ("self", "name", "program", "trusted", "trust_all")),
    "Peer": (Peer.__init__, ("self", "name", "trust", "provenance", "storage",
                             "storage_options", "replication")),
    "DelegationController": (DelegationController.__init__,
                             ("self", "engine", "trust")),
    "DelegationController.submit": (DelegationController.submit,
                                    ("self", "delegator", "delegation_id", "rule")),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTOR_PARAMETERS))
def test_peer_constructors_take_exactly_the_ledger(name):
    function, parameters = CONSTRUCTOR_PARAMETERS[name]
    assert tuple(inspect.signature(function).parameters) == parameters


#: What a TCP deployment is tuned with, and what converging takes: where
#: the peers listen and the event record; a bound and a tail.  No gossip,
#: SWIM, seed or quiet period.
TCP_KNOBS = {
    "TcpTransport": (TcpTransport.__init__, ("self", "host", "event_log")),
    "System.converge": (repro.api.System.converge,
                        ("self", "max_steps", "extra_rounds")),
    "System.aconverge": (repro.api.System.aconverge,
                         ("self", "max_steps", "extra_rounds")),
    "WebdamLogSystem.converge": (WebdamLogSystem.converge,
                                 ("self", "max_steps", "extra_rounds")),
    "WebdamLogSystem.aconverge": (WebdamLogSystem.aconverge,
                                  ("self", "max_steps", "extra_rounds")),
}


@pytest.mark.parametrize("name", sorted(TCP_KNOBS))
def test_tcp_and_converge_take_exactly_the_ledger(name):
    function, parameters = TCP_KNOBS[name]
    assert tuple(inspect.signature(function).parameters) == parameters


#: What a store and an evaluator are built with: a SQLite database is a
#: path (write-ahead log on for every file), an evaluator its peer, its
#: facts and the engine's hooks (the delegation shapes met so far among
#: them) — no switch that turns delegation off.
ENGINE_KNOBS = {
    "SqliteBackend": (SqliteBackend.__init__, ("self", "path")),
    "RuleEvaluator": (RuleEvaluator.__init__,
                      ("self", "peer", "fact_source", "kind_resolver",
                       "on_derivation", "planner", "shapes")),
}


@pytest.mark.parametrize("name", sorted(ENGINE_KNOBS))
def test_store_and_evaluator_take_exactly_the_ledger(name):
    function, parameters = ENGINE_KNOBS[name]
    assert tuple(inspect.signature(function).parameters) == parameters


#: The storage backends by name: one name each, spelled as documented.
BACKEND_NAMES = {"memory": MemoryBackend, "sqlite": SqliteBackend}


def test_resolve_backend_accepts_exactly_the_ledger_names():
    for name, backend_class in BACKEND_NAMES.items():
        backend = resolve_backend(name, peer="p")
        assert type(backend) is backend_class
        backend.close()
    for retired in ("dict", "inmemory", "Memory", "SQLITE"):
        with pytest.raises(StoreError):
            resolve_backend(retired, peer="p")


def test_no_overlay_tuning_is_exported():
    for module in (repro, repro.api):
        assert not {"GossipConfig", "SwimConfig"} & set(module.__all__)


def test_the_tcp_transport_imports_no_overlay_module():
    """A deployment's TCP path sends each message to its recipient: it
    builds on no gossip, SWIM or overlay frame module."""
    overlay = {"repro.net.node", "repro.net.gossip", "repro.net.membership",
               "repro.net.frames"}
    tree = ast.parse(pathlib.Path(tcp.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported & overlay == set()
    assert "repro.net.framing" in imported


def test_every_system_knob_returns_the_builder_for_chaining():
    arguments = {
        "transport": ("inmemory",), "default_trusted": ("sigmod",),
        "storage": ("memory",),
    }
    builder = SystemBuilder()
    for knob in sorted(SYSTEM_KNOBS):
        assert getattr(builder, knob)(*arguments.get(knob, ())) is builder


def test_build_returns_the_one_facade():
    deployment = repro.api.system().peer("a").build()
    assert type(deployment) is repro.api.System


def test_the_reactive_cycle_has_one_set_of_entry_points():
    """``converge`` / ``step`` / ``aconverge``: no lockstep round, no alias."""
    for retired in ("run", "run_round", "run_rounds"):
        assert not hasattr(repro.api.System, retired)
    assert {"converge", "step", "aconverge"} <= public_methods(repro.api.System)


def test_the_demo_scenario_is_driven_through_its_facade():
    """``scenario.api`` is the one entry point: no pass-through beside it."""
    from repro.wepic.scenario import DemoScenario

    for retired in ("run", "converge", "stats", "reset_stats", "subscribe"):
        assert not hasattr(DemoScenario, retired)
    assert not {"system", "wrappers"} & set(DemoScenario.__dataclass_fields__)


def test_a_peer_handle_is_not_a_raw_peer():
    for retired in ("insert_fact", "delete_fact"):
        assert not hasattr(repro.api.PeerHandle, retired)


def test_one_event_record_and_one_read_handle_are_exported():
    import repro.runtime
    import repro.wrappers

    retired = {"RecordingTransport", "TransportEvent", "QueryHandle",
               "WrapperRegistry"}
    for module in (repro, repro.api, repro.runtime, repro.wrappers):
        assert not retired & set(module.__all__), module.__name__


def test_retired_protocol_and_helpers_are_defined_nowhere():
    """The peer-join message, the sans-io frame decoder, the plain-tuple
    group-by and the quiet-period resolver are gone from every module, not
    only from ``__all__``."""
    retired = {"PeerJoinMessage", "FrameDecoder", "aggregate_relation",
               "resolve_quiet_period"}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        assert not retired & set(vars(module)), info.name


def test_no_scheduler_class_is_exported():
    for module in (repro, repro.api):
        assert not [name for name in module.__all__ if name.endswith("Scheduler")]


def test_every_exported_name_resolves():
    for module in (repro, repro.api):
        for name in module.__all__:
            assert getattr(module, name) is not None, f"{module.__name__}.{name}"
    assert len(set(repro.api.__all__)) == len(repro.api.__all__)


def test_src_raises_no_deprecation_warning_of_its_own():
    """Deprecations are for dependencies to raise; this code base deletes."""
    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id.endswith("DeprecationWarning"):
                offenders.append(f"{path.relative_to(root)}:{node.lineno}")
    assert offenders == []


#: Modules allowed a process-wide ``itertools.count``: the gossip overlay
#: (``repro.net``, kept for the benchmark's gossip workload) and the
#: synthetic picture generator.
PROCESS_COUNTERS_ALLOWED = ("repro.net", "repro.wepic.pictures")


def test_src_binds_no_module_level_counter():
    """An id drawn from a process-wide counter differs between two builds
    of one deployment in one process: rules are named by their content and
    a deployment numbers its own messages, so no module under
    ``src/repro/`` binds an ``itertools.count`` at module level."""
    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(root.parent).with_suffix("").parts)
        if any(module == allowed or module.startswith(allowed + ".")
               for allowed in PROCESS_COUNTERS_ALLOWED):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        counts = {alias.asname or alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "itertools"
                  for alias in node.names if alias.name == "count"}
        statements = list(tree.body)
        while statements:
            statement = statements.pop()
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            for child in ast.iter_child_nodes(statement):
                if isinstance(child, ast.stmt):
                    statements.append(child)
                    continue
                for node in ast.walk(child):
                    function = getattr(node, "func", None)
                    if (isinstance(function, ast.Attribute) and function.attr == "count"
                            and isinstance(function.value, ast.Name)
                            and function.value.id == "itertools") \
                            or (isinstance(function, ast.Name) and function.id in counts):
                        offenders.append(f"{module}:{node.lineno}")
    assert offenders == []


def test_metrics_is_the_one_counter_read():
    """A peer's work is counted in its engine's one registry and read
    through ``metrics``: no ``totals`` / ``counts`` chain beside it, no
    engine copy of the planner's counts, no per-peer read on the handle."""
    from repro.core.engine import WebdamLogEngine
    from repro.core.state import PeerState

    for cls in (repro.api.System, repro.api.PeerHandle, WebdamLogSystem, Peer,
                WebdamLogEngine, PeerState):
        assert not {"totals", "counts"} & set(dir(cls)), cls.__name__
    engine = WebdamLogEngine("p")
    assert not hasattr(engine, "eval_counters")
    assert not hasattr(engine._planner, "counters")
    assert engine._planner.metrics is engine.metrics is engine.state.backend.metrics
    assert "metrics" in public_methods(repro.api.System)
    assert "metrics" in public_methods(WebdamLogSystem)
    assert not hasattr(repro.api.PeerHandle, "metrics")
