"""The public surface as a ledger: adding a builder knob, an export or a
deprecation shim has to edit this file."""

import ast
import pathlib

import repro
import repro.api
from repro.api import SystemBuilder

#: Every system-scope switch a deployment can be built with.
SYSTEM_KNOBS = {
    "transport", "default_trusted", "auto_accept_delegations",
    "provenance", "storage",
}

#: Builder methods that describe topology or realise it, not a mode.
CHAIN_VERBS = {"peer", "build"}


def public_methods(cls):
    return {name for name, member in vars(cls).items()
            if callable(member) and not name.startswith("_")}


def test_system_scope_builder_knobs_are_exactly_the_ledger():
    assert public_methods(SystemBuilder) - CHAIN_VERBS == SYSTEM_KNOBS


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
