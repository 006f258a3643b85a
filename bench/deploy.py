"""The one place the benchmark builds deployments and names modes.

Mode hygiene: a later PR that removes or renames a mode must be *measured*,
not broken.  So

* :func:`scrub_environment` drops the three ``REPRO_*`` mode variables before
  anything is built — what runs is the program's own default;
* a mode is named only where a workload exists to price it (``causal`` +
  provenance for ``lossy_mesh``, ``sqlite`` for ``durable_hub``, provenance
  for ``tc_churn``), and only through :func:`_name_mode`, which looks for the
  builder method before calling it.  A builder that no longer has the knob is
  assumed to have made it the only behaviour; the request is reported as
  ``absent`` next to the resolved modes, never raised.

Everything here that looks below ``repro.api`` (resolved modes, the crash
hook, replication and provenance sizes) does so through ``getattr`` with a
``None`` fallback for the same reason.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

from repro.api import system
from repro.core.facts import Fact
from repro.wepic import WepicApp, WepicRules
from repro.wepic.rules import SIGMOD_FB_PEER, SIGMOD_PEER, sigmod_schemas
from repro.wrappers.email import EmailService, EmailWrapper
from repro.wrappers.facebook import FacebookGroupWrapper, FacebookService

MODE_VARIABLES = ("REPRO_STORE_BACKEND", "REPRO_PLANNER", "REPRO_REPLICATION")


def scrub_environment() -> List[str]:
    """Delete the mode variables from this process; returns what was set."""
    return [name for name in MODE_VARIABLES if os.environ.pop(name, None) is not None]


def _name_mode(builder, requested: Dict[str, str], method: str, *args, **kwargs) -> None:
    """Call ``builder.<method>(...)`` if the builder still has it."""
    knob = getattr(builder, method, None)
    label = ":".join(str(a) for a in args) or "on"
    if knob is None:
        requested[method] = f"{label} (absent: program default)"
        return
    knob(*args, **kwargs)
    requested[method] = label


def resolved_modes(deployment) -> Dict[str, object]:
    """What the built deployment actually runs, read off its first peer."""
    runtime = getattr(deployment, "runtime", None)
    peer = next(iter(getattr(runtime, "peers", {}).values()), None)
    engine = getattr(peer, "engine", None)
    backend = getattr(getattr(engine, "state", None), "backend", None)
    return {
        "scheduler": getattr(getattr(runtime, "scheduler", None), "name", None),
        "transport": type(getattr(runtime, "transport", None)).__name__,
        "replication": getattr(peer, "replication_mode", None),
        "planner": getattr(engine, "planner_mode", None),
        "evaluation": getattr(engine, "evaluation_mode", None),
        "storage": getattr(backend, "name", None),
        "provenance": getattr(engine, "provenance", None) is not None,
    }


# ---------------------------------------------------------------------- #
# Wepic (wepic_fanout, lossy_mesh)
# ---------------------------------------------------------------------- #

class WepicDeployment:
    """The Figure-2 topology: attendees + ``sigmod`` + ``SigmodFB``."""

    def __init__(self, deployment, apps, email, requested):
        self.api = deployment
        self.apps: Dict[str, WepicApp] = apps
        self.email: EmailService = email
        self.requested: Dict[str, str] = requested


def build_wepic(attendees: Sequence[str], transport, causal: bool,
                provenance: bool) -> WepicDeployment:
    """``repro.wepic.build_demo_scenario``'s topology with the builder in reach.

    The scenario helper offers no replication knob, so the same public pieces
    (rules, schemas, wrappers, :class:`WepicApp`) are assembled here.
    """
    rules = WepicRules(sigmod_peer=SIGMOD_PEER, group_peer=SIGMOD_FB_PEER)
    facebook, email = FacebookService(), EmailService()
    requested: Dict[str, str] = {}
    builder = system().default_trusted(SIGMOD_PEER).transport(transport)
    if provenance:
        _name_mode(builder, requested, "provenance")
    if causal:
        _name_mode(builder, requested, "replication", "causal")

    sigmod = builder.peer(SIGMOD_PEER)
    for schema in sigmod_schemas(SIGMOD_PEER, SIGMOD_FB_PEER):
        sigmod.schema(schema)
    for rule in rules.sigmod_rules():
        sigmod.rule(rule)
    builder.peer(SIGMOD_FB_PEER).wrapper(FacebookGroupWrapper(
        facebook, group="sigmod", peer_name=SIGMOD_FB_PEER))
    for attendee in attendees:
        builder.peer(attendee)
    deployment = builder.build()

    apps: Dict[str, WepicApp] = {}
    for attendee in attendees:
        handle = deployment.peer(attendee)
        apps[attendee] = WepicApp(handle, rules=rules)
        handle.attach_wrapper(EmailWrapper(email))
        facebook.add_user(attendee)
        facebook.join_group("sigmod", attendee)
        deployment.peer(SIGMOD_PEER).insert(Fact("attendees", SIGMOD_PEER, (attendee,)))
    return WepicDeployment(deployment, apps, email, requested)


# ---------------------------------------------------------------------- #
# single-hub deployments (hub_board, durable_hub, tc_churn)
# ---------------------------------------------------------------------- #

def build_hub(name: str, program: Optional[str], durable_path: Optional[str] = None,
              provenance: bool = False):
    """One peer; ``program=None`` reopens a durable store as it was left."""
    requested: Dict[str, str] = {}
    builder = system()
    if durable_path is not None:
        _name_mode(builder, requested, "storage", "sqlite", path=durable_path)
    if provenance:
        _name_mode(builder, requested, "provenance")
    peer = builder.peer(name)
    if program is not None:
        peer.program(program)
    return builder.build(), requested


def crash(deployment) -> bool:
    """Simulated process death: every backend drops its connection uncommitted."""
    crashed = False
    for peer in getattr(getattr(deployment, "runtime", None), "peers", {}).values():
        abort = getattr(getattr(getattr(peer, "engine", None), "state", None),
                        "backend", None)
        abort = getattr(abort, "abort", None)
        if abort is not None:
            abort()
            crashed = True
    return crashed


def drop_own_rules(handle) -> int:
    """Remove every rule the peer owns (the views a crash left installed).

    A crashed durable peer reopens with its view rules restored but no
    :class:`LiveView` handle to reach them; re-asking the query would install
    a second copy next to the first.  The workload's program has no rules of
    its own, so everything found here is such a leftover.
    """
    peer = handle.unwrap()
    remove = getattr(peer, "remove_rules", None)
    leftovers = [rule.rule_id for rule in handle.rules()]
    if remove is not None and leftovers:
        remove(leftovers)
    return len(leftovers)


# ---------------------------------------------------------------------- #
# sizes only the program's internals know
# ---------------------------------------------------------------------- #

def _peers(deployment):
    return list(getattr(getattr(deployment, "runtime", None), "peers", {}).values())


def replication_counters(deployment) -> Dict[str, Optional[float]]:
    """Summed :attr:`ReplicationState.counters` plus the ops ever assigned."""
    totals: Dict[str, float] = {}
    assigned = 0
    seen = False
    for peer in _peers(deployment):
        state = getattr(peer, "replication", None)
        if state is None:
            continue
        seen = True
        for key, value in getattr(state, "counters", {}).items():
            totals[key] = totals.get(key, 0) + value
        for box in getattr(state, "outboxes", {}).values():
            assigned += getattr(box, "seq", 0)
    if not seen:
        return {}
    totals["ops_assigned"] = assigned
    return totals


def provenance_derivations(deployment) -> Optional[int]:
    """Live derivations across every peer's provenance graph."""
    total, seen = 0, False
    for peer in _peers(deployment):
        graph = getattr(getattr(getattr(peer, "engine", None), "provenance", None),
                        "graph", None)
        if graph is not None:
            seen = True
            total += len(graph)
    return total if seen else None
