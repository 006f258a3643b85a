"""Reproduction of the WebdamLog system (SIGMOD 2013 demonstration).

WebdamLog is a distributed, datalog-style rule language in which autonomous
peers exchange both facts and rules.  The two distinguishing features of the
language are:

* **Distribution** — relation and peer names in rules may be variables, so a
  single rule can range over data held by many peers.
* **Delegation** — when the body of a rule refers to relations held by a
  remote peer, the local peer evaluates the longest local prefix of the body
  and installs the partially-instantiated remainder of the rule at the remote
  peer.  Programs therefore move around the network at run time.

This package provides:

* :mod:`repro.api` — **the public facade**: a fluent
  :class:`~repro.api.builder.SystemBuilder` (start from
  :func:`repro.api.system`), the :class:`~repro.api.facade.System` handle it
  builds, the pluggable :class:`~repro.api.Transport` protocol, and the
  query/subscription surface.
* :mod:`repro.core` — the WebdamLog language (terms, facts, rules, parser)
  and the per-peer engine (three-step computation stage, delegation): the
  one rule evaluator, playing the role of the Bud engine used by the
  original system.
* :mod:`repro.datalog` — the stratification of a peer's rules and the
  group-by aggregate functions.
* :mod:`repro.runtime` — transports, peers, and a system orchestrator for
  running networks of WebdamLog peers in-memory (deterministic, measurable
  rounds) or over real sockets (:mod:`repro.net`).
* :mod:`repro.acl` — control of delegation (pending-delegation queues,
  trust), plus the discretionary / provenance-based access-control model the
  paper sketches.
* :mod:`repro.provenance` — why-provenance for derived facts.
* :mod:`repro.wrappers` — the wrapper framework and simulated Facebook,
  email and Dropbox services.
* :mod:`repro.wepic` — the Wepic conference picture-sharing application
  built from WebdamLog rules, including the three-peer demo scenario.
* :mod:`repro.workloads` — the seeded Zipf sampler of the benchmark's
  rating streams.
"""

from repro.core.terms import Constant, Variable
from repro.core.facts import Fact
from repro.core.rules import Atom, Rule
from repro.core.schema import RelationKind, RelationSchema, SchemaRegistry
from repro.core.parser import parse_program, parse_rule, parse_fact
from repro.core.engine import WebdamLogEngine
from repro.runtime.system import WebdamLogSystem
from repro.runtime.peer import Peer
from repro.api import SystemBuilder, system

__version__ = "1.0.0"

__all__ = [
    "system",
    "SystemBuilder",
    "Constant",
    "Variable",
    "Fact",
    "Atom",
    "Rule",
    "RelationKind",
    "RelationSchema",
    "SchemaRegistry",
    "parse_program",
    "parse_rule",
    "parse_fact",
    "WebdamLogEngine",
    "WebdamLogSystem",
    "Peer",
    "__version__",
]
