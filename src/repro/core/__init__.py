"""The WebdamLog language and per-peer engine.

The sub-modules are layered roughly as follows::

    terms  ->  schema  ->  facts  ->  unification  ->  rules  ->  parser
    evaluation  ->  delegation  ->  state  ->  engine

``engine.WebdamLogEngine`` is the public entry point used by the runtime; the
lower layers are exported for library users who want to build programs
programmatically rather than through the parser.
"""

from repro.core.terms import Constant, Variable, Term
from repro.core.schema import RelationKind, RelationSchema, SchemaRegistry
from repro.core.facts import Fact, FactStore, Delta
from repro.core.rules import Atom, Rule
from repro.core.parser import parse_program, parse_rule, parse_fact, ParseError
from repro.core.engine import WebdamLogEngine, StageResult

__all__ = [
    "Constant",
    "Variable",
    "Term",
    "RelationKind",
    "RelationSchema",
    "SchemaRegistry",
    "Fact",
    "FactStore",
    "Delta",
    "Atom",
    "Rule",
    "parse_program",
    "parse_rule",
    "parse_fact",
    "ParseError",
    "WebdamLogEngine",
    "StageResult",
]
