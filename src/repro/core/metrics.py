"""Where a peer's work is counted: one registry per engine.

Each :class:`~repro.core.engine.WebdamLogEngine` owns one :data:`Metrics`,
keyed ``(layer, name)``, and hands it to its planner (``"planner"``), its
storage backend (``"store"``) and its peer's causal replication
(``"replication"``); the engine counts each stage under ``"core"``.  Each
bumps its counts where the work happens.  A count never bumped reads 0, so
no owner initialises one.  A deployment reads the registries through
:meth:`repro.runtime.system.WebdamLogSystem.metrics`.
"""

from typing import Counter, Tuple

Metrics = Counter[Tuple[str, str]]
