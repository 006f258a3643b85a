"""What every workload gives the harness.

A workload owns four things: a seeded **generator** (the op list, fixed
before the program sees it), a **set-up** (build, bulk-load, open standing
views, converge), an **apply** step (the timed part: issue one op at its
origin and drive the deployment until it settles) and a **check** step (the
untimed part: step the oracle, read every dependent view, compare).
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

#: op classes — the end-to-end latency metrics are per class
UPDATE, RETRACT, READ, VIEW_OPEN, EXPLAIN, CHURN = (
    "update", "retract", "read", "view_open", "explain", "churn")


class Op(NamedTuple):
    cls: str
    kind: str
    args: tuple


class Seen:
    """What the harness learns from one applied op, beyond its duration."""

    __slots__ = ("converged", "rounds", "stages", "idle_stages", "messages", "answer")

    def __init__(self, converged: bool = True, rounds: int = 0, stages: int = 0,
                 idle_stages: int = 0, messages: int = 0, answer=None):
        self.converged = converged
        self.rounds = rounds
        self.stages = stages
        self.idle_stages = idle_stages
        self.messages = messages
        self.answer = answer

    def absorb(self, summary) -> "Seen":
        """Fold one ``converge()`` :class:`RunSummary` into this record."""
        self.converged = self.converged and bool(summary.converged)
        # cycles until the last one that did any work; the op itself needs one
        self.rounds += max(1, summary.rounds_to_convergence)
        self.messages += summary.total_messages()
        for report in summary.rounds:
            for stage in report.peer_reports.values():
                self.stages += 1
                if stage.is_quiescent():
                    self.idle_stages += 1
        return self


#: share of the op list replayed untimed at the end of every set-up
WARMUP_SHARE = 0.05


def warmup_count(total: int) -> int:
    return max(1, int(total * WARMUP_SHARE))


def exact_mix(total: int, shares: Sequence[Tuple[str, float]],
              rng: random.Random, rare: Sequence[str] = ()) -> List[str]:
    """``total`` kinds in seeded order with *exact* per-kind counts.

    Largest-remainder rounding: every seed gets the same number of each kind,
    so a class median never moves because one seed drew more expensive ops.
    Every kind with a positive share gets at least one op.

    Each kind's occurrences are spread over the list, one per stride of
    ``total / count`` slots at a seeded offset inside its stride — so every
    prefix of the list (``lossy_mesh`` runs one) holds each kind within one op
    of its share.  Kinds named in ``rare`` (the few, expensive ones whose cost
    follows the size of a store that grows during the run) sit at the middle
    of their strides and after the warm-up prefix, so neither ``setup_s`` nor
    their median depends on where a seed happened to drop them.
    """
    weight = sum(share for _kind, share in shares)
    raw = [(kind, total * share / weight) for kind, share in shares]
    counts = {kind: max(1, int(amount)) if amount > 0 else 0 for kind, amount in raw}
    leftovers = sorted(raw, key=lambda item: item[1] - int(item[1]), reverse=True)
    index = 0
    while sum(counts.values()) < total:
        counts[leftovers[index % len(leftovers)][0]] += 1
        index += 1
    placed: List[Tuple[float, str]] = []
    for kind, _share in shares:
        for occurrence in range(counts[kind]):
            if kind in rare:
                at = WARMUP_SHARE + (1 - WARMUP_SHARE) * (occurrence + 0.5) / counts[kind]
            else:
                at = (occurrence + rng.random()) / counts[kind]
            placed.append((at, kind))
    placed.sort(key=lambda item: item[0])
    return [kind for _at, kind in placed]


def digest(plan) -> str:
    """sha256 of a generated plan (initial state + op list)."""
    encoded = json.dumps(plan, sort_keys=True, default=list, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


class Workload:
    """Base class; subclasses fill in the hooks."""

    name = ""
    #: workloads of one family draw from the same seeded stream
    family = ""
    #: ops the calibration box gets through per second of ``--seconds``
    ops_per_second = 10.0
    #: fewest measured ops worth reporting percentiles on
    min_ops = 20

    def __init__(self, seed: int, seconds: float, scale: float = 1.0,
                 traced: bool = False, workdir: Optional[str] = None):
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.traced = traced
        self.workdir = workdir
        self.rng = random.Random(f"{self.family or self.name}/{seed}")
        self.ops: List[Op] = []
        self.initial: Dict[str, object] = {}

    def op_count(self, rate: Optional[float] = None) -> int:
        return max(self.min_ops,
                   round((rate or self.ops_per_second) * self.seconds * self.scale))

    def scaled(self, size: int, floor: int = 1) -> int:
        return max(floor, round(size * self.scale))

    # -- hooks ---------------------------------------------------------------- #

    def generate(self) -> None:
        """Fill :attr:`initial` and :attr:`ops` from the seed alone."""
        raise NotImplementedError

    def sizes(self) -> Dict[str, object]:
        return {}

    def setup(self) -> None:
        raise NotImplementedError

    def begin_measured(self) -> None:
        """Warm-up is over: zero whatever this workload counts by itself."""

    def apply(self, op: Op) -> Seen:
        raise NotImplementedError

    def check(self, op: Op, seen: Seen) -> bool:
        raise NotImplementedError

    def final_check(self) -> bool:
        return True

    def teardown(self) -> None:
        pass

    def modes(self) -> Dict[str, object]:
        return {}

    def workload_metrics(self, samples: Dict[str, List[float]]) -> Dict[str, Optional[float]]:
        """Metrics only this workload has (``recovery_s``, ...).

        ``samples`` holds every measured op's calibrated duration in
        milliseconds, by op class.
        """
        return {}

    def layer_counts(self) -> Dict[str, Optional[float]]:
        """Per-layer counts read off the deployment when the run ends."""
        return {}

    def plan_digest(self) -> str:
        return digest({"initial": self.initial, "ops": self.ops})
