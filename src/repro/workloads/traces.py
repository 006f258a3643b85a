"""Event traces: replayable sequences of user actions.

A trace is an ordered list of :class:`TraceEvent` — uploads, selections,
ratings, transfers, rule customisations, peer joins — that can be replayed
against a :class:`~repro.wepic.scenario.DemoScenario`, optionally running the
system to convergence between events.  The scaling and churn benchmarks use
traces so the *same* action sequence is applied to every configuration being
compared.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import WorkloadError
from repro.wepic.annotations import MAX_RATING, MIN_RATING
from repro.wepic.pictures import generate_picture
from repro.workloads.generator import attendee_names

#: Supported trace event kinds.
EVENT_KINDS = (
    "upload", "select", "deselect", "rate", "transfer_select", "set_protocol",
    "authorize_facebook", "customize_rating_filter", "reset_rule", "join",
)


@dataclass(frozen=True)
class TraceEvent:
    """One user action of a trace."""

    kind: str
    attendee: str
    arguments: Tuple = ()

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise WorkloadError(f"unknown trace event kind {self.kind!r}")

    def __str__(self) -> str:
        rendered = ", ".join(str(a) for a in self.arguments)
        return f"{self.kind}({self.attendee}{', ' if rendered else ''}{rendered})"


@dataclass
class WorkloadTrace:
    """An ordered sequence of trace events."""

    events: List[TraceEvent] = field(default_factory=list)
    seed: int = 0

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def append(self, event: TraceEvent) -> "WorkloadTrace":
        """Add one event to the trace."""
        self.events.append(event)
        return self

    def counts_by_kind(self) -> Dict[str, int]:
        """How many events of each kind the trace contains."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def replay(self, scenario, run_between_events: bool = False,
               max_rounds: int = 60) -> Dict[str, int]:
        """Replay the trace against a scenario.

        Returns counters: events applied, rounds executed, messages sent.
        """
        rounds = 0
        messages_before = scenario.system.transport.stats.messages_sent
        for event in self.events:
            self._apply(scenario, event)
            if run_between_events:
                summary = scenario.run(max_rounds=max_rounds)
                rounds += summary.round_count
        if not run_between_events:
            summary = scenario.run(max_rounds=max_rounds)
            rounds += summary.round_count
        return {
            "events": len(self.events),
            "rounds": rounds,
            "messages": scenario.system.transport.stats.messages_sent - messages_before,
        }

    @staticmethod
    def _apply(scenario, event: TraceEvent) -> None:
        if event.kind == "join":
            pictures = event.arguments[0] if event.arguments else 0
            if event.attendee not in scenario.apps:
                scenario.add_attendee(event.attendee, pictures=pictures)
            return
        app = scenario.app(event.attendee)
        if event.kind == "upload":
            picture_id, size = (event.arguments + (None, 64))[:2]
            picture = generate_picture(event.attendee, index=picture_id, size=size)
            app.upload_picture(picture)
        elif event.kind == "select":
            app.select_attendee(event.arguments[0])
        elif event.kind == "deselect":
            app.deselect_attendee(event.arguments[0])
        elif event.kind == "rate":
            picture_id, rating, owner = (event.arguments + (None,))[:3]
            app.rate_picture(picture_id, rating, owner=owner)
        elif event.kind == "transfer_select":
            picture = generate_picture(event.attendee, index=event.arguments[0])
            app.select_picture_for_transfer(picture)
        elif event.kind == "set_protocol":
            app.set_protocol(event.arguments[0])
        elif event.kind == "authorize_facebook":
            picture = generate_picture(event.attendee, index=event.arguments[0])
            app.authorize_facebook(picture)
        elif event.kind == "customize_rating_filter":
            rating = event.arguments[0] if event.arguments else MAX_RATING
            app.restrict_to_rating(rating)
        elif event.kind == "reset_rule":
            app.reset_attendee_pictures_rule()
        else:  # pragma: no cover - guarded by TraceEvent validation
            raise WorkloadError(f"unhandled trace event {event.kind!r}")


def generate_trace(attendees: int = 3, events: int = 20, seed: int = 7,
                   join_probability: float = 0.0) -> WorkloadTrace:
    """Generate a random (but seeded) trace of user actions.

    The generated trace only uses actions that are always valid (uploads,
    selections, ratings of already uploaded pictures, protocol declarations),
    so it can be replayed against any scenario that contains the attendees.
    """
    rng = random.Random(seed)
    names = list(attendee_names(attendees))
    trace = WorkloadTrace(seed=seed)
    uploaded: List[Tuple[str, int]] = []
    next_picture_id = 1000  # avoid clashing with scenario-provided libraries
    joined_counter = attendees

    for _ in range(events):
        roll = rng.random()
        if join_probability and roll < join_probability:
            joined_counter += 1
            new_name = attendee_names(joined_counter)[-1]
            names.append(new_name)
            trace.append(TraceEvent("join", new_name, (0,)))
            continue
        attendee = rng.choice(names)
        action = rng.choice(("upload", "select", "rate", "set_protocol"))
        if action == "upload" or not uploaded:
            trace.append(TraceEvent("upload", attendee, (next_picture_id, 32)))
            uploaded.append((attendee, next_picture_id))
            next_picture_id += 1
        elif action == "select":
            other = rng.choice([n for n in names if n != attendee] or [attendee])
            trace.append(TraceEvent("select", attendee, (other,)))
        elif action == "rate":
            owner, picture_id = rng.choice(uploaded)
            trace.append(TraceEvent("rate", attendee,
                                    (picture_id, rng.randint(MIN_RATING, MAX_RATING), owner)))
        else:
            trace.append(TraceEvent("set_protocol", attendee,
                                    (rng.choice(("email", "wepic")),)))
    return trace
