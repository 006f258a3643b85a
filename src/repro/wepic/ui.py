"""A headless model of the Wepic user interface.

The real system exposes a Web GUI (Figures 1 and 3 of the paper).  The
reproduction models the GUI's frames as plain Python objects so scripts,
tests and benchmarks can drive exactly the interactions the demo walks the
audience through:

* Figure 1 — the *Wepic* tab: my pictures, the selected-attendees column and
  the *Attendee pictures* frame;
* Figure 3 — the *Rules* tab: the peer's installed program, the delegations
  received from other peers, and the banner notifying of pending delegations
  ("Julia is sending a rule to Jules").

:meth:`WepicUI.render` produces a textual rendering of the whole screen,
which the quickstart example prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.wepic.app import WepicApp
from repro.wepic.pictures import Picture


@dataclass(frozen=True)
class PictureCard:
    """One thumbnail of the picture grid."""

    picture_id: int
    name: str
    owner: str

    def __str__(self) -> str:
        return f"[{self.picture_id}] {self.name} ({self.owner})"


@dataclass
class WepicFrame:
    """A titled frame of the UI containing a list of text lines."""

    title: str
    lines: List[str] = field(default_factory=list)

    def render(self) -> str:
        """Textual rendering of the frame."""
        body = "\n".join(f"  {line}" for line in self.lines) or "  (empty)"
        return f"--- {self.title} ---\n{body}"


class WepicUI:
    """Headless view over one attendee's :class:`~repro.wepic.app.WepicApp`."""

    def __init__(self, app: WepicApp):
        self.app = app

    # -- Figure 1: the Wepic tab ----------------------------------------- #

    def my_pictures_frame(self) -> WepicFrame:
        """The attendee's own pictures."""
        cards = [PictureCard(p.picture_id, p.name, p.owner)
                 for p in self.app.local_pictures()]
        return WepicFrame(title=f"My pictures ({self.app.name})",
                          lines=[str(card) for card in sorted(cards, key=lambda c: c.picture_id)])

    def selected_attendees_frame(self) -> WepicFrame:
        """The right-hand column listing the highlighted attendees."""
        return WepicFrame(title="Selected attendees",
                          lines=list(self.app.selected_attendees()))

    def attendee_pictures_frame(self) -> WepicFrame:
        """The *Attendee pictures* frame at the bottom of Figure 1."""
        cards = [PictureCard(p.picture_id, p.name, p.owner)
                 for p in self.app.attendee_pictures()]
        return WepicFrame(title="Attendee pictures",
                          lines=[str(card) for card in cards])

    def ranked_pictures_frame(self) -> WepicFrame:
        """The ranked view (feature 5 of the application)."""
        return WepicFrame(title="Ranked pictures",
                          lines=[str(entry) for entry in self.app.ranked_attendee_pictures()])

    def rating_summary_frame(self) -> WepicFrame:
        """The ranking page backed by the standing aggregate live view.

        Unlike :meth:`ranked_pictures_frame` (which recomputes the ranking in
        Python per render) this frame reads the incrementally-maintained
        ``ratingSummary`` view — refreshing it costs a relation read, and the
        maintenance cost was paid as deltas when the ratings arrived.
        Rendering is **read-only**: the frame shows the view the application
        opened with :meth:`~repro.wepic.app.WepicApp.rating_summary_view`
        and renders empty when no view is open.
        """
        view = self.app.rating_summary_view(install=False)
        if view is None:
            return WepicFrame(title="Rating summary (live view)")
        rows = sorted(view.rows(), key=lambda row: (-(row[1] or 0), row[0]))
        return WepicFrame(
            title="Rating summary (live view)",
            lines=[f"picture {picture_id}: {average:.2f} stars ({count} ratings)"
                   for picture_id, average, count in rows],
        )

    def filtered_wall_frame(self, owner: str) -> WepicFrame:
        """A per-owner filter page over the attendee-pictures wall.

        Read-only like :meth:`rating_summary_frame`: renders the live view
        previously opened with :meth:`~repro.wepic.app.WepicApp.wall_view`,
        or an empty frame when none is open.
        """
        view = self.app.wall_view(owner=owner, install=False)
        if view is None:
            return WepicFrame(title=f"Wall of {owner} (live view)")
        return WepicFrame(
            title=f"Wall of {owner} (live view)",
            lines=[f"[{picture_id}] {name}" for picture_id, name in sorted(view.rows())],
        )

    # -- Figure 3: the Rules tab ------------------------------------------ #

    def rules_frame(self) -> WepicFrame:
        """The peer's installed program (its own rules)."""
        return WepicFrame(title=f"Program of {self.app.name}",
                          lines=[f"{rule.rule_id}: {rule}" for rule in self.app.installed_rules()])

    def delegations_frame(self) -> WepicFrame:
        """Rules installed at this peer by remote delegators."""
        installed = self.app.peer.installed_delegations()
        return WepicFrame(title="Delegated rules",
                          lines=[f"from {d.delegator}: {d.rule}" for d in installed])

    def pending_delegations_frame(self) -> WepicFrame:
        """The pending-delegation banner of Figure 3."""
        pending = self.app.pending_delegations()
        return WepicFrame(title="Pending delegations",
                          lines=[p.describe() for p in pending])

    # -- whole screen ------------------------------------------------------- #

    def frames(self) -> Tuple[WepicFrame, ...]:
        """Every frame of the UI, in display order."""
        return (
            self.my_pictures_frame(),
            self.selected_attendees_frame(),
            self.attendee_pictures_frame(),
            self.ranked_pictures_frame(),
            self.rating_summary_frame(),
            self.rules_frame(),
            self.delegations_frame(),
            self.pending_delegations_frame(),
        )

    def render(self) -> str:
        """Textual rendering of the whole Wepic screen."""
        header = f"=== Wepic — peer {self.app.name} ==="
        return "\n".join([header] + [frame.render() for frame in self.frames()])

    def summary(self) -> Dict[str, int]:
        """Counters per frame (used by tests and the Figure-1 benchmark)."""
        return {
            "my_pictures": len(self.my_pictures_frame().lines),
            "selected_attendees": len(self.selected_attendees_frame().lines),
            "attendee_pictures": len(self.attendee_pictures_frame().lines),
            "rating_summary": len(self.rating_summary_frame().lines),
            "rules": len(self.rules_frame().lines),
            "delegated_rules": len(self.delegations_frame().lines),
            "pending_delegations": len(self.pending_delegations_frame().lines),
        }
