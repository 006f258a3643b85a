"""The per-attendee Wepic application object.

:class:`WepicApp` wraps one :class:`~repro.api.PeerHandle` and exposes the
five units of functionality listed in Section 3 of the paper:

1. upload a picture from a file or a URL;
2. view pictures provided by a particular attendee;
3. transfer pictures (by email, to the Facebook group, or to another peer);
4. annotate pictures with ratings, comments or name tags;
5. select and rank photos based on their annotations.

plus the rule inspection / customisation operations that the demo walks the
audience through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.api.facade import PeerHandle
from repro.core.facts import Fact
from repro.core.rules import Rule
from repro.wepic.annotations import Comment, NameTag, Rating
from repro.wepic.pictures import Picture, PictureLibrary, generate_picture
from repro.wepic.rules import WepicRules


class WepicApp:
    """The Wepic application running at one attendee's peer.

    Parameters
    ----------
    handle:
        The :class:`~repro.api.PeerHandle` of the peer that hosts the
        application.  The app works on the underlying runtime peer
        (``self.peer``); the handle powers the live-view pages, whose
        declarative queries need the facade.
    rules:
        The rule factory (shared across the scenario so every app agrees on
        the names of the sigmod and Facebook-group peers).
    install_rules:
        Whether to install the default attendee rule set immediately.
    publish_to_sigmod:
        Whether the default rule set includes the rule that publishes every
        local picture to ``pictures@sigmod``.
    """

    def __init__(self, handle: PeerHandle, rules: Optional[WepicRules] = None,
                 install_rules: bool = True, publish_to_sigmod: bool = True):
        self.handle = handle
        self.peer = peer = handle.unwrap()
        self._views: Dict[str, object] = {}
        self.rules = rules or WepicRules()
        self._rule_ids: Dict[str, str] = {}
        for schema in self._schemas():
            peer.declare(schema)
        if install_rules:
            self.install_default_rules(publish_to_sigmod=publish_to_sigmod)

    def _schemas(self):
        from repro.wepic.rules import attendee_schemas

        return attendee_schemas(self.peer.name)

    @property
    def name(self) -> str:
        """The attendee (peer) name."""
        return self.peer.name

    # ------------------------------------------------------------------ #
    # rules
    # ------------------------------------------------------------------ #

    def install_default_rules(self, publish_to_sigmod: bool = True) -> Dict[str, str]:
        """Install the canonical attendee rule set; returns ``{logical name: rule id}``."""
        named_rules = {
            "attendee_pictures": self.rules.attendee_pictures_rule(self.name),
            "attendee_ratings": self.rules.attendee_ratings_rule(self.name),
            "transfer": self.rules.transfer_rule(self.name),
        }
        if publish_to_sigmod:
            named_rules["publish_to_sigmod"] = self.rules.publish_to_sigmod_rule(self.name)
        for logical_name, rule in named_rules.items():
            installed = self.peer.add_rule(rule)
            self._rule_ids[logical_name] = installed.rule_id
        return dict(self._rule_ids)

    def rule_id(self, logical_name: str) -> str:
        """The rule id behind a logical rule name (e.g. ``"attendee_pictures"``)."""
        return self._rule_ids[logical_name]

    def installed_rules(self) -> Tuple[Rule, ...]:
        """The peer's own rules (for the *Rules* tab of the UI)."""
        return self.peer.rules()

    def customize_attendee_pictures(self, new_rule: Union[str, Rule]) -> Rule:
        """Replace the attendee-pictures rule (the demo's "customizing rules" step)."""
        replaced = self.peer.replace_rule(self._rule_ids["attendee_pictures"], new_rule)
        return replaced

    def restrict_to_rating(self, rating: int = 5) -> Rule:
        """Customise the attendee-pictures rule to keep only pictures rated ``rating``."""
        return self.customize_attendee_pictures(
            self.rules.rating_filtered_rule(self.name, rating)
        )

    def restrict_to_owner(self, owner: str) -> Rule:
        """Customise the attendee-pictures rule to keep only pictures taken by ``owner``."""
        return self.customize_attendee_pictures(
            self.rules.owner_filtered_rule(self.name, owner)
        )

    def restrict_to_tagged(self, attendee: str) -> Rule:
        """Customise the attendee-pictures rule to pictures in which ``attendee`` appears."""
        return self.customize_attendee_pictures(
            self.rules.tagged_attendee_rule(self.name, attendee)
        )

    def reset_attendee_pictures_rule(self) -> Rule:
        """Restore the original (unfiltered) attendee-pictures rule."""
        return self.customize_attendee_pictures(
            self.rules.attendee_pictures_rule(self.name)
        )

    def add_rule(self, rule: Union[str, Rule]) -> Rule:
        """Add a brand new rule written by the user (the *Query* tab)."""
        return self.peer.add_rule(rule)

    # ------------------------------------------------------------------ #
    # 1. uploading pictures
    # ------------------------------------------------------------------ #

    def upload_picture(self, picture: Optional[Picture] = None, name: Optional[str] = None,
                       data: Optional[str] = None, picture_id: Optional[int] = None,
                       size: int = 64) -> Picture:
        """Upload a picture to the local ``pictures`` relation.

        Either pass a ready-made :class:`Picture` (e.g. from a library) or
        let the method synthesise one ("from a file or a URL" in the demo).
        """
        if picture is None:
            picture = generate_picture(self.name, index=picture_id, size=size)
            if name is not None:
                picture = Picture(picture_id=picture.picture_id, name=name,
                                  owner=self.name, data=data or picture.data)
        self.peer.insert_fact(picture.to_fact(peer=self.name))
        return picture

    def upload_library(self, library: PictureLibrary) -> int:
        """Upload every picture of a library; returns how many were inserted."""
        for picture in library:
            self.peer.insert_fact(picture.to_fact(peer=self.name))
        return len(library)

    def local_pictures(self) -> Tuple[Picture, ...]:
        """The pictures stored at this peer."""
        return tuple(Picture.from_fact(f) for f in self.peer.query("pictures"))

    def remove_picture(self, picture_id: int) -> int:
        """Delete a local picture by id; returns how many facts were removed."""
        removed = 0
        for fact in list(self.peer.query("pictures")):
            if fact.values and fact.values[0] == picture_id:
                self.peer.delete_fact(fact)
                removed += 1
        return removed

    # ------------------------------------------------------------------ #
    # 2. viewing pictures of attendees
    # ------------------------------------------------------------------ #

    def select_attendee(self, attendee: str) -> None:
        """Highlight an attendee (right-hand column of Figure 1)."""
        self.peer.insert_fact(Fact("selectedAttendee", self.name, (attendee,)))

    def deselect_attendee(self, attendee: str) -> None:
        """Remove an attendee from the selection."""
        self.peer.delete_fact(Fact("selectedAttendee", self.name, (attendee,)))

    def selected_attendees(self) -> Tuple[str, ...]:
        """The currently selected attendees, sorted."""
        return tuple(sorted(str(f.values[0]) for f in self.peer.query("selectedAttendee")))

    def attendee_pictures(self) -> Tuple[Picture, ...]:
        """The contents of the *Attendee pictures* frame (Figure 1, bottom)."""
        return tuple(sorted(
            (Picture.from_fact(f) for f in self.peer.query("attendeePictures")),
            key=lambda p: (p.owner, p.picture_id),
        ))

    # ------------------------------------------------------------------ #
    # 3. transferring pictures
    # ------------------------------------------------------------------ #

    def set_protocol(self, protocol: str) -> None:
        """Declare this attendee's preferred communication protocol."""
        self.peer.insert_fact(Fact("communicate", self.name, (protocol,)))

    def protocols(self) -> Tuple[str, ...]:
        """The protocols this attendee accepts."""
        return tuple(sorted(str(f.values[0]) for f in self.peer.query("communicate")))

    def select_picture_for_transfer(self, picture: Picture) -> None:
        """Mark one picture for transfer (``selectedPictures`` relation)."""
        self.peer.insert_fact(Fact("selectedPictures", self.name,
                                   (picture.name, picture.picture_id, picture.owner)))

    def clear_transfer_selection(self) -> None:
        """Unselect every picture marked for transfer."""
        for fact in list(self.peer.query("selectedPictures")):
            self.peer.delete_fact(fact)

    def received_transfers(self) -> Tuple[Fact, ...]:
        """Pictures received directly in this Wepic peer (``wepic`` relation)."""
        return self.peer.query("wepic")

    def authorize_facebook(self, picture: Picture) -> None:
        """Authorise the publication of one picture to the Facebook group."""
        self.peer.insert_fact(Fact("authorized", self.name,
                                   ("Facebook", picture.picture_id, picture.owner)))

    def authorize_all_facebook(self) -> int:
        """Authorise every local picture for Facebook publication."""
        count = 0
        for picture in self.local_pictures():
            self.authorize_facebook(picture)
            count += 1
        return count

    # ------------------------------------------------------------------ #
    # 4. annotations
    # ------------------------------------------------------------------ #

    def rate_picture(self, picture_id: int, rating: int,
                     owner: Optional[str] = None) -> Rating:
        """Rate a picture.  The rating is stored locally and pushed to the owner's peer."""
        annotation = Rating(picture_id=picture_id, author=self.name, value=rating)
        self.peer.insert_fact(annotation.to_fact(peer=self.name))
        if owner is not None and owner != self.name:
            self.peer.insert_fact(annotation.to_fact(peer=owner))
        return annotation

    def comment_picture(self, picture_id: int, text: str,
                        owner: Optional[str] = None) -> Comment:
        """Comment on a picture (stored locally, optionally pushed to the owner)."""
        annotation = Comment(picture_id=picture_id, author=self.name, text=text)
        self.peer.insert_fact(annotation.to_fact(peer=self.name))
        if owner is not None and owner != self.name:
            self.peer.insert_fact(annotation.to_fact(peer=owner))
        return annotation

    def tag_picture(self, picture_id: int, attendee: str,
                    owner: Optional[str] = None) -> NameTag:
        """Tag an attendee on a picture (stored locally, optionally pushed to the owner)."""
        annotation = NameTag(picture_id=picture_id, author=self.name, attendee=attendee)
        self.peer.insert_fact(annotation.to_fact(peer=self.name))
        if owner is not None and owner != self.name:
            self.peer.insert_fact(annotation.to_fact(peer=owner))
        return annotation

    def ratings(self) -> Tuple[Rating, ...]:
        """The ratings stored at this peer (its own plus those pushed by others)."""
        from repro.wepic.annotations import rating_from_fact

        return tuple(rating_from_fact(f) for f in self.peer.query("rate"))

    def gathered_ratings(self) -> Tuple[Fact, ...]:
        """Ratings gathered from the selected attendees (``attendeeRatings`` view)."""
        return self.peer.query("attendeeRatings")

    # ------------------------------------------------------------------ #
    # 5. selection and ranking
    # ------------------------------------------------------------------ #

    def ranked_attendee_pictures(self, min_rating: float = 0.0):
        """Rank the attendee pictures by their average gathered rating."""
        from repro.wepic.ranking import rank_pictures

        rating_facts = self.gathered_ratings() + tuple(
            Fact("rate", self.name, (r.picture_id, r.value)) for r in self.ratings()
        )
        return rank_pictures(self.attendee_pictures(), rating_facts, min_rating=min_rating)

    # ------------------------------------------------------------------ #
    # live-view pages (declarative query API)
    # ------------------------------------------------------------------ #

    def _standing_view(self, key: str, factory, install: bool = True):
        view = self._views.get(key)
        if view is not None and view.closed:
            view = None
        if view is None and install:
            view = self._views[key] = factory()
        return view

    def rating_summary_view(self, viewer: Optional[str] = None,
                            install: bool = True):
        """The ranking page as a standing aggregate live view.

        One maintained view ``ratingSummary($id, avg($rating),
        count($rating))`` over the gathered ``attendeeRatings`` — churn in
        the selected attendees' ratings is absorbed incrementally instead of
        re-running the ranking query per refresh.  ``install=False`` only
        returns an already-open view (``None`` otherwise) — the read-only UI
        renders through that, so drawing a frame never mutates the program.
        """
        return self._standing_view(f"rating_summary:{viewer}", lambda: self.handle.query(
            f"ratingSummary($id, avg($rating), count($rating)) :- "
            f"attendeeRatings@{self.name}($id, $rating)",
            viewer=viewer,
            name=f"ratingSummary_{self.name}",
        ), install=install)

    def wall_view(self, owner: Optional[str] = None, rating: Optional[int] = None,
                  viewer: Optional[str] = None, install: bool = True):
        """The *Attendee pictures* filter page as a standing live view.

        ``owner`` restricts the wall to one attendee's pictures (a bound
        argument, answered from the hash indexes); ``rating`` additionally
        keeps only pictures the owner rated with that value, mirroring the
        demo's "customizing rules" filters — but as an ad-hoc view, without
        touching the user-visible program.  ``install=False`` only returns
        an already-open matching view (``None`` otherwise).
        """
        me = self.name
        owner_term = f'"{owner}"' if owner is not None else "$owner"
        body = f"attendeePictures@{me}($id, $name, {owner_term}, $data)"
        head_owner = "" if owner is not None else ", $owner"
        if rating is not None:
            body += f", rate@{me}($id, {int(rating)})"
        query = (f"wall($id, $name{head_owner}) :- {body}")
        return self._standing_view(
            f"wall:{owner}:{rating}:{viewer}",
            lambda: self.handle.query(query, viewer=viewer), install=install)

    def close_views(self, settle: bool = True) -> int:
        """Close every standing live view opened by this app; returns how many."""
        closed = 0
        for view in self._views.values():
            if not view.closed:
                view.close(settle=settle)
                closed += 1
        self._views.clear()
        return closed

    # ------------------------------------------------------------------ #
    # delegation control (Section 3 / Figure 3)
    # ------------------------------------------------------------------ #

    def pending_delegations(self):
        """Delegations from untrusted peers awaiting this user's approval."""
        return self.peer.pending_delegations()

    def approve_delegation(self, delegation_id: str):
        """Approve one pending delegation."""
        return self.peer.approve_delegation(delegation_id)

    def reject_delegation(self, delegation_id: str):
        """Reject one pending delegation."""
        return self.peer.reject_delegation(delegation_id)
