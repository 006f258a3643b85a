"""A simulated Facebook service and its WebdamLog wrappers.

The real system wraps the Facebook Graph API.  The simulation models the
parts of Facebook the Wepic application touches:

* users and friendship edges,
* groups and group membership (the demo uses the ``SigmodFB`` group),
* photos posted by users or into groups,
* comments and name tags on photos.

Two wrappers expose this data to WebdamLog, exactly as in the paper:

* :class:`FacebookUserWrapper` simulates a peer ``<user>FB`` with relations
  ``friends@<user>FB($userID, $friendName)`` and
  ``pictures@<user>FB($picID, $owner, $URL)``;
* :class:`FacebookGroupWrapper` simulates a peer for a group (``SigmodFB``)
  with relations ``pictures@SigmodFB``, ``comments@SigmodFB`` and
  ``tags@SigmodFB``; pictures inserted into ``pictures@SigmodFB`` by other
  peers are posted to the group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.errors import WrapperError
from repro.core.facts import Fact
from repro.core.schema import RelationKind, RelationSchema
from repro.wrappers.base import PseudoPeerWrapper


@dataclass(frozen=True)
class FacebookPhoto:
    """A photo stored by the simulated Facebook service."""

    photo_id: int
    owner: str
    name: str
    data: str
    group: Optional[str] = None


@dataclass(frozen=True)
class FacebookComment:
    """A comment on a photo."""

    photo_id: int
    author: str
    text: str


@dataclass(frozen=True)
class FacebookTag:
    """A name tag on a photo."""

    photo_id: int
    tagged_user: str


class FacebookService:
    """In-memory model of the parts of Facebook used by Wepic.

    Every mutator bumps :attr:`version`, so a wrapper can tell "nothing
    happened since I last looked" without fetching anything.
    """

    def __init__(self):
        #: Change counter: bumped by every call that writes to the service.
        self.version = 0
        self._users: Set[str] = set()
        self._friends: Dict[str, Set[str]] = {}
        self._groups: Dict[str, Set[str]] = {}
        self._photos: Dict[int, FacebookPhoto] = {}
        self._comments: List[FacebookComment] = []
        self._tags: List[FacebookTag] = []
        self._photo_counter = itertools.count(1)

    # -- users and friendships ------------------------------------------- #

    def add_user(self, user: str) -> None:
        """Create a user account (idempotent)."""
        self.version += 1
        self._users.add(user)
        self._friends.setdefault(user, set())

    def users(self) -> Tuple[str, ...]:
        """Registered users, sorted."""
        return tuple(sorted(self._users))

    def add_friendship(self, user: str, friend: str) -> None:
        """Create a (symmetric) friendship edge; both accounts must exist."""
        for account in (user, friend):
            if account not in self._users:
                raise WrapperError(f"unknown Facebook user {account!r}")
        self.version += 1
        self._friends[user].add(friend)
        self._friends[friend].add(user)

    def friends_of(self, user: str) -> Tuple[str, ...]:
        """Friends of ``user``, sorted."""
        return tuple(sorted(self._friends.get(user, set())))

    # -- groups ------------------------------------------------------------ #

    def create_group(self, group: str) -> None:
        """Create a group (idempotent)."""
        self.version += 1
        self._groups.setdefault(group, set())

    def join_group(self, group: str, user: str) -> None:
        """Add ``user`` to ``group`` (both must exist)."""
        if group not in self._groups:
            raise WrapperError(f"unknown Facebook group {group!r}")
        if user not in self._users:
            raise WrapperError(f"unknown Facebook user {user!r}")
        self.version += 1
        self._groups[group].add(user)

    def group_members(self, group: str) -> Tuple[str, ...]:
        """Members of ``group``, sorted."""
        return tuple(sorted(self._groups.get(group, set())))

    def is_member(self, group: str, user: str) -> bool:
        """``True`` when ``user`` belongs to ``group``."""
        return user in self._groups.get(group, set())

    # -- photos ------------------------------------------------------------ #

    def post_photo(self, owner: str, name: str, data: str,
                   group: Optional[str] = None,
                   photo_id: Optional[int] = None,
                   require_membership: bool = True) -> FacebookPhoto:
        """Post a photo, optionally into a group.

        Posting into a group requires membership unless
        ``require_membership=False`` (the sigmod peer posts on behalf of
        authorised attendees, who are all members in the demo).
        """
        if owner not in self._users:
            raise WrapperError(f"unknown Facebook user {owner!r}")
        if group is not None:
            if group not in self._groups:
                raise WrapperError(f"unknown Facebook group {group!r}")
            if require_membership and not self.is_member(group, owner):
                raise WrapperError(f"{owner!r} is not a member of group {group!r}")
        if photo_id is None:
            photo_id = next(self._photo_counter)
        while photo_id in self._photos:
            photo_id = next(self._photo_counter)
        photo = FacebookPhoto(photo_id=photo_id, owner=owner, name=name, data=data,
                              group=group)
        self.version += 1
        self._photos[photo_id] = photo
        return photo

    def photos_of(self, owner: str) -> Tuple[FacebookPhoto, ...]:
        """Photos posted by ``owner`` (to their profile or to groups)."""
        return tuple(sorted((p for p in self._photos.values() if p.owner == owner),
                            key=lambda p: p.photo_id))

    def photos_in_group(self, group: str) -> Tuple[FacebookPhoto, ...]:
        """Photos posted into ``group``."""
        return tuple(sorted((p for p in self._photos.values() if p.group == group),
                            key=lambda p: p.photo_id))

    def photo(self, photo_id: int) -> Optional[FacebookPhoto]:
        """Look up a photo by id."""
        return self._photos.get(photo_id)

    def photo_count(self) -> int:
        """Total number of photos stored by the service."""
        return len(self._photos)

    # -- comments and tags -------------------------------------------------- #

    def add_comment(self, photo_id: int, author: str, text: str) -> FacebookComment:
        """Comment on a photo."""
        if photo_id not in self._photos:
            raise WrapperError(f"unknown photo {photo_id!r}")
        comment = FacebookComment(photo_id=photo_id, author=author, text=text)
        self.version += 1
        self._comments.append(comment)
        return comment

    def add_tag(self, photo_id: int, tagged_user: str) -> FacebookTag:
        """Tag a user on a photo."""
        if photo_id not in self._photos:
            raise WrapperError(f"unknown photo {photo_id!r}")
        tag = FacebookTag(photo_id=photo_id, tagged_user=tagged_user)
        self.version += 1
        self._tags.append(tag)
        return tag

    def comments_on(self, photo_id: int) -> Tuple[FacebookComment, ...]:
        """Comments on one photo, in insertion order."""
        return tuple(c for c in self._comments if c.photo_id == photo_id)

    def tags_on(self, photo_id: int) -> Tuple[FacebookTag, ...]:
        """Tags on one photo, in insertion order."""
        return tuple(t for t in self._tags if t.photo_id == photo_id)

    def all_comments(self) -> Tuple[FacebookComment, ...]:
        """Every comment stored by the service."""
        return tuple(self._comments)

    def all_tags(self) -> Tuple[FacebookTag, ...]:
        """Every tag stored by the service."""
        return tuple(self._tags)


class FacebookUserWrapper(PseudoPeerWrapper):
    """Expose one Facebook account as a pseudo-peer ``<user>FB``.

    The two exported relations match the paper::

        friends@ÉmilienFB($userID, $friendName)
        pictures@ÉmilienFB($picID, $owner, $URL)
    """

    service_name = "facebook"
    writable_relations = ("pictures",)

    def __init__(self, service: FacebookService, user: str,
                 peer_name: Optional[str] = None):
        super().__init__()
        self.service = service
        self.user = user
        self.peer_name = peer_name or f"{user}FB"
        service.add_user(user)

    def exported_schemas(self) -> Tuple[RelationSchema, ...]:
        return (
            RelationSchema(name="friends", peer=self.peer_name,
                           columns=("userID", "friendName")),
            RelationSchema(name="pictures", peer=self.peer_name,
                           columns=("picID", "owner", "url")),
        )

    def service_facts(self) -> Set[Fact]:
        facts: Set[Fact] = set()
        for friend in self.service.friends_of(self.user):
            facts.add(Fact("friends", self.peer_name, (self.user, friend)))
        for photo in self.service.photos_of(self.user):
            facts.add(Fact("pictures", self.peer_name,
                           (photo.photo_id, photo.owner, photo.name)))
        return facts

    def push_to_service(self, fact: Fact) -> None:
        if fact.relation != "pictures" or len(fact.values) != 3:
            raise WrapperError(f"cannot push fact {fact} to Facebook")
        photo_id, owner, name = fact.values
        self.service.post_photo(owner=str(owner), name=str(name), data="",
                                photo_id=int(photo_id) if photo_id is not None else None,
                                require_membership=False)


class FacebookGroupWrapper(PseudoPeerWrapper):
    """Expose one Facebook group (``SigmodFB`` in the demo) as a pseudo-peer.

    Exported relations::

        pictures@SigmodFB($id, $name, $owner, $data)
        comments@SigmodFB($picID, $author, $text)
        tags@SigmodFB($picID, $attendee)

    Facts inserted into ``pictures@SigmodFB`` by other peers (via the
    auto-publication rule of the sigmod peer) are posted into the group.
    """

    service_name = "facebook"
    writable_relations = ("pictures",)

    def __init__(self, service: FacebookService, group: str,
                 peer_name: Optional[str] = None,
                 require_membership: bool = False):
        super().__init__()
        self.service = service
        self.group = group
        self.peer_name = peer_name or f"{group}FB"
        self.require_membership = require_membership
        service.create_group(group)

    def exported_schemas(self) -> Tuple[RelationSchema, ...]:
        return (
            RelationSchema(name="pictures", peer=self.peer_name,
                           columns=("id", "name", "owner", "data")),
            RelationSchema(name="comments", peer=self.peer_name,
                           columns=("picID", "author", "text")),
            RelationSchema(name="tags", peer=self.peer_name,
                           columns=("picID", "attendee")),
        )

    def service_facts(self) -> Set[Fact]:
        facts: Set[Fact] = set()
        for photo in self.service.photos_in_group(self.group):
            facts.add(Fact("pictures", self.peer_name,
                           (photo.photo_id, photo.name, photo.owner, photo.data)))
            for comment in self.service.comments_on(photo.photo_id):
                facts.add(Fact("comments", self.peer_name,
                               (photo.photo_id, comment.author, comment.text)))
            for tag in self.service.tags_on(photo.photo_id):
                facts.add(Fact("tags", self.peer_name,
                               (photo.photo_id, tag.tagged_user)))
        return facts

    def push_to_service(self, fact: Fact) -> None:
        if fact.relation != "pictures" or len(fact.values) != 4:
            raise WrapperError(f"cannot push fact {fact} to the {self.group} group")
        photo_id, name, owner, data = fact.values
        owner = str(owner)
        if owner not in self.service.users():
            # The demo lets any Wepic user publish via the sigmod peer even
            # without a Facebook account; the service models this by creating
            # a shadow account.
            self.service.add_user(owner)
        self.service.post_photo(
            owner=owner, name=str(name), data=str(data), group=self.group,
            photo_id=int(photo_id) if isinstance(photo_id, int) else None,
            require_membership=self.require_membership,
        )
