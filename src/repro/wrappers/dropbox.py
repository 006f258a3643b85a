"""A simulated Dropbox service and its WebdamLog wrapper.

The paper's introduction motivates WebdamLog with a user whose data is spread
across a blog, Facebook, Dropbox, a smartphone and a laptop.  The Dropbox
wrapper exposes one user's folder as a pseudo-peer::

    files@<user>Dropbox($path, $name, $size)
    sharedLinks@<user>Dropbox($path, $url)

Facts inserted into ``files@<user>Dropbox`` by rules (e.g. "copy every
5-star picture to my Dropbox") are uploaded to the simulated service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.core.errors import WrapperError
from repro.core.facts import Fact
from repro.core.schema import RelationSchema
from repro.wrappers.base import PseudoPeerWrapper


@dataclass(frozen=True)
class DropboxFile:
    """A file stored by the simulated Dropbox service."""

    owner: str
    path: str
    name: str
    size: int


class DropboxService:
    """An in-memory file store with per-user folders and shareable links.

    Every mutator bumps :attr:`version` (see
    :meth:`repro.wrappers.base.PseudoPeerWrapper.service_version`).
    """

    def __init__(self):
        #: Change counter: bumped by every call that writes to the service.
        self.version = 0
        self._files: Dict[Tuple[str, str], DropboxFile] = {}
        self._links: Dict[Tuple[str, str], str] = {}

    def upload(self, owner: str, path: str, name: str, size: int) -> DropboxFile:
        """Store (or overwrite) a file in ``owner``'s folder."""
        if not path.startswith("/"):
            raise WrapperError(f"Dropbox path must be absolute, got {path!r}")
        record = DropboxFile(owner=owner, path=path, name=name, size=int(size))
        self.version += 1
        self._files[(owner, path)] = record
        return record

    def delete(self, owner: str, path: str) -> bool:
        """Delete a file; returns ``True`` when it existed."""
        self.version += 1
        removed = self._files.pop((owner, path), None) is not None
        self._links.pop((owner, path), None)
        return removed

    def files_of(self, owner: str) -> Tuple[DropboxFile, ...]:
        """Every file in ``owner``'s folder, sorted by path."""
        return tuple(sorted((f for (o, _), f in self._files.items() if o == owner),
                            key=lambda f: f.path))

    def get(self, owner: str, path: str) -> Optional[DropboxFile]:
        """Look up one file."""
        return self._files.get((owner, path))

    def share(self, owner: str, path: str) -> str:
        """Create (or return) a shareable link for a file."""
        if (owner, path) not in self._files:
            raise WrapperError(f"cannot share non-existent file {path!r}")
        link = self._links.get((owner, path))
        if link is None:
            link = f"https://dropbox.example/s/{owner}{path.replace('/', '-')}"
            self.version += 1
            self._links[(owner, path)] = link
        return link

    def links_of(self, owner: str) -> Tuple[Tuple[str, str], ...]:
        """Every ``(path, url)`` pair shared by ``owner``, sorted by path."""
        return tuple(sorted(((path, url) for (o, path), url in self._links.items()
                             if o == owner)))


class DropboxWrapper(PseudoPeerWrapper):
    """Expose one user's Dropbox folder as a pseudo-peer ``<user>Dropbox``."""

    service_name = "dropbox"
    writable_relations = ("files",)

    def __init__(self, service: DropboxService, user: str,
                 peer_name: Optional[str] = None):
        super().__init__()
        self.service = service
        self.user = user
        self.peer_name = peer_name or f"{user}Dropbox"

    def exported_schemas(self) -> Tuple[RelationSchema, ...]:
        return (
            RelationSchema(name="files", peer=self.peer_name,
                           columns=("path", "name", "size")),
            RelationSchema(name="sharedLinks", peer=self.peer_name,
                           columns=("path", "url")),
        )

    def service_facts(self) -> Set[Fact]:
        facts: Set[Fact] = set()
        for record in self.service.files_of(self.user):
            facts.add(Fact("files", self.peer_name, (record.path, record.name, record.size)))
        for path, url in self.service.links_of(self.user):
            facts.add(Fact("sharedLinks", self.peer_name, (path, url)))
        return facts

    def push_to_service(self, fact: Fact) -> None:
        if fact.relation != "files" or len(fact.values) != 3:
            raise WrapperError(f"cannot push fact {fact} to Dropbox")
        path, name, size = fact.values
        path = str(path)
        if not path.startswith("/"):
            path = "/" + path
        self.service.upload(owner=self.user, path=path, name=str(name),
                            size=int(size) if size is not None else 0)
