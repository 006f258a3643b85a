"""Wrappers: bridging WebdamLog peers and (simulated) external Web services.

"A wrapper to some existing system X provides software that exports to
WebdamLog one or more relations corresponding to the data in X, as well as
rules to access/update this data."  (Section 2 of the paper.)

The reproduction cannot talk to the real Facebook or to an SMTP server, so
each wrapper pairs a **simulated service** (an in-memory model of the
external system: :class:`~repro.wrappers.facebook.FacebookService`,
:class:`~repro.wrappers.email.EmailService`,
:class:`~repro.wrappers.dropbox.DropboxService`) with a **wrapper** object
that keeps the service and a peer's relations in sync.  Two wrapper styles
exist, matching the two ways the paper uses them:

* **pseudo-peer wrappers** (e.g. the ``SigmodFB`` group wrapper, the
  ``ÉmilienFB`` user wrapper) expose the service's data as the relations of a
  dedicated peer, so other peers' rules can read and write them
  (``pictures@SigmodFB``);
* **relation-watching wrappers** attach to a user's own peer and act on facts
  inserted into a designated relation (e.g. the email wrapper sends a message
  for every fact appearing in ``email@Jules``).
"""

from repro.wrappers.base import Wrapper, PseudoPeerWrapper, RelationWatchingWrapper
from repro.wrappers.facebook import (
    FacebookService,
    FacebookGroupWrapper,
    FacebookUserWrapper,
)
from repro.wrappers.email import EmailService, EmailWrapper
from repro.wrappers.dropbox import DropboxService, DropboxWrapper

__all__ = [
    "Wrapper",
    "PseudoPeerWrapper",
    "RelationWatchingWrapper",
    "FacebookService",
    "FacebookGroupWrapper",
    "FacebookUserWrapper",
    "EmailService",
    "EmailWrapper",
    "DropboxService",
    "DropboxWrapper",
]
