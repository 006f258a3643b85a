"""The demonstration scenario of the paper (Figure 2).

"In the beginning of the demo, three peers are established: one on each of
the laptops of Émilien and Jules, connected via a local network, and a third,
the sigmod peer, hosted on Webdam cloud. [...] Both have Facebook accounts
and are members of the SigmodFB group, the official Facebook group of the
conference.  Finally, both users are subscribed to the sigmod peer, which
stores the list of registered Wepic users."

:func:`build_demo_scenario` reproduces exactly that topology — attendee peers
(Émilien and Jules by default, more on request), the central ``sigmod`` peer,
the ``SigmodFB`` Facebook-group pseudo-peer backed by the simulated Facebook
service, and an email wrapper per attendee — and returns a
:class:`DemoScenario` handle that tests, examples and benchmarks drive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.api import System, Transport
from repro.api import system as api_system
from repro.core.facts import Fact
from repro.runtime.peer import Peer
from repro.wepic.app import WepicApp
from repro.wepic.pictures import PictureLibrary, generate_library
from repro.wepic.rules import SIGMOD_FB_PEER, SIGMOD_PEER, WepicRules, sigmod_schemas
from repro.wepic.ui import WepicUI
from repro.wrappers.email import EmailService, EmailWrapper
from repro.wrappers.facebook import FacebookGroupWrapper, FacebookService

#: Default attendee names of the demo (ASCII spelling of Émilien to keep
#: relation syntax simple; the engine itself accepts any identifier).
DEFAULT_ATTENDEES = ("Emilien", "Jules")


@dataclass
class DemoScenario:
    """Handle over a fully built Wepic demo deployment.

    ``api`` is the :class:`repro.api.System` facade the deployment was built
    through, and the one way to drive and observe it: ``converge()``,
    queries, subscriptions, transport stats.  Each peer's ``wrappers`` list
    names the services attached to it.
    """

    api: System
    apps: Dict[str, WepicApp]
    sigmod_peer: Peer
    group_peer: Peer
    facebook: FacebookService
    email: EmailService
    rules: WepicRules
    libraries: Dict[str, PictureLibrary] = field(default_factory=dict)

    def app(self, attendee: str) -> WepicApp:
        """The Wepic application of one attendee."""
        return self.apps[attendee]

    def ui(self, attendee: str) -> WepicUI:
        """A headless UI over one attendee's application."""
        return WepicUI(self.apps[attendee])

    def attendees(self) -> Tuple[str, ...]:
        """The attendee names, sorted."""
        return tuple(sorted(self.apps))

    def sigmod_pictures(self) -> Tuple[Fact, ...]:
        """The pictures currently stored at the sigmod peer."""
        return self.sigmod_peer.query("pictures")

    def facebook_group_pictures(self) -> Tuple[Fact, ...]:
        """The pictures currently visible in the SigmodFB group relations."""
        return self.group_peer.query("pictures")

    def add_attendee(self, name: str, pictures: int = 0, picture_size: int = 64,
                     announce: bool = True) -> WepicApp:
        """Add a new attendee peer at run time (the "Interaction via the Web" scenario)."""
        peer = self.api.add_peer(name, announce=announce)
        app = WepicApp(peer, rules=self.rules)
        self.apps[name] = app
        peer.attach_wrapper(EmailWrapper(self.email))
        self.sigmod_peer.insert_fact(Fact("attendees", self.sigmod_peer.name, (name,)))
        if pictures:
            library = generate_library(name, pictures, size=picture_size,
                                       start_id=self._next_picture_id())
            self.libraries[name] = library
            app.upload_library(library)
        return app

    def _next_picture_id(self) -> int:
        highest = 0
        for library in self.libraries.values():
            if len(library):
                highest = max(highest, max(library.ids()))
        return highest + 1


def build_demo_scenario(attendees: Sequence[str] = DEFAULT_ATTENDEES,
                        pictures_per_attendee: int = 3,
                        picture_size: int = 64,
                        control_delegation: bool = False,
                        latency: int = 1,
                        publish_to_sigmod: bool = True,
                        with_facebook: bool = True,
                        seed: Optional[int] = 0,
                        transport: Optional[Transport] = None,
                        provenance: bool = False) -> DemoScenario:
    """Build the Figure-2 deployment through :mod:`repro.api`.

    Parameters
    ----------
    attendees:
        Names of the attendee peers (the demo uses Émilien and Jules).
    pictures_per_attendee:
        How many synthetic pictures each attendee starts with.
    picture_size:
        Size of each synthetic picture's content.
    control_delegation:
        When ``True``, peers do *not* auto-accept delegations: delegations
        from untrusted peers (everybody except ``sigmod``) go to the pending
        queue, as in the demo's control-of-delegation scenario.
    latency:
        Network latency in rounds.
    publish_to_sigmod:
        Whether attendees install the rule publishing their pictures to the
        sigmod peer.
    with_facebook:
        Whether the SigmodFB group pseudo-peer (and the sigmod peer's
        publication/retrieval rules) are created.
    seed:
        Seed for the network's loss model (unused unless loss is configured).
    transport:
        An explicit :class:`repro.api.Transport`; overrides ``latency`` and
        ``seed`` (e.g. ``InMemoryTransport(event_log=NetEventLog())`` to
        record every message).
    provenance:
        When ``True`` every peer tracks why-provenance incrementally;
        ``scenario.api.explain(peer, fact)`` then answers why/lineage
        queries (e.g. why a picture appeared on an attendee's wall) and the
        access-control view policies can filter by lineage.
    """
    rules = WepicRules(sigmod_peer=SIGMOD_PEER, group_peer=SIGMOD_FB_PEER)
    facebook = FacebookService()
    email = EmailService()

    builder = (api_system()
               .default_trusted(SIGMOD_PEER)
               .auto_accept_delegations(not control_delegation))
    if provenance:
        builder.provenance()
    if transport is not None:
        builder.transport(transport)
    else:
        builder.transport("inmemory", latency=latency, seed=seed)

    # --- the sigmod cloud peer ---------------------------------------- #
    sigmod_builder = builder.peer(SIGMOD_PEER).auto_accept_delegations(True)
    for schema in sigmod_schemas(SIGMOD_PEER, SIGMOD_FB_PEER):
        sigmod_builder.schema(schema)
    for rule in rules.sigmod_rules(publish_to_facebook=with_facebook,
                                   retrieve_from_facebook=with_facebook):
        sigmod_builder.rule(rule)

    # --- the SigmodFB group pseudo-peer -------------------------------- #
    if with_facebook:
        (builder.peer(SIGMOD_FB_PEER)
                .auto_accept_delegations(True)
                .wrapper(FacebookGroupWrapper(facebook, group="sigmod",
                                              peer_name=SIGMOD_FB_PEER)))

    # --- the attendee peers (rules are installed per-app below) --------- #
    for attendee in attendees:
        builder.peer(attendee)

    deployment = builder.build()
    sigmod = deployment.peer(SIGMOD_PEER).unwrap()
    group_peer = (deployment.peer(SIGMOD_FB_PEER).unwrap()
                  if with_facebook else sigmod)

    apps: Dict[str, WepicApp] = {}
    libraries: Dict[str, PictureLibrary] = {}
    next_picture_id = 1
    for attendee in attendees:
        handle = deployment.peer(attendee)
        app = WepicApp(handle, rules=rules, publish_to_sigmod=publish_to_sigmod)
        apps[attendee] = app
        handle.attach_wrapper(EmailWrapper(email))
        # Facebook accounts and SigmodFB membership for every attendee.
        if with_facebook:
            facebook.add_user(attendee)
            facebook.join_group("sigmod", attendee)
        # Subscription to the sigmod peer (list of registered Wepic users).
        sigmod.insert_fact(Fact("attendees", SIGMOD_PEER, (attendee,)))
        # Starting picture library.
        if pictures_per_attendee:
            library = generate_library(attendee, pictures_per_attendee,
                                       size=picture_size, start_id=next_picture_id)
            next_picture_id += pictures_per_attendee
            libraries[attendee] = library
            app.upload_library(library)

    scenario = DemoScenario(
        api=deployment,
        apps=apps,
        sigmod_peer=sigmod,
        group_peer=group_peer,
        facebook=facebook,
        email=email,
        rules=rules,
        libraries=libraries,
    )
    return scenario
