#!/usr/bin/env python3
"""The full Wepic demonstration of the paper (Figure 2 topology).

Walks through the demo script of Section 4:

1. three peers (Émilien, Jules, the sigmod cloud peer) plus the SigmodFB
   Facebook-group wrapper;
2. interaction via Facebook — an authorised upload propagates
   Émilien → sigmod → SigmodFB, and comments flow back;
3. customising rules — Jules keeps only the pictures rated 5;
4. control of delegation — Émilien installs a rule at Jules' peer only after
   Jules approves it;
5. interaction via the Web — an audience member launches their own peer.

The scenario itself is assembled through :mod:`repro.api` (one builder chain
inside :func:`~repro.wepic.scenario.build_demo_scenario`); this script drives
it and observes it through the same facade — subscriptions instead of state
poking.

Run with::

    python examples/wepic_demo.py
"""

from repro.wepic import build_demo_scenario


def main() -> None:
    scenario = build_demo_scenario(pictures_per_attendee=3, control_delegation=True)
    jules = scenario.app("Jules")
    emilien = scenario.app("Emilien")

    # ---------------------------------------------------------------- #
    print("=== Setup: three peers + the SigmodFB group (Figure 2) ===")
    scenario.api.converge()
    print(f"peers: {', '.join(scenario.api.peer_names())}")
    print(f"pictures at the sigmod peer: {len(scenario.sigmod_pictures())}")

    # ---------------------------------------------------------------- #
    print("\n=== Interaction via Facebook ===")
    # Watch comments flowing back from the group to the sigmod peer.
    scenario.api.subscribe(
        "comments",
        lambda fact: print(f"  [subscription] comment reached sigmod: {fact}"),
        peer=scenario.sigmod_peer.name,
    )
    picture = emilien.upload_picture(name="keynote.jpg", picture_id=100)
    emilien.authorize_facebook(picture)
    scenario.api.converge()
    group_photos = scenario.facebook.photos_in_group("sigmod")
    print(f"photos in the SigmodFB group: {[p.name for p in group_photos]}")
    photo = group_photos[0]
    scenario.facebook.add_comment(photo.photo_id, "Julia", "great keynote!")
    scenario.api.converge()
    comments = scenario.api.query(scenario.sigmod_peer.name, "comments")
    print(f"comments retrieved back to sigmod: {[f.values[2] for f in comments]}")

    # ---------------------------------------------------------------- #
    print("\n=== Viewing attendee pictures (Figure 1) and customising rules ===")
    pictures = emilien.local_pictures()
    emilien.rate_picture(pictures[0].picture_id, 5)
    emilien.rate_picture(pictures[1].picture_id, 3)
    jules.select_attendee("Emilien")
    scenario.api.converge()
    # With control of delegation on, Émilien must first accept Jules' delegations.
    emilien.peer.approve_all_delegations("Jules")
    scenario.api.converge()
    print(f"attendee pictures at Jules: {[p.name for p in jules.attendee_pictures()]}")
    jules.restrict_to_rating(5)
    scenario.api.converge()
    emilien.peer.approve_all_delegations("Jules")
    scenario.api.converge()
    print(f"after the rating-5 filter:  {[p.name for p in jules.attendee_pictures()]}")

    # ---------------------------------------------------------------- #
    print("\n=== Control of delegation (Figure 3) ===")
    emilien.add_rule("julesPictures@Emilien($n) :- pictures@Jules($i, $n, $o, $d)")
    scenario.api.converge()
    pending = jules.pending_delegations()
    print("pending at Jules:", [p.describe() for p in pending])
    for p in pending:
        jules.approve_delegation(p.delegation_id)
    scenario.api.converge()
    print(f"Émilien now sees {len(emilien.peer.query('julesPictures'))} of Jules' pictures")

    # ---------------------------------------------------------------- #
    print("\n=== Interaction via the Web: a guest peer joins ===")
    guest = scenario.add_attendee("Guest", pictures=1)
    guest.select_attendee("Emilien")
    scenario.api.converge()
    emilien.peer.approve_all_delegations("Guest")
    scenario.api.converge()
    print(f"the guest sees {len(guest.attendee_pictures())} of Émilien's pictures")

    # ---------------------------------------------------------------- #
    print("\n=== Final screen of Jules (headless UI) ===")
    print(scenario.ui("Jules").render())

    totals = scenario.api.totals()
    print("\nsystem totals:", totals)


if __name__ == "__main__":
    main()
