#!/usr/bin/env python3
"""Quickstart: two WebdamLog peers and one delegation, via ``repro.api``.

This is the paper's running example reduced to its essence: Jules selects
Émilien as an interesting attendee, and a single WebdamLog rule — using
*delegation* — gathers Émilien's pictures into Jules' ``attendeePictures``
view without ever centralising the data.

The whole deployment is described by one builder chain; results are read
through query handles and a subscription, never through engine internals.

Run with::

    python examples/quickstart.py
"""

from repro.api import system


def main() -> None:
    deployment = (
        system()
        # Execution is event-driven: only peers with pending work run
        # stages.  From asyncio, ``await deployment.aconverge()`` runs the
        # same cycles and yields to the event loop after every stage.
        #
        # Jules' program: one declaration block and the delegation rule
        # from the paper.
        .peer("Jules").program("""
        collection extensional persistent selectedAttendee@Jules(attendee);
        collection intensional attendeePictures@Jules(id, name, owner, data);

        fact selectedAttendee@Jules("Emilien");

        rule attendeePictures@Jules($id, $name, $owner, $data) :-
            selectedAttendee@Jules($attendee),
            pictures@$attendee($id, $name, $owner, $data);
        """)
        # Émilien's program: just his local pictures.
        .peer("Emilien").program("""
        collection extensional persistent pictures@Emilien(id, name, owner, data);
        fact pictures@Emilien(1, "sea.jpg",  "Emilien", "100110");
        fact pictures@Emilien(2, "boat.jpg", "Emilien", "111000");
        """)
        .build()
    )

    # Watch the view fill up: the callback fires once per derived fact.
    deployment.subscribe(
        "attendeePictures",
        lambda fact: print(f"  [subscription] + {fact}"),
        peer="Jules",
    )

    # Run the network of peers until nothing moves any more.
    print("running to convergence:")
    summary = deployment.converge()
    print(f"converged in {summary.round_count} cycles "
          f"({summary.total_stages()} peer stages), "
          f"{deployment.stats.messages_sent} messages exchanged\n")

    print("Rule installed at Émilien by delegation:")
    for delegation in deployment.peer("Emilien").installed_delegations():
        print(f"  [from {delegation.delegator}] {delegation.rule}")

    view = deployment.query("Jules", "attendeePictures")
    print("\nattendeePictures@Jules:")
    for fact in view.sorted():
        print(f"  {fact}")

    # Deselecting Émilien retracts the delegation and empties the view —
    # the same query handle reflects the change.
    deployment.peer("Jules").delete('selectedAttendee@Jules("Emilien")')
    deployment.converge()
    print("\nafter deselecting Émilien:")
    print(f"  attendeePictures@Jules = {view.facts()}")
    print(f"  delegations at Émilien = "
          f"{len(deployment.peer('Emilien').installed_delegations())}")


if __name__ == "__main__":
    main()
