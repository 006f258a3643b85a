"""SWIM membership: incarnation precedence, suspicion, refutation, churn."""

import pytest

from repro.net.frames import DigestFrame, MemberUpdate
from repro.net.membership import (
    ALIVE,
    DEAD,
    LEFT,
    SUSPECT,
    MembershipTable,
    SwimConfig,
)
from repro.net.node import GossipNode


def table(now=0.0, **config):
    return MembershipTable("self", "addr:self", SwimConfig(**config), now=now)


def test_new_member_is_recorded_and_disseminated():
    t = table()
    assert t.apply(MemberUpdate("bob", ALIVE, 0, "addr:bob"), 0.0) == ALIVE
    assert t.routable_peers() == ["bob"]
    assert t.address_of("bob") == "addr:bob"
    assert any(u.peer == "bob" for u in t.piggyback())


def test_higher_incarnation_always_wins():
    t = table()
    t.apply(MemberUpdate("bob", SUSPECT, 2, "addr:bob"), 0.0)
    # alive at a *higher* incarnation refutes the suspicion...
    assert t.apply(MemberUpdate("bob", ALIVE, 3), 1.0) == ALIVE
    # ...but alive at the same incarnation does not resurrect it.
    assert t.apply(MemberUpdate("bob", ALIVE, 3), 2.0) is None
    assert t.status_of("bob") == ALIVE


def test_same_incarnation_precedence_orders_statuses():
    t = table()
    t.apply(MemberUpdate("bob", ALIVE, 1, "addr:bob"), 0.0)
    assert t.apply(MemberUpdate("bob", SUSPECT, 1), 1.0) == SUSPECT
    assert t.apply(MemberUpdate("bob", DEAD, 1), 2.0) == DEAD
    # stale alive/suspect at the same incarnation cannot undo dead
    assert t.apply(MemberUpdate("bob", ALIVE, 1), 3.0) is None
    assert t.apply(MemberUpdate("bob", SUSPECT, 1), 3.0) is None


def test_self_suspicion_is_refuted_by_incarnation_bump():
    t = table()
    assert t.incarnation == 0
    assert t.apply(MemberUpdate("self", SUSPECT, 0), 1.0) == "refuted"
    assert t.incarnation == 1
    # the refutation is queued for dissemination
    queued = t.piggyback()
    assert any(u.peer == "self" and u.status == ALIVE and u.incarnation == 1
               for u in queued)


def test_suspect_expires_to_dead_after_timeout():
    t = table(suspect_timeout=1.0)
    t.apply(MemberUpdate("bob", ALIVE, 0, "addr:bob"), 0.0)
    assert t.suspect("bob", 5.0) == SUSPECT
    assert t.expire_suspects(5.5) == []
    assert t.expire_suspects(6.0) == ["bob"]
    assert t.status_of("bob") == DEAD
    assert t.routable_peers() == []


def test_unknown_dead_member_leaves_a_tombstone():
    t = table()
    assert t.apply(MemberUpdate("ghost", DEAD, 4), 0.0) == DEAD
    # a stale alive arriving later must not resurrect the tombstone
    assert t.apply(MemberUpdate("ghost", ALIVE, 4), 1.0) is None
    assert t.status_of("ghost") == DEAD


def test_leave_bumps_incarnation_and_marks_left():
    t = table()
    update = t.leave(3.0)
    assert update.status == LEFT
    assert update.incarnation == 1
    assert t.members["self"].status == LEFT


def test_piggyback_budget_retires_updates():
    t = table(retransmit=2, piggyback_limit=8)
    t.apply(MemberUpdate("bob", ALIVE, 0, "addr:bob"), 0.0)
    assert len(t.piggyback()) == 1
    assert len(t.piggyback()) == 1
    assert t.piggyback() == ()  # budget of 2 exhausted
    assert t.pending_updates() == 0


def test_newer_assertion_replaces_queued_entry():
    t = table(retransmit=6)
    t.apply(MemberUpdate("bob", ALIVE, 0, "addr:bob"), 0.0)
    t.apply(MemberUpdate("bob", SUSPECT, 0), 1.0)
    queued = [u for u in t.piggyback() if u.peer == "bob"]
    assert queued == [MemberUpdate("bob", SUSPECT, 0, "addr:bob")]


def test_stale_update_still_teaches_missing_address():
    t = table()
    t.apply(MemberUpdate("bob", SUSPECT, 5), 0.0)  # no address known
    assert t.address_of("bob") is None
    assert t.apply(MemberUpdate("bob", ALIVE, 2, "addr:bob"), 1.0) is None
    assert t.address_of("bob") == "addr:bob"


def test_full_view_covers_every_member():
    t = table()
    t.apply(MemberUpdate("bob", ALIVE, 0, "addr:bob"), 0.0)
    t.apply(MemberUpdate("carol", DEAD, 1), 0.0)
    view = {u.peer: u.status for u in t.full_view()}
    assert view == {"self": ALIVE, "bob": ALIVE, "carol": DEAD}


def test_wire_view_is_the_encoded_full_view():
    t = table()
    t.apply(MemberUpdate("carol", DEAD, 1), 0.0)
    t.apply(MemberUpdate("bob", SUSPECT, 2, "addr:bob"), 0.0)
    assert t.wire_view() == [u.to_wire() for u in t.full_view()]
    assert [u["peer"] for u in t.wire_view()] == ["bob", "carol", "self"]


def test_peer_statuses_lists_everyone_but_self():
    t = table()
    t.apply(MemberUpdate("bob", ALIVE, 0, "addr:bob"), 0.0)
    t.apply(MemberUpdate("carol", DEAD, 1), 0.0)
    t.suspect("bob", 1.0)
    statuses = t.peer_statuses()
    assert statuses == {"bob": SUSPECT, "carol": DEAD}
    statuses.clear()  # a copy: the table's own mirror is out of reach
    assert t.peer_statuses() == {"bob": SUSPECT, "carol": DEAD}


def test_suspects_expiring_together_die_in_insertion_order():
    t = table(suspect_timeout=1.0)
    for name in ("zed", "amy", "kim"):
        t.apply(MemberUpdate(name, ALIVE, 0, f"addr:{name}"), 0.0)
    for name in ("kim", "amy", "zed"):
        t.suspect(name, 2.0)
    t.piggyback()
    assert t.expire_suspects(3.0) == ["zed", "amy", "kim"]
    assert [u.peer for u in t.piggyback()] == ["zed", "amy", "kim"]


# --------------------------------------------------------------------------- #
# what a call costs, pinned by what it may touch — not by a clock
# --------------------------------------------------------------------------- #


class ProbedNotWalked(dict):
    """A ``members`` that can be asked about a name but never gone through."""

    def _walked(self, *_args):
        raise AssertionError("members was scanned")

    items = values = keys = __iter__ = _walked


def hundred_peer_node():
    peers = [f"p{i:03d}" for i in range(100)]
    node = GossipNode("self", "addr:self", rng_seed=3,
                      seeds=[(p, f"addr:{p}") for p in peers])
    node.membership.members = ProbedNotWalked(node.membership.members)
    return node, peers


def test_table_answers_without_walking_its_members():
    node, peers = hundred_peer_node()
    t = node.membership
    with pytest.raises(AssertionError):
        list(t.members)  # the guard is armed
    assert t.routable_peers() == peers
    assert t.knows("p042") and not t.knows("nobody")
    assert t.expire_suspects(100.0) == []
    assert len(t.peer_statuses()) == 100
    # changes go through too: they touch the member and its index entries
    t.suspect("p007", 1.0)
    t.apply(MemberUpdate("p008", LEFT, 1), 1.0)
    t.apply(MemberUpdate("newcomer", ALIVE, 0, "addr:newcomer"), 1.0)
    assert t.expire_suspects(1.0 + t.config.suspect_timeout) == ["p007"]
    assert t.routable_peers() == sorted(
        set(peers) - {"p007", "p008"} | {"newcomer"})


def test_node_picks_targets_without_walking_the_members():
    node, peers = hundred_peer_node()
    picked = node._sample_targets(3, exclude={"self", "p000", "p050", "p099"})
    assert len(picked) == 3
    assert all(address == f"addr:{peer}" for peer, address in picked)
    assert not {"p000", "p050", "p099"} & {peer for peer, _ in picked}
    first = node._next_probe_target()  # empty ring: copies and shuffles
    assert first in peers and len(node._probe_ring) == 99
    second = node._next_probe_target()  # non-empty ring: filters with knows()
    assert second in peers and second != first


def test_quiet_tick_and_probe_tick_do_not_walk_the_members():
    node, _peers = hundred_peer_node()
    digest_due = node._next_anti_entropy_at
    assert node.tick(min(node._next_probe_at, digest_due) / 2) == []
    node._next_anti_entropy_at = float("inf")  # probes only: no view to send
    (dest, address, wire), = node.tick(node._next_probe_at)
    assert wire["type"] == "ping" and address == f"addr:{dest}"
    # no ack: the next tick past ping_timeout asks two helpers, not the target
    asked = node.tick(node._next_probe_at - 0.01)
    assert [w["type"] for _, _, w in asked] == ["ping-req", "ping-req"]
    assert dest not in {helper for helper, _, _ in asked}
    node._next_anti_entropy_at = digest_due
    # ... whereas a digest carries the whole view, and walking is its job
    with pytest.raises(AssertionError, match="scanned"):
        node.tick(digest_due)


def test_stale_digest_builds_no_member_update(monkeypatch):
    node, peers = hundred_peer_node()
    view = [MemberUpdate(p, ALIVE, 0, f"addr:{p}") for p in peers]
    digest = DigestFrame(peer="p000", updates=tuple(view)).to_wire()
    built = []
    from_wire = MemberUpdate.from_wire
    monkeypatch.setattr(MemberUpdate, "from_wire", staticmethod(
        lambda encoded: built.append(encoded["peer"]) or from_wire(encoded)))
    node.handle_frame(digest, 1.0)
    assert built == []  # a hundred assertions, all already known
    # one that supersedes, one about this node, one teaching an address
    node.membership.apply(MemberUpdate("mute", SUSPECT, 4), 1.0)
    digest["updates"][10] = MemberUpdate("p010", SUSPECT, 0).to_wire()
    digest["updates"][20] = MemberUpdate("self", SUSPECT, 0).to_wire()
    digest["updates"][30] = MemberUpdate("mute", ALIVE, 1, "addr:mute").to_wire()
    node.handle_frame(digest, 2.0)
    assert built == ["p010", "self", "mute"]
    assert node.membership.status_of("p010") == SUSPECT
    assert node.membership.incarnation == 1
    assert node.membership.knows("mute")
