"""Unit tests of the dotted delta channels (repro.replication).

The channel pair is the correctness core of causal replication: a single
writer assigns contiguous sequence numbers, the reader joins ops through a
causal context, and visibility is the non-emptiness of a fact's surviving
dot set.  These tests pin the algebraic properties the confluence suite
relies on — idempotence, commutativity, tombstone absorption, LWW
delegations — at the smallest possible scale, including exhaustively over
permutations.
"""

import itertools

from repro.core.facts import Fact
from repro.core.parser import parse_rule
from repro.core.schema import RelationKind, RelationSchema
from repro.replication.channel import ChannelInbox, ChannelOutbox
from repro.replication.dots import CausalContext, Op

F1 = Fact("r", "bob", (1,))
F2 = Fact("r", "bob", (2,))


class TestCausalContext:
    def test_add_is_idempotent_and_fills_gaps(self):
        cc = CausalContext()
        assert cc.add(2)
        assert not cc.add(2)
        assert cc.base == 0 and cc.extras == {2}
        assert cc.add(1)
        assert cc.base == 2 and cc.extras == set()

    def test_missing_and_complete(self):
        cc = CausalContext()
        cc.add(1)
        cc.add(4)
        assert cc.missing(4) == [2, 3]
        assert not cc.is_complete(4)
        cc.add(2)
        cc.add(3)
        assert cc.is_complete(4)
        assert cc.missing(6) == [5, 6]

    def test_encode_decode_roundtrip(self):
        cc = CausalContext()
        for seq in (1, 2, 5, 9):
            cc.add(seq)
        decoded = CausalContext.decode(cc.encode())
        assert decoded.base == cc.base
        assert decoded.extras == cc.extras


class TestOutbox:
    def test_insert_assigns_contiguous_seqs_and_dedupes_live(self):
        box = ChannelOutbox("bob")
        op1 = box.insert(F1)
        op2 = box.insert(F2)
        assert (op1.seq, op2.seq) == (1, 2)
        assert box.insert(F1) is None  # already live: no new dot
        assert box.frontier == 2

    def test_delete_carries_observed_dots(self):
        box = ChannelOutbox("bob")
        box.insert(F1)
        op = box.delete(F1)
        assert op.removed == (1,)
        # re-insert gets a fresh dot, unrelated to the deleted one
        assert box.insert(F1).seq == 3

    def test_delete_without_live_dots_is_out_of_band(self):
        box = ChannelOutbox("bob")
        assert box.delete(F1).removed == ()

    def test_ack_prunes_log_and_take_unsent_advances(self):
        box = ChannelOutbox("bob")
        box.insert(F1)
        box.insert(F2)
        assert [op.seq for op in box.take_unsent()] == [1, 2]
        assert box.take_unsent() == []
        assert box.unacked
        box.ack(2)
        assert not box.unacked
        assert box.log == {}
        # stale pull for pruned seqs answers nothing
        assert box.ops_for((1, 2)) == []

    def test_ack_is_monotone(self):
        box = ChannelOutbox("bob")
        box.insert(F1)
        box.insert(F2)
        box.ack(2)
        box.ack(1)  # late duplicate ack must not resurrect anything
        assert box.acked == 2


class TestInboxJoin:
    def test_duplicate_op_has_no_effect(self):
        box = ChannelInbox("alice")
        op = Op(seq=1, kind="insert", fact=F1)
        assert box.apply(op) == [("insert", F1)]
        assert box.apply(op) == []
        assert box.visible == {F1: {1}}

    def test_delete_before_insert_leaves_tombstone(self):
        box = ChannelInbox("alice")
        delete = Op(seq=2, kind="delete", fact=F1, removed=(1,))
        insert = Op(seq=1, kind="insert", fact=F1)
        assert box.apply(delete) == []
        assert box.apply(insert) == []  # consumed by the tombstone
        assert box.visible == {}

    def test_out_of_band_delete_passes_through(self):
        box = ChannelInbox("alice")
        assert box.apply(Op(seq=1, kind="delete", fact=F1, removed=())) \
            == [("delete", F1)]

    def test_all_permutations_of_insert_delete_reinsert_converge(self):
        ops = (
            Op(seq=1, kind="insert", fact=F1),
            Op(seq=2, kind="delete", fact=F1, removed=(1,)),
            Op(seq=3, kind="insert", fact=F1),
        )
        for permutation in itertools.permutations(ops):
            box = ChannelInbox("alice")
            for op in permutation:
                box.apply(op)
            assert box.visible == {F1: {3}}, permutation

    def test_duplicated_reordered_batches_converge(self):
        ops = [
            Op(seq=1, kind="insert", fact=F1),
            Op(seq=2, kind="insert", fact=F2),
            Op(seq=3, kind="delete", fact=F1, removed=(1,)),
        ]
        reference = ChannelInbox("alice")
        reference.apply_all(ops)
        for permutation in itertools.permutations(ops):
            box = ChannelInbox("alice")
            box.apply_all(permutation)
            box.apply_all(permutation)  # whole batch duplicated
            assert box.visible == reference.visible

    def test_delegation_retract_wins_by_sender_order(self):
        rule = parse_rule("v@bob($x) :- r@alice($x)", author="alice")
        schema = RelationSchema("v", "bob", ("x",), kind=RelationKind.INTENSIONAL)
        install = Op(seq=1, kind="delegate", delegation_id="d1",
                     rule=rule, schemas=(schema,))
        retract = Op(seq=2, kind="undelegate", delegation_id="d1")
        ordered = ChannelInbox("alice")
        effects = ordered.apply_all([install, retract])
        assert effects == [("delegate", "d1", rule, (schema,)),
                           ("undelegate", "d1")]
        reordered = ChannelInbox("alice")
        assert reordered.apply(retract) == [("undelegate", "d1")]
        # the stale install arrives late: retract already won
        assert reordered.apply(install) == []

    def test_missing_tracks_advertised_frontier(self):
        box = ChannelInbox("alice")
        box.apply(Op(seq=2, kind="insert", fact=F1))
        box.observe_frontier(3)
        assert box.missing() == [1, 3]
        assert not box.is_complete()
        box.apply(Op(seq=1, kind="insert", fact=F2))
        box.apply(Op(seq=3, kind="delete", fact=F1, removed=(2,)))
        assert box.is_complete()

