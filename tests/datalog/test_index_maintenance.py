"""Incremental maintenance of the hash index over plain tuples."""

from repro.datalog.indexes import RelationIndex


class TestRelationIndex:
    def test_len_is_a_running_count(self):
        index = RelationIndex([(1, "a"), (2, "b")], positions=(0,))
        assert len(index) == 2
        index.add((3, "c"))
        assert len(index) == 3
        assert index.lookup((3,)) == [(3, "c")]

    def test_add_updates_existing_buckets(self):
        index = RelationIndex([(1, "a")], positions=(0,))
        index.add((1, "b"))
        assert sorted(index.lookup((1,))) == [(1, "a"), (1, "b")]
