"""Tests of group-by aggregation."""

import pytest

from repro.datalog.aggregation import Aggregate, aggregate_relation


class TestAggregateEnum:
    def test_from_name(self):
        assert Aggregate.from_name("count") is Aggregate.COUNT
        assert Aggregate.from_name("AVG") is Aggregate.AVG
        with pytest.raises(ValueError):
            Aggregate.from_name("median")


class TestAggregateRelation:
    ROWS = [
        ("alice", 1, 5), ("alice", 2, 3), ("bob", 3, 4), ("bob", 4, 4), ("bob", 5, 2),
    ]

    def test_count_per_group(self):
        result = aggregate_relation(self.ROWS, group_by=[0],
                                    aggregates=[(1, Aggregate.COUNT)])
        assert set(result) == {("alice", 2), ("bob", 3)}

    def test_multiple_aggregates(self):
        result = aggregate_relation(self.ROWS, group_by=[0],
                                    aggregates=[(2, Aggregate.AVG), (2, Aggregate.MAX),
                                                (2, Aggregate.MIN)])
        as_dict = {row[0]: row[1:] for row in result}
        assert as_dict["alice"] == (4.0, 5, 3)
        assert as_dict["bob"] == (pytest.approx(10 / 3), 4, 2)

    def test_sum(self):
        result = aggregate_relation(self.ROWS, group_by=[0],
                                    aggregates=[(2, Aggregate.SUM)])
        assert set(result) == {("alice", 8), ("bob", 10)}

    def test_empty_input(self):
        assert aggregate_relation([], group_by=[0], aggregates=[(1, Aggregate.COUNT)]) == []

    def test_group_by_multiple_columns(self):
        rows = [(1, "a", 10), (1, "a", 20), (1, "b", 5)]
        result = aggregate_relation(rows, group_by=[0, 1],
                                    aggregates=[(2, Aggregate.SUM)])
        assert set(result) == {(1, "a", 30), (1, "b", 5)}
