"""Tests of the aggregate functions."""

import pytest

from repro.datalog.aggregation import Aggregate, compute_aggregate


class TestAggregateEnum:
    def test_from_name(self):
        assert Aggregate.from_name("count") is Aggregate.COUNT
        assert Aggregate.from_name("AVG") is Aggregate.AVG
        with pytest.raises(ValueError):
            Aggregate.from_name("median")


class TestComputeAggregate:
    #: The stars of two groups, as an aggregate view groups them on read.
    ALICE, BOB = [5, 3], [4, 4, 2]

    def test_count(self):
        assert compute_aggregate(Aggregate.COUNT, self.ALICE) == 2
        assert compute_aggregate(Aggregate.COUNT, self.BOB) == 3

    def test_avg_max_min(self):
        assert [compute_aggregate(f, self.ALICE)
                for f in (Aggregate.AVG, Aggregate.MAX, Aggregate.MIN)] == [4.0, 5, 3]
        assert [compute_aggregate(f, self.BOB)
                for f in (Aggregate.AVG, Aggregate.MAX, Aggregate.MIN)] == [
            pytest.approx(10 / 3), 4, 2]

    def test_sum(self):
        assert compute_aggregate(Aggregate.SUM, self.ALICE) == 8
        assert compute_aggregate(Aggregate.SUM, self.BOB) == 10

    def test_empty_input(self):
        assert compute_aggregate(Aggregate.COUNT, []) == 0
        for function in (Aggregate.SUM, Aggregate.MIN, Aggregate.MAX, Aggregate.AVG):
            assert compute_aggregate(function, []) is None
