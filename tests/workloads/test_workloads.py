"""Tests of the seeded workload sampler."""

import random

import pytest

from repro.core.errors import WorkloadError
from repro.workloads.generator import ZipfSampler


class TestZipfSampler:
    def test_deterministic_for_same_rng_seed(self):
        a = ZipfSampler(100, 1.1, random.Random(5)).sample_many(200)
        b = ZipfSampler(100, 1.1, random.Random(5)).sample_many(200)
        assert a == b

    def test_skew_concentrates_on_head(self):
        draws = ZipfSampler(1000, 1.2, random.Random(9)).sample_many(5000)
        head = sum(1 for rank in draws if rank < 10)
        # Under a uniform law the top-10 ranks would get ~1% of the draws;
        # Zipf(1.2) over 1000 ranks gives them the large majority.
        assert head > len(draws) * 0.4
        assert all(0 <= rank < 1000 for rank in draws)

    def test_exponent_zero_is_uniform(self):
        draws = ZipfSampler(10, 0.0, random.Random(1)).sample_many(5000)
        counts = [draws.count(rank) for rank in range(10)]
        assert min(counts) > 300  # every rank drawn roughly equally

    def test_validation(self):
        with pytest.raises(WorkloadError):
            ZipfSampler(0, 1.0)
        with pytest.raises(WorkloadError):
            ZipfSampler(10, -0.5)

    def test_workload_fanout_follows_exponent(self):
        def top_share(exponent):
            draws = ZipfSampler(160, exponent, random.Random(11)).sample_many(320)
            counts = {}
            for rank in draws:
                counts[rank] = counts.get(rank, 0) + 1
            return sum(sorted(counts.values(), reverse=True)[:5]) / len(draws)

        assert top_share(1.5) > top_share(0.0) * 1.5

    def test_exponent_zero_matches_historical_stream(self):
        """The knob is opt-in: every draw, at any exponent, consumes exactly
        one ``random()``, so a seeded stream that follows the draws is the
        same whatever the exponent."""
        for exponent in (0.0, 1.2):
            rng, twin = random.Random(42), random.Random(42)
            ZipfSampler(50, exponent, rng).sample_many(30)
            for _ in range(30):
                twin.random()
            assert rng.random() == twin.random()
