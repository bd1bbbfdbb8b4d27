"""Fair random source sampling for Saturate_Network."""

import pytest

from repro.flow import FairSampler


class TestFairSampler:
    def test_every_node_reaches_min_visit(self):
        s = FairSampler(["a", "b", "c"], min_visit=4, seed=1)
        picks = list(s)
        assert len(picks) == 12
        assert all(v == 4 for v in s.visit.values())

    def test_exhausted_flag(self):
        s = FairSampler(["a"], min_visit=2, seed=0)
        assert not s.exhausted
        s.pick()
        s.pick()
        assert s.exhausted
        with pytest.raises(RuntimeError):
            s.pick()

    def test_determinism(self):
        a = list(FairSampler(list("abcdef"), min_visit=3, seed=7))
        b = list(FairSampler(list("abcdef"), min_visit=3, seed=7))
        assert a == b

    def test_different_seeds_differ(self):
        a = list(FairSampler(list("abcdefgh"), min_visit=3, seed=1))
        b = list(FairSampler(list("abcdefgh"), min_visit=3, seed=2))
        assert a != b

    def test_min_visit_must_be_positive(self):
        with pytest.raises(ValueError):
            FairSampler(["a"], min_visit=0)

    def test_roughly_uniform_early_sampling(self):
        s = FairSampler([f"n{i}" for i in range(50)], min_visit=10, seed=3)
        picks = [s.pick() for _ in range(250)]
        counts = {}
        for p in picks:
            counts[p] = counts.get(p, 0) + 1
        # no node can exceed min_visit; spread should touch most nodes
        assert max(counts.values()) <= 10
        assert len(counts) > 40
