"""Tests for latency/width histograms and score(h, k)."""

import pytest
from hypothesis import given, strategies as st

from repro.hiergraph.histogram import LatencyHistogram


class TestHistogram:
    def test_add_and_total(self):
        hist = LatencyHistogram()
        hist.add(1, 16)
        hist.add(2, 8)
        hist.add(1, 4)
        assert hist.total_bits == 28
        assert hist.bins == {1: 20, 2: 8}

    def test_add_validation(self):
        hist = LatencyHistogram()
        with pytest.raises(ValueError):
            hist.add(0, 4)
        with pytest.raises(ValueError):
            hist.add(1, -1)

    def test_zero_bits_ignored(self):
        hist = LatencyHistogram()
        hist.add(3, 0)
        assert hist.is_empty()

    def test_score_formula(self):
        """score = sum bits_i / latency_i^k (paper Sect. IV-D)."""
        hist = LatencyHistogram({1: 32, 2: 16, 4: 8})
        assert hist.score(k=0) == pytest.approx(56.0)
        assert hist.score(k=1) == pytest.approx(32 + 8 + 2)
        assert hist.score(k=2) == pytest.approx(32 + 4 + 0.5)

    def test_merge(self):
        a = LatencyHistogram({1: 4})
        b = LatencyHistogram({1: 2, 3: 6})
        a.merge(b)
        assert a.bins == {1: 6, 3: 6}

    def test_copy_independent(self):
        a = LatencyHistogram({1: 1})
        b = a.copy()
        b.add(1, 1)
        assert a.bins == {1: 1}

    def test_equality(self):
        assert LatencyHistogram({1: 2}) == LatencyHistogram({1: 2})
        assert LatencyHistogram({1: 2}) != LatencyHistogram({2: 2})

    @given(st.dictionaries(st.integers(min_value=1, max_value=20),
                           st.floats(min_value=0.1, max_value=1e4),
                           min_size=1, max_size=8),
           st.floats(min_value=0.0, max_value=4.0))
    def test_score_monotone_decreasing_in_k(self, bins, k):
        """Raising the decay exponent never increases the score."""
        hist = LatencyHistogram(bins)
        assert hist.score(k) >= hist.score(k + 0.5) - 1e-9

    @given(st.dictionaries(st.integers(min_value=1, max_value=20),
                           st.floats(min_value=0.1, max_value=1e4),
                           min_size=1, max_size=8))
    def test_score_bounds(self, bins):
        """score(k=0) = total bits; score(k) <= total bits for k >= 0."""
        hist = LatencyHistogram(bins)
        assert hist.score(0) == pytest.approx(hist.total_bits)
        assert hist.score(1.7) <= hist.total_bits + 1e-9
