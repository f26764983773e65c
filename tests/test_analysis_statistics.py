"""Unit tests for the statistics helpers."""

from __future__ import annotations

import pytest

from repro.analysis.statistics import (
    empirical_exceedance,
    envelope_over_runs,
    high_water_mark,
    summarize,
)
from repro.errors import AnalysisError


class TestSummarize:
    def test_basic_summary(self):
        summary = summarize([1, 2, 3, 4])
        assert summary.count == 4
        assert summary.minimum == 1
        assert summary.maximum == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.median == pytest.approx(2.5)

    def test_spread_and_relative_spread(self):
        summary = summarize([10, 20])
        assert summary.spread == 10
        assert summary.relative_spread == pytest.approx(10 / 15)

    def test_constant_series(self):
        summary = summarize([7, 7, 7])
        assert summary.spread == 0
        assert summary.std == 0.0

    def test_relative_spread_with_zero_mean(self):
        summary = summarize([-1, 1])
        assert summary.relative_spread == 0.0

    def test_empty_series_rejected(self):
        with pytest.raises(AnalysisError):
            summarize([])


class TestExceedanceAndMax:
    def test_exceedance_fraction(self):
        values = [1, 2, 3, 4, 5]
        assert empirical_exceedance(values, 3) == pytest.approx(0.4)

    def test_exceedance_zero_when_bound_holds(self):
        assert empirical_exceedance([10, 20, 26], 27) == 0.0

    def test_exceedance_is_strict(self):
        assert empirical_exceedance([27, 27], 27) == 0.0

    def test_exceedance_empty_rejected(self):
        with pytest.raises(AnalysisError):
            empirical_exceedance([], 1)

    def test_high_water_mark(self):
        assert high_water_mark([3, 9, 4]) == 9.0

    def test_high_water_mark_empty_rejected(self):
        with pytest.raises(AnalysisError):
            high_water_mark([])


class TestEnvelope:
    def test_pointwise_maximum(self):
        runs = [[1, 5, 2], [3, 1, 4]]
        assert envelope_over_runs(runs) == [3, 5, 4]

    def test_single_run_is_identity(self):
        assert envelope_over_runs([[1, 2, 3]]) == [1, 2, 3]

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(AnalysisError):
            envelope_over_runs([[1, 2], [1, 2, 3]])

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            envelope_over_runs([])
