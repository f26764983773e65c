"""Unit tests for the saw-tooth period detectors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.model import gamma_of_delta
from repro.analysis.sawtooth import SawtoothAnalyzer
from repro.errors import AnalysisError


def synthetic_dbus(ks, ubd, delta_rsk=1, requests=200, noise=0.0, seed=0):
    """Build the dbus(k) series Equation 2 predicts, optionally with noise."""
    rng = np.random.default_rng(seed)
    values = []
    for k in ks:
        value = gamma_of_delta(delta_rsk + k, ubd) * requests
        if noise:
            value += rng.normal(0.0, noise * requests)
        values.append(value)
    return values


class TestConstruction:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(AnalysisError):
            SawtoothAnalyzer([1, 2, 3], [1.0, 2.0])

    def test_too_few_points_rejected(self):
        with pytest.raises(AnalysisError):
            SawtoothAnalyzer([1, 2, 3], [1.0, 2.0, 3.0])

    def test_non_increasing_ks_rejected(self):
        with pytest.raises(AnalysisError):
            SawtoothAnalyzer([1, 3, 2, 4], [1.0, 2.0, 3.0, 4.0])

    def test_non_uniform_spacing_rejected(self):
        with pytest.raises(AnalysisError):
            SawtoothAnalyzer([1, 2, 4, 5], [1.0, 2.0, 3.0, 4.0])


class TestExactDetector:
    def test_recovers_ubd_27(self):
        ks = list(range(1, 60))
        analyzer = SawtoothAnalyzer(ks, synthetic_dbus(ks, ubd=27))
        assert analyzer.period_exact() == 27

    @pytest.mark.parametrize("ubd", [3, 5, 9, 12, 27, 33])
    def test_recovers_arbitrary_periods(self, ubd):
        ks = list(range(1, 3 * ubd))
        analyzer = SawtoothAnalyzer(ks, synthetic_dbus(ks, ubd=ubd))
        assert analyzer.period_exact() == ubd

    def test_independent_of_delta_rsk(self):
        """The paper's key robustness claim: the period does not depend on delta_rsk."""
        ks = list(range(1, 70))
        for delta_rsk in (1, 2, 4, 7):
            analyzer = SawtoothAnalyzer(ks, synthetic_dbus(ks, ubd=27, delta_rsk=delta_rsk))
            assert analyzer.period_exact() == 27

    def test_returns_none_when_sweep_too_short(self):
        ks = list(range(1, 15))  # shorter than one ubd=27 period
        analyzer = SawtoothAnalyzer(ks, synthetic_dbus(ks, ubd=27))
        assert analyzer.period_exact() is None

    def test_tolerates_small_noise(self):
        ks = list(range(1, 60))
        values = synthetic_dbus(ks, ubd=27, noise=0.002)
        analyzer = SawtoothAnalyzer(ks, values, relative_tolerance=0.05)
        assert analyzer.period_exact() == 27


class TestRobustDetectors:
    def test_rising_edges_recovers_period(self):
        ks = list(range(1, 85))
        analyzer = SawtoothAnalyzer(ks, synthetic_dbus(ks, ubd=27))
        assert analyzer.period_rising_edges() == 27

    def test_autocorrelation_recovers_period(self):
        ks = list(range(1, 85))
        analyzer = SawtoothAnalyzer(ks, synthetic_dbus(ks, ubd=27))
        assert analyzer.period_autocorrelation() == 27

    def test_fft_close_to_period(self):
        ks = list(range(1, 109))
        analyzer = SawtoothAnalyzer(ks, synthetic_dbus(ks, ubd=27))
        assert abs(analyzer.period_fft() - 27) <= 2

    def test_constant_series_yields_no_period(self):
        ks = list(range(1, 20))
        analyzer = SawtoothAnalyzer(ks, [100.0] * len(ks))
        assert analyzer.period_rising_edges() is None
        assert analyzer.period_autocorrelation() is None
        assert analyzer.period_fft() is None

    def test_robust_detectors_survive_moderate_noise(self):
        ks = list(range(1, 110))
        values = synthetic_dbus(ks, ubd=27, noise=0.05, seed=3)
        analyzer = SawtoothAnalyzer(ks, values)
        assert analyzer.period_rising_edges() == 27


class TestConsensus:
    def test_estimate_prefers_exact_detector(self):
        ks = list(range(1, 60))
        estimate = SawtoothAnalyzer(ks, synthetic_dbus(ks, ubd=27)).estimate()
        assert estimate.period_k == 27
        assert estimate.per_method["exact"] == 27
        assert estimate.agreement >= 0.75

    def test_estimate_converts_to_cycles_with_delta_nop(self):
        ks = list(range(1, 30))
        estimate = SawtoothAnalyzer(ks, synthetic_dbus(ks, ubd=9)).estimate(delta_nop=2)
        assert estimate.period_k == 9
        assert estimate.period_cycles == 18

    def test_estimate_raises_when_nothing_found(self):
        ks = list(range(1, 10))
        analyzer = SawtoothAnalyzer(ks, [5.0] * 9)
        with pytest.raises(AnalysisError):
            analyzer.estimate()

    def test_estimate_rejects_bad_delta_nop(self):
        ks = list(range(1, 60))
        analyzer = SawtoothAnalyzer(ks, synthetic_dbus(ks, ubd=27))
        with pytest.raises(AnalysisError):
            analyzer.estimate(delta_nop=0)

    def test_summary_mentions_period_and_agreement(self):
        ks = list(range(1, 60))
        estimate = SawtoothAnalyzer(ks, synthetic_dbus(ks, ubd=27)).estimate()
        summary = estimate.summary()
        assert "27" in summary
        assert "%" in summary

    def test_estimate_on_small_platform_period(self):
        ks = list(range(1, 13))
        estimate = SawtoothAnalyzer(ks, synthetic_dbus(ks, ubd=3)).estimate()
        assert estimate.period_k == 3
