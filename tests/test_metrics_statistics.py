"""Unit and property tests for confidence intervals and rank statistics."""

import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.metrics.statistics import (
    StatisticsError,
    _critical_value,
    bootstrap_confidence_interval,
    confidence_interval,
    mean_confidence_halfwidth_pct,
    rank_of,
    spearman_rank_correlation,
)

TABLE = json.loads(
    (Path(__file__).parent / "data" / "student_t_quantiles.json").read_text()
)
TABLE_ROWS = list(zip(TABLE["confidences"], TABLE["values"]))

# Two-sided 95% critical values at the dofs the normal approximation used
# to get most wrong (dof = 11 is the default ``--mixes 12``).
REGRESSIONS = {3: 3.1824463052837078, 11: 2.200985160091639}


class TestCriticalValue:
    @pytest.mark.parametrize("confidence,expected", TABLE_ROWS, ids=TABLE["confidences"])
    def test_matches_the_committed_table(self, confidence, expected):
        ours = [_critical_value(confidence, dof) for dof in TABLE["dofs"]]
        assert ours == pytest.approx(expected, rel=1e-12, abs=0)

    def test_rises_with_confidence(self):
        confidences = TABLE["confidences"]
        for dof in TABLE["dofs"]:
            values = [_critical_value(confidence, dof) for confidence in confidences]
            assert values == sorted(values) and len(set(values)) == len(values), dof

    @pytest.mark.parametrize("confidence", TABLE["confidences"])
    def test_falls_as_dof_rises(self, confidence):
        values = [_critical_value(confidence, dof) for dof in TABLE["dofs"]]
        assert all(later < earlier for earlier, later in zip(values, values[1:]))

    @pytest.mark.parametrize("confidence", TABLE["confidences"])
    def test_approaches_the_normal_quantile_at_large_dof(self, confidence):
        normal = NormalDist().inv_cdf(0.5 + confidence / 2.0)
        gaps = [_critical_value(confidence, dof) - normal for dof in (100, 1_000, 10_000, 100_000)]
        assert all(gap > 0 for gap in gaps)
        assert all(later < earlier / 5 for earlier, later in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-4 * normal

    @pytest.mark.parametrize("dof,expected", sorted(REGRESSIONS.items()))
    def test_exact_at_small_dof(self, dof, expected):
        assert _critical_value(0.95, dof) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_does_not_depend_on_scipy(self):
        samples = [float(i % 5) for i in range(12)]
        code = (
            "import json, sys; sys.modules['scipy'] = None; "
            "from repro.metrics.statistics import _critical_value, confidence_interval; "
            f"print(json.dumps([_critical_value(0.95, dof) for dof in {sorted(REGRESSIONS)}] "
            f"+ [confidence_interval({samples}).halfwidth]))"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        here = [_critical_value(0.95, dof) for dof in sorted(REGRESSIONS)]
        assert json.loads(result.stdout) == here + [confidence_interval(samples).halfwidth]

    def test_interval_uses_the_exact_value(self):
        samples = [float(i % 5) for i in range(12)]
        interval = confidence_interval(samples)
        stderr = np.std(samples, ddof=1) / np.sqrt(len(samples))
        assert interval.halfwidth == pytest.approx(REGRESSIONS[11] * stderr, rel=1e-12)

    def test_matches_live_scipy_when_available(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for confidence in TABLE["confidences"]:
            for dof in (3, 11, 50, 199, 2000):
                theirs = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, dof))
                assert _critical_value(confidence, dof) == pytest.approx(theirs, rel=1e-12, abs=0)


class TestConfidenceInterval:
    def test_interval_contains_the_sample_mean(self):
        samples = [3.0, 3.2, 3.4, 3.1, 3.3]
        interval = confidence_interval(samples)
        assert interval.lower <= interval.mean <= interval.upper
        assert interval.contains(interval.mean)
        assert interval.num_samples == 5
        assert interval.confidence == 0.95

    def test_more_samples_tighten_the_interval(self):
        rng = np.random.default_rng(0)
        population = rng.normal(loc=3.5, scale=0.4, size=200)
        small = confidence_interval(population[:10])
        large = confidence_interval(population)
        assert large.halfwidth < small.halfwidth
        assert large.halfwidth_pct_of_mean < small.halfwidth_pct_of_mean

    def test_halfwidth_pct_helper(self):
        samples = [10.0, 10.5, 9.5, 10.2, 9.8]
        pct = mean_confidence_halfwidth_pct(samples)
        interval = confidence_interval(samples)
        assert pct == pytest.approx(100.0 * interval.halfwidth / interval.mean)

    def test_zero_variance_gives_zero_width(self):
        interval = confidence_interval([2.0] * 10)
        assert interval.halfwidth == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(StatisticsError):
            confidence_interval([1.0])
        with pytest.raises(StatisticsError):
            confidence_interval([1.0, 2.0], confidence=1.5)

    @given(
        samples=st.lists(st.floats(min_value=1.0, max_value=10.0), min_size=3, max_size=60),
    )
    @settings(max_examples=40, deadline=None)
    def test_interval_always_brackets_the_mean(self, samples):
        interval = confidence_interval(samples)
        assert interval.lower - 1e-9 <= np.mean(samples) <= interval.upper + 1e-9


class TestBootstrap:
    def test_bootstrap_interval_brackets_the_mean_and_is_deterministic(self):
        samples = list(np.random.default_rng(1).normal(5.0, 1.0, size=40))
        first = bootstrap_confidence_interval(samples, seed=7)
        second = bootstrap_confidence_interval(samples, seed=7)
        assert first.lower <= first.mean <= first.upper
        assert first.lower == second.lower and first.upper == second.upper

    def test_bootstrap_validation(self):
        with pytest.raises(StatisticsError):
            bootstrap_confidence_interval([1.0])
        with pytest.raises(StatisticsError):
            bootstrap_confidence_interval([1.0, 2.0], confidence=0.0)


class TestRanking:
    def test_rank_of_orders_best_first(self):
        values = [3.0, 1.0, 2.0]
        assert rank_of(values, higher_is_better=True) == [0, 2, 1]
        assert rank_of(values, higher_is_better=False) == [2, 0, 1]
        with pytest.raises(StatisticsError):
            rank_of([])

    def test_spearman_known_cases(self):
        assert spearman_rank_correlation([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman_rank_correlation([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)
        # A single swapped pair lowers but does not destroy the correlation.
        partial = spearman_rank_correlation([1, 2, 3, 4], [10, 20, 40, 30])
        assert 0.5 < partial < 1.0

    def test_spearman_handles_ties(self):
        value = spearman_rank_correlation([1.0, 1.0, 2.0], [1.0, 1.0, 3.0])
        assert value == pytest.approx(1.0)

    def test_spearman_with_constant_series(self):
        assert spearman_rank_correlation([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert spearman_rank_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == pytest.approx(0.0)

    def test_spearman_validation(self):
        with pytest.raises(StatisticsError):
            spearman_rank_correlation([1.0], [1.0])
        with pytest.raises(StatisticsError):
            spearman_rank_correlation([1.0, 2.0], [1.0])

    def test_spearman_matches_scipy_when_available(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(3)
        first = list(rng.normal(size=30))
        second = list(rng.normal(size=30))
        ours = spearman_rank_correlation(first, second)
        theirs = scipy_stats.spearmanr(first, second).correlation
        assert ours == pytest.approx(theirs, abs=1e-9)

    @given(
        values=st.lists(
            st.floats(min_value=-100, max_value=100), min_size=2, max_size=20, unique=True
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_spearman_is_symmetric_and_bounded(self, values):
        other = list(reversed(values))
        forward = spearman_rank_correlation(values, other)
        backward = spearman_rank_correlation(other, values)
        assert forward == pytest.approx(backward)
        assert -1.0 - 1e-9 <= forward <= 1.0 + 1e-9
        assert spearman_rank_correlation(values, values) == pytest.approx(1.0)
