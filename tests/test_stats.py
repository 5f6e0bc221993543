import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import longwire
from longwire import DeviceProfile, Geometry, MeasurementConfig, expected_delta_rc, simulate_trace
from longwire.channel import CountTrace, TraceSample
from longwire.patterns import PatternSpec
from longwire.stats import bit_error_rate, ks_two_sample, mean_ci, metrics_to_csv, paired_delta_rc


def alternating_trace(counts):
    samples = tuple(
        TraceSample(i, c, float(i % 2), 0.0, i % 2) for i, c in enumerate(counts)
    )
    return CountTrace(samples)


class TestPairedDeltaRC:
    def test_calibration_anchor_pair(self):
        deltas = paired_delta_rc(alternating_trace([24576, 24580]))
        assert deltas.values == (4 / 24580,)
        assert deltas.values[0] == pytest.approx(1.627e-4, rel=1e-3)

    def test_equal_counts(self):
        assert paired_delta_rc(alternating_trace([100, 100])).values == (0.0,)

    def test_rejects_non_alternating_ground_truth(self):
        samples = (TraceSample(0, 10, 1.0, 0.0, 1), TraceSample(1, 12, 0.0, 0.0, 0))
        with pytest.raises(ValueError):
            paired_delta_rc(CountTrace(samples))

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            paired_delta_rc(alternating_trace([1, 2, 3]))

    def test_noise_free_trace_mean_matches_model(self):
        profile = DeviceProfile(noise_sigma=0.0, drift_rate=0.0, drift_bound=0.0)
        cfg = MeasurementConfig(log2_ticks=13)
        geom = Geometry(v_t=3, v_r=3, d=1)
        trace = simulate_trace(profile, cfg, geom, PatternSpec.alternating(), 2000, seed=4)
        measured = paired_delta_rc(trace).mean
        model = expected_delta_rc(profile, geom)
        assert abs(measured - model) <= 2 / min(trace.counts)


class TestMeanCI:
    def test_constant_sample(self):
        assert mean_ci([5, 5, 5, 5]) == (5.0, 5.0, 5.0)

    def test_two_points_symmetric(self):
        mean, lo, hi = mean_ci([0, 1], level=0.99)
        assert mean == 0.5
        assert lo < 0.5 < hi
        assert hi - mean == pytest.approx(mean - lo)

    def test_width_matches_normal_theory(self):
        rng = np.random.default_rng(11)
        mean, lo, hi = mean_ci(rng.standard_normal(10_000), level=0.99)
        z995 = 2.5758293
        assert (hi - lo) == pytest.approx(2 * z995 / 100, rel=0.10)
        assert lo <= mean <= hi

    def test_width_shrinks_with_sqrt_n(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal(40_000)
        _, lo1, hi1 = mean_ci(data[:10_000])
        _, lo4, hi4 = mean_ci(data)
        assert (hi4 - lo4) == pytest.approx((hi1 - lo1) / 2, rel=0.15)

    @pytest.mark.parametrize(
        "df, level, t",
        [(1, 0.99, 63.656741), (4, 0.95, 2.776445), (9, 0.90, 1.833113), (30, 0.99, 2.749996)],
    )
    def test_student_t_quantiles(self, df, level, t):
        values = [0.0, 1.0] + [0.5] * (df - 1)
        mean, lo, hi = mean_ci(values, level=level)
        sem = float(np.std(values, ddof=1)) / math.sqrt(df + 1)
        assert (hi - mean) / sem == pytest.approx(t, abs=1e-6)

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            mean_ci([1.0])

    def test_level_validated(self):
        with pytest.raises(ValueError):
            mean_ci([1.0, 2.0], level=1.0)


class TestKSTwoSample:
    def test_identical_samples(self):
        assert ks_two_sample([1, 2, 3], [1, 2, 3]) == (0.0, 1.0)

    def test_disjoint_supports(self):
        d, p = ks_two_sample([0.0] * 64, [1.0] * 64)
        assert d == 1.0
        assert p < 1e-6

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])

    # integer-valued samples keep the transform strictly monotone in
    # float64 (no two distinct inputs collapse to one output)
    @given(
        st.lists(st.integers(-1000, 1000).map(float), min_size=5, max_size=40),
        st.lists(st.integers(-1000, 1000).map(float), min_size=5, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_monotone_transform(self, a, b):
        d0, p0 = ks_two_sample(a, b)
        fa = [math.exp(0.05 * x) + 3 * x for x in a]
        fb = [math.exp(0.05 * x) + 3 * x for x in b]
        d1, p1 = ks_two_sample(fa, fb)
        assert d1 == pytest.approx(d0, abs=1e-12)
        assert p1 == pytest.approx(p0, abs=1e-12)

    def test_null_distribution_on_distant_wires(self):
        """Counts for transmitted 0s and 1s at d=3 come from one distribution."""
        profile = DeviceProfile()
        cfg = MeasurementConfig(log2_ticks=21)
        geom = Geometry(v_t=2, v_r=2, d=3)
        passed = 0
        for seed in range(100):
            trace = simulate_trace(profile, cfg, geom, PatternSpec.alternating(), 4096, seed)
            counts = trace.counts
            _, p = ks_two_sample(counts[0::2], counts[1::2])
            passed += p > 0.05
        assert passed >= 90


class TestBitErrorRate:
    def test_identical(self):
        assert bit_error_rate([1, 0, 1], [1, 0, 1]) == 0.0

    def test_complement(self):
        assert bit_error_rate([1, 0, 1], [0, 1, 0]) == 1.0

    def test_single_flip_in_1000(self):
        sent = [0] * 1000
        received = [0] * 1000
        received[123] = 1
        assert bit_error_rate(sent, received) == 0.001

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bit_error_rate([1], [1, 0])


def test_import_does_not_load_scipy_stats():
    src = str(Path(longwire.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, longwire; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_metrics_csv_shape():
    text = metrics_to_csv([("delta_rc", 1.6e-4, 1.5e-4, 1.7e-4)])
    lines = text.splitlines()
    assert lines[0] == "metric,mean,ci_low,ci_high"
    assert lines[1].startswith("delta_rc,")
