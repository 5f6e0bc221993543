import argparse
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import longwire
from longwire import stats
from longwire import DeviceProfile, Geometry, MeasurementConfig, expected_delta_rc, simulate_trace
from longwire.channel import CountTrace
from longwire.patterns import PatternSpec
from longwire.cli import build_parser
from longwire.stats import (
    PairedDeltas,
    bit_error_rate,
    kolmogorov_sf,
    ks_two_sample,
    mean_ci,
    paired_delta_rc,
    student_t_isf,
)
from conftest import DOCS_DIR

NON_FINITE = [math.nan, math.inf, -math.inf]


def alternating_trace(counts, bits=None):
    bits = [i % 2 for i in range(len(counts))] if bits is None else bits
    duty = [0.5 if b is None else float(b) for b in bits]
    return CountTrace(range(len(counts)), counts, duty, [0.0] * len(counts), bits)


class TestPairedDeltaRC:
    def test_calibration_anchor_pair(self):
        deltas = paired_delta_rc(alternating_trace([24576, 24580]))
        assert deltas.values.dtype == np.float64
        assert deltas.values.tolist() == [4 / 24580]
        assert deltas.values[0] == pytest.approx(1.627e-4, rel=1e-3)

    def test_equal_counts(self):
        assert paired_delta_rc(alternating_trace([100, 100])).values.tolist() == [0.0]

    def test_rejects_non_alternating_ground_truth(self):
        with pytest.raises(ValueError, match="window 0: expected alternating bit 0, got 1"):
            paired_delta_rc(alternating_trace([10, 12], bits=[1, 0]))

    def test_names_the_first_bad_window(self):
        with pytest.raises(ValueError, match="window 3: expected alternating bit 1, got 0"):
            paired_delta_rc(alternating_trace([10, 12, 10, 12, 10, 12], bits=[0, 1, 0, 0, 1, 1]))
        with pytest.raises(ValueError, match="window 4: expected alternating bit 0, got None"):
            paired_delta_rc(alternating_trace([10, 12, 10, 12, 10, 12], bits=[0, 1, 0, 1, None, 1]))

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError, match="window 3: zero count"):
            paired_delta_rc(alternating_trace([10, 12, 10, 0]))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_deltas_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PairedDeltas([0.1, bad])

    def test_matches_scalar_pairs(self):
        """Each delta is the correctly rounded (c1 - c0) / c1 of the Python ints."""
        counts = np.random.default_rng(3).integers(1, 1 << 30, 2048).tolist()
        expected = [(c1 - c0) / c1 for c0, c1 in zip(counts[0::2], counts[1::2])]
        assert paired_delta_rc(alternating_trace(counts)).values.tolist() == expected

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            paired_delta_rc(alternating_trace([1, 2, 3]))

    @pytest.mark.parametrize("counts", [[], [1, 2, 3]])
    def test_odd_or_empty_message(self, counts):
        with pytest.raises(ValueError) as err:
            paired_delta_rc(alternating_trace(counts))
        assert str(err.value) == "alternating trace must have a positive even number of windows"

    def test_zero_count_names_the_trace_window(self):
        trace = CountTrace([10, 11, 20, 21], [5, 6, 5, 0], [0.0, 1.0, 0.0, 1.0], [0.0] * 4, [0, 1, 0, 1])
        with pytest.raises(ValueError) as err:
            paired_delta_rc(trace)
        assert str(err.value) == "window 21: zero count, relative difference undefined"

    def test_rows_of_traces_share_the_rule(self):
        """The studies' batch: one trace per row, the first zero count in row order named by its window."""
        counts = np.array([[10, 12, 10, 12], [10, 12, 9, 11], [10, 0, 10, 12], [10, 12, 10, 0]])
        with pytest.raises(ValueError) as err:
            stats._relative_deltas(counts, range(4))
        assert str(err.value) == "window 1: zero count, relative difference undefined"
        batch = stats._relative_deltas(counts[:2], range(4))
        assert [row.tolist() for row in batch] == [paired_delta_rc(alternating_trace(c)).values.tolist()
                                                   for c in counts[:2].tolist()]
        with pytest.raises(ValueError) as err:
            stats._relative_deltas(counts[:, :3], range(3))
        assert str(err.value) == "alternating trace must have a positive even number of windows"

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

    @pytest.mark.parametrize("level", [0, 0.0, 1, 1.0, -0.5, 1.5, math.nan, math.inf, True, "0.99", None], ids=repr)
    def test_level_follows_the_real_rule(self, level):
        message = f"level must be a finite number in (0, 1), got {level!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mean_ci([1.0, 2.0], level=level)

    @pytest.mark.parametrize("values", [np.arange(12.0).reshape(3, 4), [[1.0, 2.0], [3.0, 4.0]], 5.0])
    def test_values_must_be_one_dimensional(self, values):
        """A 3 x 4 array read 12 values for the mean but 3 rows for the sem and df."""
        with pytest.raises(ValueError, match="^values must be one-dimensional$"):
            mean_ci(values)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            mean_ci([1.0, bad, 2.0])

    def test_level_near_zero_keeps_its_digits(self):
        # 1 - level is exact here; the interval's half-width is then
        # t = (level / 2) / f(0) to first order, f the t density.
        level, df = 2.0**-30, 9
        values = [0.0, 1.0] + [0.5] * (df - 1)
        mean, _, hi = mean_ci(values, level=level)
        sem = float(np.std(values, ddof=1)) / math.sqrt(df + 1)
        assert (hi - mean) / sem == pytest.approx(level / 2 / t_density_at_zero(df), rel=1e-9)


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

    @pytest.mark.parametrize("a, b", [
        ([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0]),
        ([1.0, 2.0], [[3.0, 4.0]]),
        (1.0, [1.0, 2.0]),
    ])
    def test_samples_must_be_one_dimensional(self, a, b):
        with pytest.raises(ValueError, match="^samples must be one-dimensional$"):
            ks_two_sample(a, b)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite_samples(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ks_two_sample([bad] * 3, [1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            ks_two_sample([1.0, 2.0], [0.5, bad])

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


# Two-sided Student-t table, three decimals: df -> t at levels 0.90, 0.95, 0.99, 0.999.
T_TABLE_LEVELS = (0.90, 0.95, 0.99, 0.999)
T_TABLE = {
    1: (6.314, 12.706, 63.657, 636.619),
    2: (2.920, 4.303, 9.925, 31.599),
    4: (2.132, 2.776, 4.604, 8.610),
    9: (1.833, 2.262, 3.250, 4.781),
    30: (1.697, 2.042, 2.750, 3.646),
    120: (1.658, 1.980, 2.617, 3.373),
}
ORACLE_LEVELS = [0.001] + [k / 100 for k in range(1, 100)] + [0.999]


def t_density_at_zero(df):
    return math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)


def t_tail_oracle(t, df):
    """P(T > t) for t >= 0 and integer df: the finite sums of Abramowitz and
    Stegun 26.7.3 (odd df) and 26.7.4 (even df), added exactly."""
    theta = math.atan(t / math.sqrt(df))
    c2 = math.cos(theta) ** 2
    odd = df % 2
    term, terms = (math.cos(theta) if odd else 1.0), []
    for j in range(1, (df + 1) // 2 if odd else df // 2 + 1):
        terms.append(term)
        term *= (2 * j - 1 + odd) / (2 * j + odd) * c2
    inside = math.sin(theta) * math.fsum(terms)
    central = 2 / math.pi * (theta + inside) if odd else inside
    return (1.0 - central) / 2


def kolmogorov_sf_oracle(x):
    """2 * sum (-1)^(k-1) exp(-2 k^2 x^2) added exactly; 150 terms reach below 1e-40 from x = 0.05."""
    return 2 * math.fsum((-1) ** (k - 1) * math.exp(-2 * k * k * x * x) for k in range(1, 151))


class TestStudentTQuantile:
    @pytest.mark.parametrize("df", sorted(T_TABLE))
    def test_textbook_table(self, df):
        for level, t in zip(T_TABLE_LEVELS, T_TABLE[df]):
            assert student_t_isf((1 - level) / 2, df) == pytest.approx(t, abs=5e-4)

    def test_tail_at_quantile_matches_exact_sums(self):
        for df in [*range(1, 121), 199, 200]:
            for level in ORACLE_LEVELS:
                tail = (1 - level) / 2
                assert t_tail_oracle(student_t_isf(tail, df), df) == pytest.approx(tail, abs=1e-14), (df, level)

    @pytest.mark.parametrize("df", [3, 9, 30, 1023, 10**6])
    def test_tail_near_half(self, df):
        h = 2.0**-40
        assert student_t_isf(0.5 - h, df) == pytest.approx(h / t_density_at_zero(df), rel=1e-9)
        assert student_t_isf(0.5, df) == 0.0

    @pytest.mark.parametrize("df", [1.5, 2.5, 3, 7.3])
    def test_far_tail_matches_leading_term(self, df):
        # P(T > t) = c df^((df - 1) / 2) t^-df (1 + O(t^-2)), c = f(0)
        tail = 1e-100
        c = t_density_at_zero(df)
        assert student_t_isf(tail, df) == pytest.approx((c * df ** ((df - 1) / 2) / tail) ** (1 / df), rel=1e-12)
        # further out Hill's start comes back unrefined, but finite
        assert math.inf > student_t_isf(1e-300, df) > student_t_isf(tail, df)

    def test_large_df_approaches_normal(self):
        # Cornish-Fisher: t = z + (z^3 + z) / (4 df) + O(df^-2), z the normal quantile
        z, df = 2.5758293035489008, 10**9
        assert student_t_isf(0.005, df) == pytest.approx(z + (z**3 + z) / (4 * df), rel=1e-14)

    @pytest.mark.parametrize("tail, df", [(0.0, 5), (0.6, 5), (math.nan, 5), (0.1, 0.5), (0.1, math.inf), (0.1, math.nan)])
    def test_domain_validated(self, tail, df):
        with pytest.raises(ValueError):
            student_t_isf(tail, df)

    def test_matches_scipy(self):
        special = pytest.importorskip("scipy.special")
        levels = np.array(ORACLE_LEVELS)
        # fractional df near 1, where Hill's start is worst, need a second step
        for df in [*range(1, 201), 511, 1023, 2047, 4095, 10**4, 10**5, 10**6, 1.05, 1.5, 2.5, 3.7]:
            expected = special.stdtrit(df, 0.5 + levels / 2)
            for level, want in zip(ORACLE_LEVELS, expected):
                scale = want if level >= 0.5 else 1.0
                assert abs(student_t_isf((1 - level) / 2, df) - want) <= 1e-12 * scale, (df, level)


class TestKolmogorovSF:
    @pytest.mark.parametrize("x, p", [(1.2238, 0.10), (1.3581, 0.05), (1.6276, 0.01)])
    def test_critical_values(self, x, p):
        assert kolmogorov_sf(x) == pytest.approx(p, abs=5e-5)

    def test_limits(self):
        for x in (0.0, -1.0, -math.inf):
            assert kolmogorov_sf(x) == 1.0
        assert kolmogorov_sf(0.1) == pytest.approx(1.0, abs=1e-15)
        assert 0.0 < kolmogorov_sf(10.0) < 1e-80
        assert kolmogorov_sf(30.0) == 0.0
        assert kolmogorov_sf(math.inf) == 0.0
        grid = [kolmogorov_sf(x) for x in np.linspace(0.0, 4.0, 801)]
        assert all(a >= b for a, b in zip(grid, grid[1:]))

    def test_matches_exact_alternating_sum(self):
        for x in np.linspace(0.05, 8.0, 800):
            assert kolmogorov_sf(float(x)) == pytest.approx(kolmogorov_sf_oracle(float(x)), abs=1e-14), x

    def test_matches_scipy(self):
        special = pytest.importorskip("scipy.special")
        xs = np.linspace(0.02, 8.0, 4000)
        for x, want in zip(xs, special.kolmogorov(xs)):
            assert abs(kolmogorov_sf(float(x)) - want) <= 1e-13, x


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

    def test_array_against_list(self):
        sent = np.random.default_rng(3).integers(0, 2, 1000)
        received = sent.tolist()
        received[7] ^= 1
        received[500] ^= 1
        assert bit_error_rate(sent, received) == 0.002

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bit_error_rate([1], [1, 0])
        with pytest.raises(ValueError, match="^bit streams must be non-empty$"):
            bit_error_rate([], [])

    @pytest.mark.parametrize("sent, received", [
        ([[1, 0]], [[1, 1]]),  # read by rows, this would be one error in one row: a rate of 1.0, not 0.5
        ([1, 0], [[1, 0]]),
        (1, 1),
    ])
    def test_streams_must_be_one_dimensional(self, sent, received):
        with pytest.raises(ValueError, match="^bit streams must be one-dimensional$"):
            bit_error_rate(sent, received)


def run_python(code, cwd=None):
    src = str(Path(longwire.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True, check=True).stdout


def test_import_does_not_load_scipy_stats():
    assert run_python("import sys, longwire; print('scipy.stats' in sys.modules)").strip() == "False"


# One small run of every CLI subcommand.
SMALL_CLI_RUNS = [
    ["simulate", "--pattern", "alternating", "--windows", "64", "--seed", "1"],
    ["scaling-time", "--n-list", "13", "--windows", "64", "--seed", "3"],
    ["scaling-length", "--vt-list", "1,2", "--vr-list", "1", "--windows", "64", "--seed", "4"],
    ["distance", "--d-list", "1,3", "--windows", "64", "--seed", "5"],
    ["dynamic", "--path", "local", "--windows", "64", "--seed", "6"],
    ["ber", "--n-list", "13", "--bits", "64", "--seed", "7"],
    ["bandwidth", "--n-list", "13"],
    ["exfil", "--key", "0xDEAD", "--w", "3"],
    ["prob", "--n", "16", "--w", "4", "--trials", "100", "--seed", "8"],
    ["audit", "--grid", str(DOCS_DIR / "sample_grid.txt")],
]


def test_no_scipy_after_import_or_cli(tmp_path):
    runs = [*SMALL_CLI_RUNS, ["reproduce", str(tmp_path)]]
    subcommands = next(a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(argv[0] for argv in runs) == sorted(subcommands)
    code = f"""
import contextlib, io, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import longwire
print(scipy_modules())
from longwire import cli
for argv in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(scipy_modules())
"""
    # reproduce's audit run names its grid relative to the checkout
    assert run_python(code, cwd=DOCS_DIR.parent).splitlines() == ["[]", "[]"]
