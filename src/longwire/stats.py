"""Measurement statistics: paired relative count differences, Student-t
confidence intervals, the two-sample Kolmogorov-Smirnov test and bit
error rate.  Only the four analyses the experiments actually run.

The two distribution functions they need, the Student-t quantile and the
Kolmogorov survival function, are computed here in pure ``math``."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .channel import CountTrace
from .patterns import _check_real

__all__ = [
    "PairedDeltas",
    "paired_delta_rc",
    "mean_ci",
    "ks_two_sample",
    "student_t_isf",
    "kolmogorov_sf",
    "bit_error_rate",
]


@dataclass(frozen=True, eq=False)
class PairedDeltas:
    """Per-pair relative count differences (c1 - c0) / c1, a float64 array."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if not np.isfinite(values).all():
            raise ValueError("paired deltas must be finite")
        object.__setattr__(self, "values", values)

    @property
    def mean(self) -> float:
        return float(self.values.mean()) if len(self.values) else 0.0


def paired_delta_rc(trace: CountTrace) -> PairedDeltas:
    """Relative count difference per (0, 1) window pair of an alternating trace.

    Window 2i must carry a 0 and window 2i+1 a 1; the trace's recorded
    ground truth is checked, not trusted.
    """
    expected = [0, 1] * (len(trace) // 2)
    if len(trace) % 2 == 0 and trace.tx_bits != expected:  # an odd length is _relative_deltas' error
        i = next(i for i, (bit, want) in enumerate(zip(trace.tx_bits, expected)) if bit != want)
        raise ValueError(f"window {trace.window[i]}: expected alternating bit {i % 2}, got {trace.tx_bits[i]}")
    return PairedDeltas(_relative_deltas(trace.counts, trace.window))


def _relative_deltas(counts: np.ndarray, window) -> np.ndarray:
    """(c1 - c0) / c1 per (0, 1) window pair along the last axis of ``counts``: one alternating trace, or one per row.

    ``window`` labels the windows of a row; the error names the first window
    of a 1 with a zero count, rows in order.
    """
    n = counts.shape[-1]
    if n == 0 or n % 2 != 0:
        raise ValueError("alternating trace must have a positive even number of windows")
    c0, c1 = counts[..., 0::2], counts[..., 1::2]
    zero = np.flatnonzero(c1 == 0)
    if len(zero):
        raise ValueError(f"window {window[2 * (zero[0] % (n // 2)) + 1]}: zero count, relative difference undefined")
    return (c1 - c0) / c1


def mean_ci(values: Sequence[float], level: float = 0.99) -> tuple[float, float, float]:
    """Student-t confidence interval for the mean of a one-dimensional sample: (mean, low, high)."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if len(arr) < 2:
        raise ValueError("need at least 2 values")
    level = _check_real(level, "level", 0, 1, above=True, below=True)
    mean = float(arr.mean())
    if not math.isfinite(mean):
        # a NaN or an infinity among the values always reaches the mean
        raise ValueError("values must be finite, and so must their mean")
    sem = float(arr.std(ddof=1)) / math.sqrt(len(arr))
    t = student_t_isf((1.0 - level) / 2.0, len(arr) - 1)
    return mean, mean - t * sem, mean + t * sem


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sample KS test of one-dimensional samples: D = sup |ECDF_a - ECDF_b|, asymptotic p-value.

    The p-value evaluates the Kolmogorov distribution at sqrt(n_eff) * D
    with effective size n_a * n_b / (n_a + n_b).
    """
    if np.ndim(a) != 1 or np.ndim(b) != 1:
        raise ValueError("samples must be one-dimensional")
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both samples must be non-empty")
    xa = np.sort(np.asarray(a, dtype=float))
    xb = np.sort(np.asarray(b, dtype=float))
    # sorting puts -inf first, and inf and NaN last
    if not all(map(math.isfinite, (xa[0], xa[-1], xb[0], xb[-1]))):
        raise ValueError("samples must be finite")
    grid = np.concatenate([xa, xb])
    cdf_a = np.searchsorted(xa, grid, side="right") / len(xa)
    cdf_b = np.searchsorted(xb, grid, side="right") / len(xb)
    d = float(np.abs(cdf_a - cdf_b).max())
    n_eff = len(xa) * len(xb) / (len(xa) + len(xb))
    return d, kolmogorov_sf(math.sqrt(n_eff) * d)


_EPS = 2.0**-52
_TINY = 1e-300
_HALF_LOG_PI = 0.5 * math.log(math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Stirling series of lgamma: B_2k / (2k (2k - 1)) for k = 1..7
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_STANDARD_NORMAL = NormalDist()


@functools.lru_cache(maxsize=64, typed=True)  # typed: a cached 1 must not answer for True
def student_t_isf(tail: float, df: float) -> float:
    """The t > 0 with P(T > t) = tail, for Student's t with df >= 1 degrees of freedom.

    Closed forms for df = 1 and 2.  Otherwise Hill's Algorithm 396 (CACM
    1970) gives the start, and second-order Newton steps on the upper tail
    refine it.  The tail is taken as given, not as 1 - level, so a tail
    near 1/2 (a level near 0) loses nothing to cancellation.  Where the
    density at the quantile underflows (tails below about 1e-150), Hill's
    start is returned unrefined.  Cached: a study computes every interval
    of one table at the same level and size.
    """
    tail, df = _check_real(tail, "tail", 0, 0.5, above=True), _check_real(df, "df", 1)
    if tail == 0.5:
        return 0.0
    if df == 1.0:
        return 1.0 / math.tan(math.pi * tail)
    if df == 2.0:
        return (1.0 - 2.0 * tail) / math.sqrt(2.0 * tail * (1.0 - tail))
    t = _hill_t_start(tail, df)
    for _ in range(10):
        density = _t_density(t, df)
        if density == 0.0:
            break
        step = (_t_tail(t, df) - tail) / density
        t += step * (1.0 + step * t * (df + 1.0) / (2.0 * (t * t + df)))
        # The step is third order: after one this small, what is left is rounding.
        if abs(step) <= 1e-6 * t:
            break
    return t


def kolmogorov_sf(x: float) -> float:
    """P(K > x) for the Kolmogorov distribution, the limit of sqrt(n) * D_n.

    For x >= 1 the alternating series 2 * sum (-1)^(k-1) exp(-2 k^2 x^2);
    below, one minus the theta-function form of the distribution function,
    sqrt(2 pi) / x * sum exp(-(2k - 1)^2 pi^2 / (8 x^2)) (Marsaglia, Tsang
    and Wang 2003).  Both converge in a few terms on their side.
    """
    if x <= 0.0:
        return 1.0
    if x < 1.0:
        u = math.pi * math.pi / (8.0 * x * x)
        total = 0.0
        for k in range(1, 100, 2):
            term = math.exp(-k * k * u)
            total += term
            if term <= _EPS * total:
                break
        return 1.0 - _SQRT_2PI / x * total
    total = 0.0
    for k in range(1, 100):
        term = math.exp(-2.0 * k * k * x * x)
        total += term if k % 2 else -term
        if term <= _EPS * total:
            break
    return 2.0 * total


def _hill_t_start(tail: float, df: float) -> float:
    """Hill's approximation to the upper t quantile (Algorithm 396), p = 2 * tail two-sided."""
    p = 2.0 * tail
    a = 1.0 / (df - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * df
    y = (d * p) ** (2.0 / df)
    if y > 0.05 + a:
        # asymptotic inverse expansion about the normal quantile
        x = _STANDARD_NORMAL.inv_cdf(tail)
        y = x * x
        if df < 5.0:
            c += 0.3 * (df - 4.5) * (x + 0.6)
        c = (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b + c
        y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b + 1.0) * x
        return math.sqrt(df * math.expm1(a * y * y))
    if y < _EPS:
        # far tail, where y is lost to rounding: the leading term sqrt(df / y)
        return math.sqrt(df) * math.exp(-math.log(d * p) / df)
    y = ((1.0 / (((df + 6.0) / (df * y) - 0.089 * d - 0.822) * (df + 2.0) * 3.0)
          + 0.5 / (df + 4.0)) * y - 1.0) * (df + 1.0) / (df + 2.0) + 1.0 / y
    return math.sqrt(df * y)


def _t_tail(t: float, df: float) -> float:
    """P(T > t) for t >= 0: I_x(df/2, 1/2) / 2 with x = df / (df + t^2)."""
    a = 0.5 * df
    t2 = t * t
    x = df / (df + t2)
    y = t2 / (df + t2)
    # x^a y^(1/2) / B(a, 1/2), with x^a from log1p so that large df keeps its digits
    front = math.exp(-a * math.log1p(t2 / df) + 0.5 * math.log(y) + _log_gamma_ratio(a) - _HALF_LOG_PI)
    if x < (a + 1.0) / (a + 2.5):
        return 0.5 * front * _beta_fraction(a, 0.5, x, y)
    return 0.5 - 0.5 * front * _beta_fraction(0.5, a, y, x)


def _t_density(t: float, df: float) -> float:
    return math.exp(_log_gamma_ratio(0.5 * df) - 0.5 * math.log(df * math.pi)
                    - 0.5 * (df + 1.0) * math.log1p(t * t / df))


def _log_gamma_ratio(a: float) -> float:
    """log(Gamma(a + 1/2) / Gamma(a)).

    For a >= 10 from Stirling's series, because the difference of two large
    lgamma values would lose the last digits that a tail of large df needs.
    """
    if a < 10.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    return (a * math.log1p(0.5 / a) + 0.5 * math.log(a) - 0.5
            + _stirling_remainder(a + 0.5) - _stirling_remainder(a))


def _stirling_remainder(x: float) -> float:
    """lgamma(x) - ((x - 1/2) log x - x + log(2 pi) / 2), to rounding for x >= 10."""
    r = 1.0 / (x * x)
    s = 0.0
    for c in reversed(_STIRLING):
        s = s * r + c
    return s / x


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """The r with I_x(a, b) = x^a y^b / B(a, b) * r, for y = 1 - x.

    The continued fraction of the regularized incomplete beta in the form of
    DiDonato and Morris (ACM TOMS 708, BFRAC), evaluated by modified Lentz.
    Its terms are built from lambda = (a + b) y - b rather than from x, so a
    large a near x = 1 keeps its digits.  Converges fast for
    x < (a + 1) / (a + b + 2).
    """
    lam = (a + b) * y - b if a > b else a - (a + b) * x
    c = lam + 1.0
    c0 = b / a
    c1 = 1.0 / a + 1.0
    yp1 = y + 1.0
    p = 1.0
    s = a + 1.0
    f = c / c1 or _TINY
    num, den = f, 0.0
    for n in range(1, 10_000):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        e = (t + 1.0) / (c1 + t + t)
        beta = n + w / s + e * (c + n * yp1)
        p = t + 1.0
        s += 2.0
        den = 1.0 / (beta + alpha * den or _TINY)
        num = beta + alpha / num or _TINY
        delta = num * den
        f *= delta
        if abs(delta - 1.0) <= _EPS:
            return 1.0 / f
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def bit_error_rate(sent: Sequence[int], received: Sequence[int]) -> float:
    """Hamming distance over length, of two one-dimensional streams."""
    sent, received = np.asarray(sent), np.asarray(received)
    if sent.ndim != 1 or received.ndim != 1:
        raise ValueError("bit streams must be one-dimensional")
    if len(sent) != len(received):
        raise ValueError("bit streams must have equal length")
    if len(sent) == 0:
        raise ValueError("bit streams must be non-empty")
    return np.count_nonzero(sent != received) / len(sent)
