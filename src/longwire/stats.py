"""Measurement statistics: paired relative count differences, Student-t
confidence intervals, the two-sample Kolmogorov-Smirnov test and bit
error rate.  Only the four analyses the experiments actually run."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import special

from .channel import CountTrace

__all__ = [
    "PairedDeltas",
    "paired_delta_rc",
    "mean_ci",
    "ks_two_sample",
    "bit_error_rate",
    "metrics_to_csv",
]


@dataclass(frozen=True)
class PairedDeltas:
    """Per-pair relative count differences (c1 - c0) / c1."""

    values: tuple[float, ...]
    source: str = ""

    def __post_init__(self):
        if any(not math.isfinite(v) for v in self.values):
            raise ValueError("paired deltas must be finite")

    @property
    def mean(self) -> float:
        return float(np.mean(self.values)) if self.values else 0.0


def paired_delta_rc(trace: CountTrace) -> PairedDeltas:
    """Relative count difference per (0, 1) window pair of an alternating trace.

    Window 2i must carry a 0 and window 2i+1 a 1; the trace's recorded
    ground truth is checked, not trusted.
    """
    if len(trace) == 0 or len(trace) % 2 != 0:
        raise ValueError("alternating trace must have a positive even number of windows")
    for i, s in enumerate(trace.samples):
        if s.tx_bit != i % 2:
            raise ValueError(f"window {s.window}: expected alternating bit {i % 2}, got {s.tx_bit}")
    deltas = []
    counts = trace.counts
    for i in range(0, len(counts), 2):
        c0, c1 = counts[i], counts[i + 1]
        if c1 == 0:
            raise ValueError(f"window {i + 1}: zero count, relative difference undefined")
        deltas.append((c1 - c0) / c1)
    return PairedDeltas(tuple(deltas), source=trace.trace_id)


def mean_ci(values: Sequence[float], level: float = 0.99) -> tuple[float, float, float]:
    """Student-t confidence interval for the mean: (mean, low, high)."""
    if len(values) < 2:
        raise ValueError("need at least 2 values")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    sem = float(arr.std(ddof=1)) / math.sqrt(len(arr))
    t = float(special.stdtrit(len(arr) - 1, 0.5 + level / 2.0))
    return mean, mean - t * sem, mean + t * sem


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sample KS test: D = sup |ECDF_a - ECDF_b|, asymptotic p-value.

    The p-value evaluates the Kolmogorov distribution at sqrt(n_eff) * D
    with effective size n_a * n_b / (n_a + n_b).
    """
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both samples must be non-empty")
    xa = np.sort(np.asarray(a, dtype=float))
    xb = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([xa, xb])
    cdf_a = np.searchsorted(xa, grid, side="right") / len(xa)
    cdf_b = np.searchsorted(xb, grid, side="right") / len(xb)
    d = float(np.abs(cdf_a - cdf_b).max())
    n_eff = len(xa) * len(xb) / (len(xa) + len(xb))
    p = float(special.kolmogorov(math.sqrt(n_eff) * d))
    return d, min(1.0, max(0.0, p))


def bit_error_rate(sent: Sequence[int], received: Sequence[int]) -> float:
    """Hamming distance over length."""
    if len(sent) != len(received):
        raise ValueError("bit streams must have equal length")
    if len(sent) == 0:
        raise ValueError("bit streams must be non-empty")
    return sum(1 for x, y in zip(sent, received) if x != y) / len(sent)


def metrics_to_csv(rows: Iterable[tuple[str, float, float, float]]) -> str:
    """CSV rows metric,mean,ci_low,ci_high."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["metric", "mean", "ci_low", "ci_high"])
    for metric, mean, lo, hi in rows:
        writer.writerow([metric, f"{mean:.10g}", f"{lo:.10g}", f"{hi:.10g}"])
    return buf.getvalue()
