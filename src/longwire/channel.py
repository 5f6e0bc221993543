"""Parametric model of the long-wire crosstalk channel.

A receiver ring oscillator is sampled by counting its edges over a fixed
window of system-clock ticks.  A transmitter wire routed next to the
oscillator's long-wire segments shifts the oscillator frequency in
proportion to the fraction of the window the transmitter spends at
logical 1.  This module generates those counts: the static geometry
factor, a slow mean-reverting baseline drift, per-window Gaussian noise
and the +/-1 quantization of an unsynchronized counter.

All counts come from one array engine, ``simulate_counts``.  For n windows
it draws from the generator, in this order (``STREAM_VERSION`` 2): n drift
innovations ``normal(0, drift_rate)``, then n noise values
``normal(0, sigma)``, then n counter phases ``uniform(-1, 1)``.  Version 1
drew the same three values window by window, interleaved.  The drift is a
linear pass over blocks of windows up to the first window that leaves
+/-drift_bound, and the scalar clipped recursion from there on.  A run of
windows is a ``CountTrace``: one array per column (window, count, duty,
toggle rate) plus the list of transmitted bits.

Two coupling paths are modelled.  On the ``long`` path the count depends
on the transmitter duty cycle only.  On the ``local`` path (no long-wire
overlap) switching activity depresses the count and the duty cycle has
only a very weak residual effect.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .patterns import PatternSpec, _is_int, stimulus_columns

__all__ = [
    "STREAM_VERSION",
    "DeviceProfile",
    "MeasurementConfig",
    "Geometry",
    "TraceSample",
    "CountTrace",
    "as_longs",
    "expected_delta_rc",
    "expected_count",
    "simulate_counts",
    "simulate_trace",
    "trace_to_csv",
    "trace_from_csv",
    "TRACE_CSV_HEADER",
]

# Order in which simulate_counts draws from its generator; see the module docstring.
STREAM_VERSION = 2

# Reference window used to express noise_sigma: 2^13 ticks.
NOISE_REFERENCE_TICKS = 1 << 13


def _require_finite(obj, names) -> None:
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise ValueError(f"{name} must be finite")


class _ReadOnlyDict(dict):
    """A dict that refuses writes; it hashes, pickles and copies as its items."""

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return type(self), (dict(self),)


def _validate_atten(atten: dict[int, float]) -> _ReadOnlyDict:
    clean: dict[int, float] = {}
    for d, mult in atten.items():
        d = int(d)
        mult = float(mult)
        if d < 1:
            raise ValueError(f"distance_atten key {d} must be >= 1")
        if not math.isfinite(mult):
            raise ValueError(f"distance_atten multiplier for d={d} must be finite")
        if mult < 0.0:
            raise ValueError("distance_atten multipliers must be >= 0")
        if d >= 3 and mult != 0.0:
            raise ValueError("distance_atten must be exactly 0 for d >= 3")
        clean[d] = mult
    by_distance = [clean[d] for d in sorted(clean)]
    if any(near < far for near, far in zip(by_distance, by_distance[1:])):
        raise ValueError("distance_atten must be non-increasing in d")
    return _ReadOnlyDict(clean)


@dataclass(frozen=True)
class DeviceProfile:
    """Calibration of the simulated leakage channel.

    The defaults reproduce the reference device: a 3-stage oscillator at
    3x the system clock whose full-swing count shift is 4 counts per
    8192-tick window for a 2-long transmitter next to a 2-long receiver.
    """

    base_rate: float = 3.0                 # f_RO / f_CLK
    coupling_alpha: float = 1.0 / 4096.0   # relative delay reduction per overlapped long
    stage_beta: float = 1.0                # LUT stage delay, in long-segment-delay units
    distance_atten: Mapping[int, float] = field(default_factory=lambda: {1: 1.0, 2: 0.05})
    noise_sigma: float = 0.8               # counts per window at the 2^13-tick reference
    drift_rate: float = 5e-9               # per-window drift innovation (fraction of base_rate)
    drift_reversion: float = 0.005
    drift_bound: float = 2e-5
    local_switch_penalty: float = 4e-5     # count-rate penalty per unit toggle rate
    local_static_epsilon: float = 6.4e-8   # weak duty coupling of non-long paths

    def __post_init__(self):
        _require_finite(self, [f.name for f in fields(self) if f.name != "distance_atten"])
        if self.base_rate <= 0:
            raise ValueError("base_rate must be > 0")
        if self.coupling_alpha < 0:
            raise ValueError("coupling_alpha must be >= 0")
        if self.stage_beta <= 0:
            raise ValueError("stage_beta must be > 0")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if not 0.0 <= self.drift_reversion <= 1.0:
            raise ValueError("drift_reversion must be in [0, 1]")
        if self.drift_rate < 0 or self.drift_bound < 0:
            raise ValueError("drift parameters must be >= 0")
        if self.local_switch_penalty < 0:
            raise ValueError("local_switch_penalty must be >= 0")
        eps = self.local_static_epsilon
        if eps < 0:
            raise ValueError("local_static_epsilon must be >= 0")
        if eps != 0.0 and not eps < self.coupling_alpha / 10.0:
            raise ValueError("local_static_epsilon must be < coupling_alpha / 10")
        object.__setattr__(self, "distance_atten", _validate_atten(self.distance_atten))

    def attenuation(self, d: int) -> float:
        """Distance multiplier: 1.0 for adjacent wires, 0 for d >= 3."""
        if d < 1:
            raise ValueError("distance must be >= 1")
        return self.distance_atten.get(d, 0.0)  # _validate_atten holds d >= 3 at 0

    def noise_sigma_for(self, ticks_per_window: int) -> float:
        """Counting noise grows with the square root of the window length."""
        return self.noise_sigma * math.sqrt(ticks_per_window / NOISE_REFERENCE_TICKS)


@dataclass(frozen=True)
class MeasurementConfig:
    """Counter sampling setup: a trigger every 2^log2_ticks system-clock ticks."""

    log2_ticks: int = 13
    f_clk_hz: float = 100e6

    def __post_init__(self):
        if not _is_int(self.log2_ticks) or not 1 <= self.log2_ticks <= 32:
            raise ValueError(f"log2_ticks must be in [1, 32] and an int, got {self.log2_ticks!r}")
        _require_finite(self, ["f_clk_hz"])
        if self.f_clk_hz <= 0:
            raise ValueError("f_clk_hz must be > 0")

    @property
    def ticks_per_window(self) -> int:
        return 1 << self.log2_ticks

    @property
    def window_seconds(self) -> float:
        return self.ticks_per_window / self.f_clk_hz


def as_longs(value) -> Fraction:
    """Normalize a wire length to an exact multiple of 1/3 of a long."""
    if isinstance(value, (Fraction, int, str)):
        try:
            frac = Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"wire length {value!r} has a zero denominator") from None
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"wire length {value} must be finite")
        frac = Fraction(value).limit_denominator(3)
        if abs(float(frac) - value) > 1e-9:
            raise ValueError(f"wire length {value} is not a multiple of 1/3")
    else:
        raise TypeError(f"cannot interpret {value!r} as a wire length")
    if frac.denominator not in (1, 3):
        raise ValueError(f"wire length {value} is not a multiple of 1/3")
    return frac


@dataclass(frozen=True)
class Geometry:
    """Placement of transmitter and receiver long wires.

    ``coupling`` selects the physical path: "long" for overlapping long
    wires, "local" when the transmitter uses only local routing.  The model
    gives the wires' relative offset, their signal directions and their
    location on the chip no effect, so none of them is a field.
    """

    v_t: Fraction = Fraction(2)    # transmitter longs (thirds allowed)
    v_r: int = 2                   # receiver longs
    d: int = 1                     # track distance, 1 = adjacent
    coupling: str = "long"

    def __post_init__(self):
        v_t = self.v_t
        if type(v_t) is not Fraction or v_t.denominator not in (1, 3):  # else as_longs returns it as it is
            object.__setattr__(self, "v_t", v_t := as_longs(v_t))
        if v_t.numerator <= 0:
            raise ValueError("v_t must be > 0")
        if not _is_int(self.v_r) or self.v_r < 1:
            raise ValueError(f"v_r must be an int >= 1, got {self.v_r!r}")
        if not _is_int(self.d) or self.d < 1:
            raise ValueError(f"d must be an int >= 1, got {self.d!r}")
        if self.coupling not in ("long", "local"):
            raise ValueError("coupling must be 'long' or 'local'")


class TraceSample(NamedTuple):
    window: int
    count: int
    duty: float
    toggle_rate: float
    tx_bit: int | None


@dataclass(frozen=True, eq=False)
class CountTrace:
    """Per-window oscillator counts paired with the transmitted ground truth.

    One entry per window in each column: ``window`` and ``counts`` are
    int64 arrays, ``duty`` and ``toggle_rate`` float64 arrays, and
    ``tx_bits`` a list holding the sent bit or None (dynamic patterns).
    """

    window: np.ndarray
    counts: np.ndarray
    duty: np.ndarray
    toggle_rate: np.ndarray
    tx_bits: list[int | None]

    def __post_init__(self):
        for name, dtype in (("window", np.int64), ("counts", np.int64), ("duty", float), ("toggle_rate", float)):
            column = np.array(getattr(self, name), dtype=dtype)  # a read-only copy: the trace stays as validated
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "tx_bits", list(self.tx_bits))
        if {c.shape for c in (self.window, self.counts, self.duty, self.toggle_rate)} != {(len(self.tx_bits),)}:
            raise ValueError("trace columns must be one-dimensional and of equal length")
        if (np.diff(self.window) <= 0).any():
            raise ValueError("window indices must be strictly increasing")
        if not ((self.duty >= 0.0) & (self.duty <= 1.0)).all():
            raise ValueError("duty must be in [0, 1]")
        if not ((self.toggle_rate >= 0.0) & (self.toggle_rate < np.inf)).all():
            raise ValueError("toggle_rate must be finite and >= 0")
        if (self.counts < 0).any():
            raise ValueError("counts must be >= 0")

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def samples(self) -> tuple[TraceSample, ...]:
        """The trace as rows, built anew on each call."""
        columns = (self.window, self.counts, self.duty, self.toggle_rate)
        return tuple(map(TraceSample, *(c.tolist() for c in columns), self.tx_bits))


def expected_delta_rc(profile: DeviceProfile, geom: Geometry) -> float:
    """Relative count shift between a transmitted 1 and 0 for this geometry.

    The shift scales with the number of overlapped receiver longs and is
    diluted by the oscillator's fixed stage delay; fractions of a long
    count as the whole driven segment.
    """
    overlap = min(math.ceil(geom.v_t), geom.v_r)
    base = profile.coupling_alpha * overlap / (profile.stage_beta + geom.v_r)
    return profile.attenuation(geom.d) * base


def _coupling_terms(profile: DeviceProfile, geom: Geometry) -> tuple[float, float]:
    if geom.coupling == "long":
        return expected_delta_rc(profile, geom), 0.0
    return profile.local_static_epsilon, profile.local_switch_penalty


def _mean_count(profile, cfg, terms, duty, toggle_rate, drift):
    """Noise-free window count, (m * base_rate) * (1 + drift) * (1 + duty * delta - penalty * toggle_rate).

    ``terms`` is the geometry's (delta, penalty) from ``_coupling_terms``.
    Floats or arrays alike.  An array ``drift`` is overwritten with the
    result; the terms are combined in place, in the order written above.
    """
    delta, penalty = terms
    level = duty * delta
    level += 1.0
    load = penalty * toggle_rate
    if not (isinstance(load, float) and load == 0.0):  # x - 0.0 == x
        level -= load
    mean = drift
    mean += 1.0
    mean *= cfg.ticks_per_window * profile.base_rate
    mean *= level
    return mean


def expected_count(
    profile: DeviceProfile,
    cfg: MeasurementConfig,
    geom: Geometry,
    duty: float,
    toggle_rate: float = 0.0,
    drift_state: float = 0.0,
) -> float:
    """Noise-free mean of the window count."""
    if not 0.0 <= duty <= 1.0:
        raise ValueError("duty must be in [0, 1]")
    if not 0.0 <= toggle_rate < math.inf:
        raise ValueError("toggle_rate must be finite and >= 0")
    return _mean_count(profile, cfg, _coupling_terms(profile, geom), duty, toggle_rate, drift_state)


# Windows per block of the drift pass: one matmul per block, then a carry between blocks.
_BLOCK = 64


@functools.lru_cache(maxsize=8)
def _decay_matrix(keep: float) -> tuple[np.ndarray, np.ndarray]:
    """Lower-triangular block x block matrix of keep^(i - j), and its first column times keep; read-only."""
    lag = np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))
    matrix = np.where(lag >= 0, keep ** np.maximum(lag, 0).astype(float), 0.0)
    carry = matrix[:, 0] * keep
    matrix.flags.writeable = carry.flags.writeable = False
    return matrix, carry


def _linear_ar1(innovations: np.ndarray, keep: float) -> np.ndarray:
    """x_t = keep * x_(t-1) + e_t from x_(-1) = 0, without clipping.

    Each block of windows is one product with the decay matrix, which gives
    the states the block would reach from 0.  The block ends then follow the
    same recursion with keep^block, one state per block, and each block adds
    the previous block's end times keep^(i + 1).  Every weight is at most 1
    when keep is in [0, 1], so the pass is as stable as the loop.
    """
    n = len(innovations)
    decay, carry = _decay_matrix(keep)
    if n <= _BLOCK:
        return decay[:n, :n] @ innovations
    blocks = -(-n // _BLOCK)
    padded = np.zeros(blocks * _BLOCK)
    padded[:n] = innovations
    path = padded.reshape(blocks, _BLOCK) @ decay.T
    ends = _linear_ar1(path[:, -1], keep**_BLOCK)
    path[1:] += ends[:-1, None] * carry
    return path.ravel()[:n]


def _clipped_ar1(state: float, innovations, keep: float, bound: float) -> list[float]:
    """The clipped recursion one window at a time, from ``state``."""
    path = []
    append = path.append
    for innovation in innovations:
        state = state * keep + innovation
        if state > bound:
            state = bound
        elif state < -bound:
            state = -bound
        append(state)
    return path


def _drift_path(profile: DeviceProfile, innovations: np.ndarray) -> np.ndarray:
    """Clipped AR(1) baseline wander from 0, one state per innovation.

    Until the first window that leaves +/-drift_bound, the clip does nothing
    and the path is ``_linear_ar1``.  From that window on each clip feeds
    back into the next state, so the rest runs as the scalar recursion.
    """
    keep, bound = 1.0 - profile.drift_reversion, profile.drift_bound
    path = _linear_ar1(innovations, keep)
    outside = np.abs(path) > bound
    if np.count_nonzero(outside):
        first = int(outside.argmax())
        state = float(path[first - 1]) if first else 0.0
        path[first:] = _clipped_ar1(state, innovations[first:].tolist(), keep, bound)
    return path


def simulate_counts(
    profile: DeviceProfile,
    cfg: MeasurementConfig,
    geom: Geometry,
    duty,
    toggle_rate,
    rng: np.random.Generator,
) -> np.ndarray:
    """Counts of consecutive windows, one per duty value, drift starting at 0.

    ``toggle_rate`` is one value per window or one for all.  Draws the
    stream in three blocks (see the module docstring), then adds mean,
    noise and counter phase, rounded half to even and clipped at 0.
    """
    duty = np.asarray(duty, dtype=float)
    scalar = isinstance(toggle_rate, (int, float))
    toggle = float(toggle_rate) if scalar else np.asarray(toggle_rate, dtype=float)
    if duty.ndim != 1 or (not scalar and toggle.ndim > 1):
        raise ValueError("duty and toggle_rate must be one value per window")
    if not ((duty >= 0.0) & (duty <= 1.0)).all():
        raise ValueError("duty must be in [0, 1]")
    if not (0.0 <= toggle < math.inf if scalar else ((toggle >= 0.0) & (toggle < np.inf)).all()):
        raise ValueError("toggle_rate must be finite and >= 0")
    return _count_engine(profile, cfg, _coupling_terms(profile, geom), duty, toggle, rng)


def _count_engine(profile, cfg, terms, duty: np.ndarray, toggle, rng) -> np.ndarray:
    """simulate_counts past its checks, the geometry given as its _coupling_terms: duty a 1-D float array
    in [0, 1], toggle a float or array, finite and >= 0."""
    n = len(duty)
    innovations = rng.normal(0.0, profile.drift_rate, n)
    noise = rng.normal(0.0, profile.noise_sigma_for(cfg.ticks_per_window), n)
    phase = rng.uniform(-1.0, 1.0, n)
    raw = _mean_count(profile, cfg, terms, duty, toggle, _drift_path(profile, innovations))
    raw += noise
    raw += phase
    return np.maximum(np.rint(raw, out=raw), 0.0, out=raw).astype(np.int64)


def simulate_trace(
    profile: DeviceProfile,
    cfg: MeasurementConfig,
    geom: Geometry,
    pattern: PatternSpec,
    num_windows: int,
    seed: int,
) -> CountTrace:
    """Simulate consecutive windows; deterministic for a fixed seed."""
    if num_windows < 1:
        raise ValueError("num_windows must be >= 1")
    duty, toggle, bits = stimulus_columns(pattern, num_windows)
    counts = simulate_counts(profile, cfg, geom, duty, toggle, np.random.default_rng(seed))
    return CountTrace(np.arange(num_windows), counts, duty, toggle, bits)


TRACE_CSV_HEADER = ("window", "count", "duty", "toggle_rate", "tx_bit")


def _format_column(column: np.ndarray, fmt) -> list[str]:
    """fmt(v) for each value of a float64 column, called once per distinct value.

    Values are grouped by their 64 bits, not by ==, which keeps -0.0 apart from 0.0.
    """
    keys, inverse = np.unique(column.view(np.int64), return_inverse=True)
    text = [fmt(v) for v in keys.view(column.dtype).tolist()]
    return list(map(text.__getitem__, inverse.tolist()))


def trace_to_csv(trace: CountTrace) -> str:
    """One header line, then one line per window; a bit of None is an empty field."""
    rows = zip(
        map(str, trace.window.tolist()),
        map(str, trace.counts.tolist()),
        _format_column(trace.duty, "{:.6g}".format),
        _format_column(trace.toggle_rate, "{:.6g}".format),
        ["" if b is None else str(b) for b in trace.tx_bits],
    )
    return "\n".join([",".join(TRACE_CSV_HEADER), *map(",".join, rows), ""])


def _parse_column(texts: tuple[str, ...], parse) -> list:
    """parse(v) for each text, called once per distinct text in file order."""
    values = {v: parse(v) for v in dict.fromkeys(texts)}
    return list(map(values.__getitem__, texts))


def trace_from_csv(text: str) -> CountTrace:
    """Inverse of ``trace_to_csv``; blank lines are skipped."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != TRACE_CSV_HEADER:
        raise ValueError(f"expected header {','.join(TRACE_CSV_HEADER)}")
    rows = []
    for row in filter(None, reader):
        if len(row) != len(TRACE_CSV_HEADER):
            raise ValueError(f"line {reader.line_num}: expected {len(TRACE_CSV_HEADER)} fields, got {len(row)}")
        rows.append(row)
    window, count, duty, toggle_rate, bit = zip(*rows) if rows else [()] * len(TRACE_CSV_HEADER)
    return CountTrace(
        list(map(int, window)),
        list(map(int, count)),
        _parse_column(duty, float),
        _parse_column(toggle_rate, float),
        _parse_column(bit, lambda v: None if v == "" else int(v)),
    )
