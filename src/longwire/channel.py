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
drew the same three values window by window, interleaved.  Each block is
drawn when it is used: the innovations become the drift, and are dropped,
before the noise is drawn, so no more than one block is held at a time.
Beyond its duty input the engine holds at most two float64 arrays of the
trace at any stage (the innovations and their drift path, then the mean and
one block); only a ragged trace adds a zero-padded copy of the innovations.
Int, uint and bool duty, such as the covert link's uint8 symbols, enters the
arithmetic as it is, without a float64 copy.
The drift is a linear pass over blocks of windows up to the first window
that leaves +/-drift_bound, and the scalar clipped recursion from there
on.  A run of windows is a ``CountTrace``: one array per column (window,
count, duty, toggle rate) plus the list of transmitted bits.

The engine behind it also takes a batch: duty as (rows x windows), one
geometry per row, and one generator per draw row.  Each block is filled row
by row, each draw row from its own generator, so every generator still draws
its three blocks in the order above and a row's counts are those its
generator gives it alone; one geometry or one draw row serves every row.
The drift pass, the mean, the noise, the phase and the rounding each run
once over the whole array.

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

from .patterns import PatternSpec, _check_bits, _check_int, _check_int_field, _check_real, _check_real_field, _is_int
from .patterns import _parsed, stimulus_columns

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
        d = _check_int(d, "distance_atten key", 1)
        mult = _check_real(mult, f"distance_atten multiplier for d={d}", 0)
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
        for f in fields(self):  # each float field in order: base_rate and stage_beta > 0, drift_reversion <= 1
            if f.name != "distance_atten":
                high = 1 if f.name == "drift_reversion" else math.inf
                _check_real_field(self, f.name, 0, high, above=f.name in ("base_rate", "stage_beta"))
        eps = self.local_static_epsilon
        if eps != 0.0 and not eps < self.coupling_alpha / 10.0:
            raise ValueError("local_static_epsilon must be < coupling_alpha / 10")
        object.__setattr__(self, "distance_atten", _validate_atten(self.distance_atten))

    def attenuation(self, d: int) -> float:
        """Distance multiplier: 1.0 for adjacent wires, 0 for d >= 3."""
        return self.distance_atten.get(_check_int(d, "distance", 1), 0.0)  # _validate_atten holds d >= 3 at 0

    def noise_sigma_for(self, ticks_per_window: int) -> float:
        """Counting noise grows with the square root of the window length."""
        return self.noise_sigma * math.sqrt(ticks_per_window / NOISE_REFERENCE_TICKS)


@dataclass(frozen=True)
class MeasurementConfig:
    """Counter sampling setup: a trigger every 2^log2_ticks system-clock ticks."""

    log2_ticks: int = 13
    f_clk_hz: float = 100e6

    def __post_init__(self):
        _check_int_field(self, "log2_ticks", 1, 32)
        _check_real_field(self, "f_clk_hz", 0, above=True)

    @property
    def ticks_per_window(self) -> int:
        return 1 << self.log2_ticks

    @property
    def window_seconds(self) -> float:
        return self.ticks_per_window / self.f_clk_hz


def as_longs(value) -> Fraction:
    """A wire length as an exact multiple of 1/3 of a long, > 0: a Fraction, a text such as "4/3", an int
    (numpy's too, but no bool) or a float within 1e-9 of a third (numpy's too)."""
    length = None
    if isinstance(value, (float, np.floating)):
        number = _check_real(value, "wire length", 0, above=True)
        length = Fraction(number).limit_denominator(3)
        length = length if abs(float(length) - number) <= 1e-9 else None
    elif _is_int(value):
        length = Fraction(int(value))  # a numpy integer's Fraction would keep numpy ints
    elif isinstance(value, (Fraction, str)):
        length = _parsed(value, Fraction)
    if type(length) is not Fraction or length <= 0 or length.denominator not in (1, 3):
        raise ValueError(f"wire length must be a multiple of 1/3 > 0, got {value!r}")
    return length


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
        if type(v_t) is not Fraction or v_t.numerator <= 0 or v_t.denominator not in (1, 3):  # a valid Fraction stays
            object.__setattr__(self, "v_t", as_longs(v_t))
        _check_int_field(self, "v_r", 1)
        _check_int_field(self, "d", 1)
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
    ``tx_bits`` a list holding the sent bit, an int 0 or 1, or None (dynamic patterns).
    Text in a number column is refused, not parsed, and so is a window or
    count that is not a whole number int64 holds.
    """

    window: np.ndarray
    counts: np.ndarray
    duty: np.ndarray
    toggle_rate: np.ndarray
    tx_bits: list[int | None]

    def __post_init__(self):
        with np.errstate(invalid="ignore"):  # an int column's value that int64 cannot hold is refused below
            for name, dtype in (("window", np.int64), ("counts", np.int64), ("duty", float), ("toggle_rate", float)):
                numbers = _numbers(getattr(self, name), name)
                column = np.array(numbers, dtype=dtype)  # a read-only copy: the trace stays as validated
                if dtype is np.int64 and (column != numbers).any():
                    raise ValueError(f"{name} must be whole numbers")
                column.flags.writeable = False
                object.__setattr__(self, name, column)
        bits = list(self.tx_bits)
        if {c.shape for c in (self.window, self.counts, self.duty, self.toggle_rate)} != {(len(bits),)}:
            raise ValueError("trace columns must be one-dimensional and of equal length")
        if (np.diff(self.window) <= 0).any():
            raise ValueError("window indices must be strictly increasing")
        _check_stimulus(self.duty, self.toggle_rate)
        if (self.counts < 0).any():
            raise ValueError("counts must be >= 0")
        # each bit is stored as an int, so that a bool or numpy bit writes CSV that reads back
        sent = _check_bits([b for b in bits if b is not None], "tx bit")
        ints = iter(sent)
        bits = list(sent) if len(sent) == len(bits) else [b if b is None else next(ints) for b in bits]
        object.__setattr__(self, "tx_bits", bits)

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def samples(self) -> tuple[TraceSample, ...]:
        """The trace as rows, built anew on each call."""
        columns = (self.window, self.counts, self.duty, self.toggle_rate)
        return tuple(map(TraceSample, *(c.tolist() for c in columns), self.tx_bits))


def _check_stimulus(duty, toggle_rate) -> None:
    """Duty in [0, 1] and toggle rate finite and >= 0, each a float or an array (the ufunc gives both .all())."""
    if not np.logical_and(duty >= 0.0, duty <= 1.0).all():
        raise ValueError("duty must be in [0, 1]")
    if not np.logical_and(toggle_rate >= 0.0, toggle_rate < np.inf).all():
        raise ValueError("toggle_rate must be finite and >= 0")


def expected_delta_rc(profile: DeviceProfile, geom: Geometry) -> float:
    """Relative count shift between a transmitted 1 and 0 for this geometry.

    The shift scales with the number of overlapped receiver longs and is
    diluted by the oscillator's fixed stage delay; fractions of a long
    count as the whole driven segment.
    """
    overlap = min(-(-geom.v_t.numerator // geom.v_t.denominator), geom.v_r)  # the ceiling of the Fraction v_t
    base = profile.coupling_alpha * overlap / (profile.stage_beta + geom.v_r)
    return profile.distance_atten.get(geom.d, 0.0) * base  # attenuation(d), whose check Geometry made


def _coupling_terms(profile: DeviceProfile, geom: Geometry) -> tuple[float, float]:
    if geom.coupling == "long":
        return expected_delta_rc(profile, geom), 0.0
    return profile.local_static_epsilon, profile.local_switch_penalty


def _terms(profile: DeviceProfile, cfg: MeasurementConfig, geoms) -> tuple:
    """The channel terms ``(scale, delta, penalty)`` that ``_mean_count`` and the count engine take.

    ``scale`` is the count of a window at no duty, toggling or drift,
    m * base_rate.  ``geoms`` holds one geometry, whose ``_coupling_terms``
    come as floats and serve every row, or one per row, whose terms become
    (rows x 1) columns.
    """
    scale = cfg.ticks_per_window * profile.base_rate
    if len(geoms) == 1:  # floats, and no array built: the noisy attack's per-key path
        return (scale, *_coupling_terms(profile, geoms[0]))
    delta, penalty = np.array([_coupling_terms(profile, g) for g in geoms]).T[..., None]
    return scale, delta, penalty


def _mean_count(terms, duty, toggle_rate, drift):
    """Noise-free window count, (m * base_rate) * (1 + drift) * (1 + duty * delta - penalty * toggle_rate).

    ``terms`` is ``_terms``' ``(scale, delta, penalty)``; the rest are floats
    or arrays alike.  An array ``drift`` is overwritten; the result is written
    into the stimulus level (a fresh array whenever the duty is one), which
    must hold the result's shape.  The terms are combined in the order above.
    """
    scale, delta, penalty = terms
    level = duty * delta
    level += 1.0
    load = penalty * toggle_rate
    if not (isinstance(load, float) and load == 0.0):  # x - 0.0 == x
        level -= load
    mean = drift
    mean += 1.0
    mean *= scale
    level *= mean  # the level has the result's shape; y * x is x * y to the bit
    return level


def expected_count(
    profile: DeviceProfile,
    cfg: MeasurementConfig,
    geom: Geometry,
    duty: float,
    toggle_rate: float = 0.0,
    drift_state: float = 0.0,
) -> float:
    """Noise-free mean of the window count; a drift state above -1 keeps it positive."""
    _check_stimulus(duty, toggle_rate)
    drift_state = _check_real(drift_state, "drift_state", -1, above=True)
    return _mean_count(_terms(profile, cfg, (geom,)), duty, toggle_rate, drift_state)


# The drift's bound test: two reductions, without ndarray.max's Python layer.
_MAX, _MIN = np.maximum.reduce, np.minimum.reduce

# Windows per block of the drift pass: one matmul per block, then a carry between blocks.
_BLOCK = 64
# Most values the carry adds at once; its product is never a trace-size temporary.
_CARRY_SIZE = 1 << 13


@functools.lru_cache(maxsize=8)
def _decay_matrix(keep: float) -> tuple[np.ndarray, np.ndarray]:
    """Lower-triangular block x block matrix of keep^(i - j), and its first column times keep; read-only."""
    lag = np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))
    matrix = np.where(lag >= 0, keep ** np.maximum(lag, 0).astype(float), 0.0)
    carry = matrix[:, 0] * keep
    matrix.flags.writeable = carry.flags.writeable = False
    return matrix, carry


def _linear_ar1(innovations: np.ndarray, keep: float) -> np.ndarray:
    """x_t = keep * x_(t-1) + e_t from x_(-1) = 0 along the last axis, without clipping.

    Each block of windows is one product with the decay matrix, which gives
    the states the block would reach from 0; whole blocks are multiplied
    through a reshaped view of the innovations, and only a ragged trace is
    copied into a zero-padded buffer first.  The block ends then follow the
    same recursion with keep^block, one state per block, and each block adds
    the previous block's end times keep^(i + 1), in pieces of at most
    ``_CARRY_SIZE`` values (one block at least), so that the carry's
    product is never a trace-size temporary.  Every weight is at most 1
    when keep is in [0, 1], so the pass is as stable as the loop.  A 2-D
    array is a stack of products, one per row, so a row's path is the one it
    gets alone, to the bit (one product over all rows would sum differently).
    """
    rows, n = innovations.shape[:-1], innovations.shape[-1]  # rows: () for one trace, (r,) for r of them
    decay, carry = _decay_matrix(keep)
    if n <= _BLOCK:
        return (decay[:n, :n] @ innovations[:, :, None])[:, :, 0] if rows else decay[:n, :n] @ innovations
    blocks = -(-n // _BLOCK)
    if n % _BLOCK:  # a ragged trace: its last block is zero-padded
        path = np.zeros(rows + (blocks * _BLOCK,))
        path[..., :n] = innovations
    else:
        path = innovations
    path = path.reshape(rows + (blocks, _BLOCK)) @ decay.T
    ends = _linear_ar1(path[..., :-1, -1], keep**_BLOCK)  # the end of each block but the last
    step = _CARRY_SIZE * blocks // path.size or 1  # blocks per piece
    for s in range(1, blocks, step):
        path[..., s : s + step, :] += ends[..., s - 1 : s - 1 + step, None] * carry
    return path.reshape(rows + (-1,))[..., :n]


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
    """Clipped AR(1) baseline wander from 0, one state per innovation, along the last axis.

    Until the first window that leaves +/-drift_bound, the clip does nothing
    and the path is ``_linear_ar1``.  From that window on each clip feeds
    back into the next state, so the rest of that row runs as the scalar
    recursion.  Two reductions tell whether any window left the bound; only
    then is a window mask built.
    """
    keep, bound = 1.0 - profile.drift_reversion, profile.drift_bound
    path = _linear_ar1(innovations, keep)
    if _MAX(path, None, initial=0.0) > bound or _MIN(path, None, initial=0.0) < -bound:  # bound >= 0; n may be 0
        n = path.shape[-1]
        rows, steps = path.reshape(-1, n), innovations.reshape(-1, n)  # views
        outside = rows > bound
        outside |= rows < -bound
        for row in np.flatnonzero(outside.any(axis=1)).tolist():
            first = int(outside[row].argmax())
            state = float(rows[row, first - 1]) if first else 0.0
            rows[row, first:] = _clipped_ar1(state, steps[row, first:].tolist(), keep, bound)
    return path


def _numbers(values, name: str) -> np.ndarray:
    """``values`` as an array of numbers; text, as str or bytes, alone or in a sequence, is refused, not parsed.

    Int, uint, bool and float64 arrays come back uncopied, since each gives the
    same float64 value in arithmetic with a float64; any other dtype (float32,
    object) becomes float64.
    """
    array = np.asarray(values)
    if array.dtype.kind in "SU" or (array.dtype == object and any(isinstance(v, (str, bytes)) for v in array.flat)):
        raise ValueError(f"{name} must be numbers, not text")
    return array if array.dtype.kind in "iub" else array.astype(float, copy=False)


def simulate_counts(
    profile: DeviceProfile,
    cfg: MeasurementConfig,
    geom: Geometry,
    duty,
    toggle_rate,
    rng: np.random.Generator,
) -> np.ndarray:
    """Counts of consecutive windows, one per duty value, drift starting at 0.

    ``duty`` holds numbers, not text: an int, uint, bool or float64 array is
    used uncopied and any other dtype becomes float64, with the same counts.
    ``toggle_rate`` is one value per window or one for all.  Draws the
    stream in three blocks, each when it is used (see the module docstring):
    the drift innovations for the mean, then the noise, then the counter
    phase, added and rounded half to even and clipped at 0.
    """
    duty, toggle = _numbers(duty, "duty"), _numbers(toggle_rate, "toggle_rate")
    if duty.ndim != 1 or toggle.ndim > 1 or toggle.size not in (1, duty.size):
        raise ValueError("duty and toggle_rate must be one value per window")
    _check_stimulus(duty, toggle)
    return _count_engine(profile, cfg, _terms(profile, cfg, (geom,)), duty, toggle, (rng,)).astype(np.int64)


def _block(rngs, n: int, draw: str, *params) -> np.ndarray:
    """Each draw row's next n values of ``rng.<draw>(*params, n)``.

    One generator gives a 1-D block, which broadcasts over every duty row;
    more fill one (rows x n) array row by row, row r from ``rngs[r]``.
    """
    if len(rngs) == 1:
        return getattr(rngs[0], draw)(*params, n)
    block = np.empty((len(rngs), n))
    for row, rng in zip(block, rngs):
        row[:] = getattr(rng, draw)(*params, n)
    return block


def _count_engine(profile, cfg, terms, duty: np.ndarray, toggle, rngs) -> np.ndarray:
    """simulate_counts past its checks, for one trace or a batch of them, the counts as float64 whole numbers.

    ``duty`` is (rows x windows), or one trace's windows as a 1-D array, in
    [0, 1]; ``toggle`` a float or an array that broadcasts against it, finite
    and >= 0.  ``terms`` is ``_terms(profile, cfg, geoms)``, derived once by
    the caller.  ``geoms`` and ``rngs`` each hold one item that serves every
    row, or one per row: row r is placed as ``geoms[r]`` and draws from
    ``rngs[r]``, one distinct generator per draw row.
    Each block is drawn when it is used (the innovations, which become the
    drift of the mean, then the noise, then the phase), so each generator
    still draws in STREAM_VERSION 2 order and each row's counts are the ones
    simulate_counts gives it alone.
    """
    n = duty.shape[-1]
    raw = _mean_count(terms, duty, toggle, _drift_path(profile, _block(rngs, n, "normal", 0.0, profile.drift_rate)))
    raw += _block(rngs, n, "normal", 0.0, profile.noise_sigma_for(cfg.ticks_per_window))
    raw += _block(rngs, n, "uniform", -1.0, 1.0)
    return np.maximum(np.rint(raw, out=raw), 0.0, out=raw)


def simulate_trace(
    profile: DeviceProfile,
    cfg: MeasurementConfig,
    geom: Geometry,
    pattern: PatternSpec,
    num_windows: int,
    seed: int,
) -> CountTrace:
    """Simulate consecutive windows; deterministic for a fixed seed."""
    num_windows = _check_int(num_windows, "num_windows", 1)
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
        trace.window.tolist(),
        trace.counts.tolist(),
        _format_column(trace.duty, "{:.6g}".format),
        _format_column(trace.toggle_rate, "{:.6g}".format),
        ["" if b is None else b for b in trace.tx_bits],
    )
    return ",".join(TRACE_CSV_HEADER) + "\n" + ("%d,%d,%s,%s,%s\n" * len(trace)) % tuple([v for r in rows for v in r])


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
    return CountTrace(  # typed arrays, so that CountTrace need not find each column's type
        np.array(list(map(int, window)), dtype=np.int64),
        np.array(list(map(int, count)), dtype=np.int64),
        np.array(_parse_column(duty, float), dtype=float),
        np.array(_parse_column(toggle_rate, float), dtype=float),
        _parse_column(bit, lambda v: None if v == "" else int(v)),
    )
