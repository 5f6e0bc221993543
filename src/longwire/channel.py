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
drew the same three values window by window, interleaved.

Two coupling paths are modelled.  On the ``long`` path the count depends
on the transmitter duty cycle only.  On the ``local`` path (no long-wire
overlap) switching activity depresses the count and the duty cycle has
only a very weak residual effect.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .patterns import PatternSpec, stimulus_columns

__all__ = [
    "STREAM_VERSION",
    "DeviceProfile",
    "MeasurementConfig",
    "Geometry",
    "Orientation",
    "TraceSample",
    "CountTrace",
    "as_longs",
    "expected_delta_rc",
    "expected_count",
    "drift_step",
    "simulate_window",
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


def _validate_atten(atten: dict[int, float]) -> dict[int, float]:
    clean: dict[int, float] = {}
    for d, mult in atten.items():
        d = int(d)
        mult = float(mult)
        if d < 1:
            raise ValueError(f"distance_atten key {d} must be >= 1")
        if mult < 0.0:
            raise ValueError("distance_atten multipliers must be >= 0")
        if d >= 3 and mult != 0.0:
            raise ValueError("distance_atten must be exactly 0 for d >= 3")
        clean[d] = mult
    last = None
    for d in sorted(clean):
        if last is not None and clean[d] > last:
            raise ValueError("distance_atten must be non-increasing in d")
        last = clean[d]
    return clean


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
    distance_atten: dict[int, float] = field(default_factory=lambda: {1: 1.0, 2: 0.05})
    noise_sigma: float = 0.8               # counts per window at the 2^13-tick reference
    drift_rate: float = 5e-9               # per-window drift innovation (fraction of base_rate)
    drift_reversion: float = 0.005
    drift_bound: float = 2e-5
    local_switch_penalty: float = 4e-5     # count-rate penalty per unit toggle rate
    local_static_epsilon: float = 6.4e-8   # weak duty coupling of non-long paths

    def __post_init__(self):
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
        if d >= 3:
            return 0.0
        return self.distance_atten.get(d, 0.0)

    def noise_sigma_for(self, ticks_per_window: int) -> float:
        """Counting noise grows with the square root of the window length."""
        return self.noise_sigma * math.sqrt(ticks_per_window / NOISE_REFERENCE_TICKS)


@dataclass(frozen=True)
class MeasurementConfig:
    """Counter sampling setup: a trigger every 2^log2_ticks system-clock ticks."""

    log2_ticks: int = 13
    f_clk_hz: float = 100e6

    def __post_init__(self):
        if not 1 <= self.log2_ticks <= 32:
            raise ValueError("log2_ticks must be in [1, 32]")
        if self.f_clk_hz <= 0:
            raise ValueError("f_clk_hz must be > 0")

    @property
    def ticks_per_window(self) -> int:
        return 1 << self.log2_ticks

    @property
    def window_seconds(self) -> float:
        return self.ticks_per_window / self.f_clk_hz


class Orientation(Enum):
    UP_UP = "up_up"
    UP_DOWN = "up_down"
    DOWN_UP = "down_up"
    DOWN_DOWN = "down_down"


def as_longs(value) -> Fraction:
    """Normalize a wire length to an exact multiple of 1/3 of a long."""
    if isinstance(value, Fraction):
        frac = value
    elif isinstance(value, int):
        frac = Fraction(value)
    elif isinstance(value, str):
        frac = Fraction(value)
    elif isinstance(value, float):
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
    wires, "local" when the transmitter uses only local routing.
    """

    v_t: Fraction = Fraction(2)    # transmitter longs (thirds allowed)
    v_r: int = 2                   # receiver longs
    d: int = 1                     # track distance, 1 = adjacent
    offset: int = 0                # relative offset o_r, in full longs
    orientation: Orientation = Orientation.UP_UP
    location: str = "center"
    coupling: str = "long"

    def __post_init__(self):
        object.__setattr__(self, "v_t", as_longs(self.v_t))
        if self.v_t <= 0:
            raise ValueError("v_t must be > 0")
        if self.v_r < 1:
            raise ValueError("v_r must be >= 1")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        max_offset = max(self.v_t, Fraction(self.v_r)) - min(math.ceil(self.v_t), self.v_r)
        if not 0 <= self.offset <= max_offset:
            raise ValueError(f"offset must be in [0, {max_offset}]")
        if self.coupling not in ("long", "local"):
            raise ValueError("coupling must be 'long' or 'local'")


class TraceSample(NamedTuple):
    window: int
    count: int
    duty: float
    toggle_rate: float
    tx_bit: int | None


@dataclass(frozen=True)
class CountTrace:
    """Per-window oscillator counts paired with the transmitted ground truth."""

    samples: tuple[TraceSample, ...]
    trace_id: str = ""

    def __post_init__(self):
        last = None
        for s in self.samples:
            if last is not None and s.window <= last:
                raise ValueError("window indices must be strictly increasing")
            if not 0.0 <= s.duty <= 1.0:
                raise ValueError("duty must be in [0, 1]")
            if s.count < 0:
                raise ValueError("counts must be >= 0")
            last = s.window

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def counts(self) -> list[int]:
        return [s.count for s in self.samples]

    @property
    def tx_bits(self) -> list[int | None]:
        return [s.tx_bit for s in self.samples]


def expected_delta_rc(profile: DeviceProfile, geom: Geometry) -> float:
    """Relative count shift between a transmitted 1 and 0 for this geometry.

    The shift scales with the number of overlapped receiver longs and is
    diluted by the oscillator's fixed stage delay; fractions of a long
    count as the whole driven segment.
    """
    if geom.v_r < 1:
        raise ValueError("v_r must be >= 1")
    if geom.d < 1:
        raise ValueError("d must be >= 1")
    overlap = min(math.ceil(geom.v_t), geom.v_r)
    base = profile.coupling_alpha * overlap / (profile.stage_beta + geom.v_r)
    return profile.attenuation(geom.d) * base


def _coupling_terms(profile: DeviceProfile, geom: Geometry) -> tuple[float, float]:
    if geom.coupling == "long":
        return expected_delta_rc(profile, geom), 0.0
    return profile.local_static_epsilon, profile.local_switch_penalty


def _mean_count(profile, cfg, geom, duty, toggle_rate, drift):
    """Noise-free window count; floats or arrays alike."""
    delta, penalty = _coupling_terms(profile, geom)
    m = cfg.ticks_per_window
    return m * profile.base_rate * (1.0 + drift) * (1.0 + duty * delta - penalty * toggle_rate)


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
    if toggle_rate < 0.0:
        raise ValueError("toggle_rate must be >= 0")
    return _mean_count(profile, cfg, geom, duty, toggle_rate, drift_state)


def _drift_path(profile: DeviceProfile, innovations, state: float = 0.0) -> list[float]:
    """Clipped AR(1) baseline wander, one state per innovation.

    Each state depends on the one before, so this stays a sequential loop.
    """
    keep, high, low = 1.0 - profile.drift_reversion, profile.drift_bound, -profile.drift_bound
    path = []
    append = path.append
    for innovation in innovations:
        state = state * keep + innovation
        if state > high:
            state = high
        elif state < low:
            state = low
        append(state)
    return path


def drift_step(state: float, profile: DeviceProfile, rng: np.random.Generator) -> float:
    """One step of the bounded mean-reverting baseline wander."""
    return _drift_path(profile, [rng.normal(0.0, profile.drift_rate)], state)[0]


def _stimulus_arrays(duty, toggle_rate) -> tuple[np.ndarray, np.ndarray]:
    duty, toggle = np.asarray(duty, dtype=float), np.asarray(toggle_rate, dtype=float)
    if duty.ndim != 1 or toggle.ndim > 1:
        raise ValueError("duty and toggle_rate must be one value per window")
    if not ((duty >= 0.0) & (duty <= 1.0)).all():
        raise ValueError("duty must be in [0, 1]")
    if (toggle < 0.0).any():
        raise ValueError("toggle_rate must be >= 0")
    return duty, toggle


def _noisy_counts(profile, cfg, geom, duty, toggle, drift, rng) -> np.ndarray:
    """Mean + Gaussian noise + counter phase, rounded half to even and clipped at 0."""
    n = len(duty)
    noise = rng.normal(0.0, profile.noise_sigma_for(cfg.ticks_per_window), n)
    phase = rng.uniform(-1.0, 1.0, n)
    raw = _mean_count(profile, cfg, geom, duty, toggle, drift) + noise + phase
    return np.maximum(np.rint(raw), 0.0).astype(np.int64)


def simulate_window(
    profile: DeviceProfile,
    cfg: MeasurementConfig,
    geom: Geometry,
    duty: float,
    toggle_rate: float,
    drift_state: float,
    rng: np.random.Generator,
) -> int:
    """Draw one window count: mean + Gaussian noise + counter quantization."""
    duty_col, toggle_col = _stimulus_arrays([duty], toggle_rate)
    return int(_noisy_counts(profile, cfg, geom, duty_col, toggle_col, drift_state, rng)[0])


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
    stream in three blocks (see the module docstring).
    """
    duty, toggle = _stimulus_arrays(duty, toggle_rate)
    innovations = rng.normal(0.0, profile.drift_rate, len(duty))
    drift = np.array(_drift_path(profile, innovations.tolist()))
    return _noisy_counts(profile, cfg, geom, duty, toggle, drift, rng)


def simulate_trace(
    profile: DeviceProfile,
    cfg: MeasurementConfig,
    geom: Geometry,
    pattern: PatternSpec,
    num_windows: int,
    seed: int,
    trace_id: str = "",
) -> CountTrace:
    """Simulate consecutive windows; deterministic for a fixed seed."""
    if num_windows < 1:
        raise ValueError("num_windows must be >= 1")
    duty, toggle, bits = stimulus_columns(pattern, num_windows)
    counts = simulate_counts(profile, cfg, geom, duty, toggle, np.random.default_rng(seed))
    samples = map(TraceSample, range(num_windows), counts.tolist(), duty.tolist(), toggle.tolist(), bits)
    return CountTrace(tuple(samples), trace_id=trace_id)


TRACE_CSV_HEADER = ("window", "count", "duty", "toggle_rate", "tx_bit")


def trace_to_csv(trace: CountTrace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_CSV_HEADER)
    for s in trace.samples:
        bit = "" if s.tx_bit is None else s.tx_bit
        writer.writerow([s.window, s.count, f"{s.duty:.6g}", f"{s.toggle_rate:.6g}", bit])
    return buf.getvalue()


def trace_from_csv(text: str, trace_id: str = "") -> CountTrace:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != TRACE_CSV_HEADER:
        raise ValueError(f"expected header {','.join(TRACE_CSV_HEADER)}")
    samples = []
    for row in reader:
        if not row:
            continue
        window, count, duty, toggle_rate, bit = row
        samples.append(
            TraceSample(
                int(window),
                int(count),
                float(duty),
                float(toggle_rate),
                None if bit == "" else int(bit),
            )
        )
    return CountTrace(tuple(samples), trace_id=trace_id)

