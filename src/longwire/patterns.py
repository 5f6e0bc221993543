"""Transmitter stimuli: per-window static bits and fast 4-bit loops.

Static variants hold one bit for a whole measurement window.  The
dynamic variant loops a 4-bit code at clock speed inside the window, so
what the receiver sees is the code's duty cycle plus its switching rate.
Every variant is a pure function of (spec, window index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Stimulus",
    "PatternSpec",
    "DYNAMIC4_CODES",
    "lfsr_next",
    "window_stimulus",
    "stimulus_columns",
    "parse_pattern",
]

DEFAULT_LFSR_TAPS = (16, 14, 13, 11)
DEFAULT_LFSR_SEED = 0xACE1
DEFAULT_RUN_LEN = 128

# The six 4-bit loop codes, ordered d0..d5.
DYNAMIC4_CODES = ("0000", "1000", "1100", "1010", "1110", "1111")

# Switching rate of each looped code, in transitions per clock tick
# (f = 1/8; the codes come out as 0, f, f, 2f, f, 0).
_DYNAMIC4_TOGGLE = {
    "0000": 0.0,
    "1000": 1.0 / 8.0,
    "1100": 1.0 / 8.0,
    "1010": 1.0 / 4.0,
    "1110": 1.0 / 8.0,
    "1111": 0.0,
}


@dataclass(frozen=True)
class Stimulus:
    duty: float
    toggle_rate: float
    bit: int | None


@dataclass(frozen=True)
class PatternSpec:
    """Description of the transmitted stimulus.

    kind is one of "alternating", "longruns", "lfsr", "dynamic4",
    "custom"; only the parameters of the chosen kind are read.
    """

    kind: str
    run_len: int = DEFAULT_RUN_LEN
    taps: tuple[int, ...] = DEFAULT_LFSR_TAPS
    lfsr_seed: int = DEFAULT_LFSR_SEED
    code: str = ""
    bits: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("alternating", "longruns", "lfsr", "dynamic4", "custom"):
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        if self.kind == "longruns" and self.run_len < 1:
            raise ValueError("run_len must be >= 1")
        if self.kind == "lfsr":
            _check_lfsr(self.lfsr_seed, self.taps)
        if self.kind == "dynamic4" and self.code not in DYNAMIC4_CODES:
            raise ValueError(f"dynamic4 code must be one of {DYNAMIC4_CODES}")
        if self.kind == "custom":
            if not self.bits:
                raise ValueError("custom pattern needs at least one bit")
            if any(b not in (0, 1) for b in self.bits):
                raise ValueError("custom bits must be 0 or 1")

    @classmethod
    def alternating(cls) -> "PatternSpec":
        return cls(kind="alternating")

    @classmethod
    def long_runs(cls, run_len: int = DEFAULT_RUN_LEN) -> "PatternSpec":
        return cls(kind="longruns", run_len=run_len)

    @classmethod
    def lfsr(cls, taps: tuple[int, ...] = DEFAULT_LFSR_TAPS, seed: int = DEFAULT_LFSR_SEED) -> "PatternSpec":
        return cls(kind="lfsr", taps=tuple(taps), lfsr_seed=seed)

    @classmethod
    def dynamic4(cls, code: str) -> "PatternSpec":
        return cls(kind="dynamic4", code=code)

    @classmethod
    def custom(cls, bits) -> "PatternSpec":
        return cls(kind="custom", bits=tuple(int(b) for b in bits))


def _check_lfsr(state: int, taps: tuple[int, ...]) -> None:
    if not taps or any(t < 1 for t in taps):
        raise ValueError("taps must be positive bit positions")
    if len(set(taps)) != len(taps):
        raise ValueError("taps must be distinct")
    width = max(taps)
    if state == 0:
        raise ValueError("LFSR state must be nonzero")
    if not 0 < state < (1 << width):
        raise ValueError(f"LFSR state must fit in {width} bits")


def lfsr_next(state: int, taps: tuple[int, ...] = DEFAULT_LFSR_TAPS) -> tuple[int, int]:
    """One Fibonacci LFSR step: emit the low bit, shift the feedback in.

    Tap positions are 1-based with max(taps) the register width; the
    default (16, 14, 13, 11) register is maximal with period 2^16 - 1.
    """
    _check_lfsr(state, taps)
    return _lfsr_step(state, taps, max(taps))


def _lfsr_step(state: int, taps: tuple[int, ...], width: int) -> tuple[int, int]:
    out = state & 1
    fb = 0
    for p in taps:
        fb ^= (state >> (width - p)) & 1
    return out, (state >> 1) | (fb << (width - 1))


def window_stimulus(spec: PatternSpec, window_index: int) -> Stimulus:
    """Duty cycle, toggle rate and ground-truth bit for one window."""
    if window_index < 0:
        raise ValueError("window_index must be >= 0")
    if spec.kind == "alternating":
        bit = window_index & 1
    elif spec.kind == "longruns":
        bit = (window_index // spec.run_len) & 1
    elif spec.kind == "lfsr":
        state = spec.lfsr_seed
        bit = 0
        for _ in range(window_index + 1):
            bit, state = lfsr_next(state, spec.taps)
    elif spec.kind == "dynamic4":
        duty = spec.code.count("1") / 4.0
        return Stimulus(duty, _DYNAMIC4_TOGGLE[spec.code], None)
    else:  # custom, cycling
        bit = spec.bits[window_index % len(spec.bits)]
    return Stimulus(float(bit), 0.0, bit)


def stimulus_columns(spec: PatternSpec, num_windows: int) -> tuple[np.ndarray, np.ndarray, list[int | None]]:
    """Duty cycles, toggle rates and ground-truth bits of windows 0..num_windows-1.

    Entry i equals window_stimulus(spec, i).  An LFSR register is stepped
    once per window instead of replayed from its seed for every index.
    """
    if num_windows < 0:
        raise ValueError("num_windows must be >= 0")
    if spec.kind == "dynamic4":
        stim = window_stimulus(spec, 0)
        return np.full(num_windows, stim.duty), np.full(num_windows, stim.toggle_rate), [None] * num_windows
    index = np.arange(num_windows)
    if spec.kind == "alternating":
        bits = index & 1
    elif spec.kind == "longruns":
        bits = (index // spec.run_len) & 1
    elif spec.kind == "lfsr":
        state, width, out = spec.lfsr_seed, max(spec.taps), []
        for _ in range(num_windows):
            bit, state = _lfsr_step(state, spec.taps, width)
            out.append(bit)
        bits = np.array(out, dtype=np.int64)
    else:  # custom, cycling
        bits = np.array(spec.bits, dtype=np.int64)[index % len(spec.bits)]
    return bits.astype(float), np.zeros(num_windows), bits.tolist()


def parse_pattern(text: str) -> PatternSpec:
    """Parse a CLI pattern argument.

    Accepted forms: ``alternating``, ``longruns[:run_len]``,
    ``lfsr[:seed]``, ``d0`` .. ``d5``, ``custom:<bits>``.
    """
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    if name == "alternating":
        return PatternSpec.alternating()
    if name == "longruns":
        return PatternSpec.long_runs(int(arg) if arg else DEFAULT_RUN_LEN)
    if name == "lfsr":
        return PatternSpec.lfsr(seed=int(arg, 0) if arg else DEFAULT_LFSR_SEED)
    if len(name) == 2 and name[0] == "d" and name[1].isdigit():
        idx = int(name[1])
        if idx < len(DYNAMIC4_CODES):
            return PatternSpec.dynamic4(DYNAMIC4_CODES[idx])
    if name == "custom":
        if not arg or any(c not in "01" for c in arg):
            raise ValueError("custom pattern needs a 0/1 string, e.g. custom:0110")
        return PatternSpec.custom(arg)
    raise ValueError(f"unknown pattern {text!r}")
