"""Transmitter stimuli: per-window static bits and fast 4-bit loops.

Static variants hold one bit for a whole measurement window.  The
dynamic variant loops a 4-bit code at clock speed inside the window, so
what the receiver sees is the code's duty cycle plus its switching rate.
``stimulus_columns`` serves a whole run of windows at once, as columns;
an LFSR's bits come from its output recurrence in whole numpy slices, and
``lfsr_next`` remains the one-step register.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PatternSpec",
    "DYNAMIC4_CODES",
    "lfsr_next",
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
        # Tuples of the caller's sequences: a list they keep could change the spec.
        object.__setattr__(self, "taps", tuple(self.taps))
        object.__setattr__(self, "bits", tuple(self.bits))
        if self.kind not in ("alternating", "longruns", "lfsr", "dynamic4", "custom"):
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        if self.kind == "longruns" and (not _is_int(self.run_len) or self.run_len < 1):
            raise ValueError(f"run_len must be an int >= 1, got {self.run_len!r}")
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
        return cls(kind="lfsr", taps=taps, lfsr_seed=seed)

    @classmethod
    def dynamic4(cls, code: str) -> "PatternSpec":
        return cls(kind="dynamic4", code=code)

    @classmethod
    def custom(cls, bits) -> "PatternSpec":
        return cls(kind="custom", bits=tuple(int(b) for b in bits))


def _is_int(value) -> bool:
    """An int or a numpy integer, but no bool."""
    return type(value) is int or (isinstance(value, (int, np.integer)) and not isinstance(value, bool))


def _check_lfsr(state: int, taps: tuple[int, ...]) -> None:
    if not taps or any(not _is_int(t) or t < 1 for t in taps):
        raise ValueError(f"taps must be positive int bit positions, got {taps!r}")
    if len(set(taps)) != len(taps):
        raise ValueError("taps must be distinct")
    width = max(taps)
    if not _is_int(state):
        raise ValueError(f"LFSR state must be an int, got {state!r}")
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
    width = max(taps)
    out = state & 1
    fb = 0
    for p in taps:
        fb ^= (state >> (width - p)) & 1
    return out, (state >> 1) | (fb << (width - 1))


def _lfsr_bits(state: int, taps: tuple[int, ...], n: int) -> np.ndarray:
    """The first n bits ``lfsr_next`` emits from ``state``, as an int64 array.

    Bit t is bit t of the register for t < width; after that each step
    shifts in the XOR of the tapped bits, so o[t] = XOR over p in taps of
    o[t - p].  Over GF(2) squaring the feedback polynomial doubles every
    lag, so the recurrence also holds with lags scale * p from t =
    scale * width on (scale a power of two).  A slice of scale * min(taps)
    new bits then reads only known bits: one numpy step per slice, and the
    slices double in length as the known prefix does.
    """
    width, shortest = max(taps), min(taps)
    bits = np.empty(max(n, width), dtype=np.int64)
    bits[:width] = [(state >> k) & 1 for k in range(width)]  # Python ints: a register may be wider than 64 bits
    t, scale = width, 1
    while t < n:
        while 2 * scale * width <= t:
            scale *= 2
        end = min(t + scale * shortest, n)
        new = np.zeros(end - t, dtype=np.int64)
        for p in taps:
            new ^= bits[t - scale * p : end - scale * p]
        bits[t:end] = new
        t = end
    return bits[:n]


def stimulus_columns(spec: PatternSpec, num_windows: int) -> tuple[np.ndarray, np.ndarray, list[int | None]]:
    """Duty cycles, toggle rates and ground-truth bits of windows 0..num_windows-1.

    Static patterns send their bit as the duty; a dynamic4 loop sends no
    bit (None) and the same duty and toggle rate in every window.
    """
    if num_windows < 0:
        raise ValueError("num_windows must be >= 0")
    if spec.kind == "dynamic4":
        duty = spec.code.count("1") / 4.0
        toggle = _DYNAMIC4_TOGGLE[spec.code]
        return np.full(num_windows, duty), np.full(num_windows, toggle), [None] * num_windows
    index = np.arange(num_windows)
    if spec.kind == "alternating":
        bits = index & 1
    elif spec.kind == "longruns":
        bits = (index // spec.run_len) & 1
    elif spec.kind == "lfsr":
        bits = _lfsr_bits(spec.lfsr_seed, spec.taps, num_windows)
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
