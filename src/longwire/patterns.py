"""Transmitter stimuli: per-window static bits and fast 4-bit loops.

Static variants hold one bit for a whole measurement window.  The
dynamic variant loops a 4-bit code at clock speed inside the window, so
what the receiver sees is the code's duty cycle plus its switching rate.
``stimulus_columns`` serves a whole run of windows at once, as columns;
an LFSR's bits come from its output recurrence in whole numpy slices, and
``lfsr_next`` remains the one-step register.
"""

from __future__ import annotations

import math
import operator
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
        if self.kind == "longruns":
            _check_int_field(self, "run_len", 1)
        if self.kind == "lfsr":
            vars(self).update(zip(("lfsr_seed", "taps"), _check_lfsr(self.lfsr_seed, self.taps)))
        if self.kind == "dynamic4" and self.code not in DYNAMIC4_CODES:
            raise ValueError(f"dynamic4 code must be one of {DYNAMIC4_CODES}")
        if self.kind == "custom":
            if not self.bits:
                raise ValueError("custom pattern needs at least one bit")
            object.__setattr__(self, "bits", tuple(_check_bits(self.bits, "custom bit")))

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
        return cls(kind="custom", bits=bits)


def _is_int(value) -> bool:
    """An int or a numpy integer, but no bool."""
    return type(value) is int or (isinstance(value, (int, np.integer)) and not isinstance(value, bool))


def _check_int(value, name: str, low: int, high: int | None = None) -> int:
    """The package's one integer rule: an int (see _is_int) in [low, high] (None: no limit), as a Python int."""
    number = value if type(value) is int else operator.index(value) if _is_int(value) else None
    if number is not None and low <= number and (high is None or number <= high):
        return number  # a plain int as it is, with no _is_int call: the per-key paths check several
    limits = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise ValueError(f"{name} must be an int {limits}, got {value!r}")


def _check_int_field(obj, name: str, low: int, high: int | None = None) -> None:
    if (number := _check_int(value := getattr(obj, name), name, low, high)) is not value:
        object.__setattr__(obj, name, number)  # only a numpy integer is written back, as its int


def _check_real(value, name: str, low: float, high: float = math.inf, *, above=False, below=False) -> float:
    """The package's one real-number rule: a finite int or float (numpy's too, but no bool) in [low, high],
    low excluded with ``above`` and high with ``below``, as a Python float."""
    number = math.nan
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            pass
    inside = (low < number if above else low <= number) and (number < high if below else number <= high)
    if inside and math.isfinite(number):
        return number
    limits = (f"{'>' if above else '>='} {low}" if high == math.inf
              else f"in {'(' if above else '['}{low}, {high}{')' if below else ']'}")
    raise ValueError(f"{name} must be a finite number {limits}, got {value!r}")


def _parsed(value, parse=int):
    """``parse(value)``, or the value itself (a text) when it does not parse, for its rule to refuse by name."""
    try:
        return parse(value)
    except (ValueError, ZeroDivisionError):  # Fraction("1/0") divides by zero
        return value


def _check_real_field(obj, name: str, low: float, high: float = math.inf, *, above: bool = False) -> None:
    object.__setattr__(obj, name, _check_real(getattr(obj, name), name, low, high, above=above))


def _check_bits(values, name: str) -> bytes:
    """The package's one bit rule: each item hashable, equal to 0 or 1 and with an int (True,
    np.uint8(1), 1.0), as bytes of 0 and 1; a 0-d numeric array item (np.array(1)) is judged by its
    value.  A numeric 1-D array is judged by one comparison and int items enter through ``bytes``; a
    ValueError names the first item that is not a bit."""
    if isinstance(values, np.ndarray):
        if values.ndim == 1 and values.dtype.kind in "biuf" and not np.count_nonzero((values != 0) & (values != 1)):
            return values.astype(np.uint8).tobytes()
    else:
        values = values if isinstance(values, (list, tuple)) else tuple(values)
        try:
            if not (data := bytes(values)).translate(None, b"\0\1"):
                return data
        except (TypeError, ValueError):  # an item with no __index__, or an integer outside a byte
            pass
    bits = bytearray()
    for item in values:
        value = item[()] if isinstance(item, np.ndarray) and item.ndim == 0 and item.dtype.kind in "biuf" else item
        try:
            if value in {0, 1}:
                bits.append(int(value))
                continue
        except TypeError:  # unhashable, or no int() (1 + 0j)
            pass
        raise ValueError(f"{name} must be 0 or 1, got {item!r}")
    return bytes(bits)


def _check_lfsr(state: int, taps: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    if not taps:
        raise ValueError("LFSR needs at least one tap")
    taps = tuple(_check_int(t, "LFSR tap", 1) for t in taps)
    if len(set(taps)) != len(taps):
        raise ValueError("taps must be distinct")
    return _check_int(state, "LFSR state", 1, (1 << max(taps)) - 1), taps


def lfsr_next(state: int, taps: tuple[int, ...] = DEFAULT_LFSR_TAPS) -> tuple[int, int]:
    """One Fibonacci LFSR step: emit the low bit, shift the feedback in.

    Tap positions are 1-based with max(taps) the register width; the
    default (16, 14, 13, 11) register is maximal with period 2^16 - 1.
    """
    state, taps = _check_lfsr(state, taps)
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
    num_windows = _check_int(num_windows, "num_windows", 0)
    if spec.kind == "dynamic4":
        duty = spec.code.count("1") / 4.0
        # transitions per clock tick: those around the loop over 16, so f = 1/8 and the codes give 0, f, f, 2f, f, 0
        toggle = sum(a != b for a, b in zip(spec.code, spec.code[1:] + spec.code[0])) / 16.0
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
        return PatternSpec.long_runs(_parsed(arg) if arg else DEFAULT_RUN_LEN)
    if name == "lfsr":
        return PatternSpec.lfsr(seed=_parsed(arg, lambda text: int(text, 0)) if arg else DEFAULT_LFSR_SEED)
    if len(name) == 2 and name[0] == "d" and name[1].isdigit():
        idx = int(name[1])
        if idx < len(DYNAMIC4_CODES):
            return PatternSpec.dynamic4(DYNAMIC4_CODES[idx])
    if name == "custom":
        return PatternSpec.custom(map(_parsed, arg))
    raise ValueError(f"unknown pattern {text!r}")
