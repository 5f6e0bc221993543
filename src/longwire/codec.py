"""Covert-communication layer: Manchester symbols, framing, bandwidth.

Each payload bit is sent as an ordered pair of opposite wire states, one
measurement window per symbol.  Because both states of a pair see the
same baseline, the decoder only compares the two counts, which makes it
immune to slow frequency wander.  Frames are delimited by fixed start-
and end-of-frame bit patterns, optionally with the payload run through
8b/10b for error detection.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from . import code8b10b
from .channel import DeviceProfile, Geometry, MeasurementConfig, simulate_counts
from .errors import InvalidCodeGroup
from .patterns import _check_bits

__all__ = [
    "LineCode",
    "Frame",
    "DEFAULT_SOF",
    "DEFAULT_EOF",
    "manchester_encode",
    "manchester_decode",
    "frame_sync",
    "frame_to_bits",
    "find_frames",
    "channel_bandwidth",
    "simulate_covert_transfer",
]


class LineCode(Enum):
    NONE = "none"
    EIGHTB_TENB = "8b10b"


DEFAULT_SOF = code8b10b._word_bits(0xF0D5, 16)
DEFAULT_EOF = code8b10b._word_bits(0x0B2F, 16)


@dataclass(frozen=True)
class Frame:
    payload: tuple[int, ...]
    sof: tuple[int, ...] = DEFAULT_SOF
    eof: tuple[int, ...] = DEFAULT_EOF
    line_code: LineCode = LineCode.NONE

    def __post_init__(self):
        for name in ("payload", "sof", "eof"):  # tuples, so a frozen frame stays hashable
            object.__setattr__(self, name, tuple(_check_bits(getattr(self, name), f"{name} bit")))
        if not self.sof or not self.eof:
            raise ValueError("sof and eof patterns must be non-empty")
        if self.line_code is LineCode.EIGHTB_TENB and len(self.payload) % 8 != 0:
            raise ValueError("8b/10b payload length must be a multiple of 8")


def _manchester_symbols(bits: Iterable[int]) -> np.ndarray:
    """Wire symbols of the payload in send order, two per bit."""
    sent = np.frombuffer(_check_bits(bits, "bit"), np.uint8)
    return np.column_stack((sent, 1 - sent)).ravel()


def manchester_encode(bits: Iterable[int]) -> list[tuple[int, int]]:
    """0 -> (0, 1) and 1 -> (1, 0); two wire symbols per payload bit."""
    symbols = _manchester_symbols(bits).tolist()
    return list(zip(symbols[0::2], symbols[1::2]))


def manchester_decode(count_pairs: Iterable[tuple[float, float]]) -> list[int]:
    """Decode count pairs by order: 0 when the first count is lower, else 1."""
    return [0 if c_first < c_second else 1 for c_first, c_second in count_pairs]


def frame_sync(bitstream: Sequence[int], sof: Sequence[int]) -> list[int]:
    """All positions where the start-of-frame pattern begins.

    The payload of a frame found at position p starts at p + len(sof).
    On independent random bits the per-position false-positive rate is
    2^-len(sof).
    """
    return _sync(np.asarray(bitstream), _pattern("sof", sof))


def _pattern(name: str, pattern: Sequence[int]) -> tuple[int, ...]:
    """A frame delimiter as a non-empty tuple of bits; a ValueError names the pattern at fault."""
    if not (bits := tuple(_check_bits(pattern, f"{name} bit"))):
        raise ValueError(f"{name} must be non-empty")
    return bits


def _sync(stream: np.ndarray, pattern: tuple[int, ...]) -> list[int]:
    """frame_sync past its checks: every start of the checked pattern in the stream array."""
    hits = np.ones(max(len(stream) - len(pattern) + 1, 0), dtype=bool)
    for offset, bit in enumerate(pattern):  # a start survives while each pattern bit matches at its offset
        hits &= stream[offset : offset + len(hits)] == bit
    return np.flatnonzero(hits).tolist()


def frame_to_bits(frame: Frame) -> list[int]:
    """Serialize a frame: SOF, line-coded payload, EOF."""
    if frame.line_code is LineCode.EIGHTB_TENB:
        body, _ = code8b10b.encode_bytes(np.packbits(np.frombuffer(bytes(frame.payload), np.uint8)))
    else:
        body = frame.payload
    return [*frame.sof, *body, *frame.eof]


def find_frames(
    bitstream: Sequence[int],
    sof: Sequence[int] = DEFAULT_SOF,
    eof: Sequence[int] = DEFAULT_EOF,
    line_code: LineCode = LineCode.NONE,
) -> list[tuple[int, tuple[int, ...]]]:
    """Extract (sof_position, payload_bits) for every complete frame.

    A frame ends at the first EOF at or after its payload start; with 8b/10b,
    at the first one that leaves a whole number of 10-bit groups, and a frame
    whose groups do not decode (from RD -1) is skipped.
    """
    sof, eof = _pattern("sof", sof), _pattern("eof", eof)
    # An 8b/10b payload is whole 10-bit groups, so its EOF sits at the payload
    # start mod 10: keep the EOF positions in one sorted list per residue.
    period = 10 if line_code is LineCode.EIGHTB_TENB else 1
    ends: list[list[int]] = [[] for _ in range(period)]
    try:  # converted once for both pattern searches
        stream = np.frombuffer(_check_bits(bitstream, "bit"), np.uint8)
    except ValueError:  # not all bits: searched as it is, where a non-bit matches no pattern bit
        stream = np.asarray(bitstream)
    for end in _sync(stream, eof):
        ends[end % period].append(end)
    frames = []
    for pos in _sync(stream, sof):
        start = pos + len(sof)
        candidates = ends[start % period]
        k = bisect_left(candidates, start)
        if k == len(candidates):
            continue
        if line_code is LineCode.EIGHTB_TENB:
            try:
                data, _ = code8b10b.decode_bits(stream[start : candidates[k]])
            except InvalidCodeGroup:
                continue
            body = tuple(np.unpackbits(np.frombuffer(data, dtype=np.uint8)).tolist())
        else:
            body = tuple(stream[start : candidates[k]].tolist())
        frames.append((pos, body))
    return frames


def channel_bandwidth(cfg: MeasurementConfig, line_code: LineCode = LineCode.NONE) -> float:
    """Payload bits per second: one bit per two windows, minus line-code overhead."""
    bps = 1.0 / (2.0 * cfg.window_seconds)
    if line_code is LineCode.EIGHTB_TENB:
        bps *= 8.0 / 10.0
    return bps


def simulate_covert_transfer(
    bits: Sequence[int],
    profile: DeviceProfile,
    cfg: MeasurementConfig,
    geom: Geometry,
    seed: int,
) -> list[int]:
    """Full pipeline: Manchester encode, drive the channel, decode counts.

    Decoding is manchester_decode's rule on the count pairs: 0 when the
    first count is lower, else 1.
    """
    return _covert_transfer(bits, profile, cfg, geom, seed).tolist()


def _covert_transfer(bits, profile, cfg, geom, seed) -> np.ndarray:
    """simulate_covert_transfer's decoded bits as an int64 array."""
    symbols = _manchester_symbols(bits)
    counts = simulate_counts(profile, cfg, geom, symbols, 0.0, np.random.default_rng(seed))
    return (counts[0::2] >= counts[1::2]).astype(np.int64)
