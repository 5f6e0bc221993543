"""Covert-communication layer: Manchester symbols, framing, bandwidth.

Each payload bit is sent as an ordered pair of opposite wire states, one
measurement window per symbol.  Because both states of a pair see the
same baseline, the decoder only compares the two counts, which makes it
immune to slow frequency wander.  Frames are delimited by fixed start-
and end-of-frame bit patterns, optionally with the payload run through
8b/10b for error detection.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from . import code8b10b
from .channel import DeviceProfile, Geometry, MeasurementConfig, simulate_counts

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
    "bits_to_text",
    "bits_from_text",
    "frames_to_csv",
]


class LineCode(Enum):
    NONE = "none"
    EIGHTB_TENB = "8b10b"


def _word_bits(word: int, width: int) -> tuple[int, ...]:
    return tuple((word >> (width - 1 - i)) & 1 for i in range(width))


DEFAULT_SOF = _word_bits(0xF0D5, 16)
DEFAULT_EOF = _word_bits(0x0B2F, 16)


@dataclass(frozen=True)
class Frame:
    payload: tuple[int, ...]
    sof: tuple[int, ...] = DEFAULT_SOF
    eof: tuple[int, ...] = DEFAULT_EOF
    line_code: LineCode = LineCode.NONE

    def __post_init__(self):
        if not self.sof or not self.eof:
            raise ValueError("sof and eof patterns must be non-empty")
        if any(b not in (0, 1) for b in self.sof + self.eof + self.payload):
            raise ValueError("frame fields must contain bits")
        if self.line_code is LineCode.EIGHTB_TENB and len(self.payload) % 8 != 0:
            raise ValueError("8b/10b payload length must be a multiple of 8")


def _manchester_symbols(bits: Iterable[int]) -> np.ndarray:
    """Wire symbols of the payload in send order, two per bit."""
    sent = np.asarray(list(bits))
    if not np.isin(sent, (0, 1)).all():
        raise ValueError("bits must be 0 or 1")
    sent = sent.astype(np.int64)
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
    sof = tuple(sof)
    if not sof:
        raise ValueError("sof must be non-empty")
    n, k = len(bitstream), len(sof)
    return [i for i in range(n - k + 1) if tuple(bitstream[i : i + k]) == sof]


def frame_to_bits(frame: Frame) -> list[int]:
    """Serialize a frame: SOF, line-coded payload, EOF."""
    if frame.line_code is LineCode.EIGHTB_TENB:
        data = [
            int("".join(str(b) for b in frame.payload[i : i + 8]), 2)
            for i in range(0, len(frame.payload), 8)
        ]
        body, _ = code8b10b.encode_bytes(data)
    else:
        body = list(frame.payload)
    return list(frame.sof) + body + list(frame.eof)


def find_frames(
    bitstream: Sequence[int],
    sof: Sequence[int] = DEFAULT_SOF,
    eof: Sequence[int] = DEFAULT_EOF,
    line_code: LineCode = LineCode.NONE,
) -> list[tuple[int, tuple[int, ...]]]:
    """Extract (sof_position, payload_bits) for every complete frame.

    A frame ends at the first EOF at or after its payload start; with 8b/10b,
    at the first one that leaves a whole number of 10-bit groups.
    """
    sof, eof = tuple(sof), tuple(eof)
    # An 8b/10b payload is whole 10-bit groups, so its EOF sits at the payload
    # start mod 10: keep the EOF positions in one sorted list per residue.
    period = 10 if line_code is LineCode.EIGHTB_TENB else 1
    ends: list[list[int]] = [[] for _ in range(period)]
    for end in frame_sync(bitstream, eof):
        ends[end % period].append(end)
    frames = []
    for pos in frame_sync(bitstream, sof):
        start = pos + len(sof)
        candidates = ends[start % period]
        k = bisect_left(candidates, start)
        if k == len(candidates):
            continue
        body = tuple(bitstream[start : candidates[k]])
        if line_code is LineCode.EIGHTB_TENB:
            data, _ = code8b10b.decode_bits(body)
            body = tuple(int(c) for byte in data for c in format(byte, "08b"))
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
    symbols = _manchester_symbols(bits)
    if not symbols.size:
        return []
    counts = simulate_counts(profile, cfg, geom, symbols, 0.0, np.random.default_rng(seed))
    return np.where(counts[0::2] < counts[1::2], 0, 1).tolist()


def bits_to_text(bits: Sequence[int], width: int = 64) -> str:
    """ASCII serialization: lines of 0/1 characters."""
    chars = "".join(str(int(b)) for b in bits)
    lines = [chars[i : i + width] for i in range(0, len(chars), width)] or [""]
    return "\n".join(lines) + "\n"


def bits_from_text(text: str) -> list[int]:
    bits = []
    for ch in text:
        if ch in "01":
            bits.append(int(ch))
        elif not ch.isspace():
            raise ValueError(f"unexpected character {ch!r} in bitstream")
    return bits


def frames_to_csv(frames: Iterable[tuple[int, Sequence[int]]]) -> str:
    """CSV rows position,payload_hex (payload bits packed MSB-first)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["position", "payload_hex"])
    for pos, payload in frames:
        padded = list(payload) + [0] * (-len(payload) % 8)
        data = bytes(
            int("".join(str(b) for b in padded[i : i + 8]), 2) for i in range(0, len(padded), 8)
        )
        writer.writerow([pos, data.hex()])
    return buf.getvalue()
