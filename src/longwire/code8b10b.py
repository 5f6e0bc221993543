"""IBM 8b/10b line coding, data characters only.

Bytes map to 10-bit groups through the usual 5b/6b + 3b/4b split with a
running disparity of -1 or +1.  Each emitted group has 4 to 6 ones, so
the stream stays DC balanced and any single bit flip lands outside the
code table or breaks disparity, which the decoder reports.  Control
characters (K codes) are not implemented.

Groups are bit tuples in wire order ``a b c d e i f g h j``.

The code is read from tables built once from the sub-blocks: per running
disparity, the group of each byte and the byte of each 10-bit group.  A
group flips the disparity exactly when it does not hold five ones, at
either disparity, so the disparity before each group of a stream is one
cumulative sum and ``encode_bytes`` and ``decode_bits`` are gathers.
``encode_8b10b`` and ``decode_8b10b`` are their one-group cases, and bits
are read by ``patterns._check_bits``, the package's one bit rule.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidCodeGroup
from .patterns import _check_bits, _is_int

__all__ = [
    "encode_8b10b",
    "decode_8b10b",
    "encode_bytes",
    "decode_bits",
    "valid_groups",
]

# 5b/6b sub-table (abcdei, MSB = a), RD = -1 column: the variant with the
# surplus of ones when the code is unbalanced.
_FIVE_SIX_RDNEG = (
    0b100111, 0b011101, 0b101101, 0b110001, 0b110101, 0b101001, 0b011001, 0b111000,
    0b111001, 0b100101, 0b010101, 0b110100, 0b001101, 0b101100, 0b011100, 0b010111,
    0b011011, 0b100011, 0b010011, 0b110010, 0b001011, 0b101010, 0b011010, 0b111010,
    0b110011, 0b100110, 0b010110, 0b110110, 0b001110, 0b101110, 0b011110, 0b101011,
)

# 3b/4b sub-table (fghj, MSB = f), RD = -1 column; index 7 is the primary D.x.P7.
_THREE_FOUR_RDNEG = (0b1011, 0b1001, 0b0101, 0b1100, 0b1101, 0b1010, 0b0110, 0b1110)

_ALT7_RDNEG, _ALT7_RDPOS = 0b0111, 0b1000
# x values whose D.x.7 takes the alternate 4b code, keyed by the disparity
# after the 6b sub-block; this is what keeps run lengths below five.
_ALT7_ON_NEG = frozenset((17, 18, 20))
_ALT7_ON_POS = frozenset((11, 13, 14))


def _ones(value: int, nbits: int) -> int:
    return bin(value & ((1 << nbits) - 1)).count("1")


def _disparity(value: int, nbits: int) -> int:
    return 2 * _ones(value, nbits) - nbits


def _pick(table, code: int, rd: int, nbits: int, flip_neutral: int | None) -> int:
    value = table[code]
    flips = _disparity(value, nbits) != 0 or code == flip_neutral
    if rd == +1 and flips:
        value = ~value & ((1 << nbits) - 1)
    return value


def _encode_group(byte: int, running_disparity: int) -> tuple[int, int]:
    """The 10-bit group of one byte (bit 9 = a) and the disparity after it."""
    x, y = byte & 0x1F, byte >> 5
    six = _pick(_FIVE_SIX_RDNEG, x, running_disparity, 6, flip_neutral=7)
    rd6 = running_disparity if _disparity(six, 6) == 0 else -running_disparity
    if y == 7 and ((rd6 == -1 and x in _ALT7_ON_NEG) or (rd6 == +1 and x in _ALT7_ON_POS)):
        four = _ALT7_RDNEG if rd6 == -1 else _ALT7_RDPOS
    else:
        four = _pick(_THREE_FOUR_RDNEG, y, rd6, 4, flip_neutral=3)
    rd_out = rd6 if _disparity(four, 4) == 0 else -rd6
    return (six << 4) | four, rd_out


def _build_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Encode, decode and flip tables; row 0 of the first two is RD -1, row 1 RD +1.

    ``encode[r, byte]`` is the group, ``decode[r, group]`` the byte, or -1
    where the group is no data character at that disparity, and
    ``flips[group]`` whether a data group flips the disparity.
    """
    encode: list[list[int]] = [[], []]
    flips = [False] * 1024
    for row, rd in enumerate((-1, +1)):
        for byte in range(256):
            group, rd_out = _encode_group(byte, rd)
            encode[row].append(group)
            flips[group] = rd_out != rd
    encode_table = np.array(encode, dtype=np.intp)
    decode_table = np.full((2, 1024), -1, dtype=np.intp)
    decode_table[np.arange(2)[:, None], encode_table] = np.arange(256)
    tables = encode_table, decode_table, np.array(flips)
    for table in tables:
        table.flags.writeable = False
    return tables


_ENCODE, _DECODE, _FLIPS = _build_tables()
# Bit weights of a group in wire order, a first.
_WEIGHTS = 1 << np.arange(9, -1, -1)


def _word_bits(word: int, width: int) -> tuple[int, ...]:
    """The width low bits of word, most significant first."""
    return tuple((word >> (width - 1 - i)) & 1 for i in range(width))


def _disparity_rows(flips: np.ndarray, running_disparity: int) -> tuple[np.ndarray, int]:
    """Table row of the disparity before each group, and the disparity after the last, a Python int.

    The starting disparity is an int (see ``patterns._is_int``), -1 or +1.
    A data group flips the disparity exactly when it does not hold five
    ones, whatever the disparity before it, so the disparity before group i
    is the starting one flipped once per flip before i.
    """
    if not (_is_int(running_disparity) and running_disparity in (-1, 1)):
        raise ValueError(f"running disparity must be -1 or +1, got {running_disparity!r}")
    rd = int(running_disparity)
    odd = np.logical_xor.accumulate(flips)  # an odd number of flips up to and including group i
    return (odd ^ flips ^ (rd > 0)).view(np.uint8), -rd if len(odd) and odd[-1] else rd


def encode_8b10b(byte: int, running_disparity: int) -> tuple[tuple[int, ...], int]:
    """Encode one data byte: ``encode_bytes`` of a one-byte stream, the 10-bit group as a tuple."""
    bits, rd = encode_bytes([byte], running_disparity)
    return tuple(bits), rd


def valid_groups() -> frozenset[tuple[int, ...]]:
    """All 10-bit groups some data byte encodes to (either disparity)."""
    return frozenset(_word_bits(int(g), 10) for g in np.flatnonzero((_DECODE >= 0).any(axis=0)))


def decode_8b10b(ten_bits: Sequence[int], running_disparity: int) -> tuple[int, int]:
    """Decode one 10-bit group: ``decode_bits`` of a one-group stream."""
    group = tuple(ten_bits)
    if len(group) != 10:
        raise ValueError("expected a sequence of 10 bits")
    data, rd = decode_bits(group, running_disparity)
    return data[0], rd


def encode_bytes(data: Iterable[int], running_disparity: int = -1) -> tuple[list[int], int]:
    """Encode a byte stream to a flat bit list, threading the disparity."""
    if isinstance(data, (bytes, bytearray)):
        values = np.frombuffer(data, dtype=np.uint8)
    else:
        values = np.asarray(data if isinstance(data, np.ndarray) else list(data))
    if values.ndim != 1 or (values.size and values.dtype.kind not in "biu"):
        raise TypeError("data must be a sequence of integer bytes")
    if np.count_nonzero((values < 0) | (values > 0xFF)):
        raise ValueError("byte must be in [0, 255]")
    values = values.astype(np.intp, copy=False)
    # A byte's group flips the disparity at both disparities or at neither.
    rows, rd = _disparity_rows(_FLIPS[_ENCODE[0, values]], running_disparity)
    groups = _ENCODE[rows, values]
    return ((groups[:, None] & _WEIGHTS) != 0).ravel().view(np.uint8).tolist(), rd


def decode_bits(bits: Sequence[int], running_disparity: int = -1) -> tuple[bytes, int]:
    """Decode a flat bit stream (length multiple of 10) back to bytes; InvalidCodeGroup names the first bad group."""
    stream = np.frombuffer(_check_bits(bits, "bit"), np.uint8)
    if len(stream) % 10 != 0:
        raise ValueError(f"bit stream length must be a multiple of 10, got {len(stream)}")
    groups = (stream.reshape(-1, 10) @ _WEIGHTS).astype(np.intp, copy=False)
    rows, rd = _disparity_rows(_FLIPS[groups], running_disparity)
    data = _DECODE[rows, groups]
    invalid = data < 0
    if np.count_nonzero(invalid):
        # Every group before the first invalid one is a data character, so
        # its row is the disparity the group-by-group decoder would be at.
        first = int(invalid.argmax())
        group, row = int(groups[first]), int(rows[first])
        off_table = (_DECODE[:, group] < 0).all()
        reason = "not a data character" if off_table else f"disparity violation at RD={2 * row - 1:+d}"
        raise InvalidCodeGroup(_word_bits(group, 10), reason)
    return data.astype(np.uint8).tobytes(), rd
