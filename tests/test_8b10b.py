import itertools
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from longwire.code8b10b import (
    decode_8b10b,
    decode_bits,
    encode_8b10b,
    encode_bytes,
    valid_groups,
)
from longwire.errors import InvalidCodeGroup


def bits(text):
    return tuple(int(c) for c in text.replace(" ", ""))


class TestKnownCodes:
    # spot values from the published data-character table
    def test_d0_0(self):
        assert encode_8b10b(0x00, -1) == (bits("100111 0100"), -1)
        assert encode_8b10b(0x00, +1) == (bits("011000 1011"), +1)

    def test_d21_5_is_neutral_and_identical(self):
        # D21.5 = 0xB5: 101010 1010 for both disparities
        assert encode_8b10b(0xB5, -1) == (bits("101010 1010"), -1)
        assert encode_8b10b(0xB5, +1) == (bits("101010 1010"), +1)

    def test_d11_7_uses_alternate_encoding_at_positive_rd(self):
        group, rd = encode_8b10b(0xEB, +1)  # D11.7
        assert group == bits("110100 1000")
        assert rd == -1

    def test_d17_7_uses_alternate_encoding_at_negative_rd(self):
        group, rd = encode_8b10b(0xF1, -1)  # D17.7
        assert group == bits("100011 0111")
        assert rd == +1


class TestExhaustive:
    def test_roundtrip_all_bytes_both_disparities(self):
        for byte, rd in itertools.product(range(256), (-1, +1)):
            group, rd_out = encode_8b10b(byte, rd)
            decoded, rd_dec = decode_8b10b(group, rd)
            assert decoded == byte
            assert rd_dec == rd_out

    def test_every_group_has_four_to_six_ones(self):
        for byte, rd in itertools.product(range(256), (-1, +1)):
            group, _ = encode_8b10b(byte, rd)
            assert 4 <= sum(group) <= 6

    def test_disparity_evolution_matches_group_imbalance(self):
        for byte, rd in itertools.product(range(256), (-1, +1)):
            group, rd_out = encode_8b10b(byte, rd)
            imbalance = 2 * sum(group) - 10
            assert imbalance in (-2, 0, 2)
            assert rd_out == (rd if imbalance == 0 else -rd)

    def test_flipping_does_not_depend_on_the_disparity(self):
        # this is what lets the stream codec find every disparity with one scan
        for byte in range(256):
            assert len({encode_8b10b(byte, rd)[1] != rd for rd in (-1, +1)}) == 1

    def test_all_invalid_groups_detected(self):
        # decode must accept exactly the encoder's output language
        valid = valid_groups()
        legal_at = {}
        for byte, rd in itertools.product(range(256), (-1, +1)):
            group, _ = encode_8b10b(byte, rd)
            legal_at.setdefault(group, set()).add(rd)
        for raw in range(1 << 10):
            group = tuple((raw >> (9 - i)) & 1 for i in range(10))
            for rd in (-1, +1):
                if group in valid and rd in legal_at[group]:
                    decode_8b10b(group, rd)
                else:
                    with pytest.raises(InvalidCodeGroup):
                        decode_8b10b(group, rd)

    def test_all_ones_rejected(self):
        for rd in (-1, +1):
            with pytest.raises(InvalidCodeGroup):
                decode_8b10b((1,) * 10, rd)


class TestStreams:
    @given(st.lists(st.integers(0, 255), max_size=64))
    def test_stream_roundtrip_and_bounded_disparity(self, data):
        encoded, rd = encode_bytes(data)
        assert rd in (-1, +1)
        assert len(encoded) == 10 * len(data)
        decoded, rd_dec = decode_bits(encoded)
        assert list(decoded) == data
        assert rd_dec == rd

    def test_disparity_stays_bounded_stepwise(self):
        rd = -1
        for byte in range(256):
            _, rd = encode_8b10b(byte, rd)
            assert rd in (-1, +1)

    def test_decode_bits_length_check(self):
        with pytest.raises(ValueError):
            decode_bits([0, 1, 0])

    @pytest.mark.parametrize("bad", [2, -1, 0.5], ids=["two", "minus-one", "half"])
    def test_decode_bits_rejects_non_bits(self, bad):
        stream, _ = encode_bytes([0x3C, 0xA5])
        stream[13] = bad
        with pytest.raises(ValueError):
            decode_bits(stream)


def chain_encode(data, rd):
    """encode_bytes as a chain of single-group calls."""
    out = []
    for byte in data:
        group, rd = encode_8b10b(byte, rd)
        out.extend(group)
    return out, rd


# The published data-character tables (Widmer and Franaszek, IBM J. Res. Dev. 1983), written out here
# so that the stream tests decode with tables of their own: the 5b/6b code of D.x (abcdei) and the
# 3b/4b code of D.x.y (fghj), each at running disparity -1 and +1.  D.x.P7 is the primary 3b/4b row 7.
FIVE_SIX = (
    ("100111", "011000"), ("011101", "100010"), ("101101", "010010"), ("110001", "110001"),
    ("110101", "001010"), ("101001", "101001"), ("011001", "011001"), ("111000", "000111"),
    ("111001", "000110"), ("100101", "100101"), ("010101", "010101"), ("110100", "110100"),
    ("001101", "001101"), ("101100", "101100"), ("011100", "011100"), ("010111", "101000"),
    ("011011", "100100"), ("100011", "100011"), ("010011", "010011"), ("110010", "110010"),
    ("001011", "001011"), ("101010", "101010"), ("011010", "011010"), ("111010", "000101"),
    ("110011", "001100"), ("100110", "100110"), ("010110", "010110"), ("110110", "001001"),
    ("001110", "001110"), ("101110", "010001"), ("011110", "100001"), ("101011", "010100"),
)
THREE_FOUR = (
    ("1011", "0100"), ("1001", "1001"), ("0101", "0101"), ("1100", "0011"),
    ("1101", "0010"), ("1010", "1010"), ("0110", "0110"), ("1110", "0001"),
)
# D.x.A7 replaces D.x.P7 for these x, keyed by the disparity after the 6b sub-block.
ALTERNATE_SEVEN = ("0111", "1000")
ALTERNATE_X = {-1: {17, 18, 20}, +1: {11, 13, 14}}


def table_decode(group, rd):
    """One 10-bit group at running disparity rd through the published tables: (byte, disparity after
    it), or None when no data character is sent as this group at rd.  An unbalanced sub-block flips
    the disparity; the balanced D.7 and D.x.3 codes, whose two columns differ, do not."""
    six, four = "".join(map(str, group[:6])), "".join(map(str, group[6:]))
    x = next((x for x, codes in enumerate(FIVE_SIX) if codes[rd > 0] == six), None)
    if x is None:
        return None
    rd = rd if six.count("1") == 3 else -rd
    for y, codes in enumerate(THREE_FOUR):
        code = ALTERNATE_SEVEN[rd > 0] if y == 7 and x in ALTERNATE_X[rd] else codes[rd > 0]
        if code == four:
            return x | y << 5, rd if four.count("1") == 2 else -rd
    return None


def chain_decode(bits, rd):
    """decode_bits group by group through the published tables, with its error for the first bad group."""
    out = bytearray()
    for i in range(0, len(bits), 10):
        group = tuple(bits[i : i + 10])
        if (decoded := table_decode(group, rd)) is None:
            off_table = table_decode(group, -rd) is None
            raise InvalidCodeGroup(group, "not a data character" if off_table else f"disparity violation at RD={rd:+d}")
        byte, rd = decoded
        out.append(byte)
    return bytes(out), rd


def outcome(decode, bits, rd):
    try:
        return decode(bits, rd)
    except InvalidCodeGroup as exc:
        return type(exc), str(exc)


class TestStreamsAgainstChain:
    """The stream codec against a chain of group calls, decoded through the test's own published tables."""

    STREAMS = 300

    def test_the_published_tables_decode_every_group_as_the_codec_does(self):
        accepted = 0
        for raw, rd in itertools.product(range(1 << 10), (-1, +1)):
            group = tuple((raw >> (9 - i)) & 1 for i in range(10))
            assert outcome(chain_decode, group, rd) == outcome(decode_bits, group, rd)
            accepted += table_decode(group, rd) is not None
        assert accepted == 2 * 256

    def test_encode_and_decode_equal_the_chain(self):
        rng = random.Random(11)
        for _ in range(self.STREAMS):
            data = [rng.randrange(256) for _ in range(rng.randint(0, 60))]
            rd = rng.choice((-1, +1))
            encoded = encode_bytes(data, rd)
            assert encoded == chain_encode(data, rd)
            assert decode_bits(encoded[0], rd) == chain_decode(encoded[0], rd) == (bytes(data), encoded[1])

    def test_one_flipped_bit_gives_the_chain_outcome(self):
        rng = random.Random(12)
        errors = set()
        for _ in range(self.STREAMS):
            data = [rng.randrange(256) for _ in range(rng.randint(1, 60))]
            rd = rng.choice((-1, +1))
            bits, _ = encode_bytes(data, rd)
            bits[rng.randrange(len(bits))] ^= 1
            expected = outcome(chain_decode, bits, rd)
            assert outcome(decode_bits, bits, rd) == expected
            if expected[0] is InvalidCodeGroup:
                errors.add(expected[1].split(": ")[1].split(" at ")[0])
        assert errors == {"not a data character", "disparity violation"}


class TestArguments:
    def test_rd_validation(self):
        with pytest.raises(ValueError):
            encode_8b10b(0, 0)
        with pytest.raises(ValueError):
            decode_8b10b((0,) * 10, 2)

    def test_byte_range(self):
        with pytest.raises(ValueError):
            encode_8b10b(256, -1)
        for data in ([1, 256], [-1]):
            with pytest.raises(ValueError):
                encode_bytes(data)
        with pytest.raises(TypeError):
            encode_bytes([1.5])

    @pytest.mark.parametrize("rd", [-1, 1])
    def test_bytes_and_bytearray_encode_as_the_list(self, rd):
        data = [0x00, 0x3C, 0xA5, 0xBC, 0xFF]
        expected = encode_bytes(data, rd)
        assert encode_bytes(bytes(data), rd) == encode_bytes(bytearray(data), rd) == expected

    def test_group_shape(self):
        with pytest.raises(ValueError):
            decode_8b10b((0, 1), -1)


class TestGroupCallsAreStreamCalls:
    """encode_8b10b and decode_8b10b are the one-group cases of encode_bytes and decode_bits."""

    GROUP = bits("011101 0101")  # D1.2 at RD -1, which leaves +1

    @pytest.mark.parametrize(
        "form",
        [tuple, list, np.array, lambda g: np.array(g, dtype=np.uint8), lambda g: np.array(g, dtype=bool),
         iter, lambda g: (b for b in g), lambda g: [np.int64(b) for b in g], lambda g: [float(b) for b in g]],
    )
    def test_any_iterable_of_ten_bits_decodes(self, form):
        assert decode_8b10b(form(self.GROUP), -1) == (65, 1)

    @pytest.mark.parametrize(
        "group", ["0111010101", (0, 1, 1, 1, 0, 1, 0, 1, 0, 1.7), (0, 1, 1, 1, 0, 1, 0, 1, 0, 2), (None,) * 10],
        ids=["string", "float-1.7", "two", "none"],
    )
    def test_what_is_no_bit_is_rejected_as_by_the_stream(self, group):
        # the string and 1.7 used to decode as (65, 1)
        for decode in (decode_8b10b, decode_bits):
            with pytest.raises(ValueError):
                decode(group, -1)

    @pytest.mark.parametrize("byte", [65.5, True, np.uint8(7), np.int64(200), -1, 256, "A"])
    def test_encode_gives_the_stream_answer(self, byte):
        # 65.5 and True used to raise numpy's IndexError and TypeError
        def answer(encode, data):
            try:
                bits, rd = encode(data, -1)
            except (TypeError, ValueError) as exc:
                return type(exc), str(exc)
            return tuple(bits), rd

        assert answer(encode_8b10b, byte) == answer(encode_bytes, [byte])

    def test_stream_error_names_the_group_and_reason(self):
        stream, _ = encode_bytes([0x3C, 0xA5, 0x00])
        stream[10:20] = [1] * 10
        with pytest.raises(InvalidCodeGroup) as err:
            decode_bits(np.array(stream), -1)
        assert err.value.group == (1,) * 10 and all(type(b) is int for b in err.value.group)
        assert err.value.reason == "not a data character"
        with pytest.raises(InvalidCodeGroup) as err:
            decode_bits(encode_8b10b(0x00, -1)[0], +1)  # D0.0 of RD -1 read at RD +1
        assert err.value.group == bits("100111 0100") and err.value.reason == "disparity violation at RD=+1"
