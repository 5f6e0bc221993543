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


def chain_decode(bits, rd):
    """decode_bits as a chain of single-group calls."""
    out = bytearray()
    for i in range(0, len(bits), 10):
        byte, rd = decode_8b10b(bits[i : i + 10], rd)
        out.append(byte)
    return bytes(out), rd


def outcome(decode, bits, rd):
    try:
        return decode(bits, rd)
    except InvalidCodeGroup as exc:
        return type(exc), str(exc)


class TestStreamsAgainstChain:
    STREAMS = 300

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
