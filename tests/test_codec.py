import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from longwire import DeviceProfile, Geometry, MeasurementConfig, simulate_trace
from longwire.code8b10b import decode_bits
from longwire.codec import (
    DEFAULT_EOF,
    DEFAULT_SOF,
    Frame,
    LineCode,
    channel_bandwidth,
    find_frames,
    frame_sync,
    frame_to_bits,
    manchester_decode,
    manchester_encode,
    simulate_covert_transfer,
    _covert_transfer,
)
from longwire.errors import InvalidCodeGroup
from longwire.patterns import PatternSpec
from longwire.stats import bit_error_rate

bit_lists = st.lists(st.integers(0, 1), max_size=64)


class TestManchester:
    def test_encode_examples(self):
        assert manchester_encode([0]) == [(0, 1)]
        assert manchester_encode([]) == []
        assert manchester_encode([1, 0, 1]) == [(1, 0), (0, 1), (1, 0)]

    @given(bit_lists)
    def test_two_symbols_per_bit(self, payload):
        pairs = manchester_encode(payload)
        assert sum(len(p) for p in pairs) == 2 * len(payload)

    def test_decode_rule(self):
        assert manchester_decode([(24576, 24580)]) == [0]
        assert manchester_decode([(24580, 24576)]) == [1]
        assert manchester_decode([(7, 7)]) == [1]  # ties decode as 1

    def test_decode_ignores_common_drift(self):
        pairs = [(24576, 24580), (24580, 24576), (100, 90)]
        shifted = [(a + 500, b + 500) for a, b in pairs]
        assert manchester_decode(pairs) == manchester_decode(shifted)

    @given(bit_lists, st.integers(-10_000, 10_000))
    def test_roundtrip_over_ideal_counts_with_offset(self, payload, offset):
        pairs = [(a + offset, b + offset) for a, b in manchester_encode(payload)]
        assert manchester_decode(pairs) == payload

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            manchester_encode([2])
        for bits in ([0, 0.5], np.array([1, 0.5]), iter([0.5])):
            with pytest.raises(ValueError, match="0 or 1"):
                manchester_encode(bits)

    def test_array_iterator_and_list_encode_alike(self):
        payload = [1, 0, 0, 1, 1]
        expected = manchester_encode(payload)
        assert manchester_encode(np.array(payload)) == expected
        assert manchester_encode(iter(payload)) == expected


class TestBitsThroughBytes:
    """Bits enter numpy through patterns._check_bits: int items through bytes, a numeric array through one comparison."""

    @pytest.mark.parametrize("bits", [[2], [0, -1], [1, 256], [0, 0.5], [1, "1"], [1, None]])
    def test_non_bits_keep_their_message(self, bits):
        for form in (list, tuple):
            with pytest.raises(ValueError) as err:
                manchester_encode(form(bits))
            assert str(err.value) == f"bit must be 0 or 1, got {bits[-1]!r}"

    @pytest.mark.parametrize("bits", [[1, 0, 0, 1], (True, False, np.int64(1)), [1.0, 0.0], np.array([1, 0])])
    def test_every_form_of_bits_encodes_alike(self, bits):
        assert manchester_encode(bits) == [(int(b), 1 - int(b)) for b in bits]

    def test_covert_transfer_returns_the_list_of_its_array(self):
        profile, cfg, geom = DeviceProfile(), MeasurementConfig(log2_ticks=11), Geometry()
        bits = np.random.default_rng(4).integers(0, 2, 500)
        decoded = simulate_covert_transfer(bits.tolist(), profile, cfg, geom, seed=3)
        array = _covert_transfer(bits, profile, cfg, geom, 3)
        assert array.dtype == np.int64 and type(decoded) is list and decoded == array.tolist()
        assert decoded == simulate_covert_transfer(tuple(bits.tolist()), profile, cfg, geom, seed=3)

    @pytest.mark.parametrize("line_code", [LineCode.NONE, LineCode.EIGHTB_TENB])
    def test_find_frames_reads_lists_arrays_and_non_bits_alike(self, line_code):
        stream = [1, 1, 0]
        for payload in ((1, 0, 1, 1, 0, 0, 1, 0), (0,) * 8):
            stream += frame_to_bits(Frame(payload, line_code=line_code)) + [0, 1]
        expected = find_frames(np.array(stream), line_code=line_code)
        assert len(expected) == 2
        assert find_frames(stream, line_code=line_code) == find_frames(tuple(stream), line_code=line_code) == expected
        noisy = stream[:-1] + [2]  # not a bit: the array path, where a 2 matches no pattern bit
        assert find_frames(noisy, line_code=line_code) == expected
        for found in (expected, find_frames(stream, line_code=line_code), find_frames(noisy, line_code=line_code)):
            assert {type(item) for pos, body in found for item in (pos, *body)} == {int}


class TestFrameSync:
    def test_exact_match(self):
        assert frame_sync(DEFAULT_SOF, DEFAULT_SOF) == [0]

    def test_empty_stream(self):
        assert frame_sync([], DEFAULT_SOF) == []

    def test_overlapping_matches(self):
        assert frame_sync([0, 1, 0, 1, 0], (0, 1, 0)) == [0, 2]

    def test_empty_sof_rejected(self):
        with pytest.raises(ValueError):
            frame_sync([0, 1], [])
        # each pattern is checked before any search, and the error names the one at fault
        for name, pattern, message in [("sof", (), "sof must be non-empty"), ("eof", (), "eof must be non-empty"),
                                       ("sof", (2,), "sof bit must be 0 or 1, got 2"),
                                       ("eof", (0, 1, 3), "eof bit must be 0 or 1, got 3")]:
            with pytest.raises(ValueError) as err:
                find_frames([0, 1, 2, 0, 1], **{name: pattern})
            assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            frame_sync([2, 0, 1], (2,))
        assert str(err.value) == "sof bit must be 0 or 1, got 2"
        assert frame_sync([0, 1, 1], (1.0, True)) == [1]  # items that equal a bit are that bit

    def test_matches_a_slicing_oracle(self):
        def oracle(stream, sof):
            return [i for i in range(len(stream) - len(sof) + 1) if tuple(stream[i : i + len(sof)]) == tuple(sof)]

        rng = random.Random(5)
        cases = [([], (1,)), ([1, 0], (1, 0, 1)), ([1] * 6, (1, 1)), ([0, 1] * 5, (0, 1, 0, 1, 0))]
        for _ in range(300):
            stream = [rng.randint(0, 1) for _ in range(rng.randint(0, 80))]
            cases.append((stream, tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 6)))))
        for stream, sof in cases:
            expected = oracle(stream, sof)
            assert frame_sync(stream, sof) == expected
            assert frame_sync(np.array(stream, dtype=np.int64), list(sof)) == expected
            assert all(type(p) is int for p in frame_sync(stream, sof))

    def test_false_positive_rate_on_random_bits(self):
        rng = np.random.default_rng(2024)
        stream = rng.integers(0, 2, 1_000_000)
        matches = len(frame_sync(stream, DEFAULT_SOF))
        expected = (len(stream) - 15) * 2.0 ** -16
        assert abs(matches - expected) <= 3 * math.sqrt(expected)


class TestFrames:
    def test_default_delimiters(self):
        assert DEFAULT_SOF == (1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 1)  # 0xF0D5, most significant first
        assert DEFAULT_EOF == (0, 0, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 1)  # 0x0B2F

    def test_plain_roundtrip(self):
        frame = Frame(payload=(1, 0, 1, 1, 0, 0, 1, 0))
        stream = [1, 1, 0] + frame_to_bits(frame) + [0, 0]
        found = find_frames(stream)
        assert found == [(3, frame.payload)]

    def test_8b10b_roundtrip(self):
        payload = tuple(int(b) for b in format(0xC3A5, "016b"))
        frame = Frame(payload=payload, line_code=LineCode.EIGHTB_TENB)
        body = frame_to_bits(frame)
        assert len(body) == len(DEFAULT_SOF) + 20 + len(DEFAULT_EOF)
        assert find_frames(body, line_code=LineCode.EIGHTB_TENB) == [(0, payload)]

    def test_8b10b_frame_with_invalid_group_is_skipped(self):
        payloads = [(0x12, 0x34), (0x56, 0x78), (0x9A, 0xBC)]
        frames = [Frame(tuple(int(c) for b in p for c in format(b, "08b")), line_code=LineCode.EIGHTB_TENB)
                  for p in payloads]
        stream, starts = [], []
        for frame in frames:
            starts.append(len(stream))
            stream += frame_to_bits(frame)
        body = starts[1] + len(DEFAULT_SOF)
        stream[body] ^= 1  # one flipped payload bit in the middle frame
        with pytest.raises(InvalidCodeGroup):
            decode_bits(stream[body : body + 20])
        assert find_frames(stream, line_code=LineCode.EIGHTB_TENB) == [
            (starts[0], frames[0].payload), (starts[2], frames[2].payload)]

    def test_payload_must_be_byte_aligned_for_8b10b(self):
        with pytest.raises(ValueError):
            Frame(payload=(1, 0, 1), line_code=LineCode.EIGHTB_TENB)

    def test_sof_eof_non_empty(self):
        with pytest.raises(ValueError):
            Frame(payload=(1,), sof=())

    @pytest.mark.parametrize(
        "fields, message",
        [(dict(payload=(1, 2)), "payload bit must be 0 or 1, got 2"),
         (dict(payload=([0],)), "payload bit must be 0 or 1, got [0]"),
         (dict(payload=(1,), sof=(1, 0.5)), "sof bit must be 0 or 1, got 0.5"),
         (dict(payload=(1,), eof=({},)), "eof bit must be 0 or 1, got {}"),
         (dict(payload=("1",)), "payload bit must be 0 or 1, got '1'")],
        ids=["two", "list-item", "half", "dict-item", "text"],
    )
    def test_fields_must_hold_bits(self, fields, message):
        with pytest.raises(ValueError) as err:
            Frame(**fields)
        assert str(err.value) == message

    def test_frame_to_bits_is_sof_payload_eof(self):
        frame = Frame(payload=(1, 0, 0), sof=(1, 1), eof=(0,))
        assert frame_to_bits(frame) == [1, 1, 1, 0, 0, 0]

    def test_list_fields_are_stored_as_tuples(self):
        payload, sof, eof = [1, 0, 0], [1, 1], [0]
        frame = Frame(payload=payload, sof=sof, eof=eof)
        payload[0] = 2
        assert (frame.payload, frame.sof, frame.eof) == ((1, 0, 0), (1, 1), (0,))
        assert hash(frame) == hash(Frame(payload=(1, 0, 0), sof=(1, 1), eof=(0,)))
        assert frame_to_bits(frame) == [1, 1, 1, 0, 0, 0]


def brute_force_frames(bitstream, sof, eof, line_code):
    """Every SOF match, paired with the first EOF at or after its payload that
    leaves a decodable length, found by rescanning the stream each time; an
    8b/10b frame whose groups do not decode is left out."""
    frames = []
    for pos in frame_sync(bitstream, sof):
        start = pos + len(sof)
        for end in range(start, len(bitstream) - len(eof) + 1):
            if tuple(bitstream[end : end + len(eof)]) != tuple(eof):
                continue
            body = tuple(bitstream[start:end])
            if line_code is LineCode.EIGHTB_TENB:
                if len(body) % 10:
                    continue
                try:
                    data, _ = decode_bits(body)
                except InvalidCodeGroup:
                    break
                body = tuple(int(c) for byte in data for c in format(byte, "08b"))
            frames.append((pos, body))
            break
    return frames


class TestFindFramesAgainstBruteForce:
    def test_random_streams_with_overlapping_frames(self):
        # short delimiters match often, so frames nest, overlap and share EOFs
        sof, eof = (1, 1, 0, 1), (0, 1, 1)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            stream = rng.integers(0, 2, 300).tolist()
            for _ in range(5):
                at = int(rng.integers(0, len(stream)))
                frame = Frame(tuple(rng.integers(0, 2, int(rng.integers(0, 20))).tolist()), sof, eof)
                stream[at:at] = frame_to_bits(frame)
            expected = brute_force_frames(stream, sof, eof, LineCode.NONE)
            assert len(expected) > 5
            assert find_frames(stream, sof, eof) == expected, seed

    def test_8b10b_streams_with_planted_frames(self):
        # a short EOF also turns up inside the coded payloads, at every offset mod 10
        eof = (1, 0, 1, 0, 1)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            stream = []
            for _ in range(6):
                stream += rng.integers(0, 2, int(rng.integers(0, 13))).tolist()
                payload = tuple(rng.integers(0, 2, 8 * int(rng.integers(0, 5))).tolist())
                stream += frame_to_bits(Frame(payload, DEFAULT_SOF, eof, LineCode.EIGHTB_TENB))
            args = (stream, DEFAULT_SOF, eof, LineCode.EIGHTB_TENB)
            assert find_frames(*args) == brute_force_frames(*args), seed


class TestLineCodeValues:
    """Each codec call reads ``line_code`` through ``LineCode``: a member or its value, nothing else."""

    PAYLOAD = (1, 0, 1, 1, 0, 0, 1, 0)

    def test_frame_takes_the_value(self):
        frame = Frame(self.PAYLOAD, line_code="8b10b")
        assert frame.line_code is LineCode.EIGHTB_TENB
        assert frame == Frame(self.PAYLOAD, line_code=LineCode.EIGHTB_TENB)
        assert len(frame_to_bits(frame)) == len(DEFAULT_SOF) + 10 + len(DEFAULT_EOF)
        assert Frame(self.PAYLOAD, line_code="none").line_code is LineCode.NONE

    def test_frame_value_keeps_the_byte_check(self):
        with pytest.raises(ValueError, match="multiple of 8"):
            Frame((1, 0, 1), line_code="8b10b")

    def test_find_frames_takes_the_value(self):
        stream = [0, 1] + frame_to_bits(Frame(self.PAYLOAD, line_code=LineCode.EIGHTB_TENB))
        assert find_frames(stream, line_code="8b10b") == find_frames(stream, line_code=LineCode.EIGHTB_TENB)
        assert find_frames(stream, line_code="8b10b") == [(2, self.PAYLOAD)]

    def test_channel_bandwidth_takes_the_value(self):
        cfg = MeasurementConfig(log2_ticks=13)
        assert channel_bandwidth(cfg, "8b10b") == channel_bandwidth(cfg, LineCode.EIGHTB_TENB)
        assert channel_bandwidth(cfg, "8b10b") == pytest.approx(4882.81, abs=0.01)
        assert channel_bandwidth(cfg, "none") == channel_bandwidth(cfg)

    @pytest.mark.parametrize("value", ["8B10B", "8b/10b", "", None, 1, 8.10, LineCode])
    @pytest.mark.parametrize(
        "call",
        [
            lambda code: Frame((1, 0, 1, 1, 0, 0, 1, 0), line_code=code),
            lambda code: find_frames([0, 1, 1], line_code=code),
            lambda code: channel_bandwidth(MeasurementConfig(), code),
        ],
        ids=["Frame", "find_frames", "channel_bandwidth"],
    )
    def test_anything_else_is_refused(self, call, value):
        with pytest.raises(ValueError, match="is not a valid LineCode"):
            call(value)


class TestBandwidth:
    def test_82us_window(self):
        # exactly 82 us per window
        cfg = MeasurementConfig(log2_ticks=13, f_clk_hz=8192 / 82e-6)
        assert channel_bandwidth(cfg) == pytest.approx(6097.56, abs=0.01)
        assert channel_bandwidth(cfg, LineCode.EIGHTB_TENB) == pytest.approx(4878.05, abs=0.01)

    def test_default_clock_values(self):
        cfg = MeasurementConfig(log2_ticks=13)
        assert channel_bandwidth(cfg) == pytest.approx(6103.52, abs=0.01)
        assert channel_bandwidth(cfg, LineCode.EIGHTB_TENB) == pytest.approx(4882.81, abs=0.01)

    def test_21ms_window(self):
        cfg = MeasurementConfig(log2_ticks=21)
        assert channel_bandwidth(cfg) == pytest.approx(23.84, abs=0.01)


class TestEndToEnd:
    def test_pipeline_hits_paper_accuracy_band(self):
        profile = DeviceProfile()
        cfg = MeasurementConfig(log2_ticks=13)
        geom = Geometry(v_t=2, v_r=2, d=1)
        rng = np.random.default_rng(31337)
        bits = [int(b) for b in rng.integers(0, 2, 2000)]
        decoded = simulate_covert_transfer(bits, profile, cfg, geom, seed=7)
        assert 1.0 - bit_error_rate(bits, decoded) >= 0.99

    def test_transfer_decodes_the_simulated_trace(self):
        # at 2^11 ticks the step is one count, so ties and errors are common
        profile = DeviceProfile()
        cfg = MeasurementConfig(log2_ticks=11)
        geom = Geometry(v_t=2, v_r=2, d=1)
        bits = [int(b) for b in np.random.default_rng(5).integers(0, 2, 3000)]
        symbols = [s for pair in manchester_encode(bits) for s in pair]
        counts = simulate_trace(profile, cfg, geom, PatternSpec.custom(symbols), len(symbols), 9).counts
        expected = manchester_decode(zip(counts[0::2], counts[1::2]))
        assert any(a == b for a, b in zip(counts[0::2], counts[1::2]))
        assert simulate_covert_transfer(bits, profile, cfg, geom, seed=9) == expected

    def test_empty_payload(self):
        profile = DeviceProfile()
        cfg = MeasurementConfig(log2_ticks=13)
        geom = Geometry(v_t=2, v_r=2, d=1)
        assert simulate_covert_transfer([], profile, cfg, geom, seed=1) == []
