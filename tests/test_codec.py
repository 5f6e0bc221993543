import math

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
    bits_from_text,
    bits_to_text,
    channel_bandwidth,
    find_frames,
    frame_sync,
    frame_to_bits,
    frames_to_csv,
    manchester_decode,
    manchester_encode,
    simulate_covert_transfer,
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

    def test_false_positive_rate_on_random_bits(self):
        rng = np.random.default_rng(2024)
        stream = rng.integers(0, 2, 1_000_000)
        matches = len(frame_sync(stream, DEFAULT_SOF))
        expected = (len(stream) - 15) * 2.0 ** -16
        assert abs(matches - expected) <= 3 * math.sqrt(expected)


class TestFrames:
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

    def test_payload_must_be_byte_aligned_for_8b10b(self):
        with pytest.raises(ValueError):
            Frame(payload=(1, 0, 1), line_code=LineCode.EIGHTB_TENB)

    def test_sof_eof_non_empty(self):
        with pytest.raises(ValueError):
            Frame(payload=(1,), sof=())

    def test_frames_to_csv(self):
        text = frames_to_csv([(3, (1, 0, 1, 1, 0, 0, 1, 0)), (40, (1, 1, 1, 1))])
        lines = text.splitlines()
        assert lines[0] == "position,payload_hex"
        assert lines[1] == "3,b2"
        assert lines[2] == "40,f0"


def brute_force_frames(bitstream, sof, eof, line_code):
    """Every SOF match, paired with the first EOF at or after its payload that
    leaves a decodable length, found by rescanning the stream each time."""
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
                data, _ = decode_bits(body)
                body = tuple(int(c) for byte in data for c in format(byte, "08b"))
            frames.append((pos, body))
            break
    return frames


def outcome(search, *args):
    try:
        return search(*args)
    except InvalidCodeGroup:
        return "invalid code group"


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
            assert outcome(find_frames, *args) == outcome(brute_force_frames, *args), seed


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


class TestBitstreamText:
    def test_round_trip(self):
        bits = [1, 0, 1, 1, 0] * 30
        assert bits_from_text(bits_to_text(bits)) == bits

    def test_line_width(self):
        text = bits_to_text([0] * 130, width=64)
        assert [len(line) for line in text.splitlines()] == [64, 64, 2]

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            bits_from_text("0102")


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
