import math
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

from fractions import Fraction

from longwire import DeviceProfile, Geometry, MeasurementConfig, expected_count, expected_delta_rc, kernels
from longwire.channel import CountTrace, as_longs
from longwire.cli import main
from longwire.code8b10b import decode_8b10b, decode_bits, encode_8b10b, encode_bytes
from longwire.patterns import (
    DYNAMIC4_CODES,
    PatternSpec,
    lfsr_next,
    parse_pattern,
    stimulus_columns,
    _check_bits,
    _check_real,
)
from longwire.audit import RoutingGrid, placement_success_probability
from longwire.stats import student_t_isf
from longwire.codec import Frame, find_frames, frame_sync, frame_to_bits, manchester_encode
from longwire.exfil import (
    ExfilChannel,
    KeyBits,
    RecoveryResult,
    RelationSet,
    exhaustive_success_fraction,
    infer_relations,
    measure_windows,
    monte_carlo_recovery_rate,
    multi_window_recover,
    propagate,
    recovery_probability_exact,
    recovery_to_rows,
    single_window_recover,
    window_hw_oracle,
)
from conftest import stimulus_oracle

# One bit rule: (name in the message, call with the item tried as its first bit).
# Each call returns what it stores or yields, so a bit kept as a bool or numpy type shows in its repr.
BIT_CHECKS = [
    ("key bit", lambda b: KeyBits((b, 0))),
    ("known value", lambda b: RecoveryResult(2, {0: b, 1: 0}, (), 1, 1)),
    ("custom bit", lambda b: PatternSpec(kind="custom", bits=(b, 0))),
    ("custom bit", lambda b: PatternSpec.custom((b, 0))),
    ("payload bit", lambda b: Frame(payload=(b, 0))),
    ("sof bit", lambda b: Frame(payload=(0,), sof=(b, 0))),
    ("eof bit", lambda b: Frame(payload=(0,), eof=(b, 0))),
    ("sof bit", lambda b: frame_sync([1, 0], (b, 0))),
    ("eof bit", lambda b: find_frames([0, 1], eof=(b, 0))),
    ("bit", lambda b: manchester_encode((b, 0))),
    ("bit", lambda b: decode_bits((1, 0, 0, 1, 1, 1, 0, 1, b, 0))),  # byte 0's group, a data character at b = 1 too
    ("tx bit", lambda b: CountTrace([0, 1], [5, 5], [1.0, 0.0], [0.0, 0.0], [b, 0])),
]


@pytest.mark.parametrize("item", [0, 1, True, 1.0, np.int64(1), np.uint8(1), np.float64(1.0)],
                         ids=["0", "1", "True", "1.0", "item4", "uint8", "float64"])
def test_bit_rule_accepts(item):
    # an accepted item is stored and returned as the Python int it equals
    for _, make in BIT_CHECKS:
        assert repr(make(item)) == repr(make(int(item)))


@pytest.mark.parametrize("item", [2, -1, 0.5, "1", None, [1], np.array([1]), 1 + 0j])
def test_bit_rule_rejects(item):
    for name, make in BIT_CHECKS:
        if item is None and name == "tx bit":
            continue  # a trace's None is a window that sends no bit, outside the rule
        with pytest.raises(ValueError) as err:
            make(item)
        assert str(err.value) == f"{name} must be 0 or 1, got {item!r}"


def test_bool_key_recovery_writes_bits_to_csv_rows():
    key = [1, 0, 1, 1, 0, 0, 1, 0]
    rows = recovery_to_rows(multi_window_recover([bool(b) for b in key], 2))
    assert rows == recovery_to_rows(multi_window_recover(key, 2)) == [(j, str(b)) for j, b in enumerate(key)]


def test_numpy_key_bits_are_summed_as_python_ints():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a uint8 sum overflows with a RuntimeWarning
        assert window_hw_oracle(KeyBits([np.uint8(1)] * 300), 0, 300) == 300


def test_recovery_of_a_uint8_key_holds_python_ints():
    known = single_window_recover(np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8), 3).known
    assert known == single_window_recover([1, 0, 1, 1, 0, 0, 1, 0], 3).known
    assert {type(v) for v in known.values()} == {int}


def test_frame_of_an_array_serializes_to_python_ints():
    bits = frame_to_bits(Frame(np.array([1, 0] * 4)))
    assert bits == frame_to_bits(Frame((1, 0) * 4)) and {type(b) for b in bits} == {int}


@pytest.mark.parametrize("text, message", [
    ("custom:012", "custom bit must be 0 or 1, got 2"),
    ("custom:01x", "custom bit must be 0 or 1, got 'x'"),
    ("longruns:x", "run_len must be an int >= 1, got 'x'"),
    ("lfsr:zz", "LFSR state must be an int in [1, 65535], got 'zz'"),
])
def test_pattern_arguments_follow_their_rules(capsys, text, message):
    with pytest.raises(ValueError) as err:
        parse_pattern(text)
    assert str(err.value) == message
    assert main(["simulate", "--pattern", text, "--seed", "1"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def all_equal(w, n_key):
    """A width-w relation set of all-equal pairs over n_key bits, for any w the table below tries."""
    pairs = n_key - int(w) if isinstance(w, (int, np.integer)) else 0
    return RelationSet((1 << max(pairs, 0)) - 1, 0, 0, w)


KEY8 = KeyBits.from_binary("10110010")
CHANNEL = ExfilChannel(DeviceProfile(), MeasurementConfig(), Geometry(), seed=0)

# One integer rule: (parameter, call with the value, name in the message, low, high or None).
INT_CHECKS = [
    ("trial_keys-n", lambda v: kernels.trial_keys(1, 0, v), "key length", 1, 64),
    ("check_window-n", lambda v: recovery_probability_exact(v, 1), "key length", 1, None),
    ("check_window-w", lambda v: recovery_probability_exact(64, v), "window width", 1, None),
    ("mc_widths-trials", lambda v: kernels.mc_widths(16, [4], v, 0), "trials", 1, None),
    ("noisy-monte_carlo-trials", lambda v: monte_carlo_recovery_rate(16, 4, v, 0, CHANNEL), "trials", 1, None),
    ("from_int-n", lambda v: KeyBits.from_int(5, v), "key length", 1, None),
    ("oracle-w", lambda v: window_hw_oracle(KEY8, 0, v), "window width", 1, 8),
    ("oracle-pos", lambda v: window_hw_oracle(KEY8, v, 3), "window start", 0, 5),
    ("window_weights-w", lambda v: measure_windows(KEY8, v), "window width", 1, 8),
    ("infer_relations-w", lambda v: infer_relations([1.0, 2.0], v, 0.0), "window width", 1, None),
    ("propagate-w", lambda v: propagate(all_equal(v, 4), 4), "window width", 1, 4),
    ("propagate-n_key", lambda v: propagate(all_equal(1, 1), v), "key length", 1, None),
    ("log2_ticks", lambda v: MeasurementConfig(log2_ticks=v), "log2_ticks", 1, 32),
    ("distance_atten-key", lambda v: DeviceProfile(distance_atten={v: 1.0}), "distance_atten key", 1, None),
    ("attenuation-d", lambda v: DeviceProfile().attenuation(v), "distance", 1, None),
    ("tracks_per_column", lambda v: RoutingGrid((), tracks_per_column=v), "tracks_per_column", 1, None),
    ("grid-n_longs", lambda v: RoutingGrid((), n_longs=v), "n_longs", 1, None),
    ("placement-n_longs", lambda v: placement_success_probability(v, 1, 1, 1), "n_longs", 1, None),
    ("placement-w_adj", lambda v: placement_success_probability(10, v, 1, 1), "w_adj", 1, None),
    ("placement-r_longs", lambda v: placement_success_probability(10, 1, v, 1), "r_longs", 1, None),
    ("placement-t_longs", lambda v: placement_success_probability(10, 1, 1, v), "t_longs", 1, None),
    ("lfsr-state", lambda v: lfsr_next(v, (4, 3)), "LFSR state", 1, 15),
    ("lfsr-tap", lambda v: lfsr_next(1, (v,)), "LFSR tap", 1, None),
]

PROFILE_FLOATS = [f.name for f in fields(DeviceProfile) if f.name != "distance_atten"]
DRIFT = (DeviceProfile(), MeasurementConfig(), Geometry(), 0.5, 0.0)


def profile_row(name):
    """A profile field's REAL_CHECKS row; with no local_static_epsilon, a coupling_alpha of 0 is a valid profile."""
    high, above = (1 if name == "drift_reversion" else math.inf), name in ("base_rate", "stage_beta")
    return name, lambda v: DeviceProfile(**{"local_static_epsilon": 0.0, name: v}), name, 0, high, above


# One real-number rule: (parameter, call with the value, name in the message, low, high, above: low excluded).
# Each call returns what it stores (a profile or config) or yields, so a number kept as an int or numpy type shows.
REAL_CHECKS = [
    *map(profile_row, PROFILE_FLOATS),
    ("distance_atten-multiplier", lambda v: DeviceProfile(distance_atten={1: v}), "distance_atten multiplier for d=1",
     0, math.inf, False),
    ("f_clk_hz", lambda v: MeasurementConfig(f_clk_hz=v), "f_clk_hz", 0, math.inf, True),
    ("infer_relations-tolerance", lambda v: infer_relations([1.0, 2.0], 1, v), "tolerance", 0, math.inf, False),
    ("expected_count-drift_state", lambda v: expected_count(*DRIFT, v), "drift_state", -1, math.inf, True),
    ("student_t_isf-tail", lambda v: student_t_isf(v, 5), "tail", 0, 0.5, True),
    ("student_t_isf-df", lambda v: student_t_isf(0.005, v), "df", 1, math.inf, False),
]


def int_rule_message(call, value):
    """The ValueError message of call(value), or None when it returns."""
    try:
        call(value)
    except ValueError as exc:
        return str(exc)
    return None


def int_rule_outcome(call, value):
    """The repr of what call(value) returns, or its ValueError message: a numpy integer left in a result shows."""
    try:
        return "returns " + repr(call(value))
    except ValueError as exc:
        return "raises " + str(exc)


@pytest.mark.parametrize("call, name, low, high", [row[1:] for row in INT_CHECKS], ids=[row[0] for row in INT_CHECKS])
def test_int_rule(call, name, low, high):
    limits = f">= {low}" if high is None else f"in [{low}, {high}]"
    refused = [True, False, float(low), str(low), None, low - 1] + ([] if high is None else [high + 1])
    for value in refused:
        assert int_rule_message(call, value) == f"{name} must be an int {limits}, got {value!r}"
    # a limit is inclusive, and a numpy int passes; another rule may still refuse the call (n_longs = 1 is below
    # R + T = 2), so an accepted value is one this rule lets through
    for value in [low, np.int64(low), np.int32(low)] + ([] if high is None else [high, np.int64(high), np.int32(high)]):
        message = int_rule_message(call, value)
        assert message is None or not message.startswith(f"{name} must be"), (value, message)
    # a numpy integer is used as the Python int it holds, at each limit (64 where there is no upper one) where it
    # fits: the call returns what the int's call returns, of the same types, or raises its message
    for limit in [low, 64 if high is None else high]:
        expected = int_rule_outcome(call, limit)
        for value in [np.int64(limit)] + ([np.uint8(limit)] if 0 <= limit <= 255 else []):
            assert int_rule_outcome(call, value) == expected, value


@pytest.mark.parametrize("call, name, low, high, above", [row[1:] for row in REAL_CHECKS], ids=[row[0] for row in REAL_CHECKS])
def test_real_rule(call, name, low, high, above):
    limits = (f"> {low}" if above else f">= {low}") if high == math.inf else f"in {'(' if above else '['}{low}, {high}]"
    # at each limit inside the range (low + 1 where neither is), an int, a numpy float and a numpy int are taken as
    # the Python float: the call gives what the float's call gives, of the same types
    inside = ([] if above else [low]) + ([high] if high < math.inf else []) or [low + 1]
    for limit in inside:
        expected = int_rule_outcome(call, float(limit))
        assert expected.startswith("returns "), (limit, expected)
        for value in [np.float32(limit)] + ([int(limit), np.int64(limit)] if limit == int(limit) else []):
            assert int_rule_outcome(call, value) == expected, value
    # refused after the accepted values, so a result cached for 1 must not answer for True
    past = [low if above else math.nextafter(low, -math.inf)]
    past += [math.nextafter(high, math.inf)] if high < math.inf else []
    for value in [True, np.bool_(True), "1", None, math.nan, math.inf, -math.inf, *past]:
        assert int_rule_message(call, value) == f"{name} must be a finite number {limits}, got {value!r}"


def test_numpy_integers_do_not_overflow_downstream():
    # 1 << np.uint8(21) was 0 ticks a window; np.uint8(250) + t overflowed in the noisy Monte Carlo's seeds;
    # v_r = np.int64(2) gave an np.float64 coupling; 2**np.uint8(12) was 0 in the exhaustive fraction
    assert MeasurementConfig(log2_ticks=np.uint8(21)).ticks_per_window == 1 << 21
    cfg = MeasurementConfig(log2_ticks=17)
    rates = [monte_carlo_recovery_rate(16, 4, 40, 0, ExfilChannel(DeviceProfile(), cfg, Geometry(), seed=seed))
             for seed in (np.uint8(250), 250)]
    assert rates[0] == rates[1] > 0 and type(rates[0]) is float
    delta = expected_delta_rc(DeviceProfile(), Geometry(v_r=np.int64(2)))
    assert type(delta) is float and delta == expected_delta_rc(DeviceProfile(), Geometry(v_r=2))
    assert exhaustive_success_fraction(np.uint8(12), 3) == exhaustive_success_fraction(12, 3) > 0


def test_real_rule_refuses_an_int_beyond_the_float_range():
    with pytest.raises(ValueError, match=r"^x must be a finite number >= 0, got 1000"):
        _check_real(10**400, "x", 0)


# The wire-length rule: a Fraction, a text, an int (numpy's too, no bool) or a float within 1e-9 of a third, > 0.
WIRE_LENGTHS_KEPT = [(Fraction(4, 3), Fraction(4, 3)), ("4/3", Fraction(4, 3)), (2, Fraction(2)),
                     (np.int64(2), Fraction(2)), (np.uint8(5), Fraction(5)), (1 / 3, Fraction(1, 3)),
                     (np.float64(2 / 3), Fraction(2, 3)), (np.float32(2.0), Fraction(2))]
WIRE_LENGTHS_REFUSED = [True, False, np.bool_(True), 0, -1, np.int64(-2), Fraction(0), Fraction(-1, 3), "0", "-4/3",
                        "1/0", "two", 0.4, np.float32(1 / 3), None, 1 + 0j, [1]]


@pytest.mark.parametrize("value, length", WIRE_LENGTHS_KEPT, ids=repr)
def test_wire_length_rule_accepts(value, length):
    for got in (as_longs(value), Geometry(v_t=value).v_t):
        assert got == length and type(got) is Fraction
        assert type(got.numerator) is int and type(got.denominator) is int


@pytest.mark.parametrize("value", WIRE_LENGTHS_REFUSED, ids=repr)
def test_wire_length_rule_refuses(value):
    message = f"wire length must be a multiple of 1/3 > 0, got {value!r}"
    for call in (as_longs, lambda v: Geometry(v_t=v)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1 / 3, np.float64(-2.0)], ids=repr)
def test_wire_length_float_goes_through_the_real_rule(value):
    with pytest.raises(ValueError, match=f"^wire length must be a finite number > 0, got {re.escape(repr(value))}$"):
        as_longs(value)


# Every 8b/10b entry point, called with a running disparity.
DISPARITY_CALLS = [
    lambda rd: encode_8b10b(0x55, rd),
    lambda rd: decode_8b10b(encode_8b10b(0x55, -1)[0], rd),
    lambda rd: encode_bytes(b"U", rd),
    lambda rd: decode_bits(encode_bytes(b"U", -1)[0], rd),
]


@pytest.mark.parametrize("rd", [True, False, 1.0, -1.0, np.float64(1.0), 0, 2, np.int8(0), "1", None], ids=repr)
def test_running_disparity_rule_refuses(rd):
    for call in DISPARITY_CALLS:
        with pytest.raises(ValueError, match=f"^running disparity must be -1 or \\+1, got {re.escape(repr(rd))}$"):
            call(rd)


@pytest.mark.parametrize("rd", [np.int8(-1), np.int64(1), np.uint8(1)], ids=repr)
def test_running_disparity_rule_takes_a_numpy_int_as_the_python_int(rd):
    for call in DISPARITY_CALLS:
        got, expected = call(rd), call(int(rd))
        assert got == expected and type(got[1]) is int


@pytest.mark.parametrize("argv, option, message", [
    (["simulate", "--vr", "0", "--seed", "1"], "--vr", "value must be an int >= 1, got 0"),
    (["simulate", "--vr", "2.0", "--seed", "1"], "--vr", "value must be an int >= 1, got '2.0'"),
    (["simulate", "--seed", "-3"], "--seed", "value must be an int >= 0, got -3"),
    (["simulate", "--windows", "x", "--seed", "1"], "--windows", "value must be an int >= 1, got 'x'"),
    (["prob", "--n", "64", "--w", "10", "--trials", "1e3"], "--trials", "value must be an int >= 0, got '1e3'"),
    (["simulate", "--n", "2.5", "--seed", "1"], "--n", "value must be an int >= 1, got '2.5'"),
    (["simulate", "--n", "0", "--seed", "1"], "--n", "value must be an int >= 1, got 0"),
    (["scaling-length", "--vr-list", "2.0", "--seed", "1"], "--vr-list", "value must be an int >= 1, got '2.0'"),
    (["scaling-time", "--n-list", "13,-1", "--seed", "1"], "--n-list", "value must be an int >= 1, got -1"),
    (["distance", "--d-list", "1,x", "--seed", "1"], "--d-list", "value must be an int >= 1, got 'x'"),
    (["prob", "--n", "64", "--w-list", "4,0"], "--w-list", "value must be an int >= 1, got 0"),
], ids=["vr-0", "vr-2.0", "seed--3", "windows-x", "trials-1e3", "n-2.5", "n-0", "vr-list-2.0", "n-list--1",
        "d-list-x", "w-list-0"])
def test_cli_integer_options_follow_the_int_rule(capsys, argv, option, message):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument {option}: {message}\n")


@pytest.mark.parametrize("item", [1.0, np.float64(1.0)])
def test_bit_rule_stores_a_float_bit_as_an_int(item):
    assert KeyBits((item, 0)).bits == (1, 0) and type(KeyBits((item, 0)).bits[0]) is int
    assert type(Frame(payload=(item, 0)).payload[0]) is int
    assert type(Frame(payload=(0,), sof=(item,)).sof[0]) is int
    assert type(PatternSpec(kind="custom", bits=(item, 0)).bits[0]) is int


def bits_or_fault(items):
    """A test-local oracle of the bit rule: (the items as ints, None), or (None, the first item that is not
    hashable, equal to 0 or 1 and with an int); a 0-d numeric array is judged by its value."""
    ints = []
    for item in items:
        value = item.item() if isinstance(item, np.ndarray) and item.shape == () and item.dtype.kind in "biuf" else item
        try:
            hash(value)
            ints.append(int(value) if value == 0 or value == 1 else None)
        except TypeError:
            ints.append(None)
        if ints[-1] is None:
            return None, item
    return ints, None


@pytest.mark.parametrize("bits", [[0, 1, 1], (1, 0), [True, False], (np.int64(1), np.uint8(0)), []])
def test_bit_array_reads_int_bits_through_bytes(bits):
    # the codecs' uint8 bit array is the rule's bytes
    array = np.frombuffer(_check_bits(bits, "bit"), np.uint8)
    assert array.tolist() == [int(b) for b in bits]


@pytest.mark.parametrize("bits", [[0, 2], [1, -1], [1, 256], [1.0, 0], [0, "1"], [0, None], [[1]],
                                  np.array([0, 1]), iter([0, 1]), "01", b"\x00\x01", range(2),
                                  np.array([0, 2]), np.array([1.0, 0.5]), np.array([0, np.nan]), np.array([[0, 1]]),
                                  np.array(["0", "1"]), np.array([0, 1], dtype=object), iter([1, 2]), (1, 0.0),
                                  np.array([1, 256]), np.array([True, False]), (1, 1 + 0j), [np.float32(1), 0],
                                  np.array([1.0, 0.0], dtype=np.float32), [0, {}], [np.array(1), 2], [np.array(1)]])
def test_bit_array_leaves_everything_else_to_the_caller(bits):
    # the rule for every iterable, against its oracle: the items' bits, or a ValueError naming the first item
    # that is not a bit, for the caller to raise or catch (a 1-D array, an iterator, bytes and a range give bits too)
    items = list(bits)
    ints, fault = bits_or_fault(items)
    given = iter(items) if iter(bits) is bits else bits
    if ints is None:
        with pytest.raises(ValueError) as err:
            _check_bits(given, "bit")
        assert str(err.value) == f"bit must be 0 or 1, got {fault!r}"
    else:
        assert list(_check_bits(given, "bit")) == ints


def lfsr_period(seed, taps):
    state = seed
    for i in range(1, 1 << (max(taps) + 1)):
        _, state = lfsr_next(state, taps)
        if state == seed:
            return i
    raise AssertionError("no cycle found")


class TestLfsr:
    def test_numpy_taps_and_state_are_stored_as_ints(self):
        # 1 << np.uint8(16) wrapped, so the default state was refused as outside [1, 255]
        taps = (np.uint8(16), 14, np.int64(13), 11)
        spec = PatternSpec.lfsr(taps=taps, seed=np.uint16(0xACE1))
        assert repr(spec) == repr(PatternSpec.lfsr()) and spec == PatternSpec.lfsr()
        assert repr(lfsr_next(np.uint16(0xACE1), taps)) == repr(lfsr_next(0xACE1))

    def test_default_taps_are_maximal(self):
        assert lfsr_period(0xACE1, (16, 14, 13, 11)) == 65535
        assert lfsr_period(1, (16, 14, 13, 11)) == 65535

    def test_two_bit_register_period(self):
        assert lfsr_period(1, (2, 1)) == 3

    def test_balance_over_one_period(self):
        state = 0xACE1
        ones = 0
        for _ in range(65535):
            bit, state = lfsr_next(state)
            ones += bit
        assert ones == 1 << 15  # and 2^15 - 1 zeros

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            lfsr_next(0)
        with pytest.raises(ValueError):
            PatternSpec.lfsr(seed=0)

    def test_taps_must_not_be_empty(self):
        with pytest.raises(ValueError, match="^LFSR needs at least one tap$"):
            lfsr_next(1, ())
        with pytest.raises(ValueError, match="^LFSR needs at least one tap$"):
            PatternSpec.lfsr(taps=())

    def test_state_must_fit_register(self):
        with pytest.raises(ValueError):
            lfsr_next(1 << 16, (16, 14, 13, 11))

    @pytest.mark.parametrize(
        "seed, taps, match",
        [
            (1.5, (16, 14, 13, 11), "LFSR state must be an int"),
            (True, (2, 1), "LFSR state must be an int"),
            ("1", (2, 1), "LFSR state must be an int"),
            (1, (16.0, 14, 13, 11), r"^LFSR tap must be an int >= 1, got 16\.0$"),
            (1, (2, True), "^LFSR tap must be an int >= 1, got True$"),
            (1, (2, 2, 1), "taps must be distinct"),
        ],
    )
    def test_non_int_state_or_taps_rejected(self, seed, taps, match):
        with pytest.raises(ValueError, match=match):
            lfsr_next(seed, taps)
        with pytest.raises(ValueError, match=match):
            PatternSpec.lfsr(taps, seed)


def oracle_columns(spec, n):
    """stimulus_columns' three columns as lists, built from the oracle one window at a time."""
    rows = [stimulus_oracle(spec, i) for i in range(n)]
    return [list(column) for column in zip(*rows)] if rows else [[], [], []]


def columns(spec, n):
    duty, toggle, bits = stimulus_columns(spec, n)
    return [duty.tolist(), toggle.tolist(), bits]


class TestLfsrColumns:
    @pytest.mark.parametrize(
        "taps, seed",
        [
            ((1,), 1),
            ((2, 1), 3),
            ((3, 1), 5),
            ((5, 4, 3, 2, 1), 0b10110),
            ((5, 3), 0b10011),
            ((7, 6), 0x41),
            ((16, 14, 13, 11), 1),
            ((11, 13, 14, 16), 0xFFFF),
            ((32, 22, 2, 1), 0xDEADBEEF),
            ((70, 9), (1 << 69) | 0x12345),
        ],
        ids=str,
    )
    def test_taps_and_seeds_match_oracle(self, taps, seed):
        spec = PatternSpec.lfsr(taps, seed)
        assert columns(spec, 300) == oracle_columns(spec, 300)

    @pytest.mark.parametrize("n", [0, 1, 2, 10, 15, 16, 17, 27, 28])
    def test_runs_around_the_register_width_match_oracle(self, n):
        spec = PatternSpec.lfsr()
        assert columns(spec, n) == oracle_columns(spec, n)

    def test_zero_windows_are_empty_columns(self):
        duty, toggle, bits = stimulus_columns(PatternSpec.lfsr(), 0)
        assert duty.shape == toggle.shape == (0,) and duty.dtype == toggle.dtype == np.float64
        assert bits == []

    @pytest.mark.parametrize("num_windows", [2.5, True, 3.0, "3", None, -1], ids=repr)
    @pytest.mark.parametrize("spec", [PatternSpec.lfsr(), PatternSpec.alternating(), PatternSpec.dynamic4("1100")],
                             ids=["lfsr", "alternating", "dynamic4"])
    def test_num_windows_must_be_an_int_at_least_zero(self, spec, num_windows):
        with pytest.raises(ValueError, match=rf"^num_windows must be an int >= 0, got {re.escape(repr(num_windows))}$"):
            stimulus_columns(spec, num_windows)

    def test_numpy_int_num_windows_accepted(self):
        for num_windows in (np.int64(3), np.uint16(3)):
            assert columns(PatternSpec.lfsr(), num_windows) == columns(PatternSpec.lfsr(), 3)

    @pytest.mark.parametrize("taps, seed", [((16, 14, 13, 11), 0xACE1), ((3, 1), 6), ((9, 5), 0x1A5)], ids=str)
    def test_long_run_matches_the_one_step_register(self, taps, seed):
        state, expected = seed, []
        for _ in range(5000):
            bit, state = lfsr_next(state, taps)
            expected.append(bit)
        assert bits_of(PatternSpec.lfsr(taps, seed), 5000) == expected


class TestDynamic4:
    def test_duty_cycle_table(self):
        duties = [stimulus_columns(PatternSpec.dynamic4(c), 1)[0][0] for c in DYNAMIC4_CODES]
        assert duties == [0.0, 0.25, 0.5, 0.5, 0.75, 1.0]

    def test_toggle_rates(self):
        f = 1.0 / 8.0
        rates = [stimulus_columns(PatternSpec.dynamic4(c), 1)[1][0] for c in DYNAMIC4_CODES]
        assert rates == [0.0, f, f, 2 * f, f, 0.0]

    def test_toggle_rates_to_the_bit(self):
        # the rates once written out by hand, one per code: transitions around the loop over 16
        table = {"0000": 0.0, "1000": 1.0 / 8.0, "1100": 1.0 / 8.0, "1010": 1.0 / 4.0, "1110": 1.0 / 8.0, "1111": 0.0}
        for code in DYNAMIC4_CODES:
            toggle = stimulus_columns(PatternSpec.dynamic4(code), 3)[1]
            assert [float(t).hex() for t in toggle] == [table[code].hex()] * 3

    def test_code_1100(self):
        duty, toggle, bits = stimulus_columns(PatternSpec.dynamic4("1100"), 18)
        assert (duty == 0.5).all()
        assert (toggle == 1.0 / 8.0).all()
        assert bits == [None] * 18

    def test_code_1111_has_no_switching(self):
        duty, toggle, _ = stimulus_columns(PatternSpec.dynamic4("1111"), 1)
        assert (duty[0], toggle[0]) == (1.0, 0.0)

    def test_invalid_codes_rejected(self):
        for bad in ("0101", "1001", "111", "20"):
            with pytest.raises(ValueError):
                PatternSpec.dynamic4(bad)


def bits_of(spec, n):
    return stimulus_columns(spec, n)[2]


class TestStaticPatterns:
    def test_alternating_convention(self):
        spec = PatternSpec.alternating()
        assert bits_of(spec, 8)[7] == 1
        assert bits_of(spec, 6) == [0, 1, 0, 1, 0, 1]

    def test_long_runs_of_128(self):
        bits = bits_of(PatternSpec.long_runs(128), 256)
        assert bits[:128] == [0] * 128
        assert bits[128:] == [1] * 128

    def test_static_duty_equals_bit(self):
        for spec in (PatternSpec.alternating(), PatternSpec.long_runs(4), PatternSpec.lfsr()):
            duty, toggle, bits = stimulus_columns(spec, 40)
            assert duty.tolist() == [float(b) for b in bits]
            assert (toggle == 0.0).all()

    def test_custom_cycles(self):
        assert bits_of(PatternSpec.custom((1, 1, 0)), 7) == [1, 1, 0, 1, 1, 0, 1]

    def test_custom_validation(self):
        with pytest.raises(ValueError):
            PatternSpec.custom(())
        with pytest.raises(ValueError):
            PatternSpec.custom((0, 2))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="^unknown pattern kind 'sine'$"):
            PatternSpec(kind="sine")

    def test_keeps_tuples_of_the_callers_lists(self):
        bits, taps = [1, 0], [2, 1]
        custom = PatternSpec(kind="custom", bits=bits)
        lfsr = PatternSpec(kind="lfsr", taps=taps, lfsr_seed=1)
        bits.append(7)
        taps.append(5)
        assert custom.bits == (1, 0) and lfsr.taps == (2, 1)
        assert bits_of(custom, 4) == [1, 0, 1, 0]
        assert bits_of(lfsr, 6) == bits_of(PatternSpec.lfsr((2, 1), 1), 6)
        assert hash(custom) == hash(PatternSpec.custom((1, 0)))
        assert hash(lfsr) == hash(PatternSpec.lfsr((2, 1), 1))

    def test_run_len_validation(self):
        for bad in (0, 2.5, True, "2"):
            with pytest.raises(ValueError, match="run_len must be an int >= 1"):
                PatternSpec.long_runs(bad)


class TestPurity:
    @pytest.mark.parametrize(
        "spec",
        [
            PatternSpec.alternating(),
            PatternSpec.long_runs(3),
            PatternSpec.lfsr(),
            PatternSpec.dynamic4("1010"),
            PatternSpec.custom((1, 0, 0, 1)),
        ],
        ids=lambda s: s.kind,
    )
    def test_iterator_matches_indexing(self, spec):
        duty, toggle, bits = stimulus_columns(spec, 50)
        assert len(duty) == len(toggle) == len(bits) == 50
        assert duty.dtype == toggle.dtype == np.float64
        for i in range(50):
            assert (duty[i], toggle[i], bits[i]) == stimulus_oracle(spec, i)
            assert type(bits[i]) is type(stimulus_oracle(spec, i)[2])

    def test_repeated_indexing_is_stable(self):
        spec = PatternSpec.lfsr()
        first, again = stimulus_columns(spec, 11), stimulus_columns(spec, 11)
        assert first[0].tolist() == again[0].tolist() and first[2] == again[2]
        assert bits_of(spec, 11) == bits_of(spec, 30)[:11]

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            stimulus_columns(PatternSpec.alternating(), -1)


class TestParsePattern:
    def test_forms(self):
        assert parse_pattern("alternating").kind == "alternating"
        assert parse_pattern("longruns:64").run_len == 64
        assert parse_pattern("lfsr").lfsr_seed == 0xACE1
        assert parse_pattern("lfsr:0x1234").lfsr_seed == 0x1234
        assert parse_pattern("d2").code == "1100"
        assert parse_pattern("d5").code == "1111"
        assert parse_pattern("custom:0110").bits == (0, 1, 1, 0)

    def test_rejects_garbage(self):
        for bad in ("d9", "custom:", "custom:012", "nothing"):
            with pytest.raises(ValueError):
                parse_pattern(bad)
