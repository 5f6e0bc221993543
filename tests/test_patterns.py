import numpy as np
import pytest

from longwire.patterns import (
    DYNAMIC4_CODES,
    PatternSpec,
    lfsr_next,
    parse_pattern,
    stimulus_columns,
)
from conftest import stimulus_oracle


def lfsr_period(seed, taps):
    state = seed
    for i in range(1, 1 << (max(taps) + 1)):
        _, state = lfsr_next(state, taps)
        if state == seed:
            return i
    raise AssertionError("no cycle found")


class TestLfsr:
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

    def test_state_must_fit_register(self):
        with pytest.raises(ValueError):
            lfsr_next(1 << 16, (16, 14, 13, 11))

    @pytest.mark.parametrize(
        "seed, taps, match",
        [
            (1.5, (16, 14, 13, 11), "LFSR state must be an int"),
            (True, (2, 1), "LFSR state must be an int"),
            ("1", (2, 1), "LFSR state must be an int"),
            (1, (16.0, 14, 13, 11), "taps must be positive int bit positions"),
            (1, (2, True), "taps must be positive int bit positions"),
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
