import pytest

from longwire.patterns import (
    DYNAMIC4_CODES,
    PatternSpec,
    lfsr_next,
    parse_pattern,
    stimulus_columns,
    window_stimulus,
)


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


class TestDynamic4:
    def test_duty_cycle_table(self):
        duties = [window_stimulus(PatternSpec.dynamic4(c), 0).duty for c in DYNAMIC4_CODES]
        assert duties == [0.0, 0.25, 0.5, 0.5, 0.75, 1.0]

    def test_toggle_rates(self):
        f = 1.0 / 8.0
        rates = [window_stimulus(PatternSpec.dynamic4(c), 0).toggle_rate for c in DYNAMIC4_CODES]
        assert rates == [0.0, f, f, 2 * f, f, 0.0]

    def test_code_1100(self):
        stim = window_stimulus(PatternSpec.dynamic4("1100"), 17)
        assert stim.duty == 0.5
        assert stim.toggle_rate == 1.0 / 8.0
        assert stim.bit is None

    def test_code_1111_has_no_switching(self):
        stim = window_stimulus(PatternSpec.dynamic4("1111"), 0)
        assert (stim.duty, stim.toggle_rate) == (1.0, 0.0)

    def test_invalid_codes_rejected(self):
        for bad in ("0101", "1001", "111", "20"):
            with pytest.raises(ValueError):
                PatternSpec.dynamic4(bad)


class TestStaticPatterns:
    def test_alternating_convention(self):
        spec = PatternSpec.alternating()
        assert window_stimulus(spec, 7).bit == 1
        assert [window_stimulus(spec, i).bit for i in range(6)] == [0, 1, 0, 1, 0, 1]

    def test_long_runs_of_128(self):
        spec = PatternSpec.long_runs(128)
        bits = [window_stimulus(spec, i).bit for i in range(256)]
        assert bits[:128] == [0] * 128
        assert bits[128:] == [1] * 128

    def test_static_duty_equals_bit(self):
        for spec in (PatternSpec.alternating(), PatternSpec.long_runs(4), PatternSpec.lfsr()):
            for i in range(40):
                stim = window_stimulus(spec, i)
                assert stim.duty == float(stim.bit)
                assert stim.toggle_rate == 0.0

    def test_custom_cycles(self):
        spec = PatternSpec.custom((1, 1, 0))
        bits = [window_stimulus(spec, i).bit for i in range(7)]
        assert bits == [1, 1, 0, 1, 1, 0, 1]

    def test_custom_validation(self):
        with pytest.raises(ValueError):
            PatternSpec.custom(())
        with pytest.raises(ValueError):
            PatternSpec.custom((0, 2))

    def test_run_len_validation(self):
        with pytest.raises(ValueError):
            PatternSpec.long_runs(0)


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
        for i in range(50):
            stim = window_stimulus(spec, i)
            assert (duty[i], toggle[i], bits[i]) == (stim.duty, stim.toggle_rate, stim.bit)
            assert type(bits[i]) is type(stim.bit)

    def test_repeated_indexing_is_stable(self):
        spec = PatternSpec.lfsr()
        assert window_stimulus(spec, 10) == window_stimulus(spec, 10)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            window_stimulus(PatternSpec.alternating(), -1)


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
