import math
import random
import re
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longwire import DeviceProfile, Geometry, MeasurementConfig, exfil, expected_count, kernels
from longwire.config import load_setup
from longwire.errors import InconsistentMeasurements
from longwire.exfil import (
    ExfilChannel,
    KeyBits,
    RecoveryResult,
    RelationSet,
    eq2_lower_bound,
    exhaustive_success_fraction,
    infer_relations,
    measure_windows,
    measure_windows_noisy,
    monte_carlo_recovery_rate,
    multi_window_recover,
    noise_feasibility,
    noise_tolerance,
    noisy_outcome,
    parse_key,
    propagate,
    recovery_probability,
    recovery_probability_exact,
    recovery_to_rows,
    single_window_recover,
    window_hw_oracle,
)
from conftest import DOCS_DIR


def keyspace(n):
    return (KeyBits.from_int(v, n) for v in range(1 << n))


def class_constant(key: KeyBits, r: int, w: int) -> bool:
    return len({key.bits[p] for p in range(r, len(key), w)}) < 2


def brute_force_single_success(key: KeyBits, w: int) -> bool:
    """Independent oracle: full recovery iff every class is non-constant."""
    return all(not class_constant(key, r, w) for r in range(w))


class TestKeyBits:
    def test_round_trips(self):
        key = KeyBits.from_binary("1011011")
        assert KeyBits.from_int(key.to_int(), 7) == key
        assert len(key) == 7

    def test_hex_expansion_is_msb_first(self):
        assert KeyBits.from_hex("A5").bits == (1, 0, 1, 0, 0, 1, 0, 1)

    def test_parse_key_forms(self):
        assert parse_key("0xA5") == KeyBits.from_hex("A5")
        assert parse_key("0b101") == KeyBits.from_binary("101")
        assert parse_key("101") == KeyBits.from_binary("101")
        assert parse_key("f0") == KeyBits.from_hex("f0")
        assert parse_key("0X1F") == KeyBits.from_hex("1F")

    @pytest.mark.parametrize("text", ["0x0x1F", "0b0b101"])
    def test_parse_key_strips_one_prefix(self, text):
        with pytest.raises(ValueError):
            parse_key(text)

    def test_validation(self):
        with pytest.raises(ValueError):
            KeyBits(())
        with pytest.raises(ValueError):
            KeyBits((0, 2))
        with pytest.raises(ValueError):
            KeyBits(([1], 0))  # unhashable: still "not a bit", not a TypeError
        for n in (0, -3):
            with pytest.raises(ValueError):
                KeyBits.from_int(5, n)
        with pytest.raises(TypeError):
            KeyBits.from_int(1.5, 3)

    def test_keeps_a_tuple_of_the_callers_list(self):
        bits = [1, 0, 1, 1, 0]
        key = KeyBits(bits)
        bits.append(7)
        assert key.bits == (1, 0, 1, 1, 0)
        assert key.to_int() == 0b01101
        assert hash(key) == hash(KeyBits.from_binary("10110"))

    def test_float_bits_are_stored_as_ints(self):
        for bits in [(1.0, 0, 1, 1, 0), (np.float64(1.0), 0.0, 1, True, np.int64(0))]:
            key = KeyBits(bits)
            assert key == KeyBits.from_binary("10110") and key.to_int() == 0b01101
            assert all(type(b) is int for b in key.bits)
            assert single_window_recover(key, 2) == single_window_recover(KeyBits.from_binary("10110"), 2)
            assert multi_window_recover(key, 1).known == dict(enumerate((1, 0, 1, 1, 0)))

    def test_from_int_keeps_the_low_bits(self):
        assert KeyBits.from_int(0b1011, 3).bits == (1, 1, 0)
        assert KeyBits.from_int(-1, 4).bits == (1, 1, 1, 1)
        assert KeyBits.from_int(-6, 4).bits == (0, 1, 0, 1)  # two's complement of 6 is ...1010
        rng = random.Random(0)
        for n in (1, 7, 64, 65, 130, 264, 300):
            value = rng.getrandbits(n)
            key = KeyBits.from_int(value, n)
            assert key.bits == tuple((value >> i) & 1 for i in range(n))
            assert key.to_int() == value
            # negative and wider than n: the low n bits of the two's complement, as the checked constructor keeps them
            for value in (-rng.getrandbits(n) - 1, rng.getrandbits(2 * n + 70), -rng.getrandbits(2 * n + 70)):
                key = KeyBits.from_int(value, n)
                assert key == KeyBits(tuple((value >> i) & 1 for i in range(n)))
                assert type(key.bits) is tuple and all(type(b) is int for b in key.bits)
                assert key.to_int() == value % (1 << n)


class TestWindowOracle:
    def test_popcount_examples(self):
        assert window_hw_oracle(KeyBits.from_binary("1010"), 0, 3) == 2
        assert window_hw_oracle(KeyBits.from_binary("0" * 12), 4, 5) == 0
        assert window_hw_oracle(KeyBits.from_binary("1" * 64), 10, 10) == 10

    def test_out_of_range(self):
        key = KeyBits.from_binary("1010")
        with pytest.raises(ValueError, match=r"^window start must be an int in \[0, 1\], got 2$"):
            window_hw_oracle(key, 2, 3)
        with pytest.raises(ValueError, match=r"^window start must be an int in \[0, 2\], got -1$"):
            window_hw_oracle(key, -1, 2)
        measures = (lambda w: window_hw_oracle(key, 0, w), partial(measure_windows, key),
                    lambda w: measure_windows_noisy(key, w, QUIET))
        for w in (0, 5, True, 2.0, np.float64(2.0)):  # a width that is not an int, such as True, is refused
            for measure in measures:
                with pytest.raises(ValueError, match=rf"^window width must be an int in \[1, 4\], got {re.escape(repr(w))}$"):
                    measure(w)

    @pytest.mark.parametrize("pos", [1.5, True, 1.0, "1", np.float64(1.0)])
    def test_window_start_must_be_an_int(self, pos):
        # 1.5 used to raise TypeError from the slice, and True to read window 1
        key = KeyBits.from_binary("1010")
        with pytest.raises(ValueError, match=rf"^window start must be an int in \[0, 2\], got {re.escape(repr(pos))}$"):
            window_hw_oracle(key, pos, 2)
        assert window_hw_oracle(key, np.int64(1), 2) == 1

    def test_measure_windows_covers_all_positions(self):
        key = KeyBits.from_binary("110100")
        assert measure_windows(key, 2) == [2, 1, 1, 1, 0]
        for n in range(1, 9):
            for key in keyspace(n):
                for w in range(1, n + 1):
                    weights = measure_windows(key, w)
                    assert weights == [window_hw_oracle(key, pos, w) for pos in range(n - w + 1)]
                    assert all(type(hw) is int for hw in weights)


class TestInferRelations:
    """Results are RelationSet(equal, drop, rise, w), bit j of a mask standing for relation j."""

    def test_equal_within_tolerance(self):
        assert infer_relations([5, 5], 3, 0.4) == RelationSet(1, 0, 0, 3)

    def test_drop_means_first_one(self):
        assert infer_relations([6, 5], 3, 0.4) == RelationSet(0, 1, 0, 3)

    def test_rise_means_first_zero(self):
        assert infer_relations([5.0, 6.2], 3, 0.4) == RelationSet(0, 0, 1, 3)

    def test_difference_at_the_tolerance_is_equal(self):
        # relations 0-2 equal, 3 a rise, 4 a drop
        assert infer_relations([5.0, 6.0, 5.0, 5.0, 7.5, 6.0], 3, 1.0) == RelationSet(0b00111, 0b10000, 0b01000, 3)
        assert infer_relations([2.0, 2.0], 1, 0.0) == RelationSet(1, 0, 0, 1)

    def test_exact_oracle_key_1010(self):
        counts = measure_windows(KeyBits.from_binary("1010"), 2)
        assert infer_relations(counts, 2, 0.5) == RelationSet(0b11, 0, 0, 2)

    def test_one_measurement_gives_no_relations(self):
        assert infer_relations([5], 3, 0.4) == RelationSet(0, 0, 0, 3)

    def test_needs_a_measurement(self):
        with pytest.raises(ValueError):
            infer_relations([], 3, 0.4)

    @pytest.mark.parametrize("counts", [[[1.0, 2.0], [3.0, 9.0]], 5.0], ids=["two-dimensional", "scalar"])
    def test_counts_must_be_one_dimensional(self, counts):
        with pytest.raises(ValueError, match="one-dimensional"):
            infer_relations(counts, 1, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_count_named(self, bad):
        with pytest.raises(ValueError, match="count 1 is not finite"):
            infer_relations([5.0, bad, 5.0, bad], 1, 0.4)

    @pytest.mark.parametrize("tolerance", [-0.1, math.nan])
    def test_tolerance_must_be_a_non_negative_number(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            infer_relations([5.0, 5.0], 1, tolerance)

    @pytest.mark.parametrize("w", [0, -3, 1.5, 2.0, True, "2", None])
    def test_width_must_be_an_int_at_least_one(self, w):
        # such a width used to reach the RelationSet and fail only in propagate
        with pytest.raises(ValueError, match=rf"^window width must be an int >= 1, got {re.escape(repr(w))}$"):
            infer_relations([1.0, 2.0], w, 0.0)


class TestPropagate:
    def test_period_two_key_stays_unresolved(self):
        key = KeyBits.from_binary("1010")
        result = propagate(infer_relations(measure_windows(key, 2), 2, 0.5), 4)
        assert result.known == {}
        assert result.unresolved_classes == ((0, 2), (1, 3))

    def test_period_two_key_constant_under_any_even_window(self):
        key = KeyBits.from_binary("10" * 32)
        result = single_window_recover(key, 10)
        assert not result.complete
        assert len(result.unresolved_classes) == 10

    def test_key_1100_window_3(self):
        key = KeyBits.from_binary("1100")
        result = propagate(infer_relations(measure_windows(key, 3), 3, 0.5), 4)
        assert result.known == {0: 1, 3: 0}
        assert result.unresolved_classes == ((1,), (2,))

    def test_class_sizes_follow_the_remainder(self):
        result = single_window_recover(KeyBits.from_binary("1" * 11), 3)
        # 11 = 3*3 + 2: classes of sizes 4, 4, 3
        sizes = sorted(len(c) for c in result.unresolved_classes)
        assert sizes == [3, 4, 4]
        for cls in result.unresolved_classes:
            assert len({p % 3 for p in cls}) == 1

    def test_contradiction_raises(self):
        # relations 0 and 2 drops, 1 and 3 equal: K_0 = 1 = K_4 and K_2 = 0 = K_4
        with pytest.raises(InconsistentMeasurements):
            propagate(RelationSet(0b1010, 0b0101, 0, 2), 6)

    @pytest.mark.parametrize(
        "relations, match",
        [
            (RelationSet(0b111, 0b001, 0, 2), "partition"),
            (RelationSet(0b011, 0, 0, 2), "partition"),
            (RelationSet(0b1111, 0, 0, 2), "partition"),
            (RelationSet(0b111, 0b1000, 0, 2), "partition"),
            (RelationSet(0b1111, -0b1000, 0, 2), "partition"),  # the masks still sum to 0b111
            ([RelationSet(0b111, 0, 0, 2), RelationSet(0b1, 0, 0, 3)], "partition"),
            (RelationSet(0b11111, 0, 0, 0), "window width"),
            (RelationSet(0, 0, 0, 6), "window width"),
            (RelationSet(0, 0, 0, 2.0), "window width"),
            (RelationSet(0b1111, 0, 0, True), "window width"),  # partitions the relations of w = 1
            ([], "at least one"),
        ],
        ids=[
            "overlapping", "in-no-mask", "equal-bit-above", "drop-bit-above", "negative",
            "second-set", "w-zero", "w-above-n", "w-float", "w-bool", "no-sets",
        ],
    )
    def test_rejects_sets_that_do_not_fit_the_key(self, relations, match):
        with pytest.raises(ValueError, match=match):
            propagate(relations, 5)

    def test_partition_is_validated(self):
        with pytest.raises(ValueError):
            RecoveryResult(4, {0: 1}, ((1, 2),), 1, 1)


def sorted_partition_oracle(n_key, known, classes):
    """Every position once: the positions, sorted, are 0..n_key-1."""
    return sorted(list(known) + [p for cls in classes for p in cls]) == list(range(n_key))


# (n_key, known, unresolved_classes) that do not partition the key
NOT_PARTITIONS = {
    "duplicate-in-known-and-class": (4, {0: 1, 1: 0, 2: 1}, ((2, 3),)),
    "duplicate-in-two-classes": (4, {0: 1}, ((1, 2), (2, 3))),
    "duplicate-in-one-class": (3, {0: 1}, ((1, 1),)),
    "missing": (4, {0: 1, 1: 0}, ((3,),)),
    "missing-and-duplicate": (4, {0: 1, 1: 0}, ((1, 3),)),
    "out-of-range": (4, {0: 1, 1: 0, 2: 1}, ((4,),)),
    "negative": (4, {-1: 1, 1: 0, 2: 1, 3: 0}, ()),
    "fraction": (2, {0: 1, 0.5: 0}, ()),
    "too-many": (2, {0: 1, 1: 0, 2: 1}, ()),
    "empty-for-a-key": (3, {}, ()),
}


class TestRecoveryResultPartition:
    @pytest.mark.parametrize("n_key, known, classes", NOT_PARTITIONS.values(), ids=NOT_PARTITIONS.keys())
    def test_rejects_what_is_no_partition(self, n_key, known, classes):
        assert not sorted_partition_oracle(n_key, known, classes)
        with pytest.raises(ValueError, match="must partition the key"):
            RecoveryResult(n_key, known, classes, 1, 1)

    @pytest.mark.parametrize("known", [{0: 5, 1: "x"}, {0: 1, 1: 2}, {0: -1, 1: 0}, {0: 0.5, 1: 1}, {0: None, 1: 1},
                                       {0: [1], 1: 0}])
    def test_rejects_known_values_that_are_not_bits(self, known):
        with pytest.raises(ValueError) as err:
            RecoveryResult(2, known, (), 1, 1)
        first = next(v for v in known.values() if v not in (0, 1))
        assert str(err.value) == f"known value must be 0 or 1, got {first!r}"

    def test_known_values_are_stored_as_ints(self):
        result = RecoveryResult(3, {2: 1.0, 0: False}, ((1,),), 1, 1)
        assert result.known == {2: 1, 0: 0} and list(result.known) == [2, 0]
        assert all(type(v) is int for v in result.known.values())
        assert recovery_to_rows(result) == [(0, "0"), (1, "S0"), (2, "1")]

    def test_accepts_partitions_in_any_order(self):
        for n_key, known, classes in [(0, {}, ()), (1, {}, ((0,),)), (4, {3: 1, 0: 0}, ((2, 1),)),
                                      (5, {}, ((4, 0), (3,), (1, 2)))]:
            assert RecoveryResult(n_key, known, classes, 1, 1).n_key == n_key

    def test_agrees_with_sorted_check_on_perturbed_partitions(self):
        rng = random.Random(5)
        for _ in range(2000):
            n = rng.randint(1, 12)
            positions = list(range(n))
            rng.shuffle(positions)
            if rng.random() < 0.8:  # replace, drop, duplicate or add one position
                k = rng.randrange(n)
                edit = rng.choice(["replace", "drop", "duplicate", "add"])
                value = rng.randint(-2, n + 1)
                if edit == "replace":
                    positions[k] = value
                elif edit == "drop":
                    del positions[k]
                elif edit == "duplicate":
                    positions.append(positions[k])
                else:
                    positions.append(value)
            cut = rng.randint(0, len(positions))
            known_positions, rest = positions[:cut], positions[cut:]
            known = dict.fromkeys(known_positions, 1)
            classes = tuple(tuple(rest[i : i + 3]) for i in range(0, len(rest), 3))
            # the dict drops repeated known positions, so the oracle sees what the result holds
            expected = sorted_partition_oracle(n, known, classes)
            try:
                RecoveryResult(n, known, classes, 1, 1)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == expected, (n, known, classes)


def satisfying_keys(sets, n):
    """Independent oracle: every n-bit key meeting all relations, one row each."""
    keys = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    ok = np.ones(len(keys), dtype=bool)
    for equal, drop, rise, w in sets:
        for j in range(n - w):
            a, b = keys[:, j], keys[:, j + w]
            if equal >> j & 1:
                ok &= a == b
            elif drop >> j & 1:
                ok &= (a == 1) & (b == 0)
            else:
                ok &= (a == 0) & (b == 1)
    return keys[ok]


def random_relations(rng, n, w, p_equal=None):
    """Each relation j set in one mask: equal with chance p_equal, else a drop or a rise."""
    p_equal = rng.random() if p_equal is None else p_equal
    masks = [0, 0, 0]  # equal, drop, rise
    for j in range(n - w):
        masks[0 if rng.random() < p_equal else rng.choice((1, 2))] |= 1 << j
    return RelationSet(*masks, w)


class TestPropagateOracle:
    """propagate against brute force over arbitrary relations, contradictions included."""

    @pytest.mark.parametrize("widths", [1, 2])
    def test_matches_brute_force(self, widths):
        rng = random.Random(widths)
        seen = {"raised": 0, "complete": 0, "partial": 0}
        for _ in range(1500):
            n = rng.randint(widths, 9)
            w = rng.randint(1, n + 1 - widths)
            sets = [random_relations(rng, n, w + k) for k in range(widths)]
            sat = satisfying_keys(sets, n)
            if len(sat) == 0:
                with pytest.raises(InconsistentMeasurements):
                    propagate(sets, n)
                seen["raised"] += 1
                continue
            result = propagate(sets, n)
            constant = [p for p in range(n) if len(set(sat[:, p])) == 1]
            assert result.known == {p: int(sat[0, p]) for p in constant}
            groups: dict[tuple, list[int]] = {}
            for p in range(n):
                if p not in constant:
                    groups.setdefault(tuple(sat[:, p]), []).append(p)
            assert result.unresolved_classes == tuple(sorted(tuple(g) for g in groups.values()))
            assert result.consistent_key_count() == len(sat)
            assert result.runs_used == sum(r.w for r in sets)
            assert result.measurements_used == sum(n - r.w + 1 for r in sets)
            seen["partial" if groups else "complete"] += 1
        assert min(seen.values()) >= 50, seen

    def test_single_set_equals_one_element_sequence(self):
        rels = infer_relations(measure_windows(KeyBits.from_binary("1011001"), 3), 3, 0.5)
        assert propagate(rels, 7) == propagate([rels], 7)


def union_find_oracle(sets, n):
    """Independent oracle: union-find over the equality links, one relation at a time.

    Returns (pins, groups): the set of values each component is pinned to,
    and each component's positions, both keyed by the component's root.
    """
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    pinned = []
    for equal, drop, _, w in sets:
        for j in range(n - w):
            if equal >> j & 1:
                parent[find(j)] = find(j + w)
            else:
                first = drop >> j & 1
                pinned += [(j, first), (j + w, 1 - first)]
    pins: dict[int, set[int]] = {}
    for pos, value in pinned:
        pins.setdefault(find(pos), set()).add(value)
    groups: dict[int, list[int]] = {}
    for pos in range(n):
        groups.setdefault(find(pos), []).append(pos)
    return pins, groups


def true_relations(key, w):
    """The key's own relations at width w, one bit pair at a time."""
    masks = [0, 0, 0]  # equal, drop, rise
    for j in range(len(key) - w):
        masks[0 if key[j] == key[j + w] else 1 if key[j] else 2] |= 1 << j
    return RelationSet(*masks, w)


def check_union_find(sets, n) -> str:
    """propagate(sets, n) against union_find_oracle: "raised", "complete" or "partial"."""
    pins, groups = union_find_oracle(sets, n)
    if any(len(values) == 2 for values in pins.values()):
        with pytest.raises(InconsistentMeasurements) as err:
            propagate(sets, n)
        bit = int(str(err.value).split("bit ")[1].split()[0])
        both = [p for root, values in pins.items() if len(values) == 2 for p in groups[root]]
        assert bit == min(both)
        return "raised"
    result = propagate(sets, n)
    assert result.known == {p: next(iter(pins[root])) for root in pins for p in groups[root]}
    free = sorted(tuple(groups[root]) for root in groups if root not in pins)
    assert result.unresolved_classes == tuple(free)
    assert result.runs_used == sum(r.w for r in sets)
    assert result.measurements_used == sum(n - r.w + 1 for r in sets)
    assert RecoveryResult(**vars(result)) == result  # every field set, and a partition
    return "partial" if free else "complete"


class TestPropagateUnionFindOracle:
    """propagate against a union-find on keys too long to enumerate, multi-word masks included."""

    def test_matches_union_find(self):
        rng = random.Random(9)
        seen = {"raised": 0, "complete": 0, "partial": 0}
        for _ in range(3000):
            n = rng.randint(2, 130)
            widths = sorted(rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))
            if rng.random() < 0.4:  # a key's true relations: never contradictory, mostly complete
                key = [rng.randint(0, 1) for _ in range(n)]
                sets = [true_relations(key, w) for w in widths]
            else:  # equality-heavy sets leave unpinned components; inequality-heavy ones contradict
                sets = [random_relations(rng, n, w, rng.random() ** 0.2) for w in widths]
            seen[check_union_find(sets, n)] += 1
        assert min(seen.values()) >= 100, seen


def run_key(n, w, links, where):
    """An n-bit key whose residue classes mod w alternate but for one run of equal bits each.

    The run spans ``links`` equal links (fewer in a class too short for
    them) and sits at the class's start, middle or end, so the inequality
    links next to it pin its last bit, both end bits or its first bit.
    """
    key = [0] * n
    for r in range(w):
        size = len(range(r, n, w))
        length = min(links, size - 1)
        start = {"start": 0, "middle": (size - 1 - length) // 2, "end": size - 1 - length}[where]
        for i in range(size):
            past = start - i if i < start else max(0, i - start - length)
            key[r + i * w] = (r ^ past) & 1
    return key


def flip_link(rels, j):
    """rels with relation j, an inequality, turned the other way."""
    bit = 1 << j
    assert not rels.equal & bit
    return rels._replace(drop=rels.drop ^ bit, rise=rels.rise ^ bit)


class TestPropagateOneSweep:
    """A single width closes in one sweep each way: runs of equal links that need every doubling step."""

    @pytest.mark.parametrize("n", [64, 65, 127, 128, 130])
    @pytest.mark.parametrize("w", [1, 2, 3, 5])
    def test_runs_against_union_find(self, n, w, monkeypatch):
        links_seen, close = [], exfil._close

        def record(mask, links):
            links_seen.append(links)
            return close(mask, links)

        monkeypatch.setattr(exfil, "_close", record)
        seen = {"raised": 0, "complete": 0, "partial": 0}
        longest = len(range(0, n, w)) - 1
        for k in range(1, longest.bit_length() + 1):
            for links in (2**k - 1, 2**k):
                for where in ("start", "middle", "end"):
                    key = run_key(n, w, links, where)
                    rels = true_relations(key, w)
                    # a clash at either end of a run: the inequality just before or just after it turned round,
                    # for the lowest and the highest run
                    unequal = [j for j in range(n - w) if not rels.equal >> j & 1]
                    before = [j for j in unequal if rels.equal >> (j + w) & 1]
                    after = [j for j in unequal if j >= w and rels.equal >> (j - w) & 1]
                    for j in {*before[:1], *before[-1:], *after[:1], *after[-1:]}:
                        seen[check_union_find([flip_link(rels, j)], n)] += 1
                    seen[check_union_find([rels], n)] += 1
                    # closing from the first, middle or last bit of any component gives the whole component
                    _, groups = union_find_oracle([rels], n)
                    steps = links_seen[-1]
                    for group in groups.values():
                        whole = sum(1 << p for p in group)
                        for p in {group[0], group[len(group) // 2], group[-1]}:
                            assert close(1 << p, steps) == whole
        assert min(seen.values()), seen


class TestAgainstPublicPath:
    """The attacks against measure -> infer_relations -> propagate, the path a caller can compose."""

    def test_noise_free(self):
        rng = random.Random(10)
        cases = []
        for _ in range(1500):
            n = rng.randint(2, 130)
            key = KeyBits.from_int(rng.getrandbits(n), n)
            cases.append((key, rng.randint(1, (n + 1) // 2)))
        # the edges: n = 2w - 1, whose top class holds one bit; n = 2w + 1, the shortest two-width key;
        # w = 1; n = 1; word boundaries; each with random and constant keys (the one open two-width case)
        edges = [(2 * w - 1, w) for w in (1, 2, 5, 33, 64)] + [(2 * w + 1, w) for w in (1, 2, 5, 31, 32, 63)]
        edges += [(n, w) for n in (2, 7, 64, 65, 128) for w in (1, 2, 10, 32) if n >= 2 * w - 1] + [(1, 1)]
        for n, w in edges:
            keys = [KeyBits.from_int(value, n) for value in (0, (1 << n) - 1)]
            keys += [KeyBits.from_int(rng.getrandbits(n), n) for _ in range(4)]
            cases += [(key, w) for key in keys]
        for key, w in cases:
            n = len(key)
            public = propagate(infer_relations(measure_windows(key, w), w, 0.5), n)
            results = [single_window_recover(key, w)]
            assert results[0] == public  # dataclass equality: every field
            if n >= 2 * w + 1:
                sets = [infer_relations(measure_windows(key, width), width, 0.5) for width in (w, w + 1)]
                results.append(multi_window_recover(key, w))
                assert results[1] == propagate(sets, n)
            for result in results:
                assert RecoveryResult(**vars(result)) == result  # every field set, and a partition
        for w in (0, -1):
            with pytest.raises(ValueError):
                single_window_recover(KeyBits.from_binary("10110"), w)
            with pytest.raises(ValueError):
                multi_window_recover(KeyBits.from_binary("10110"), w)

    def test_noisy(self):
        rng = random.Random(11)
        seen = {"correct": 0, "wrong": 0, "inconsistent": 0, "unresolved": 0}
        for i in range(400):
            n = rng.choice([16, 33, 64, 100])
            key = KeyBits.from_int(rng.getrandbits(n), n)
            w = rng.randint(1, (n + 1) // 2)
            cfg = MeasurementConfig(log2_ticks=rng.randint(13, 23))
            chan = ExfilChannel(DeviceProfile(), cfg, Geometry(v_t=2, v_r=2, d=1), rng.randrange(2**31), (1, 4)[i % 2])
            counts = measure_windows_noisy(key, w, chan)
            try:
                public = propagate(infer_relations(counts, w, noise_tolerance(chan, w)), n)
            except InconsistentMeasurements:
                public = None
            outcome, result = noisy_outcome(key, w, chan)
            if public is None:
                expected = "inconsistent"
            elif not public.complete:
                expected = "unresolved"
            else:
                expected = "correct" if public.known == dict(enumerate(key.bits)) else "wrong"
            assert outcome == expected
            assert result == public
            seen[outcome] += 1
        assert all(seen.values()), seen  # every outcome, "wrong" the rarest


class TestSingleWindowRecover:
    def test_constant_keys_fail_entirely(self):
        for bit in "01":
            result = single_window_recover(KeyBits.from_binary(bit * 9), 4)
            assert result.known == {}
            assert len(result.unresolved_classes) == 4

    def test_full_recovery_when_every_class_varies(self):
        key = KeyBits.from_binary("1010100")
        assert brute_force_single_success(key, 3)
        result = single_window_recover(key, 3)
        assert result.complete
        assert result.known == {i: b for i, b in enumerate(key.bits)}

    def test_counts_run_and_measurement_accounting(self):
        result = single_window_recover(KeyBits.from_binary("10110110"), 3)
        assert result.runs_used == 3
        assert result.measurements_used == 6

    def test_exhaustive_8_3_fraction(self):
        hits = sum(single_window_recover(k, 3).complete for k in keyspace(8))
        assert Fraction(hits, 256) == Fraction(9, 32)

    def test_matches_brute_force_oracle_exhaustively(self):
        for n in range(1, 11):
            for w in range(1, (n + 1) // 2 + 1):
                if n < 2 * w - 1:
                    continue
                for key in keyspace(n):
                    result = single_window_recover(key, w)
                    assert result.complete == brute_force_single_success(key, w)
                    for pos, val in result.known.items():
                        assert val == key.bits[pos]
                    for cls in result.unresolved_classes:
                        assert len({key.bits[p] for p in cls}) == 1

    def test_precondition(self):
        with pytest.raises(ValueError):
            single_window_recover(KeyBits.from_binary("1100"), 3)  # N < 2w - 1

    def test_degenerate_single_measurement(self):
        # N = w = 1 is the only length admitted with a single window
        result = single_window_recover(KeyBits.from_binary("1"), 1)
        assert not result.complete

    def test_failed_recovery_leaves_at_most_2_to_w_candidates(self):
        for n in (8, 9, 10):
            for w in (3, 4):
                for key in keyspace(n):
                    result = single_window_recover(key, w)
                    if not result.complete:
                        assert result.consistent_key_count() <= 2 ** w


class TestMultiWindowRecover:
    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            multi_window_recover(KeyBits.from_binary("1010"), 2)

    def test_period_two_ambiguity_resolved_by_second_width(self):
        key = KeyBits.from_binary("10101010")
        assert not single_window_recover(key, 2).complete
        result = multi_window_recover(key, 2)
        assert result.complete
        assert result.known == {i: b for i, b in enumerate(key.bits)}

    def test_cross_class_linking(self):
        # w pass pins class r=0 but leaves r=1 constant; the w+1 pass has
        # only constant classes, yet equality links resolve everything
        key = KeyBits.from_binary("00100")
        result = multi_window_recover(key, 2)
        assert result.complete

    def test_exhaustive_9_3_fails_only_constant_keys(self):
        failures = [k.to_int() for k in keyspace(9) if not multi_window_recover(k, 3).complete]
        assert failures == [0, 511]

    def test_accounting(self):
        result = multi_window_recover(KeyBits.from_binary("1" * 21), 10)
        assert result.runs_used == 21
        assert result.measurements_used == 23

    def test_soundness_exhaustive_small(self):
        for n in range(3, 10):
            for w in range(1, (n - 1) // 2 + 1):
                for key in keyspace(n):
                    result = multi_window_recover(key, w)
                    for pos, val in result.known.items():
                        assert val == key.bits[pos]



class TestSchedule:
    """Run and measurement totals of the two-width schedule (widths w and w+1
    take 2w+1 runs and 2n - 2w + 1 measurements), read off the recovery."""

    def test_64_10(self):
        result = multi_window_recover(KeyBits.from_int(0x0123456789ABCDEF, 64), 10)
        assert result.runs_used == 21
        assert result.measurements_used == 109

    def test_21_10(self):
        result = multi_window_recover(KeyBits.from_binary("110100111010001011001"), 10)
        assert result.runs_used == 21
        assert result.measurements_used == 23

class TestRecoveryProbability:
    def test_paper_values(self):
        assert recovery_probability(64, 10) == pytest.approx(0.7761, abs=5e-4)
        assert recovery_probability(264, 30) == pytest.approx(0.8685, abs=5e-4)

    def test_exact_8_3(self):
        assert recovery_probability_exact(8, 3) == Fraction(9, 32)
        assert recovery_probability(8, 3) == 9 / 32

    def test_reduces_to_divisible_form(self):
        # m = 0: (1 - 2^(1-n))^w
        assert recovery_probability(40, 10) == pytest.approx((1 - 2.0 ** -3) ** 10)

    def test_minimum_length_recovers_never(self):
        assert recovery_probability(9, 5) == 0.0

    def test_lower_bound_holds_for_divisible_lengths(self):
        for n, w in [(40, 10), (64, 8), (264, 24)]:
            assert eq2_lower_bound(n, w) <= recovery_probability(n, w)
        assert eq2_lower_bound(64, 8) == pytest.approx(1 - 8 * 2.0 ** (1 - 8))

    def test_lower_bound_needs_divisibility(self):
        with pytest.raises(ValueError):
            eq2_lower_bound(64, 10)

    def test_precondition(self):
        with pytest.raises(ValueError):
            recovery_probability(8, 5)
        with pytest.raises(ValueError):
            recovery_probability(8, 0)

    def test_float_is_the_exact_value_rounded(self):
        for n in range(1, 300, 3):
            for w in range(1, (n + 1) // 2 + 1):
                assert recovery_probability(n, w) == float(recovery_probability_exact(n, w)), (n, w)

    def test_exhaustive_equivalence_smallish(self):
        for n in range(1, 13):
            for w in range(1, (n + 1) // 2 + 1):
                if n < 2 * w - 1:
                    continue
                assert exhaustive_success_fraction(n, w) == recovery_probability_exact(n, w)


class TestMonteCarlo:
    def test_within_binomial_band_of_analytic_value(self):
        p = recovery_probability(64, 10)
        band = 3 * (p * (1 - p) / 10_000) ** 0.5
        for seed in range(3):
            rate = monte_carlo_recovery_rate(64, 10, 10_000, seed)
            assert abs(rate - p) <= band

    def test_deterministic_per_seed(self):
        a = monte_carlo_recovery_rate(64, 10, 2000, 7)
        assert a == monte_carlo_recovery_rate(64, 10, 2000, 7)

    def test_degenerate_window_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo_recovery_rate(16, 16, 10, 0)
        with pytest.raises(ValueError):
            monte_carlo_recovery_rate(16, 4, 0, 0)
        chan = ExfilChannel(DeviceProfile(), MeasurementConfig(), Geometry(), 0)
        for trials in (0, -1):
            with pytest.raises(ValueError, match=rf"^trials must be an int >= 1, got {trials}$"):
                monte_carlo_recovery_rate(16, 4, trials, 0, noise=chan)

    def test_wide_keys_use_python_path(self):
        rate = monte_carlo_recovery_rate(80, 8, 200, 3)
        p = recovery_probability(80, 8)
        assert abs(rate - p) <= 4 * (p * (1 - p) / 200) ** 0.5

    # (100, 30) recovers about one key in 1,200; (65, 33) none, as its class 32 holds one bit
    @pytest.mark.parametrize("n, w, trials", [(264, 40, 300), (100, 30, 4000), (80, 8, 300), (65, 33, 300)])
    def test_wide_keys_match_a_per_trial_class_check(self, n, w, trials):
        seed = 11
        hits = 0
        for t in range(trials):
            # the wide stream: word k of trial t's key is trial_key(trial_key(seed, t, 64), k, 64)
            base = kernels.trial_key(seed, t, 64)
            value = sum(kernels.trial_key(base, k, 64) << (64 * k) for k in range((n + 63) // 64))
            hits += all(len({(value >> p) & 1 for p in range(r, n, w)}) == 2 for r in range(w))
        assert monte_carlo_recovery_rate(n, w, trials, seed) == hits / trials


def width_table():
    """(n, w) at and around both width limits, with a long key at each w; only n >= 1."""
    pairs = [(n, w) for w in (-1, 0, 1, 3) for n in (2 * w - 2, 2 * w - 1, 2 * w, 2 * w + 1, 70)]
    return [(n, w) for n, w in pairs if n >= 1]


def value_error(call):
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


def table_key(n):
    return KeyBits.from_int(random.Random(n).getrandbits(n), n)


QUIET = ExfilChannel(
    DeviceProfile(noise_sigma=0.0, drift_rate=0.0, drift_bound=0.0), MeasurementConfig(log2_ticks=21), Geometry(), seed=3
)
WIDTH_ENTRIES = {
    "single": (False, 70, lambda n, w: single_window_recover(table_key(n), w)),
    "single-noisy": (False, 70, lambda n, w: single_window_recover(table_key(n), w, noise=QUIET)),
    "multi": (True, 70, lambda n, w: multi_window_recover(table_key(n), w)),
    "probability": (False, 70, recovery_probability_exact),
    "monte-carlo": (False, 70, lambda n, w: monte_carlo_recovery_rate(n, w, 8, 1)),
    "mc_single": (False, 28, lambda n, w: kernels.mc_single(n, w, 8, 1)),
    "sweep_single": (False, 28, kernels.sweep_single),
    "sweep_multi": (True, 28, kernels.sweep_multi),
}


class TestOneWidthRule:
    """Every entry point accepts and rejects exactly the (n, w) kernels._check_window does, with its message."""

    @pytest.mark.parametrize("name", WIDTH_ENTRIES)
    def test_entry_points_follow_check_window(self, name):
        multi, max_n, call = WIDTH_ENTRIES[name]
        table = [(n, w) for n, w in width_table() if n <= max_n]
        expected = [value_error(lambda: kernels._check_window(n, w, multi)) for n, w in table]
        # both limits and the accepted pairs are in the table; the width limit's message names each width below 1
        # there, and w = -1 comes only with n = 70
        assert None in expected and len(set(expected)) == (4 if max_n >= 70 else 3)
        assert [value_error(lambda: call(n, w)) for n, w in table] == expected

    @pytest.mark.parametrize("name", WIDTH_ENTRIES)
    @pytest.mark.parametrize("w, shown", [(True, "True"), (4.0, "4.0")], ids=["bool", "float"])
    def test_width_must_be_an_int(self, name, w, shown):
        with pytest.raises(ValueError, match=rf"^window width must be an int >= 1, got {shown}$"):
            WIDTH_ENTRIES[name][2](16, w)

    # the entry points that take a key length; the others take a key, whose length is an int
    @pytest.mark.parametrize("name", ["probability", "monte-carlo", "mc_single", "sweep_single", "sweep_multi"])
    @pytest.mark.parametrize("n, shown", [(True, "True"), (16.0, "16.0")], ids=["bool", "float"])
    def test_key_length_must_be_an_int(self, name, n, shown):
        with pytest.raises(ValueError, match=rf"^key length must be an int >= 1, got {shown}$"):
            WIDTH_ENTRIES[name][2](n, 1)

    @pytest.mark.parametrize("n, shown", [(True, "True"), (4.0, "4.0")], ids=["bool", "float"])
    def test_from_int_length_must_be_an_int(self, n, shown):
        with pytest.raises(ValueError, match=rf"^key length must be an int >= 1, got {shown}$"):
            KeyBits.from_int(5, n)

    @pytest.mark.parametrize("call", [
        lambda trials: monte_carlo_recovery_rate(16, 4, trials, 0),
        lambda trials: monte_carlo_recovery_rate(16, 4, trials, 0, noise=QUIET),
        lambda trials: kernels.mc_single(16, 4, trials, 0),
        lambda trials: kernels.mc_widths(16, [3, 4], trials, 0),
    ], ids=["monte-carlo", "monte-carlo-noisy", "mc_single", "mc_widths"])
    @pytest.mark.parametrize("trials, shown", [(True, "True"), (2.0, "2.0")], ids=["bool", "float"])
    def test_trials_must_be_an_int(self, call, trials, shown):
        with pytest.raises(ValueError, match=rf"^trials must be an int >= 1, got {shown}$"):
            call(trials)


class TestNoisyRecovery:
    # at 2^21 ticks the full-swing shift is 1024 counts, so a one-bit
    # change in window weight moves the count by 1024/w: far above the
    # +-1 quantization and a small Gaussian sigma
    def channel(self, seed=5, repeats=1, sigma=0.5):
        profile = DeviceProfile(noise_sigma=sigma, drift_rate=0.0, drift_bound=0.0)
        cfg = MeasurementConfig(log2_ticks=21)
        geom = Geometry(v_t=2, v_r=2, d=1)
        return ExfilChannel(profile, cfg, geom, seed=seed, repeats=repeats)

    def test_high_snr_matches_exact_oracle(self):
        key = KeyBits.from_binary("1011001010010")
        exact = single_window_recover(key, 4)
        noisy = single_window_recover(key, 4, noise=self.channel())
        assert noisy.known == exact.known
        assert noisy.unresolved_classes == exact.unresolved_classes

    def test_counts_step_with_hamming_weight(self):
        chan = self.channel(sigma=0.0)
        counts = measure_windows_noisy(KeyBits.from_binary("0110"), 2, chan)
        # HW of windows: 1, 2, 1 -> middle count one half-swing higher
        assert counts[1] - counts[0] == pytest.approx(512.0, abs=5.0)

    def test_feasibility_report(self):
        feas = noise_feasibility(self.channel(repeats=4, sigma=0.8), 4)
        assert feas["count_step"] == pytest.approx(256.0)
        assert feas["noise_sigma"] == pytest.approx(6.4)  # 0.8 * sqrt(2^8) / 2
        assert feas["step_over_sigma"] == pytest.approx(40.0)

    @pytest.mark.parametrize("coupling", ["long", "local"])
    @pytest.mark.parametrize("log2_ticks, base_rate", [(13, 3.0), (21, 3.0), (19, 2.7182818)])
    def test_tolerance_is_half_the_expected_count_step(self, coupling, log2_ticks, base_rate):
        """To the bit, on every shipped profile too: noise_tolerance, which the noisy attack calls,
        works the step out without calling expected_count."""
        shipped = [load_setup(path, MeasurementConfig())[0] for path in sorted((DOCS_DIR / "profiles").glob("*.profile"))]
        cfg = MeasurementConfig(log2_ticks=log2_ticks)
        for profile in (DeviceProfile(base_rate=base_rate), *shipped):
            for geom in (Geometry(v_t="1/3", v_r=3, d=2, coupling=coupling), Geometry(coupling=coupling)):
                chan = ExfilChannel(profile, cfg, geom, seed=0)
                swing = expected_count(profile, cfg, geom, 1.0) - expected_count(profile, cfg, geom, 0.0)
                for w in (1, 3, 7, 10, 32):
                    assert noise_tolerance(chan, w).hex() == (swing / (2.0 * w)).hex()
                assert noise_feasibility(chan, 7)["count_step"].hex() == (swing / 7).hex()

    @pytest.mark.parametrize("w", [0, -1, 2.5, 2.0, True])
    @pytest.mark.parametrize("call", [noise_tolerance, noise_feasibility])
    def test_width_must_be_an_int_of_at_least_one(self, call, w):
        with pytest.raises(ValueError, match=rf"^window width must be an int >= 1, got {w!r}$"):
            call(self.channel(), w)

    def test_repeats_validated(self):
        with pytest.raises(ValueError):
            self.channel(repeats=0)
        # rejected when the channel is built, not at the first measurement
        for field, value in [("repeats", True), ("repeats", 1.0), ("repeats", 2.0), ("repeats", "2"),
                             ("seed", -1), ("seed", 1.0), ("seed", "3"), ("seed", True)]:
            with pytest.raises(ValueError, match=field):
                self.channel(**{field: value})

    def test_numpy_int_seed_and_repeats_measure_like_ints(self):
        key = KeyBits.from_binary("1011001010010")
        chan = self.channel(seed=np.uint64(7), repeats=np.int64(3))
        assert measure_windows_noisy(key, 4, chan) == measure_windows_noisy(key, 4, self.channel(seed=7, repeats=3))


class TestNoisyMonteCarlo:
    """Noisy trials are scored against the true key and never raise."""

    def outcomes(self, n, w, trials, seed, chan):
        counts = {"correct": 0, "wrong": 0, "inconsistent": 0, "unresolved": 0}
        for t in range(trials):
            key = KeyBits.from_int(kernels.trial_key(seed, t, n), n)
            trial_chan = ExfilChannel(chan.profile, chan.cfg, chan.geom, chan.seed + t, chan.repeats)
            try:
                result = single_window_recover(key, w, trial_chan)
            except InconsistentMeasurements:
                counts["inconsistent"] += 1
                continue
            if not result.complete:
                counts["unresolved"] += 1
            elif all(result.known[p] == b for p, b in enumerate(key.bits)):
                counts["correct"] += 1
            else:
                counts["wrong"] += 1
        return counts

    @pytest.mark.parametrize("log2_ticks", [17, 21])
    def test_inconsistent_trials_are_misses(self, log2_ticks):
        chan = ExfilChannel(DeviceProfile(), MeasurementConfig(log2_ticks=log2_ticks), Geometry(v_t=2, v_r=2, d=1), 3)
        counts = self.outcomes(64, 10, 50, 1, chan)
        assert counts["inconsistent"] > 0  # these settings used to raise
        assert monte_carlo_recovery_rate(64, 10, 50, 1, noise=chan) == counts["correct"] / 50

    def test_complete_but_wrong_keys_are_misses(self):
        chan = ExfilChannel(DeviceProfile(), MeasurementConfig(log2_ticks=21), Geometry(v_t=5, v_r=5, d=1), 3)
        counts = self.outcomes(64, 10, 200, 1, chan)
        assert counts["wrong"] > 0  # these settings used to count wrong keys as hits
        assert monte_carlo_recovery_rate(64, 10, 200, 1, noise=chan) == counts["correct"] / 200


    def test_wide_keys_score_each_trial(self):
        chan = ExfilChannel(DeviceProfile(), MeasurementConfig(log2_ticks=20), Geometry(v_t=2, v_r=2, d=1), 3)
        n, w, trials, seed = 80, 8, 40, 1
        seen = {"correct": 0, "wrong": 0, "inconsistent": 0, "unresolved": 0}
        for t in range(trials):
            # the wide stream: word k of trial t's key is trial_key(trial_key(seed, t, 64), k, 64)
            base = kernels.trial_key(seed, t, 64)
            value = sum(kernels.trial_key(base, k, 64) << (64 * k) for k in range(2)) & ((1 << n) - 1)
            trial_chan = ExfilChannel(chan.profile, chan.cfg, chan.geom, chan.seed + t, chan.repeats)
            seen[noisy_outcome(KeyBits.from_int(value, n), w, trial_chan)[0]] += 1
        assert 0 < seen["correct"] < trials and seen["wrong"] > 0  # the score, not the completeness, decides
        assert monte_carlo_recovery_rate(n, w, trials, seed, noise=chan) == seen["correct"] / trials


class TestBatchedNoisyMonteCarlo:
    """Noisy trials counted a chunk per engine call score as the per-trial attack does, at every chunk size."""

    @staticmethod
    def per_trial_rate(n, w, trials, seed, chan):
        hits = 0
        for t in range(trials):
            key = KeyBits.from_int(kernels.trial_key(seed, t, n), n)
            trial_chan = ExfilChannel(chan.profile, chan.cfg, chan.geom, chan.seed + t, chan.repeats)
            hits += noisy_outcome(key, w, trial_chan)[0] == "correct"
        return hits / trials

    @pytest.mark.parametrize("chunk", [1, 7, 16, 256])
    @pytest.mark.parametrize("log2_ticks, repeats, profile", [
        (21, 1, DeviceProfile()), (21, 4, DeviceProfile()), (23, 4, DeviceProfile(drift_rate=1e-6, drift_bound=2e-6)),
    ], ids=["r1", "r4", "r4-clipping"])
    def test_rate_is_the_per_trial_rate(self, monkeypatch, chunk, log2_ticks, repeats, profile):
        chan = ExfilChannel(profile, MeasurementConfig(log2_ticks=log2_ticks), Geometry(), 3, repeats)
        expected = self.per_trial_rate(64, 10, 40, 1, chan)
        monkeypatch.setattr(exfil, "_NOISY_CHUNK", chunk)
        assert monte_carlo_recovery_rate(64, 10, 40, 1, noise=chan) == expected
        assert 0 < expected < 1

    def test_chunk_counts_equal_the_one_key_counts(self):
        """Key r of a chunk is measured as measure_windows_noisy measures it alone with seed noise.seed + r."""
        chan = ExfilChannel(DeviceProfile(), MeasurementConfig(log2_ticks=15), Geometry(), 11, 4)
        recorded, engine = [], exfil._count_engine

        def record(*args):
            recorded.append(engine(*args))
            return recorded[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exfil, "_count_engine", record)
            monte_carlo_recovery_rate(64, 10, 9, 5, noise=chan)
        (counts,) = recorded
        for r in range(9):
            key = KeyBits.from_int(kernels.trial_key(5, r, 64), 64)
            one = measure_windows_noisy(key, 10, ExfilChannel(chan.profile, chan.cfg, chan.geom, 11 + r, 4))
            assert (counts[r].reshape(-1, 4).sum(axis=1) / 4).tolist() == one


class TestKeyItems:
    """A key given as a plain sequence is judged by the KeyBits bit rule, not converted item by item."""

    @pytest.mark.parametrize("key", [[1.5, 0, 1, 0.7], "10110", ["1", "0", "1", "1"], [0, 2, 1, 1], [1, None, 0, 1]])
    @pytest.mark.parametrize("attack", [
        lambda key: single_window_recover(key, 1),
        lambda key: multi_window_recover(key, 1),
        lambda key: measure_windows(key, 1),
        lambda key: window_hw_oracle(key, 0, 1),
    ])
    def test_non_bits_are_rejected(self, key, attack):
        with pytest.raises(ValueError) as err:
            attack(key)
        first = next(b for b in key if b not in (0, 1))
        assert str(err.value) == f"key bit must be 0 or 1, got {first!r}"

    @pytest.mark.parametrize("key", [[1.0, 0, 1, 0], (1, 0.0, True, 0), np.array([1, 0, 1, 0]), iter([1, 0, 1, 0])])
    def test_bit_items_are_the_key(self, key):
        assert single_window_recover(key, 1).known == {0: 1, 1: 0, 2: 1, 3: 0}


class TestPropertyBased:
    @given(st.integers(10, 40).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, 2 ** n - 1),
            st.integers(1, (n - 1) // 2),
        )
    ))
    @settings(max_examples=150, deadline=None)
    def test_soundness_random(self, case):
        n, value, w = case
        key = KeyBits.from_int(value, n)
        for result in (single_window_recover(key, w), multi_window_recover(key, w)):
            for pos, val in result.known.items():
                assert val == key.bits[pos]

    @given(st.integers(5, 30).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, max(1, (n - 1) // 2)))
    ))
    @settings(max_examples=50, deadline=None)
    def test_multi_fails_only_constant_keys(self, case):
        n, w = case
        assert multi_window_recover(KeyBits.from_binary("0" * n), w).complete is False
        assert multi_window_recover(KeyBits.from_binary("1" * n), w).complete is False
        # one guaranteed non-constant key
        key = KeyBits.from_binary("1" + "0" * (n - 1))
        assert multi_window_recover(key, w).complete


class TestResultRows:
    def test_rows_cover_positions_in_order(self):
        result = single_window_recover(KeyBits.from_binary("111111111"), 4)
        rows = recovery_to_rows(result)
        assert [p for p, _ in rows] == list(range(9))
        assert {v for _, v in rows} == {"S0", "S1", "S2", "S3"}

    def test_known_bits_render_as_digits(self):
        result = multi_window_recover(KeyBits.from_binary("10101"), 2)
        rows = recovery_to_rows(result)
        assert [v for _, v in rows] == ["1", "0", "1", "0", "1"]
