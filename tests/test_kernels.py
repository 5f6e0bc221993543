"""Kernel correctness against test-local oracles.

The oracles here are independent of the library: success of the single
pass is "every residue class mod w contains two distinct bits", the
two-width pass is checked against a from-scratch union-find over the
equality structure of the true key, and the trial keys against a scalar
splitmix64 written out below.
"""

import random
import re
import shlex
import warnings

import numpy as np
import pytest

from longwire import kernels
from longwire.cli import REPRODUCE_RUNS, build_parser
from longwire.exfil import KeyBits, monte_carlo_recovery_rate, multi_window_recover, single_window_recover

M64 = (1 << 64) - 1


def valid_single(n):
    return [w for w in range(1, n + 1) if n >= 2 * w - 1]


def valid_multi(n):
    return [w for w in range(1, n + 1) if n >= 2 * w + 1]


def oracle_single_known(key, n, w):
    known = 0
    for r in range(w):
        positions = list(range(r, n, w))
        values = {(key >> p) & 1 for p in positions}
        if len(values) == 2:
            for p in positions:
                known |= 1 << p
    return known


def oracle_multi_known(key, n, w):
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    pinned = set()
    for width in (w, w + 1):
        for j in range(n - width):
            if ((key >> j) & 1) == ((key >> (j + width)) & 1):
                parent[find(j)] = find(j + width)
            else:
                pinned.update((j, j + width))
    pinned_roots = {find(p) for p in pinned}
    known = 0
    for p in range(n):
        if find(p) in pinned_roots:
            known |= 1 << p
    return known


def splitmix64(seed, trial):
    z = (seed + (trial + 1) * 0x9E3779B97F4A7C15) & M64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & M64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def wide_key(seed, trial, n):
    base = splitmix64(seed, trial)
    key = 0
    for k in range((n + 63) // 64):
        key |= splitmix64(base, k) << (64 * k)
    return key & ((1 << n) - 1)


def known_mask(result):
    return sum(1 << p for p in result.known)


def full_single_hits(keys, n, w):
    return sum(oracle_single_known(key, n, w) == (1 << n) - 1 for key in keys)


class TestAgainstOracle:
    def test_single_window_known_exhaustive(self):
        for n in range(1, 11):
            for w in valid_single(n):
                for key in range(1 << n):
                    result = single_window_recover(KeyBits.from_int(key, n), w)
                    assert known_mask(result) == oracle_single_known(key, n, w)
                    assert all(v == (key >> p) & 1 for p, v in result.known.items())

    def test_multi_window_known_exhaustive(self):
        for n in range(3, 11):
            for w in valid_multi(n):
                for key in range(1 << n):
                    result = multi_window_recover(KeyBits.from_int(key, n), w)
                    assert known_mask(result) == oracle_multi_known(key, n, w)
                    assert all(v == (key >> p) & 1 for p, v in result.known.items())

    def test_sweeps_match_per_key_counts(self):
        for n in range(1, 11):
            for w in valid_single(n):
                assert kernels.sweep_single(n, w) == full_single_hits(range(1 << n), n, w)
        for n in range(3, 11):
            for w in valid_multi(n):
                expected = sum(oracle_multi_known(key, n, w) == (1 << n) - 1 for key in range(1 << n))
                assert kernels.sweep_multi(n, w) == expected

    @pytest.mark.parametrize("n,w", [(80, 8), (264, 40)])
    def test_wide_monte_carlo_matches_oracle(self, n, w):
        trials, seed = 200, 3
        keys = [wide_key(seed, t, n) for t in range(trials)]
        assert monte_carlo_recovery_rate(n, w, trials, seed) == full_single_hits(keys, n, w) / trials

    def test_preconditions(self):
        with pytest.raises(ValueError):
            kernels.sweep_single(4, 3)  # n < 2w - 1
        with pytest.raises(ValueError):
            kernels.mc_single(4, 3, 10, 0)  # n < 2w - 1
        with pytest.raises(ValueError):
            kernels.sweep_multi(4, 2)  # n < 2w + 1
        with pytest.raises(ValueError):
            kernels.trial_key(0, 0, 65)
        with pytest.raises(ValueError):
            kernels.trial_key(0, 0, 0)
        with pytest.raises(ValueError):
            kernels.sweep_single(8, 0)
        with pytest.raises(ValueError):
            kernels.sweep_single(29, 3)  # beyond the exhaustive limit
        with pytest.raises(ValueError):
            kernels.sweep_multi(29, 3)
        with pytest.raises(ValueError):
            kernels.mc_single(8, 3, 0, 1)


SEEDS = [0, 2**64 - 5, -1]
LENGTHS = [1, 16, 63, 64]


class TestTrialKeys:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", LENGTHS)
    def test_trial_key_matches_splitmix64(self, seed, n):
        for t in range(100):
            assert kernels.trial_key(seed, t, n) == splitmix64(seed, t) & ((1 << n) - 1)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", LENGTHS)
    def test_mc_single_matches_oracle(self, seed, n):
        trials = 300
        keys = [splitmix64(seed, t) & ((1 << n) - 1) for t in range(trials)]
        for w in sorted({1, min(3, (n + 1) // 2), (n + 1) // 2}):
            assert kernels.mc_single(n, w, trials, seed) == full_single_hits(keys, n, w)

    def test_uint64_wraparound_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert kernels.trial_key(2**64 - 1, 3, 64) == kernels.trial_key(np.int64(-1), 3, 64) == splitmix64(-1, 3)
            keys = [splitmix64(-1, t) for t in range(100)]
            assert kernels.mc_single(64, 10, 100, -1) == full_single_hits(keys, 64, 10)

    @pytest.mark.parametrize("n", [16.5, True, 16.0, "16", 0, 65])
    def test_key_length_must_be_an_int_in_range(self, n):
        # 16.5 used to raise TypeError from <<, and True to draw 1-bit keys
        message = rf"^key length must be an int in \[1, 64\], got {re.escape(repr(n))}$"
        with pytest.raises(ValueError, match=message):
            kernels.trial_keys(1, np.arange(4, dtype=np.uint64), n)
        with pytest.raises(ValueError, match=message):
            kernels.trial_key(1, 0, n)

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, "1", None, np.array([1.5]), np.array([True])])
    def test_seed_and_index_must_be_ints(self, seed):
        # int() used to read 1.5 and True as seed 1, and astype(np.uint64) the arrays of them
        message = f"must be an int or a uint64 array, got {re.escape(repr(seed))}$"
        with pytest.raises(ValueError, match="^trial seed " + message):
            kernels.trial_key(seed, 0, 16)
        with pytest.raises(ValueError, match="^trial seed " + message):
            monte_carlo_recovery_rate(64, 10, 100, seed)
        with pytest.raises(ValueError, match="^trial index " + message):
            kernels.trial_keys(1, seed, 16)

    @pytest.mark.parametrize("n", [1, 16, 63, 64])
    def test_numpy_key_length_draws_the_int_length_keys(self, n):
        # a numpy 63 used to overflow in the key mask
        assert kernels.trial_key(5, 3, np.int64(n)) == kernels.trial_key(5, 3, n) == splitmix64(5, 3) & ((1 << n) - 1)
        assert kernels.trial_key(np.uint8(5), np.int64(3), np.uint8(n)) == kernels.trial_key(5, 3, n)

    def test_trial_keys_cover_the_range(self):
        # splitmix output should not be obviously degenerate
        keys = {kernels.trial_key(0, t, 16) for t in range(2000)}
        assert len(keys) > 1900 * 0.9

    def test_mc_deterministic(self):
        assert kernels.mc_single(64, 10, 1000, 5) == kernels.mc_single(64, 10, 1000, 5)
        assert kernels.mc_single(64, 10, 1000, 5) != kernels.mc_single(64, 10, 1000, 6)


def class_masks(n, w):
    return [sum(1 << p for p in range(r, n, w)) for r in range(w)]


def complete(key, masks):
    """Every residue class holds both bit values: its bits are neither all 0 nor all 1."""
    return all(0 != key & m != m for m in masks)


def as_words(keys, n):
    """(words x keys) uint64 of Python-int keys, least significant word first."""
    return np.array([[(key >> (64 * k)) & M64 for key in keys] for k in range((n + 63) // 64)], dtype=np.uint64)


# whole-word shifts (127/129, 64), shifts past one word (130, 65), two bits a class (264, 132),
# and a class of one bit that never resolves (65, 33)
SHIFT_EDGES = [(127, 64), (129, 64), (130, 65), (264, 132), (65, 33)]


class TestWordKernel:
    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_shift_words_matches_int_shift(self, count):
        rng = random.Random(count)
        keys = [rng.getrandbits(64 * count) for _ in range(20)]
        words = as_words(keys, 64 * count)
        for s in sorted({0, 1, 31, 63, 64, 65, 127, 128, 129, 64 * count - 1, 64 * count, 64 * count + 7}):
            shifted = kernels._shift_words(words, s, np.empty_like(words))
            assert np.array_equal(shifted, as_words([key >> s for key in keys], 64 * count)), s

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 130, 264])
    def test_trial_words_match_the_key_streams(self, n):
        seed, start, stop = 7, 5, 40
        keys = [splitmix64(seed, t) & ((1 << n) - 1) if n <= 64 else wide_key(seed, t, n) for t in range(start, stop)]
        assert np.array_equal(kernels._trial_words(seed, start, stop, n), as_words(keys, n))

    @pytest.mark.parametrize("n,w", SHIFT_EDGES)
    def test_shift_edges_match_a_per_key_class_check(self, n, w):
        rng = random.Random(n * w)
        masks = class_masks(n, w)
        keys = []
        for _ in range(300):  # every class mixed, then about half the keys get one constant class
            key = rng.getrandbits(n)
            for m in masks:
                if key & m in (0, m):
                    key ^= m & -m
            if rng.random() < 0.5:
                m = rng.choice(masks)
                key = key | m if rng.random() < 0.5 else key & ~m
            keys.append(key)
        expected = [complete(key, masks) for key in keys]
        assert 0 < sum(expected) < len(keys) if n >= 2 * w else not any(expected)  # n = 2w - 1: class w - 1 is one bit
        words = as_words(keys, n)
        assert kernels._count_complete(words, n, w) == sum(expected)
        assert [kernels._count_complete(words[:, i : i + 1], n, w) for i in range(len(keys))] == expected

    @pytest.mark.parametrize("n,w", SHIFT_EDGES)
    def test_shift_edges_monte_carlo_matches_oracle(self, n, w):
        trials, seed = 300, 5
        keys = [wide_key(seed, t, n) for t in range(trials)]
        assert monte_carlo_recovery_rate(n, w, trials, seed) == full_single_hits(keys, n, w) / trials

    def test_wide_monte_carlo_across_chunks(self):
        """Keys wider than one word, counted over one chunk boundary of the Monte Carlo rule."""
        seed = 4
        for n, w in ((65, 10), (128, 20), (264, 40)):
            trials = kernels._MC_CHUNK_BITS // n + 500
            masks = class_masks(n, w)
            hits = sum(complete(wide_key(seed, t, n), masks) for t in range(trials))
            assert kernels.mc_single(n, w, trials, seed) == hits, n
            # one draw for every width, a repeated width counted again
            half = kernels.mc_single(n, w // 2, trials, seed)
            assert kernels.mc_widths(n, [w, w // 2, w], trials, seed) == [hits, half, hits]

    def test_mc_single_across_chunks(self):
        n, w, seed = 64, 10, 9
        trials = kernels._MC_CHUNK_BITS // n + 500
        masks = class_masks(n, w)
        assert kernels.mc_single(n, w, trials, seed) == sum(complete(splitmix64(seed, t), masks) for t in range(trials))

    @pytest.mark.parametrize("argv", [argv for _, argv in REPRODUCE_RUNS if argv.startswith("prob ")])
    def test_mc_widths_match_mc_single_at_the_prob_settings(self, argv):
        args = build_parser().parse_args(shlex.split(argv))
        expected = [kernels.mc_single(args.n_key, w, args.trials, args.seed) for w in args.w_list]
        assert kernels.mc_widths(args.n_key, args.w_list, args.trials, args.seed) == expected

    @pytest.mark.parametrize("n, widths, trials, match", [
        (64, [4, 40], 100, r"^key length must be >= 2w - 1$"),
        (64, [10, 0], 100, r"^window width must be an int >= 1, got 0$"),
        (264, [10, 133], 100, r"^key length must be >= 2w - 1$"),
        (64, [4, 10], 0, r"^trials must be an int >= 1, got 0$"),
    ])
    def test_mc_widths_checks_before_drawing(self, monkeypatch, n, widths, trials, match):
        drawn = []
        monkeypatch.setattr(kernels, "_trial_words", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match=match):
            kernels.mc_widths(n, widths, trials, 1)
        assert drawn == []
