"""Kernel correctness against test-local oracles.

The oracles here are independent of the library: success of the single
pass is "every residue class mod w contains two distinct bits", the
two-width pass is checked against a from-scratch union-find over the
equality structure of the true key, and the trial keys against a scalar
splitmix64 written out below.
"""

import warnings

import pytest

from longwire import kernels
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
            kernels.mc_single(65, 1, 10, 0)
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
            assert kernels.trial_key(2**64 - 1, 3, 64) == splitmix64(2**64 - 1, 3)
            keys = [splitmix64(-1, t) for t in range(100)]
            assert kernels.mc_single(64, 10, 100, -1) == full_single_hits(keys, 64, 10)

    def test_trial_keys_cover_the_range(self):
        # splitmix output should not be obviously degenerate
        keys = {kernels.trial_key(0, t, 16) for t in range(2000)}
        assert len(keys) > 1900 * 0.9

    def test_mc_deterministic(self):
        assert kernels.mc_single(64, 10, 1000, 5) == kernels.mc_single(64, 10, 1000, 5)
        assert kernels.mc_single(64, 10, 1000, 5) != kernels.mc_single(64, 10, 1000, 6)
