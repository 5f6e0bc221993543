"""Recovery kernels: batched numpy over keys packed into uint64.

Bit i of a packed key is key bit K_i, for key lengths up to 64 bits.  A
single window width w relates K_j to K_{j+w} only, so residue class r mod w
resolves iff it holds both bit values: ``key & M_r`` is neither 0 nor
``M_r``, where ``M_r`` sets every position congruent to r.  Over an array
of keys that is w array ops, applied in chunks of at most 2^20 keys.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"
KERNEL_MAX_BITS = 64

_M64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_CHUNK = 1 << 20
_SWEEP_MAX_BITS = 28


def _check_bits(n: int) -> None:
    if not 1 <= n <= KERNEL_MAX_BITS:
        raise ValueError("key length must be in [1, 64] for the kernels")


def _check_window(n: int, w: int, multi: bool) -> None:
    """A key the single-window (n >= 2w - 1) or two-width (n >= 2w + 1) pass can take."""
    _check_bits(n)
    if w < 1:
        raise ValueError("window width must be >= 1")
    if n < 2 * w + (1 if multi else -1):
        raise ValueError(f"key length must be >= 2w {'+' if multi else '-'} 1")


def _check_sweep(n: int) -> None:
    if n > _SWEEP_MAX_BITS:
        raise ValueError(f"exhaustive sweeps are limited to {_SWEEP_MAX_BITS}-bit keys")


def _u64(x) -> np.ndarray:
    # Python ints are reduced mod 2^64 first; a one-element array keeps the
    # arithmetic below in array ops, which wrap without a RuntimeWarning.
    if isinstance(x, np.ndarray):
        return x.astype(np.uint64, copy=False)
    return np.array([int(x) & _M64], dtype=np.uint64)


def trial_keys(seed, trials, n: int) -> np.ndarray:
    """n-bit splitmix64 keys for every trial; seed and trials broadcast.

    Each may be a Python int or a uint64 array.
    """
    _check_bits(n)
    z = _u64(seed) + (_u64(trials) + 1) * _GOLDEN
    z ^= z >> 30
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31
    return z & np.uint64((1 << n) - 1)


def trial_key(seed: int, trial: int, n: int) -> int:
    """Deterministic n-bit key for Monte Carlo trial (splitmix64 stream)."""
    return int(trial_keys(seed, trial, n)[0])


def _index_chunks(total: int):
    """uint64 arrays covering 0..total-1, at most _CHUNK values each."""
    for start in range(0, total, _CHUNK):
        yield np.arange(start, min(start + _CHUNK, total), dtype=np.uint64)


def _count_single_resolved(keys: np.ndarray, n: int, w: int) -> int:
    """How many keys have every residue class mod w holding both bit values."""
    ok = np.ones(keys.shape, dtype=bool)
    for r in range(w):
        m = np.uint64(sum(1 << p for p in range(r, n, w)))
        cls = keys & m
        ok &= (cls != 0) & (cls != m)
    return int(np.count_nonzero(ok))


def sweep_single(n: int, w: int) -> int:
    """Number of keys in [0, 2^n) fully recovered by the single-window pass."""
    _check_window(n, w, multi=False)
    _check_sweep(n)
    return sum(_count_single_resolved(keys, n, w) for keys in _index_chunks(1 << n))


def sweep_multi(n: int, w: int) -> int:
    """Number of keys in [0, 2^n) fully recovered by the two-width pass.

    For n >= 2w+1 the equality links j~j+w and j~j+w+1 connect all n
    positions, so every key resolves except the two constant ones.
    """
    _check_window(n, w, multi=True)
    _check_sweep(n)
    return (1 << n) - 2


def mc_single(n: int, w: int, trials: int, seed: int) -> int:
    """Full single-window recoveries over `trials` uniform random keys."""
    _check_window(n, w, multi=False)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return sum(_count_single_resolved(trial_keys(seed, t, n), n, w) for t in _index_chunks(trials))
