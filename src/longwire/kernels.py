"""Recovery kernels: batched numpy over keys packed into uint64 words.

Bit i of a packed key is key bit K_i, least significant word first.  A
single window width w relates K_j to K_{j+w} only, so residue class r mod w
resolves iff some K_j != K_{j+w} in it.  The relation word
``D = K ^ (K >> w)``, cut to n - w bits, marks those pairs; folding it onto
itself with shifts of w, 2w, 4w, ... until the span reaches n - w leaves bit
r set iff class r resolves.  A key is complete iff its low w bits are all
set: about log2(n / w) word ops per key width.  The sweeps run chunks of 2^14
keys, the Monte Carlo chunks of 2^23 key bits; ``mc_widths`` draws each chunk of
trial keys once and counts it at every width of a study.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .patterns import _check_int, _is_int

BACKEND = "numpy"
KERNEL_MAX_BITS = 64

_M64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_CHUNK = 1 << 14  # keys per sweep chunk: 128 KiB arrays the allocator reuses, where 512 KiB ones fault in fresh pages
_MC_CHUNK_BITS = 1 << 23  # trial-key bits per Monte Carlo chunk: at most 2^23 / n keys, at any trial count
_SWEEP_MAX_BITS = 28


def _check_window(n: int, w: int, multi: bool) -> tuple[int, int]:
    """The width rule, for every caller: (n, w) as Python ints when the single-window (n >= 2w - 1)
    or two-width (n >= 2w + 1) pass can take them, at any length; the sweeps then check their 28-bit cap."""
    n, w = _check_int(n, "key length", 1), _check_int(w, "window width", 1)
    if n < 2 * w + (1 if multi else -1):
        raise ValueError(f"key length must be >= 2w {'+' if multi else '-'} 1")
    return n, w


def _check_sweep(n: int) -> None:
    if n > _SWEEP_MAX_BITS:
        raise ValueError(f"exhaustive sweeps are limited to {_SWEEP_MAX_BITS}-bit keys")


def _u64(x, name: str) -> np.ndarray:
    # Ints are reduced mod 2^64 first; a one-element array keeps the
    # arithmetic below in array ops, which wrap without a RuntimeWarning.
    if isinstance(x, np.ndarray) and x.dtype.kind in "iu":
        return x.astype(np.uint64, copy=False)
    if not _is_int(x):  # any other array included: astype would read 1.5 and True as 1
        raise ValueError(f"{name} must be an int or a uint64 array, got {x!r}")
    return np.array([int(x) & _M64], dtype=np.uint64)


def trial_keys(seed, trials, n: int) -> np.ndarray:
    """n-bit splitmix64 keys for every trial; seed and trials broadcast.

    Each may be an int of any size, taken mod 2^64, or a uint64 array (an int64 one wraps into it).
    """
    n = _check_int(n, "key length", 1, KERNEL_MAX_BITS)
    z = _u64(seed, "trial seed") + (_u64(trials, "trial index") + 1) * _GOLDEN
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


def _trial_words(seed: int, start: int, stop: int, n: int) -> np.ndarray:
    """Keys of trials [start, stop) as (words x trials) uint64, least significant word first.

    Keys up to 64 bits are trial_key(seed, t, n).  A wider key takes
    base = trial_key(seed, t, 64) and fills its k-th 64-bit word with
    trial_key(base, k, 64); the top word is cut to n bits.
    """
    t = np.arange(start, stop, dtype=np.uint64)
    if n <= KERNEL_MAX_BITS:
        return trial_keys(seed, t, n)[None]
    base = trial_keys(seed, t, 64)
    words = np.stack([trial_keys(base, k, 64) for k in range((n + 63) // 64)])
    words[-1] &= np.uint64(_M64 >> (-n % 64))
    return words


def _shift_words(words: np.ndarray, s: int, out: np.ndarray) -> np.ndarray:
    """Multiword ``words >> s`` over (words x keys), least significant word first, written into out."""
    q, r = divmod(s, 64)
    kept = max(len(words) - q, 0)
    out[kept:] = 0
    np.right_shift(words[q:], np.uint64(r), out=out[:kept])
    if r and kept > 1:
        out[: kept - 1] |= words[q + 1 :] << np.uint64(64 - r)
    return out


def _low_words(bits: int, count: int) -> np.ndarray:
    """The mask of the low `bits` bits as a (count x 1) column of words."""
    return np.array([[(((1 << bits) - 1) >> (64 * k)) & _M64] for k in range(count)], dtype=np.uint64)


def _count_complete(words: np.ndarray, n: int, w: int) -> int:
    """How many n-bit keys (words x keys) have every residue class mod w holding both bit values."""
    fold = _shift_words(words, w, np.empty_like(words))
    fold ^= words
    fold &= _low_words(n - w, len(words))
    shifted = np.empty_like(fold)
    span = w
    while span < n - w:  # bit r holds the relations r, r + w, ... below r + span
        fold |= _shift_words(fold, span, shifted)
        span *= 2
    low = _low_words(w, len(words))
    fold &= low
    return int(np.count_nonzero((fold == low).all(axis=0)))


def sweep_single(n: int, w: int) -> int:
    """Number of keys in [0, 2^n) fully recovered by the single-window pass."""
    n, w = _check_window(n, w, multi=False)
    _check_sweep(n)
    return sum(_count_complete(keys[None], n, w) for keys in _index_chunks(1 << n))


def sweep_multi(n: int, w: int) -> int:
    """Number of keys in [0, 2^n) fully recovered by the two-width pass.

    For n >= 2w+1 the equality links j~j+w and j~j+w+1 connect all n
    positions, so every key resolves except the two constant ones.
    """
    n, w = _check_window(n, w, multi=True)
    _check_sweep(n)
    return (1 << n) - 2


def mc_widths(n: int, widths: Sequence[int], trials: int, seed: int) -> list[int]:
    """Full single-window recoveries at each width over the same `trials` uniform random keys
    of any length n (the _trial_words keys): each chunk of max(1, 2^23 // n) keys is drawn
    once and counted at every width.  Every width and `trials` are checked before the first draw."""
    n = _check_int(n, "key length", 1)
    widths = [_check_window(n, w, multi=False)[1] for w in widths]
    trials = _check_int(trials, "trials", 1)
    rows = max(1, _MC_CHUNK_BITS // n)
    counts = [0] * len(widths)
    for t in range(0, trials, rows):
        words = _trial_words(seed, t, min(t + rows, trials), n)
        for i, w in enumerate(widths):
            counts[i] += _count_complete(words, n, w)
    return counts


def mc_single(n: int, w: int, trials: int, seed: int) -> int:
    """Full single-window recoveries over `trials` uniform random keys of any length n: the
    one-width case of mc_widths."""
    return mc_widths(n, (w,), trials, seed)[0]
