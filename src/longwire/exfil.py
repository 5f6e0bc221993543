"""Key recovery through sliding-window Hamming-weight measurements.

An eavesdropper next to a wire carrying a repeating N-bit key sees, per
measurement window, the Hamming weight of w consecutive key bits.
Comparing the counts of windows shifted by one position relates bit K_j
to K_{j+w}: equal counts mean the bits match, a drop means K_j = 1 and
K_{j+w} = 0, a rise the reverse.  Chaining these relations resolves
every residue class mod w that contains two different bits; repeating
the pass with width w+1 links the classes together and recovers every
key except the two constant ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import kernels
from .channel import DeviceProfile, Geometry, MeasurementConfig, expected_count, simulate_counts
from .errors import InconsistentMeasurements

__all__ = [
    "KeyBits",
    "Relation",
    "RelationSet",
    "RecoveryResult",
    "ExfilChannel",
    "Schedule",
    "RunSpec",
    "window_hw_oracle",
    "measure_windows",
    "measure_windows_noisy",
    "noise_tolerance",
    "noise_feasibility",
    "infer_relations",
    "propagate",
    "single_window_recover",
    "noisy_outcome",
    "multi_window_recover",
    "recovery_probability",
    "recovery_probability_exact",
    "eq2_lower_bound",
    "monte_carlo_recovery_rate",
    "exhaustive_success_fraction",
    "run_schedule",
    "recovery_to_rows",
    "parse_key",
]


@dataclass(frozen=True)
class KeyBits:
    """An N-bit key; bits[0] is the first bit to transit the wire."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) < 1:
            raise ValueError("key must have at least one bit")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("key bits must be 0 or 1")

    def __len__(self) -> int:
        return len(self.bits)

    def to_int(self) -> int:
        """Pack bit i into integer bit i (kernel layout)."""
        value = 0
        for i, b in enumerate(self.bits):
            value |= b << i
        return value

    @classmethod
    def from_int(cls, value: int, n: int) -> "KeyBits":
        return cls(tuple((value >> i) & 1 for i in range(n)))

    @classmethod
    def from_binary(cls, text: str) -> "KeyBits":
        text = text.removeprefix("0b")
        return cls(tuple(int(c) for c in text))

    @classmethod
    def from_hex(cls, text: str) -> "KeyBits":
        text = text.removeprefix("0x")
        bits = []
        for ch in text:
            bits.extend(int(b) for b in format(int(ch, 16), "04b"))
        return cls(tuple(bits))


def parse_key(text: str) -> KeyBits:
    """Key from a CLI string: 0x... is hex, 0b... or pure 0/1 is binary."""
    text = text.strip()
    if text.lower().startswith("0x"):
        return KeyBits.from_hex(text[2:])
    if text.lower().startswith("0b"):
        return KeyBits.from_binary(text[2:])
    if text and all(c in "01" for c in text):
        return KeyBits.from_binary(text)
    return KeyBits.from_hex(text)


def _as_key(key) -> KeyBits:
    if isinstance(key, KeyBits):
        return key
    return KeyBits(tuple(int(b) for b in key))


class Relation(Enum):
    EQUAL = "equal"
    FIRST_ONE_SECOND_ZERO = "first_one_second_zero"
    FIRST_ZERO_SECOND_ONE = "first_zero_second_one"


@dataclass(frozen=True)
class RelationSet:
    """Relation between K_j and K_{j+w} for every j in [0, N-w)."""

    relations: tuple[Relation, ...]
    w: int

    def __post_init__(self):
        if self.w < 1:
            raise ValueError("window width must be >= 1")

    @property
    def n_key(self) -> int:
        return len(self.relations) + self.w


@dataclass
class RecoveryResult:
    """Outcome of a recovery pass: resolved bits plus all-equal classes."""

    n_key: int
    known: dict[int, int]
    unresolved_classes: tuple[tuple[int, ...], ...]
    runs_used: int
    measurements_used: int

    def __post_init__(self):
        covered = sorted(list(self.known) + [p for cls in self.unresolved_classes for p in cls])
        if covered != list(range(self.n_key)):
            raise ValueError("known bits and unresolved classes must partition the key")

    @property
    def complete(self) -> bool:
        return not self.unresolved_classes

    def consistent_key_count(self) -> int:
        """Size of the candidate space left after the measurements."""
        return 1 << len(self.unresolved_classes)


def window_hw_oracle(key, pos: int, w: int) -> int:
    """Exact Hamming weight of key[pos : pos + w]."""
    key = _as_key(key)
    if w < 1:
        raise ValueError("window width must be >= 1")
    if not 0 <= pos <= len(key) - w:
        raise ValueError(f"window start must be in [0, {len(key) - w}]")
    return sum(key.bits[pos : pos + w])


def measure_windows(key, w: int) -> list[int]:
    """Exact Hamming weights of every window position, in order."""
    key = _as_key(key)
    if not 1 <= w <= len(key):
        raise ValueError("window width must be in [1, key length]")
    return [window_hw_oracle(key, pos, w) for pos in range(len(key) - w + 1)]


@dataclass(frozen=True)
class ExfilChannel:
    """Noise configuration: measurements go through the count simulator.

    ``repeats`` averages that many counts per window; whether averaging
    buys accuracy is reported by noise_feasibility, not assumed.
    """

    profile: DeviceProfile
    cfg: MeasurementConfig
    geom: Geometry
    seed: int
    repeats: int = 1

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")


def _full_swing(chan: ExfilChannel) -> float:
    high = expected_count(chan.profile, chan.cfg, chan.geom, 1.0)
    low = expected_count(chan.profile, chan.cfg, chan.geom, 0.0)
    return high - low


def noise_tolerance(chan: ExfilChannel, w: int) -> float:
    """Midpoint decision rule: half the per-bit count step."""
    return _full_swing(chan) / (2.0 * w)


def noise_feasibility(chan: ExfilChannel, w: int) -> dict[str, float]:
    """Per-bit count step against the effective noise level."""
    step = _full_swing(chan) / w
    sigma = chan.profile.noise_sigma_for(chan.cfg.ticks_per_window)
    sigma /= math.sqrt(chan.repeats)
    return {"count_step": step, "noise_sigma": sigma, "step_over_sigma": step / sigma if sigma else math.inf}


def measure_windows_noisy(key, w: int, chan: ExfilChannel) -> list[float]:
    """Window measurements drawn from the count simulator (duty = HW / w).

    Each window position is measured ``repeats`` times in a row, positions
    in order, as one trace whose drift carries across; a position reports
    the mean of its counts.
    """
    key = _as_key(key)
    if not 1 <= w <= len(key):
        raise ValueError("window width must be in [1, key length]")
    weights = np.convolve(key.bits, np.ones(w, dtype=np.int64), mode="valid")
    duty = np.repeat(weights / w, chan.repeats)
    counts = simulate_counts(chan.profile, chan.cfg, chan.geom, duty, 0.0, np.random.default_rng(chan.seed))
    return counts.reshape(-1, chan.repeats).mean(axis=1).tolist()


def infer_relations(counts: Sequence[float], w: int, tolerance: float) -> RelationSet:
    """Classify consecutive count differences into bit relations."""
    if len(counts) < 2:
        raise ValueError("need at least 2 window measurements")
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    rels = []
    for a, b in zip(counts, counts[1:]):
        if abs(a - b) <= tolerance:
            rels.append(Relation.EQUAL)
        elif a > b:
            rels.append(Relation.FIRST_ONE_SECOND_ZERO)
        else:
            rels.append(Relation.FIRST_ZERO_SECOND_ONE)
    return RelationSet(tuple(rels), w)


_PIN = {
    Relation.FIRST_ONE_SECOND_ZERO: (1, 0),
    Relation.FIRST_ZERO_SECOND_ONE: (0, 1),
}


def propagate(relations: RelationSet, n_key: int) -> RecoveryResult:
    """Chain relations along each residue class mod w.

    Any inequality pins its two endpoints and equality links carry the
    value across the rest of the chain, so a class either resolves
    completely or is reported as one all-equal unresolved set.
    """
    w = relations.w
    if n_key < w:
        raise ValueError("n_key must be >= w")
    if len(relations.relations) != n_key - w:
        raise ValueError(f"expected {n_key - w} relations, got {len(relations.relations)}")

    values: dict[int, int] = {}
    unresolved: list[tuple[int, ...]] = []

    def assign(pos: int, val: int) -> None:
        if values.setdefault(pos, val) != val:
            raise InconsistentMeasurements(f"bit {pos} implied to be both 0 and 1")

    for r in range(w):
        chain = list(range(r, n_key, w))
        edges = [(a, relations.relations[a]) for a in chain[:-1]]
        for a, rel in edges:
            if rel is not Relation.EQUAL:
                va, vb = _PIN[rel]
                assign(a, va)
                assign(a + w, vb)
        # carry known values across equality links, both directions
        for seq in (edges, list(reversed(edges))):
            for a, rel in seq:
                if rel is Relation.EQUAL:
                    if a in values:
                        assign(a + w, values[a])
                    if a + w in values:
                        assign(a, values[a + w])
        if chain[0] not in values:
            unresolved.append(tuple(chain))

    known = {p: v for p, v in values.items()}
    return RecoveryResult(
        n_key=n_key,
        known=known,
        unresolved_classes=tuple(sorted(unresolved)),
        runs_used=w,
        measurements_used=n_key - w + 1,
    )


def _relations_for(key: KeyBits, w: int, chan: ExfilChannel | None) -> RelationSet:
    if chan is None:
        counts: Sequence[float] = measure_windows(key, w)
        tolerance = 0.5
    else:
        counts = measure_windows_noisy(key, w, chan)
        tolerance = noise_tolerance(chan, w)
    if len(counts) == 1:
        return RelationSet((), w)
    return infer_relations(counts, w, tolerance)


def single_window_recover(key, w: int, noise: ExfilChannel | None = None) -> RecoveryResult:
    """Measure every window of width w, infer relations, propagate."""
    key = _as_key(key)
    n = len(key)
    if n < 2 * w - 1:
        raise ValueError("key length must be >= 2w - 1")
    return propagate(_relations_for(key, w, noise), n)


def noisy_outcome(key, w: int, chan: ExfilChannel) -> tuple[str, RecoveryResult | None]:
    """Recover through the channel and score the result against the true key.

    The outcome is "inconsistent" (the measurements contradict each other;
    no result), "unresolved" (some class stayed all-equal), "correct" or
    "wrong" (complete, but some bit differs from the key).
    """
    key = _as_key(key)
    try:
        result = single_window_recover(key, w, chan)
    except InconsistentMeasurements:
        return "inconsistent", None
    if not result.complete:
        return "unresolved", result
    if all(result.known[p] == b for p, b in enumerate(key.bits)):
        return "correct", result
    return "wrong", result


def multi_window_recover(key, w: int) -> RecoveryResult:
    """Run widths w and w+1 and merge: only constant keys stay unresolved.

    The merge is a union-find over equality links from both widths;
    inequality links pin their endpoints and resolve every component
    they touch, including classes the single-width pass left all-equal.
    """
    key = _as_key(key)
    n = len(key)
    if n < 2 * w + 1:
        raise ValueError("key length must be >= 2w + 1")

    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    pins: dict[int, int] = {}

    def pin(pos: int, val: int) -> None:
        if pins.setdefault(pos, val) != val:
            raise InconsistentMeasurements(f"bit {pos} implied to be both 0 and 1")

    for width in (w, w + 1):
        rels = _relations_for(key, width, None)
        for j, rel in enumerate(rels.relations):
            if rel is Relation.EQUAL:
                ra, rb = find(j), find(j + width)
                if ra != rb:
                    parent[ra] = rb
            else:
                va, vb = _PIN[rel]
                pin(j, va)
                pin(j + width, vb)

    root_value: dict[int, int] = {}
    for pos, val in pins.items():
        root = find(pos)
        if root_value.setdefault(root, val) != val:
            raise InconsistentMeasurements(f"component of bit {pos} pinned to both 0 and 1")

    known: dict[int, int] = {}
    components: dict[int, list[int]] = {}
    for pos in range(n):
        root = find(pos)
        if root in root_value:
            known[pos] = root_value[root]
        else:
            components.setdefault(root, []).append(pos)

    return RecoveryResult(
        n_key=n,
        known=known,
        unresolved_classes=tuple(sorted(tuple(c) for c in components.values())),
        runs_used=2 * w + 1,
        measurements_used=2 * n - 2 * w + 1,
    )


def _split_key_length(n_key: int, w: int) -> tuple[int, int]:
    if w < 1:
        raise ValueError("window width must be >= 1")
    if n_key < 2 * w - 1:
        raise ValueError("key length must be >= 2w - 1")
    return divmod(n_key, w)


def recovery_probability(n_key: int, w: int) -> float:
    """Chance a uniform random key fully resolves from one window width.

    With n_key = nq*w + m: classes of size nq+1 resolve unless all nq+1
    bits agree, so P = (1 - 2^-nq)^m * (1 - 2^(1-nq))^(w-m).
    """
    nq, m = _split_key_length(n_key, w)
    return (1.0 - 2.0 ** -nq) ** m * (1.0 - 2.0 ** (1 - nq)) ** (w - m)


def recovery_probability_exact(n_key: int, w: int) -> Fraction:
    """Exact rational form of recovery_probability."""
    nq, m = _split_key_length(n_key, w)
    return (1 - Fraction(1, 2**nq)) ** m * (1 - Fraction(2, 2**nq)) ** (w - m)


def eq2_lower_bound(n_key: int, w: int) -> float:
    """Bernoulli lower bound 1 - w * 2^(1-nq) for w | n_key."""
    nq, m = _split_key_length(n_key, w)
    if m != 0:
        raise ValueError("the lower bound applies when w divides n_key")
    return 1.0 - w * 2.0 ** (1 - nq)


_MC_CHUNK_BITS = 1 << 23  # bit-matrix cells per chunk, one byte each: 8 MiB at any trial count


def _trial_bits(seed: int, start: int, stop: int, n: int) -> np.ndarray:
    """Keys of trials [start, stop) as a (trials x n) 0/1 matrix, bit K_i in column i.

    Keys up to 64 bits are kernels.trial_key(seed, t, n).  A wider key takes
    base = trial_key(seed, t, 64) and fills its k-th 64-bit word, least
    significant first, with trial_key(base, k, 64).
    """
    t = np.arange(start, stop, dtype=np.uint64)
    if n <= kernels.KERNEL_MAX_BITS:
        words = kernels.trial_keys(seed, t, n)[:, None]
    else:
        base = kernels.trial_keys(seed, t, 64)
        words = np.stack([kernels.trial_keys(base, k, 64) for k in range((n + 63) // 64)], axis=1)
    octets = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(octets, axis=1, count=n, bitorder="little")


def _single_window_complete(bits: np.ndarray, w: int) -> np.ndarray:
    """Per row: does every residue class mod w hold both bit values?"""
    ok = np.ones(len(bits), dtype=bool)
    for r in range(w):
        cls = bits[:, r::w]
        ok &= cls.any(axis=1) & ~cls.all(axis=1)
    return ok




def monte_carlo_recovery_rate(
    n_key: int,
    w: int,
    trials: int,
    seed: int,
    noise: ExfilChannel | None = None,
) -> float:
    """Fraction of uniform random keys fully recovered, deterministic per seed.

    With ``noise``, trial t measures through the channel seeded
    ``noise.seed + t`` and counts only when every bit comes out equal to
    the true key; an inconsistent measurement set counts as a miss.
    """
    _split_key_length(n_key, w)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if noise is None and n_key <= kernels.KERNEL_MAX_BITS:
        return kernels.mc_single(n_key, w, trials, seed) / trials
    hits = 0
    rows = max(1, _MC_CHUNK_BITS // n_key)
    for start in range(0, trials, rows):
        bits = _trial_bits(seed, start, min(start + rows, trials), n_key)
        if noise is None:
            hits += int(np.count_nonzero(_single_window_complete(bits, w)))
        else:
            for t, row in enumerate(bits.tolist(), start):
                outcome, _ = noisy_outcome(KeyBits(tuple(row)), w, replace(noise, seed=noise.seed + t))
                hits += outcome == "correct"
    return hits / trials


def exhaustive_success_fraction(n_key: int, w: int, multi: bool = False) -> Fraction:
    """Exact full-recovery fraction over all 2^n keys (kernel-backed)."""
    if multi:
        hits = kernels.sweep_multi(n_key, w)
    else:
        hits = kernels.sweep_single(n_key, w)
    return Fraction(hits, 2**n_key)


@dataclass(frozen=True)
class RunSpec:
    """One pass over the key: non-overlapping windows of one width."""

    width: int
    residue: int
    starts: tuple[int, ...]


@dataclass(frozen=True)
class Schedule:
    n_key: int
    w: int
    runs: tuple[RunSpec, ...] = field(repr=False)

    @property
    def total_runs(self) -> int:
        return len(self.runs)

    @property
    def total_measurements(self) -> int:
        return sum(len(r.starts) for r in self.runs)


def run_schedule(n_key: int, w: int) -> Schedule:
    """Group all window starts of widths w and w+1 into 2w+1 runs.

    Run r of width v covers starts congruent to r mod v, which never
    overlap, so both passes need 2*n - 2w + 1 measurements in total.
    """
    if w < 1:
        raise ValueError("window width must be >= 1")
    if n_key < 2 * w + 1:
        raise ValueError("key length must be >= 2w + 1")
    runs = []
    for width in (w, w + 1):
        for r in range(width):
            starts = tuple(range(r, n_key - width + 1, width))
            runs.append(RunSpec(width, r, starts))
    return Schedule(n_key, w, tuple(runs))


def recovery_to_rows(result: RecoveryResult) -> list[tuple[int, str]]:
    """CSV body rows position,value_or_class_id."""
    labels: dict[int, str] = {p: str(v) for p, v in result.known.items()}
    for idx, cls in enumerate(result.unresolved_classes):
        for p in cls:
            labels[p] = f"S{idx}"
    return [(p, labels[p]) for p in range(result.n_key)]
