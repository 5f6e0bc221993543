"""Key recovery through sliding-window Hamming-weight measurements.

An eavesdropper next to a wire carrying a repeating N-bit key sees, per
measurement window, the Hamming weight of w consecutive key bits.
Comparing the counts of windows shifted by one position relates bit K_j
to K_{j+w}: equal counts mean the bits match, a drop means K_j = 1 and
K_{j+w} = 0, a rise the reverse.  Chaining these relations resolves
every residue class mod w that contains two different bits; repeating
the pass with width w+1 links the classes together and recovers every
key except the two constant ones.

Without noise both attacks' results are a closed form of the key: one width
leaves class r unresolved iff its bits are all equal, two widths leave only a
constant key unresolved.  Measured or caller-built relations go to
``propagate``, the one solver: a width's relations are one ``RelationSet`` of
int bit masks, bit j of its equal, drop and rise masks for relation j, closed
over the equal links by doubling shifts.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from typing import NamedTuple, Sequence

import numpy as np

from . import kernels
from .channel import DeviceProfile, Geometry, MeasurementConfig, _count_engine, _mean_count, _terms
from .errors import InconsistentMeasurements
from .patterns import _check_bits, _check_int, _check_int_field, _check_real

__all__ = [
    "KeyBits",
    "RelationSet",
    "RecoveryResult",
    "ExfilChannel",
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
    "recovery_to_rows",
    "parse_key",
]


@dataclass(frozen=True)
class KeyBits:
    """An N-bit key; bits[0] is the first bit to transit the wire."""

    bits: tuple[int, ...]

    def __post_init__(self):
        bits = tuple(_check_bits(self.bits, "key bit"))  # a list the caller keeps could change the key
        if len(bits) < 1:
            raise ValueError("key must have at least one bit")
        object.__setattr__(self, "bits", bits)

    def __len__(self) -> int:
        return len(self.bits)

    def to_int(self) -> int:
        """Pack bit i into integer bit i (kernel layout)."""
        return int(bytes(self.bits)[::-1].translate(_BIT_DIGITS), 2)

    @classmethod
    def from_int(cls, value: int, n: int) -> "KeyBits":
        """Bits 0..n-1 of value, two's complement for a negative one; bits cut from an int
        need no __post_init__ copy or bit check."""
        n = _check_int(n, "key length", 1)
        key = object.__new__(cls)
        object.__setattr__(key, "bits", tuple(_mask_bits(value, n)))
        return key

    @classmethod
    def from_binary(cls, text: str) -> "KeyBits":
        return cls(tuple(int(c) for c in _strip_prefix(text, "0b")))

    @classmethod
    def from_hex(cls, text: str) -> "KeyBits":
        return cls(tuple(int(b) for ch in _strip_prefix(text, "0x") for b in format(int(ch, 16), "04b")))


_BIT_DIGITS = bytes.maketrans(b"\0\1", b"01")
_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")


def _mask_bits(mask: int, n: int) -> bytes:
    """Bits 0..n-1 of mask as n bytes of 0 or 1, bit i at index i."""
    return bin(operator.index(mask) & ((1 << n) - 1) | 1 << n)[:2:-1].encode().translate(_DIGIT_BITS)


def _strip_prefix(text: str, prefix: str) -> str:
    """Drop one leading radix prefix, in either case."""
    return text[len(prefix) :] if text[: len(prefix)].lower() == prefix else text


def parse_key(text: str) -> KeyBits:
    """Key from a CLI string: 0x... is hex, 0b... or pure 0/1 is binary."""
    text = text.strip()
    if text[:2].lower() == "0b" or (text and all(c in "01" for c in text)):
        return KeyBits.from_binary(text)
    return KeyBits.from_hex(text)


def _as_key(key) -> KeyBits:
    return key if isinstance(key, KeyBits) else KeyBits(key)  # KeyBits judges the items


class RelationSet(NamedTuple):
    """Relation j of width w is K_j against K_{j+w}, for every j in [0, N-w): bit j
    is set in ``equal`` (K_j = K_{j+w}), ``drop`` (K_j = 1, K_{j+w} = 0) or ``rise``."""

    equal: int
    drop: int
    rise: int
    w: int


@dataclass
class RecoveryResult:
    """Outcome of a recovery pass: resolved bits plus all-equal classes."""

    n_key: int
    known: dict[int, int]
    unresolved_classes: tuple[tuple[int, ...], ...]
    runs_used: int
    measurements_used: int

    def __post_init__(self):
        if sorted(chain(self.known, *self.unresolved_classes)) != list(range(self.n_key)):
            raise ValueError("known bits and unresolved classes must partition the key")
        # 1.0 and True as 1: recovery_to_rows writes bits
        self.known = dict(zip(self.known, _check_bits(self.known.values(), "known value")))

    @property
    def complete(self) -> bool:
        return not self.unresolved_classes

    def consistent_key_count(self) -> int:
        """Size of the candidate space left after the measurements."""
        return 1 << len(self.unresolved_classes)


def window_hw_oracle(key, pos: int, w: int) -> int:
    """Exact Hamming weight of key[pos : pos + w]."""
    key = _as_key(key)
    w = _check_int(w, "window width", 1, len(key))
    pos = _check_int(pos, "window start", 0, len(key) - w)
    return sum(key.bits[pos : pos + w])


def _key_array(key: KeyBits) -> np.ndarray:
    """A 0, then the key's bits: the uint8 array that ``_window_weights`` takes."""
    return np.frombuffer(b"\0" + bytes(key.bits), np.uint8)


def _window_weights(bits: np.ndarray, w: int) -> np.ndarray:
    """Hamming weight of every width-w window of a key, in order, past the checks: ``bits`` is a
    ``_key_array``, or (keys x n + 1) of them, and w an int in [1, n]."""
    ones = bits.cumsum(axis=-1, dtype=np.int64)  # ones[..., i]: ones before bit i
    return ones[..., w:] - ones[..., :-w]


def _key_window(key, w: int) -> tuple[np.ndarray, int]:
    """The key's ``_key_array``, and w as an int in [1, len(key)]."""
    key = _as_key(key)
    return _key_array(key), _check_int(w, "window width", 1, len(key))


def measure_windows(key, w: int) -> list[int]:
    """Exact Hamming weights of every window position, in order."""
    bits, w = _key_window(key, w)
    return _window_weights(bits, w).tolist()


@dataclass(frozen=True)
class ExfilChannel:
    """Noise configuration: measurements go through the count simulator.

    ``seed`` is an int >= 0: each measurement pass draws from a fresh
    ``numpy.random.default_rng(seed)``.
    ``repeats`` is an int >= 1 and averages that many counts per window;
    whether averaging buys accuracy is reported by noise_feasibility, not
    assumed.  Any other value of either, a bool or a float included, raises
    ValueError when the channel is built.
    """

    profile: DeviceProfile
    cfg: MeasurementConfig
    geom: Geometry
    seed: int
    repeats: int = 1

    def __post_init__(self):
        _check_int_field(self, "repeats", 1)
        _check_int_field(self, "seed", 0)


def _tolerance(terms: tuple, w: int) -> float:
    """Midpoint decision rule from ``channel._terms``: half the per-bit count step, which is the
    noise-free count at duty 1 less that at duty 0 (m * base_rate exactly), no toggle and no drift,
    over w; expected_count's step to the bit."""
    return (_mean_count(terms, 1.0, 0.0, 0.0) - terms[0]) / (2.0 * w)


def noise_tolerance(chan: ExfilChannel, w: int) -> float:
    """Midpoint decision rule: half the per-bit count step, for a width w that is an int >= 1."""
    w = _check_int(w, "window width", 1)
    return _tolerance(_terms(chan.profile, chan.cfg, (chan.geom,)), w)


def noise_feasibility(chan: ExfilChannel, w: int) -> dict[str, float]:
    """Per-bit count step against the effective noise level."""
    step = 2.0 * noise_tolerance(chan, w)  # x / (2w) is x / w halved exactly
    sigma = chan.profile.noise_sigma_for(chan.cfg.ticks_per_window) / math.sqrt(chan.repeats)
    return {"count_step": step, "noise_sigma": sigma, "step_over_sigma": step / sigma if sigma else math.inf}


def _noisy_counts(bits: np.ndarray, w: int, chan: ExfilChannel, terms: tuple, rngs) -> np.ndarray:
    """Mean count per window from its weight, through the channel's ``terms``.

    ``bits`` is one key's ``_key_array``, measured from the one generator in
    ``rngs``, or (keys x n + 1) of them with key r measured from ``rngs[r]``.
    """
    weights = _window_weights(bits, w)
    duty = weights / w
    repeats = chan.repeats
    if repeats > 1:
        duty = duty.repeat(repeats, -1)
    # weight / w is in [0, 1] and the toggle rate is 0.0, so the engine's stimulus checks would pass
    counts = _count_engine(chan.profile, chan.cfg, terms, duty, 0.0, rngs)
    if repeats > 1:
        counts = counts.reshape(weights.shape + (repeats,)).sum(-1) / repeats  # whole counts: exactly their mean
    return counts


def _noisy_relations(bits: np.ndarray, w: int, chan: ExfilChannel, rngs) -> list[RelationSet]:
    """The noisy attack's measurement past the public checks, one relation set per key: ``bits`` is
    one key's ``_key_array``, measured from the one generator in ``rngs``, or (keys x n + 1) of them,
    key r measured from ``rngs[r]``, with n >= 2w - 1.  Each key's counts are classified as by
    ``infer_relations``; the channel terms and the decision tolerance are derived once per call."""
    terms = _terms(chan.profile, chan.cfg, (chan.geom,))
    tolerance = _tolerance(terms, w)
    counts = _noisy_counts(bits, w, chan, terms, rngs)
    return [_classify(row, w, tolerance) for row in counts.reshape(-1, counts.shape[-1])]


def measure_windows_noisy(key, w: int, chan: ExfilChannel) -> list[float]:
    """Window measurements drawn from the count simulator (duty = HW / w).

    Each window position is measured ``repeats`` times in a row, positions
    in order, as one trace whose drift carries across; a position reports
    the mean of its counts.
    """
    bits, w = _key_window(key, w)
    terms = _terms(chan.profile, chan.cfg, (chan.geom,))
    return _noisy_counts(bits, w, chan, terms, (np.random.default_rng(chan.seed),)).tolist()


def infer_relations(counts: Sequence[float], w: int, tolerance: float) -> RelationSet:
    """Classify consecutive count differences: j, j+1 within tolerance are equal, else j higher is a drop."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1 or not len(counts):
        raise ValueError("need a one-dimensional sequence of at least 1 window measurement")
    w = _check_int(w, "window width", 1)
    tolerance = _check_real(tolerance, "tolerance", 0)
    if not np.isfinite(counts).all():
        raise ValueError(f"count {np.flatnonzero(~np.isfinite(counts))[0]} is not finite")
    return _classify(counts, w, tolerance)


def _classify(counts: np.ndarray, w: int, tolerance: float) -> RelationSet:
    """infer_relations past its checks: counts a finite 1-D float64 array of at least 1 value, tolerance >= 0."""
    step, cut = counts[1:] - counts[:-1], (1 << (len(counts) - 1)) - 1  # drop: step < -tolerance; rise: > tolerance
    both = int.from_bytes(np.packbits((step < -tolerance, step > tolerance), bitorder="little"), "little")
    return RelationSet(cut & ~(both | both >> len(step)), both & cut, both >> len(step), w)  # rises sit above drops


def _close(mask: int, links: list[list[tuple[int, int]]]) -> int:
    """Close mask over the equality links: sweep each width's doubling steps (E, s), bit j of E
    meaning K_j = K_{j+s}, forward and back until a round over all widths changes nothing.

    A width's links are runs along its residue classes, and its steps, taken
    in increasing order, reach any distance within a run, so one round closes
    them: with one width the loop ends after its first round.
    """
    stable = i = 0
    while stable < len(links):
        before = mask
        for equal, shift in links[i]:
            mask |= (mask & equal) << shift
        for equal, shift in links[i]:
            mask |= (mask >> shift) & equal
        stable = stable + 1 if mask == before else 1
        i = (i + 1) % len(links)
    return mask


def propagate(relations: RelationSet | Sequence[RelationSet], n_key: int) -> RecoveryResult:
    """Turn the relations of one or more window widths into key bits.

    Each inequality pins its two endpoints into a ones or a zeros mask, and
    closing both masks over the equality links resolves every pinned
    component; they close as one int, the zeros n_key bits above the ones
    (a link K_j = K_{j+s} has j + s < n_key, so no shift carries a bit
    across).  A component pinned to both values raises, naming its lowest
    such bit; one without pins is reported as an all-equal unresolved class.
    A width-w set costs n_key - w + 1 measurements in w runs: windows whose
    starts agree mod w never overlap, so each residue is one run.  A set
    whose w is outside [1, n_key], or whose masks do not partition relations
    0..n_key-w-1, raises ValueError.
    """
    n_key = _check_int(n_key, "key length", 1)
    sets = [relations] if isinstance(relations, RelationSet) else list(relations)
    if not sets:
        raise ValueError("need at least one relation set")
    for i, (equal, drop, rise, w) in enumerate(sets):
        w = _check_int(w, "window width", 1, n_key)
        cut = (1 << (n_key - w)) - 1
        if equal | drop | rise != cut or equal + drop + rise != cut:
            raise ValueError(f"width {w}: equal, drop and rise must partition bits 0..{n_key - w - 1}")
        sets[i] = RelationSet(equal, drop, rise, w)
    return _propagate(sets, n_key)


def _propagate(sets: Sequence[RelationSet], n_key: int) -> RecoveryResult:
    """propagate past its checks: n_key an int >= 1, and each set's w an int in [1, n_key] whose
    masks partition relations 0..n_key-w-1, as ``_classify`` gives them."""
    pins = runs = measurements = 0
    links = []
    for equal, drop, rise, w in sets:
        pins |= drop | rise << w | (rise | drop << w) << n_key
        runs += w
        measurements += n_key - w + 1
        links.append(steps := [])
        while equal and w < n_key:
            steps.append((equal | equal << n_key, w))
            equal &= equal >> w
            w <<= 1
    pins, full = _close(pins, links), (1 << n_key) - 1
    ones, zeros = pins & full, pins >> n_key
    if clash := ones & zeros:
        raise InconsistentMeasurements(f"component of bit {(clash & -clash).bit_length() - 1} pinned to both 0 and 1")
    classes = []
    free = full & ~(ones | zeros)
    known = enumerate(_mask_bits(ones, n_key))
    if free:  # else every bit is known
        known = compress(known, _mask_bits(ones | zeros, n_key))
    while free:  # the lowest free bit starts the next class, so classes come ordered by first bit
        cls = _close(free & -free, links)
        classes.append(tuple(compress(range(n_key), _mask_bits(cls, n_key))))
        free &= ~cls
    return _result(n_key, dict(known), tuple(classes), runs, measurements)


def _result(n_key: int, known: dict[int, int], classes: tuple[tuple[int, ...], ...], runs: int,
            measurements: int) -> RecoveryResult:
    """A RecoveryResult whose fields partition the key by construction: no __post_init__ re-check."""
    result = object.__new__(RecoveryResult)
    vars(result).update(n_key=n_key, known=known, unresolved_classes=classes, runs_used=runs,
                        measurements_used=measurements)
    return result


def _noise_free(bits: tuple[int, ...], classes: tuple[tuple[int, ...], ...], runs: int,
                measurements: int) -> RecoveryResult:
    """The noise-free result: every position outside the all-equal classes is known as its key bit."""
    if not classes:
        return _result(len(bits), dict(enumerate(bits)), (), runs, measurements)
    free = set().union(*classes)
    return _result(len(bits), {p: b for p, b in enumerate(bits) if p not in free}, classes, runs, measurements)


def _equal_classes(value: int, n: int, w: int) -> tuple[tuple[int, ...], ...]:
    """The residue classes mod w of the n-bit key int whose bits are all equal, by first bit.

    kernels._count_complete's fold on one key: K ^ (K >> w), cut to n - w
    bits, folded by w, 2w, 4w, ... leaves bit r clear iff class r holds one value.
    """
    fold, span = (value ^ value >> w) & ((1 << (n - w)) - 1), w
    while span < n - w:
        fold |= fold >> span
        span <<= 1
    equal = ~fold & ((1 << w) - 1)
    return tuple(tuple(range(r, n, w)) for r in range(w) if equal >> r & 1) if equal else ()


def single_window_recover(key, w: int, noise: ExfilChannel | None = None) -> RecoveryResult:
    """Recover the key from every window of width w.

    Noise-free, the result is a closed form of the key: residue class r mod w
    stays unresolved iff its bits are all equal, and every other bit is
    known.  With ``noise``, the windows are measured through the count
    simulator and their relations, classified as by ``infer_relations``, go
    to ``propagate``.
    """
    key = _as_key(key)
    n, w = kernels._check_window(len(key), w, multi=False)
    if noise is None:
        return _noise_free(key.bits, _equal_classes(key.to_int(), n, w), w, n - w + 1)
    bits = _key_array(key)
    return _propagate(_noisy_relations(bits, w, noise, (np.random.default_rng(noise.seed),)), n)


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
    return _score(result, key.bits), result


def _score(result: RecoveryResult, bits: Sequence[int]) -> str:
    """A consistent result against the true key's bits: "unresolved", "correct" or "wrong"."""
    if not result.complete:
        return "unresolved"
    return "correct" if all(result.known[p] == b for p, b in enumerate(bits)) else "wrong"


def multi_window_recover(key, w: int) -> RecoveryResult:
    """Run widths w and w+1 and merge: only constant keys stay unresolved.

    The w+1 links join the residue classes mod w, so one inequality
    anywhere resolves every class, including those the single-width
    pass left all-equal.  The result is that closed form of the key: a
    constant key is one unresolved class, any other is known bit for bit.
    """
    key = _as_key(key)
    n, w = kernels._check_window(len(key), w, multi=True)
    constant = 0 not in key.bits or 1 not in key.bits
    return _noise_free(key.bits, (tuple(range(n)),) if constant else (), 2 * w + 1, 2 * (n - w) + 1)


def recovery_probability(n_key: int, w: int) -> float:
    """Chance a uniform random key fully resolves from one window width.

    With n_key = nq*w + m: classes of size nq+1 resolve unless all nq+1
    bits agree, so P = (1 - 2^-nq)^m * (1 - 2^(1-nq))^(w-m).
    """
    return float(recovery_probability_exact(n_key, w))


def recovery_probability_exact(n_key: int, w: int) -> Fraction:
    """Exact rational form of recovery_probability."""
    n_key, w = kernels._check_window(n_key, w, multi=False)
    nq, m = divmod(n_key, w)
    return (1 - Fraction(1, 2**nq)) ** m * (1 - Fraction(2, 2**nq)) ** (w - m)


def eq2_lower_bound(n_key: int, w: int) -> float:
    """Bernoulli lower bound 1 - w * 2^(1-nq) for w | n_key."""
    n_key, w = kernels._check_window(n_key, w, multi=False)
    nq, m = divmod(n_key, w)
    if m != 0:
        raise ValueError("the lower bound applies when w divides n_key")
    return 1.0 - w * 2.0 ** (1 - nq)


_NOISY_CHUNK = 256  # noisy trials per count-engine call


def monte_carlo_recovery_rate(
    n_key: int,
    w: int,
    trials: int,
    seed: int,
    noise: ExfilChannel | None = None,
) -> float:
    """Fraction of uniform random keys fully recovered, deterministic per seed.

    Without ``noise`` this is ``kernels.mc_single(n_key, w, trials, seed) / trials``.  With
    it, trial t's key, measured through the channel seeded ``noise.seed + t``,
    counts only when every bit comes out equal to it; an inconsistent
    measurement set is a miss.  Each count-engine call measures ``_NOISY_CHUNK`` keys.
    """
    n_key, w = kernels._check_window(n_key, w, multi=False)
    trials = _check_int(trials, "trials", 1)
    if noise is None:
        return kernels.mc_single(n_key, w, trials, seed) / trials
    hits = 0
    for start in range(0, trials, _NOISY_CHUNK):
        stop = min(start + _NOISY_CHUNK, trials)
        octets = np.ascontiguousarray(kernels._trial_words(seed, start, stop, n_key).T, dtype="<u8").view(np.uint8)
        keys = np.zeros((stop - start, n_key + 1), dtype=np.uint8)  # key r in row r, bit K_i in column i + 1
        keys[:, 1:] = np.unpackbits(octets, axis=1, count=n_key, bitorder="little")
        rngs = [np.random.default_rng(noise.seed + t) for t in range(start, stop)]
        for bits, relations in zip(keys[:, 1:].tolist(), _noisy_relations(keys, w, noise, rngs)):
            try:
                hits += _score(_propagate((relations,), n_key), bits) == "correct"
            except InconsistentMeasurements:
                pass
    return hits / trials


def exhaustive_success_fraction(n_key: int, w: int, multi: bool = False) -> Fraction:
    """Exact full-recovery fraction over all 2^n keys (kernel-backed)."""
    n_key, w = kernels._check_window(n_key, w, multi)
    return Fraction((kernels.sweep_multi if multi else kernels.sweep_single)(n_key, w), 2**n_key)


def recovery_to_rows(result: RecoveryResult) -> list[tuple[int, str]]:
    """CSV body rows position,value_or_class_id."""
    labels: dict[int, str] = {p: str(v) for p, v in result.known.items()}
    for idx, cls in enumerate(result.unresolved_classes):
        for p in cls:
            labels[p] = f"S{idx}"
    return [(p, labels[p]) for p in range(result.n_key)]
