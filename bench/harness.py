"""Operation accounting and span tracing for one pass over a workload.

A pass runs a workload's fixed job list once.  Every job is timed; inside
a job, each operation (one CLI invocation, one key attacked, one audit
step) is counted as attempted, and as failed when it raises or when its
output disagrees with ground truth.  The harness keeps going after a
failure.

Traced passes also record a span around each of the benchmark's own
calls into a layer.  Where that layer calls another one, the workload
repeats the inner call on the same inputs as a child span, so the outer
layer's self time is its span minus its children.  Spans stay in memory
until the run ends.

Times are stated at a nominal host speed.  A timer signal runs a fixed
piece of interpreter work every 100 ms in the workload's own thread; the
time it takes tracks how fast the shared host runs the program at that
moment, and dividing by it removes most of the host's drift (see
bench/README.md).  The probe's own time is left out of every timing.
"""

from __future__ import annotations

import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass


class CheckFailed(Exception):
    """An output disagreed with its ground truth."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Span:
    name: str
    start: float
    end: float
    work: int
    parent: int | None  # outer span whose inner call this one repeats
    probes: slice  # the host-speed samples taken while the span ran
    scale: float = 1.0  # set when the pass ends; see Pass.run

    @property
    def raw_seconds(self) -> float:
        return self.end - self.start

    @property
    def seconds(self) -> float:
        """Duration at the nominal host speed, like wall_seconds()."""
        return self.raw_seconds * self.scale

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def probe_work() -> int:
    """A fixed piece of interpreter work: integer arithmetic, dict updates, calls."""
    table: dict[int, int] = {}
    total = 0
    for i in range(2000):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        total += key >> 3
    return total


# Typical mean time of probe_work() on the host the bounds were set on (see bench/README.md).
PROBE_NOMINAL_S = 0.6e-3


class HostProbe:
    """Samples the host's speed with probe_work() on a timer signal, in the workload's own thread.

    The host's speed drifts by tens of percent over seconds to minutes, and
    all interpreted work slows together.  Timing the same fixed work every
    interval across the run gives the mean slowdown the jobs saw; the probe's
    own time is left out of every job and span.
    """

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        probe_work()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        self.spent += seconds

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Pass:
    """One run of a workload's job list, traced or not."""

    def __init__(self, tracing: bool, probe: HostProbe):
        self.tracing = tracing
        self.probe = probe
        self.probe_start = len(probe.samples)
        self.probe_samples: list[float] = []
        self.spans: list[Span] = []
        self.job_seconds: dict[str, float] = {}
        self.counts: Counter[str] = Counter()
        self.attempted = 0
        self.failed = 0
        self.refused = 0  # operations that returned no answer, by design of the program
        self.keys_attacked = 0
        self.keys_correct = 0

    def job(self, name: str, fn) -> None:
        """Time one job; a job that raises outside its operations counts as one failed operation."""
        start, probed = time.perf_counter(), self.probe.spent
        try:
            fn(self)
        except Exception as exc:  # keep the pass going; the failure is reported and counted
            self.attempted += 1
            self._fail(f"job {name}", exc)
        self.job_seconds[name] = time.perf_counter() - start - (self.probe.spent - probed)

    def op(self, label: str, fn):
        """Run one operation and return its value, or None when it failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # counted, reported, and the pass continues
            self._fail(label, exc)
            return None

    def _fail(self, label: str, exc: Exception) -> None:
        self.failed += 1
        print(f"FAILED {label}: {type(exc).__name__}: {exc}", file=sys.stderr)

    def call(self, name: str, fn, *args, work: int = 0, parent: int | None = None):
        """Call into a layer; when tracing, record a span.  Returns (result, span index)."""
        if not self.tracing:
            return fn(*args), None
        first, start, probed = len(self.probe.samples), time.perf_counter(), self.probe.spent
        result = fn(*args)
        end = time.perf_counter() - (self.probe.spent - probed)
        self.spans.append(Span(name, start, end, work, parent, slice(first, len(self.probe.samples))))
        return result, len(self.spans) - 1

    def inner(self, parent: int | None, name: str, fn, *args, work: int = 0):
        """Traced passes only: repeat an inner layer's call on the outer call's inputs."""
        if not self.tracing:
            return None, None
        return self.call(name, fn, *args, work=work, parent=parent)

    def score_key(self, correct: bool) -> None:
        self.keys_attacked += 1
        self.keys_correct += int(correct)

    @property
    def seconds(self) -> float:
        return sum(self.job_seconds.values())

    def run(self, jobs) -> "Pass":
        for name, fn in jobs:
            self.job(name, fn)
        self.probe.sample()  # a pass shorter than the interval still gets one
        self.probe_samples = self.probe.samples[self.probe_start:]
        # A span of a second or more is scaled by the host speed during it, a shorter one
        # by the pass's: self times are differences of separate runs of the same inputs.
        pass_probe = statistics.fmean(self.probe_samples)
        for span in self.spans:
            own = self.probe.samples[span.probes]
            span.scale = PROBE_NOMINAL_S / (statistics.fmean(own) if len(own) >= 10 else pass_probe)
        return self


def wall_seconds(passes: list[Pass]) -> float:
    """Median over passes of the job list's time, at the host speed where probe_work() takes PROBE_NOMINAL_S.

    Each pass's time is divided by the mean probe time during that pass: the
    host's slowdown, which all interpreted work shares, cancels in the ratio.
    """
    return statistics.median(p.seconds * PROBE_NOMINAL_S / statistics.fmean(p.probe_samples) for p in passes)


def span_totals(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """Busy seconds and work units per span name."""
    totals: dict[str, tuple[float, int]] = {}
    for s in spans:
        busy, work = totals.get(s.name, (0.0, 0))
        totals[s.name] = (busy + s.seconds, work + s.work)
    return totals


def self_seconds(spans: list[Span]) -> dict[str, float]:
    """Self time per layer: each span's duration minus its repeated inner calls."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    by_layer: dict[str, float] = {}
    for s, seconds in zip(spans, own):
        by_layer[s.layer] = by_layer.get(s.layer, 0.0) + seconds
    return by_layer
