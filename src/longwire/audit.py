"""Defensive audit of long-wire routing.

Routing is abstracted to spans: (channel column, track within the
channel, inclusive y extent).  Leakage needs two spans in the same
column within two tracks of each other with overlapping extents, so the
auditor flags sensitive spans with foreign neighbours inside that
distance, and plans guard wires on the four adjacent tracks of a span
that is still clean.  Every such question is local to one column, so a
grid keeps its spans indexed by column and answers from that column only.
"""

from __future__ import annotations

import csv
import io
import sys
from dataclasses import dataclass
from typing import Iterable

from .errors import CapacityError, DuplicateOccupancy, GridSyntaxError, GuardBlocked

__all__ = [
    "LongWireSpan",
    "RoutingGrid",
    "Exposure",
    "GuardSpan",
    "GuardPlan",
    "DEFAULT_TRACKS_PER_COLUMN",
    "DEFAULT_N_LONGS",
    "GUARD_DISTANCES",
    "parse_grid",
    "serialize_grid",
    "find_exposures",
    "plan_guards",
    "apply_guard_plan",
    "placement_success_probability",
    "exposures_to_csv",
]

DEFAULT_TRACKS_PER_COLUMN = 16
DEFAULT_N_LONGS = 8500

# Guard wires sit two tracks to each side of the protected span.
GUARD_DISTANCES = (-2, -1, 1, 2)


@dataclass(frozen=True, slots=True)
class LongWireSpan:
    wire_id: str
    core_id: str
    trust: str                # "trusted" | "untrusted"
    sensitive: bool
    column: int
    track: int
    y_start: int
    y_end: int

    def __post_init__(self):
        if self.trust not in ("trusted", "untrusted"):
            raise ValueError("trust must be 'trusted' or 'untrusted'")
        if self.y_start > self.y_end:
            raise ValueError("y_start must be <= y_end")
        if self.column < 0:
            raise ValueError("column must be >= 0")
        if self.track < 0:
            raise ValueError("track must be >= 0")

    def overlap(self, other: "LongWireSpan") -> int:
        """Shared extent in long-wire units (inclusive coordinates)."""
        return max(0, min(self.y_end, other.y_end) - max(self.y_start, other.y_start) + 1)


@dataclass(frozen=True)
class RoutingGrid:
    spans: tuple[LongWireSpan, ...]
    tracks_per_column: int = DEFAULT_TRACKS_PER_COLUMN
    n_longs: int = DEFAULT_N_LONGS

    def __post_init__(self):
        if self.tracks_per_column < 1 or self.n_longs < 1:
            raise ValueError("capacities must be >= 1")
        _validate_spans(self.spans, self.tracks_per_column, self.n_longs)
        # a plain attribute, not a field: ==, repr and asdict see only the spans
        object.__setattr__(self, "_columns", _index_columns(self.spans))

    def span(self, wire_id: str) -> LongWireSpan:
        for s in self.spans:
            if s.wire_id == wire_id:
                return s
        raise ValueError(f"no span with wire_id {wire_id!r}")

    def column(self, column: int) -> tuple[LongWireSpan, ...]:
        """The spans of one channel column, in grid order."""
        return self._columns.get(column, ())


def _index_columns(spans) -> dict[int, tuple[LongWireSpan, ...]]:
    columns: dict[int, list[LongWireSpan]] = {}
    for s in spans:
        columns.setdefault(s.column, []).append(s)
    return {c: tuple(members) for c, members in columns.items()}


def _validated_grid(spans, tracks_per_column: int, n_longs: int, columns) -> RoutingGrid:
    """A RoutingGrid over spans the caller has already validated, with their column index."""
    grid = object.__new__(RoutingGrid)
    object.__setattr__(grid, "spans", spans)
    object.__setattr__(grid, "tracks_per_column", tracks_per_column)
    object.__setattr__(grid, "n_longs", n_longs)
    object.__setattr__(grid, "_columns", columns)
    return grid


def _validate_spans(spans, tracks_per_column: int, n_longs: int, lines=None) -> None:
    def where(i: int):
        return None if lines is None else lines[i]

    if len(spans) > n_longs:
        raise CapacityError(f"{len(spans)} spans exceed the {n_longs} long-wire capacity")
    seen: dict[str, int] = {}
    for i, s in enumerate(spans):
        if s.track >= tracks_per_column:
            raise CapacityError(
                f"span {s.wire_id}: track {s.track} outside channel of {tracks_per_column} tracks",
                line=where(i),
            )
        if s.wire_id in seen:
            raise DuplicateOccupancy(f"duplicate wire_id {s.wire_id}", line=where(i))
        seen[s.wire_id] = i
    by_slot: dict[tuple[int, int], list[int]] = {}
    for i, s in enumerate(spans):
        by_slot.setdefault((s.column, s.track), []).append(i)
    for slot, members in by_slot.items():
        ordered = sorted(members, key=lambda i: spans[i].y_start)
        for a, b in zip(ordered, ordered[1:]):
            if spans[a].overlap(spans[b]) > 0:
                first, second = sorted((a, b))
                msg = (
                    f"spans {spans[first].wire_id} and {spans[second].wire_id} overlap on "
                    f"column {slot[0]} track {slot[1]}"
                )
                if lines is not None:
                    msg += f" (lines {lines[first]} and {lines[second]})"
                raise DuplicateOccupancy(msg, line=where(second))


def parse_grid(text: str) -> RoutingGrid:
    """Parse the line format; see serialize_grid for the inverse.

    Lines: optional ``CAPACITY <tracks_per_column> <n_longs>`` followed by
    ``LONG <wire_id> <core_id> <trusted|untrusted> <sensitive|normal>
    <column> <track> <y_start> <y_end>``.  ``#`` starts a comment.
    """
    tracks = DEFAULT_TRACKS_PER_COLUMN
    n_longs = DEFAULT_N_LONGS
    capacity_line = None
    spans: list[LongWireSpan] = []
    lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "CAPACITY":
            if len(fields) != 3:
                raise GridSyntaxError("CAPACITY takes <tracks_per_column> <n_longs>", line=lineno)
            if capacity_line is not None:
                raise GridSyntaxError(
                    f"CAPACITY already given on line {capacity_line}", line=lineno
                )
            if spans:
                raise GridSyntaxError("CAPACITY must precede all LONG lines", line=lineno)
            try:
                tracks, n_longs = int(fields[1]), int(fields[2])
            except ValueError:
                raise GridSyntaxError("CAPACITY values must be integers", line=lineno) from None
            if tracks < 1 or n_longs < 1:
                raise GridSyntaxError("capacities must be >= 1", line=lineno)
            capacity_line = lineno
            continue
        if fields[0] != "LONG":
            raise GridSyntaxError(f"unknown directive {fields[0]!r}", line=lineno)
        if len(fields) != 9:
            raise GridSyntaxError("LONG takes 8 fields", line=lineno)
        _, wire_id, core_id, trust, kind, column, track, y0, y1 = fields
        if kind not in ("sensitive", "normal"):
            raise GridSyntaxError("span kind must be 'sensitive' or 'normal'", line=lineno)
        try:
            span = LongWireSpan(
                wire_id=wire_id,
                # a grid names a handful of cores: share one string per name
                core_id=sys.intern(core_id),
                trust=sys.intern(trust),
                sensitive=kind == "sensitive",
                column=int(column),
                track=int(track),
                y_start=int(y0),
                y_end=int(y1),
            )
        except ValueError as exc:
            raise GridSyntaxError(str(exc), line=lineno) from None
        spans.append(span)
        lines.append(lineno)
    _validate_spans(spans, tracks, n_longs, lines=lines)
    return _validated_grid(tuple(spans), tracks, n_longs, _index_columns(spans))


def serialize_grid(grid: RoutingGrid) -> str:
    out = [f"CAPACITY {grid.tracks_per_column} {grid.n_longs}"]
    for s in grid.spans:
        kind = "sensitive" if s.sensitive else "normal"
        out.append(
            f"LONG {s.wire_id} {s.core_id} {s.trust} {kind} "
            f"{s.column} {s.track} {s.y_start} {s.y_end}"
        )
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class Exposure:
    sensitive: LongWireSpan
    foreign: LongWireSpan
    distance: int
    overlap: int


def find_exposures(grid: RoutingGrid, d_max: int = 2) -> list[Exposure]:
    """Foreign spans within leakage distance of a sensitive span.

    A pair is reported when both share a column, their extents overlap
    and the track distance is in [1, d_max]; sorted by distance, then
    overlap descending.
    """
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    found = []
    for s in grid.spans:
        if not s.sensitive:
            continue
        for f in grid.column(s.column):
            distance = abs(f.track - s.track)
            if not 1 <= distance <= d_max or f.core_id == s.core_id:
                continue
            overlap = s.overlap(f)
            if overlap > 0:
                found.append(Exposure(s, f, distance, overlap))
    found.sort(key=lambda e: (e.distance, -e.overlap, e.sensitive.wire_id, e.foreign.wire_id))
    return found


@dataclass(frozen=True)
class GuardSpan:
    track: int
    y_start: int
    y_end: int


@dataclass(frozen=True)
class GuardPlan:
    wire_id: str
    column: int
    required_tracks: tuple[int, ...]
    guards: tuple[GuardSpan, ...]
    fill_mode: str = "unoccupied"   # or "random_signal"

    def __post_init__(self):
        if self.fill_mode not in ("unoccupied", "random_signal"):
            raise ValueError("fill_mode must be 'unoccupied' or 'random_signal'")


def plan_guards(grid: RoutingGrid, wire_id: str, fill_mode: str = "unoccupied") -> GuardPlan:
    """Plan guards on the tracks at distances -2..+2 of a sensitive span.

    Tracks are clipped at the channel edges.  Stretches already occupied
    by the same core need no guard; any foreign span on a required track
    raises GuardBlocked naming the blockers.
    """
    target = grid.span(wire_id)
    if not target.sensitive:
        raise ValueError(f"{wire_id} is not marked sensitive")
    required = tuple(
        target.track + d
        for d in GUARD_DISTANCES
        if 0 <= target.track + d < grid.tracks_per_column
    )
    by_track: dict[int, list[LongWireSpan]] = {track: [] for track in required}
    for s in grid.column(target.column):
        if s.track in by_track and s.overlap(target) > 0:
            by_track[s.track].append(s)
    blockers = []
    guards = []
    for track, occupants in by_track.items():
        foreign = [s for s in occupants if s.core_id != target.core_id]
        if foreign:
            blockers.extend(foreign)
            continue
        # free sub-intervals of the target extent not already held by the core
        cursor = target.y_start
        for s in sorted(occupants, key=lambda s: s.y_start):
            if s.y_start > cursor:
                guards.append(GuardSpan(track, cursor, min(s.y_start - 1, target.y_end)))
            cursor = max(cursor, s.y_end + 1)
        if cursor <= target.y_end:
            guards.append(GuardSpan(track, cursor, target.y_end))
    if blockers:
        # A caller that keeps the exception keeps this frame through its
        # traceback; the grid it holds need not be kept with it.
        del grid
        raise GuardBlocked(wire_id, blockers)
    return GuardPlan(
        wire_id=wire_id,
        column=target.column,
        required_tracks=required,
        guards=tuple(guards),
        fill_mode=fill_mode,
    )


def apply_guard_plan(grid: RoutingGrid, plan: GuardPlan) -> RoutingGrid:
    """Occupy the planned tracks with guard spans owned by the same core.

    The parent grid is valid, so only the guards can break the derived
    one: they are checked against the capacity, the channel width, the
    grid's wire ids and the guarded column.  Every column but that one is
    shared with the parent.  A guard that fails a check goes through the
    full constructor, which raises the error a fresh grid would.
    """
    target = grid.span(plan.wire_id)
    guards = tuple(
        LongWireSpan(
            wire_id=f"guard_{plan.wire_id}_{i}",
            core_id=target.core_id,
            trust=target.trust,
            sensitive=False,
            column=plan.column,
            track=g.track,
            y_start=g.y_start,
            y_end=g.y_end,
        )
        for i, g in enumerate(plan.guards)
    )
    spans = tuple(grid.spans) + guards
    if not _guards_fit(grid, plan.column, guards):
        return RoutingGrid(spans, grid.tracks_per_column, grid.n_longs)
    columns = dict(grid._columns)
    columns[plan.column] = grid.column(plan.column) + guards
    return _validated_grid(spans, grid.tracks_per_column, grid.n_longs, columns)


def _guards_fit(grid: RoutingGrid, column: int, guards: tuple[LongWireSpan, ...]) -> bool:
    """Whether guards in one column can join the valid grid without breaking it."""
    if len(grid.spans) + len(guards) > grid.n_longs:
        return False
    if any(g.track >= grid.tracks_per_column for g in guards):
        return False
    ids = {g.wire_id for g in guards}
    for s in grid.spans:
        if s.wire_id in ids:
            return False
    placed = list(grid.column(column))
    for g in guards:
        if any(s.track == g.track and s.overlap(g) > 0 for s in placed):
            return False
        placed.append(g)
    return True


def placement_success_probability(n_longs: int, w_adj: int, r_longs: int, t_longs: int) -> float:
    """Chance randomly placed transmitter and receiver end up adjacent.

    (R + T - 1) placements of the receiver hit one of the w_adj wires
    recoverable from each of the transmitter's longs, out of N total.
    """
    if min(n_longs, w_adj, r_longs, t_longs) < 1:
        raise ValueError("all arguments must be >= 1")
    if r_longs + t_longs > n_longs:
        raise ValueError("R + T must be <= N_longs")
    return min(1.0, (r_longs + t_longs - 1) * w_adj / n_longs)


def exposures_to_csv(exposures: Iterable[Exposure]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["sensitive_id", "foreign_id", "distance", "overlap"])
    for e in exposures:
        writer.writerow([e.sensitive.wire_id, e.foreign.wire_id, e.distance, e.overlap])
    return buf.getvalue()
