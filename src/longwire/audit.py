"""Defensive audit of long-wire routing.

Routing is abstracted to spans: (channel column, track within the
channel, inclusive y extent).  Leakage needs two spans in the same
column within two tracks of each other with overlapping extents, so the
auditor flags sensitive spans with foreign neighbours inside that
distance, and plans guard wires on the four adjacent tracks of a span
that is still clean.  Every such question is local to a few (column,
track) slots, so a grid keeps each slot's spans ordered by y.  Spans in
one slot never overlap, so their ends are in order too, and one bisect on
each finds the spans in any y range: exposures and guard plans read only
the tracks they ask about.  One function checks a grid's invariants and
builds its slot and wire-id indexes, never written again, for a grid
constructed, parsed or derived by adding guards: then only the guards are
checked, and the parts of the parent's indexes they leave alone are shared.
"""

from __future__ import annotations

import csv
import io
import sys
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, fields
from itertools import islice
from operator import attrgetter
from typing import Iterable

from .patterns import _is_int
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

_Y_START = attrgetter("y_start")
_Y_END = attrgetter("y_end")


@dataclass(frozen=True, slots=True, init=False)
class LongWireSpan:
    wire_id: str
    core_id: str
    trust: str                # "trusted" | "untrusted"
    sensitive: bool
    column: int
    track: int
    y_start: int
    y_end: int

    def __init__(self, wire_id: str, core_id: str, trust: str, sensitive: bool,
                 column: int, track: int, y_start: int, y_end: int):
        if trust not in ("trusted", "untrusted"):
            raise ValueError("trust must be 'trusted' or 'untrusted'")
        if y_start > y_end:
            raise ValueError("y_start must be <= y_end")
        if column < 0:
            raise ValueError("column must be >= 0")
        if track < 0:
            raise ValueError("track must be >= 0")
        # A frozen span stores its fields through the slots' own descriptors,
        # as object.__setattr__ would, without the attribute lookup.
        _set_wire_id(self, wire_id)
        _set_core_id(self, core_id)
        _set_trust(self, trust)
        _set_sensitive(self, sensitive)
        _set_column(self, column)
        _set_track(self, track)
        _set_y_start(self, y_start)
        _set_y_end(self, y_end)

    def overlap(self, other: "LongWireSpan") -> int:
        """Shared extent in long-wire units (inclusive coordinates)."""
        return max(0, min(self.y_end, other.y_end) - max(self.y_start, other.y_start) + 1)


(_set_wire_id, _set_core_id, _set_trust, _set_sensitive, _set_column, _set_track, _set_y_start,
 _set_y_end) = (vars(LongWireSpan)[f.name].__set__ for f in fields(LongWireSpan))


@dataclass(frozen=True)
class RoutingGrid:
    spans: tuple[LongWireSpan, ...]
    tracks_per_column: int = DEFAULT_TRACKS_PER_COLUMN
    n_longs: int = DEFAULT_N_LONGS

    def __post_init__(self):
        if self.tracks_per_column < 1 or self.n_longs < 1:
            raise ValueError("capacities must be >= 1")
        # A tuple of the caller's spans: a list they keep could change under the indexes.
        _check_and_index(tuple(self.spans), self.tracks_per_column, self.n_longs, grid=self)

    def span(self, wire_id: str) -> LongWireSpan:
        i = _position(self, wire_id)
        if i is None:
            raise ValueError(f"no span with wire_id {wire_id!r}")
        return self.spans[i]


def _position(grid: RoutingGrid, wire_id: str) -> int | None:
    """The index of wire_id in grid.spans, or None."""
    return grid._ids.get(wire_id, grid._added.get(wire_id))


def _check_and_index(
    added, tracks_per_column: int, n_longs: int, parent=None, lines=None, grid=None
) -> RoutingGrid:
    """The grid of a valid parent's spans (none without a parent) followed by added.

    Only the added spans are checked, in the order a fresh grid reports its
    first fault: the span count, then the first span with a track outside
    the channel or a repeated wire id, then an overlap on the first
    (column, track) slot to appear.  The same pass builds the indexes, kept
    as plain attributes so that ==, repr and asdict see only the fields:
    the slot index (column -> track -> the slot's spans by y_start, ties in
    grid order) and the wire-id index.  A slot an added span lands in is
    the parent's spans in it, if any, then the added ones in grid order,
    stably sorted by y_start, and an overlap shows between neighbours.
    Columns no added span touches keep the parent's slot maps, and slots
    no added span touches the parent's lists.
    The wire-id index maps each id to its position in spans, in two dicts:
    _ids, built with the lineage's root and shared by every grid derived
    from it, and _added, a copy of the parent's extended by the added ids.
    Derivation only appends, so a position holds along the whole lineage.
    lines, for a grid without a parent, gives each span's source line.
    The indexes are stored on grid, or on a new grid when it is None.
    """
    def where(i: int):
        return None if lines is None else lines[i]

    base = 0 if parent is None else len(parent.spans)
    spans = added if parent is None else tuple(parent.spans) + added
    if len(spans) > n_longs:
        raise CapacityError(f"{len(spans)} spans exceed the {n_longs} long-wire capacity")
    ids: dict[str, int] = {} if parent is None else parent._ids
    added_ids: dict[str, int] = {} if parent is None else dict(parent._added)
    new_ids = ids if parent is None else added_ids
    slots = {} if parent is None else dict(parent._slots)
    touched: defaultdict[int, defaultdict[int, list[LongWireSpan]]] = defaultdict(lambda: defaultdict(list))
    for pos, s in enumerate(added, base):
        if s.track >= tracks_per_column:
            raise CapacityError(
                f"span {s.wire_id}: track {s.track} outside channel of {tracks_per_column} tracks",
                line=where(pos - base),
            )
        w = s.wire_id
        if new_ids.setdefault(w, pos) != pos or parent is not None and w in ids:
            raise DuplicateOccupancy(f"duplicate wire_id {w}", line=where(pos - base))
        touched[s.column][s.track].append(s)
    overlaps = {}
    for c, by_track in touched.items():
        slots[c] = tracks = dict(slots.get(c, ()))
        for t, slot in by_track.items():
            slot[:0] = tracks.get(t, ())
            slot.sort(key=_Y_START)
            tracks[t] = slot
            for a, b in zip(slot, islice(slot, 1, None)):
                if b.y_start <= a.y_end:
                    overlaps[c, t] = a, b
                    break
    if overlaps:
        at = {id(s): i for i, s in enumerate(spans)}

        def first_seen(slot):
            c, t = slot
            return min(at[id(s)] for s in slots[c][t])

        (c, track), pair = min(overlaps.items(), key=lambda item: first_seen(item[0]))
        first, second = sorted(at[id(s)] for s in pair)
        msg = (
            f"spans {spans[first].wire_id} and {spans[second].wire_id} overlap on "
            f"column {c} track {track}"
        )
        if lines is not None:
            msg += f" (lines {lines[first]} and {lines[second]})"
        raise DuplicateOccupancy(msg, line=where(second))
    if grid is None:
        grid = object.__new__(RoutingGrid)
    vars(grid).update(spans=spans, tracks_per_column=tracks_per_column, n_longs=n_longs,
                      _ids=ids, _added=added_ids, _slots=slots)
    return grid


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
        if "#" in raw:
            raw = raw[: raw.index("#")]
        fields = raw.split()
        if not fields:
            continue
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
            # a grid names a handful of cores: share one string per name
            span = LongWireSpan(wire_id, sys.intern(core_id), sys.intern(trust), kind == "sensitive",
                                int(column), int(track), int(y0), int(y1))
        except ValueError as exc:
            raise GridSyntaxError(str(exc), line=lineno) from None
        spans.append(span)
        lines.append(lineno)
    return _check_and_index(tuple(spans), tracks, n_longs, lines=lines)


def serialize_grid(grid: RoutingGrid) -> str:
    """The line format of grid; ValueError if an id would not read back as one field."""
    out = [f"CAPACITY {grid.tracks_per_column} {grid.n_longs}"]
    for s in grid.spans:
        for name, value in (("wire_id", s.wire_id), ("core_id", s.core_id)):
            text = str(value)
            if "#" in text or text.split() != [text]:
                raise ValueError(
                    f"span {s.wire_id!r}: {name} must be non-empty, without whitespace or '#', got {value!r}"
                )
        kind = "sensitive" if s.sensitive else "normal"
        out.append(
            f"LONG {s.wire_id} {s.core_id} {s.trust} {kind} "
            f"{s.column} {s.track} {s.y_start} {s.y_end}"
        )
    return "\n".join(out) + "\n"


def _overlapping(slot, y_start: int, y_end: int):
    """The spans of one slot whose extents overlap [y_start, y_end], in y order.

    A slot's spans never overlap, so their ends are in order as well as
    their starts.
    """
    first = bisect_left(slot, y_start, key=_Y_END)
    return slot[first:bisect_right(slot, y_end, first, key=_Y_START)]


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
    overlap descending.  Only the slots within d_max tracks are read.
    """
    if not _is_int(d_max) or d_max < 1:
        raise ValueError(f"d_max must be an int >= 1, got {d_max!r}")
    last = grid.tracks_per_column - 1
    found = []
    for s in grid.spans:
        if not s.sensitive:
            continue
        tracks = grid._slots[s.column]
        for track in range(max(s.track - d_max, 0), min(s.track + d_max, last) + 1):
            slot = tracks.get(track)
            if slot is None or track == s.track:
                continue
            for f in _overlapping(slot, s.y_start, s.y_end):
                if f.core_id != s.core_id:
                    found.append(Exposure(s, f, abs(track - s.track), s.overlap(f)))
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
        _check_fill_mode(self.fill_mode)


def _check_fill_mode(fill_mode: str) -> None:
    if fill_mode not in ("unoccupied", "random_signal"):
        raise ValueError("fill_mode must be 'unoccupied' or 'random_signal'")


def plan_guards(grid: RoutingGrid, wire_id: str, fill_mode: str = "unoccupied") -> GuardPlan:
    """Plan guards on the tracks at distances -2..+2 of a sensitive span.

    Tracks are clipped at the channel edges.  Stretches already occupied
    by the same core need no guard; any foreign span on a required track
    raises GuardBlocked naming the blockers, track by track in grid order.
    """
    _check_fill_mode(fill_mode)
    target = grid.span(wire_id)
    if not target.sensitive:
        raise ValueError(f"{wire_id} is not marked sensitive")
    required = tuple(
        target.track + d
        for d in GUARD_DISTANCES
        if 0 <= target.track + d < grid.tracks_per_column
    )
    tracks = grid._slots[target.column]
    blockers = []
    guards = []
    for track in required:
        occupants = _overlapping(tracks.get(track, ()), target.y_start, target.y_end)
        foreign = [s for s in occupants if s.core_id != target.core_id]
        if foreign:
            blockers.extend(sorted(foreign, key=lambda s: _position(grid, s.wire_id)))
            continue
        # free sub-intervals of the target extent not already held by the core
        cursor = target.y_start
        for s in occupants:
            if s.y_start > cursor:
                guards.append(GuardSpan(track, cursor, min(s.y_start - 1, target.y_end)))
            cursor = max(cursor, s.y_end + 1)
        if cursor <= target.y_end:
            guards.append(GuardSpan(track, cursor, target.y_end))
    if blockers:
        # A caller that keeps the exception keeps this frame through its
        # traceback; the grid and its indexes need not be kept with it.
        del grid, tracks
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

    The parent grid is valid, so only the guards are checked: against the
    capacity, the channel width, the grid's wire ids and their neighbours
    on their own tracks.  A guard that breaks the grid raises the error a
    fresh grid of the same spans would.  Every column but the guarded one,
    and every slot of it without a guard, is shared with the parent.
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
    return _check_and_index(guards, grid.tracks_per_column, grid.n_longs, parent=grid)


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
