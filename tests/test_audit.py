import copy
import dataclasses
import inspect
import pickle
import random
import re
import sys
import weakref
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from longwire.audit import (
    Exposure,
    GuardPlan,
    GuardSpan,
    LongWireSpan,
    RoutingGrid,
    apply_guard_plan,
    exposures_to_csv,
    find_exposures,
    parse_grid,
    placement_success_probability,
    plan_guards,
    serialize_grid,
)
from longwire.errors import (
    CapacityError,
    DuplicateOccupancy,
    GridError,
    GridSyntaxError,
    GuardBlocked,
)


def span(wire_id, core, track, y0, y1, column=0, sensitive=False, trust="untrusted"):
    return LongWireSpan(wire_id, core, trust, sensitive, column, track, y0, y1)


class TestParseGrid:
    def test_two_valid_lines(self):
        grid = parse_grid(
            "LONG a core1 trusted sensitive 0 3 0 10\n"
            "LONG b core2 untrusted normal 0 5 0 10\n"
        )
        assert len(grid.spans) == 2
        assert grid.span("a").sensitive
        assert not grid.span("b").sensitive

    def test_empty_file(self):
        grid = parse_grid("")
        assert grid.spans == ()

    def test_comments_and_capacity(self):
        grid = parse_grid("# hello\nCAPACITY 8 100\nLONG a c trusted normal 0 1 0 5 # tail\n")
        assert grid.tracks_per_column == 8
        assert grid.n_longs == 100

    def test_duplicate_occupancy_names_both_lines(self):
        text = (
            "LONG a core1 trusted normal 0 3 0 10\n"
            "LONG b core2 untrusted normal 0 3 8 20\n"
        )
        with pytest.raises(DuplicateOccupancy) as err:
            parse_grid(text)
        message = str(err.value)
        assert "a" in message and "b" in message
        assert re.search(r"lines 1 and 2", message)

    def test_non_overlapping_same_track_is_fine(self):
        grid = parse_grid(
            "LONG a core1 trusted normal 0 3 0 10\n"
            "LONG b core2 untrusted normal 0 3 11 20\n"
        )
        assert len(grid.spans) == 2

    def test_syntax_errors_carry_line_numbers(self):
        with pytest.raises(GridSyntaxError, match="line 2"):
            parse_grid("LONG a c trusted normal 0 1 0 5\nWIRE nope\n")
        with pytest.raises(GridSyntaxError, match="line 1"):
            parse_grid("LONG too few fields\n")
        with pytest.raises(GridSyntaxError, match="line 1"):
            parse_grid("LONG a c trusted spicy 0 1 0 5\n")

    def test_track_capacity_enforced(self):
        with pytest.raises(CapacityError):
            parse_grid("CAPACITY 4 100\nLONG a c trusted normal 0 4 0 5\n")

    def test_total_longs_enforced(self):
        text = "CAPACITY 4 2\n" + "".join(
            f"LONG w{i} c trusted normal 0 {i} 0 5\n" for i in range(3)
        )
        with pytest.raises(CapacityError):
            parse_grid(text)

    def test_duplicate_wire_id(self):
        with pytest.raises(DuplicateOccupancy, match="wire_id"):
            parse_grid(
                "LONG a c trusted normal 0 1 0 5\nLONG a c trusted normal 0 2 0 5\n"
            )

    @pytest.mark.parametrize("values", ["0 5", "4 0", "-1 5"])
    def test_capacity_below_one_is_a_syntax_error(self, values):
        with pytest.raises(GridSyntaxError, match="line 2") as err:
            parse_grid(f"# sized\nCAPACITY {values}\nLONG a c trusted normal 0 0 0 5\n")
        assert err.value.line == 2

    def test_second_capacity_line_rejected(self):
        with pytest.raises(GridSyntaxError, match="line 3") as err:
            parse_grid("CAPACITY 8 100\n\nCAPACITY 4 10\n")
        assert err.value.line == 3
        assert "line 1" in str(err.value)

    def test_negative_column_rejected(self):
        with pytest.raises(ValueError, match="column"):
            span("a", "c", 1, 0, 5, column=-1)
        with pytest.raises(GridSyntaxError, match="line 2") as err:
            parse_grid("LONG a c trusted normal 0 1 0 5\nLONG b c trusted normal -3 1 0 5\n")
        assert err.value.line == 2


GOOD = "LONG a c trusted normal 0 1 0 5\n"

# (text, error type, message, line): the first fault by line, with its exact message.
PARSE_ERRORS = [
    ("unknown-directive", GOOD + "WIRE nope\n", GridSyntaxError, "unknown directive 'WIRE'", 2),
    ("long-too-few", "LONG too few fields\n", GridSyntaxError, "LONG takes 8 fields", 1),
    ("long-too-many", "LONG a c trusted normal 0 1 0 5 6\n", GridSyntaxError, "LONG takes 8 fields", 1),
    ("bad-kind", "LONG a c trusted spicy 0 1 0 5\n", GridSyntaxError,
     "span kind must be 'sensitive' or 'normal'", 1),
    ("column-not-int", "LONG a c trusted normal x 1 0 5\n", GridSyntaxError,
     "invalid literal for int() with base 10: 'x'", 1),
    ("track-not-int", GOOD + "LONG b c trusted normal 0 1.5 0 5\n", GridSyntaxError,
     "invalid literal for int() with base 10: '1.5'", 2),
    ("y-start-not-int", "LONG a c trusted normal 0 1 y 5\n", GridSyntaxError,
     "invalid literal for int() with base 10: 'y'", 1),
    ("y-end-not-int", "LONG a c trusted normal 0 1 0 0x5\n", GridSyntaxError,
     "invalid literal for int() with base 10: '0x5'", 1),
    ("bad-trust", "LONG a c maybe normal 0 1 0 5\n", GridSyntaxError,
     "trust must be 'trusted' or 'untrusted'", 1),
    ("y-start-after-end", "LONG a c trusted normal 0 1 6 5\n", GridSyntaxError, "y_start must be <= y_end", 1),
    ("negative-column", "LONG a c trusted normal -3 1 0 5\n", GridSyntaxError, "column must be >= 0", 1),
    ("negative-track", "LONG a c trusted normal 0 -1 0 5\n", GridSyntaxError, "track must be >= 0", 1),
    ("capacity-arity", "CAPACITY 8\n", GridSyntaxError, "CAPACITY takes <tracks_per_column> <n_longs>", 1),
    ("capacity-not-int", "CAPACITY 8 lots\n", GridSyntaxError, "CAPACITY values must be integers", 1),
    ("capacity-repeated", "CAPACITY 8 100\n# again\nCAPACITY 8 100\n", GridSyntaxError,
     "CAPACITY already given on line 1", 3),
    ("capacity-after-long", GOOD + "CAPACITY 8 100\n", GridSyntaxError,
     "CAPACITY must precede all LONG lines", 2),
    # several faulty lines: the earliest line wins, whatever its kind of fault
    ("earliest-line-wins",
     GOOD
     + "# comment\n"
     + "LONG b c trusted normal 0 -2 0 5\n"
     + "LONG c c trusted normal x 1 0 5\n"
     + "LONG d c trusted spicy 0 1 0 5\n"
     + "WIRE nope\n",
     GridSyntaxError, "track must be >= 0", 3),
    ("earliest-line-later-field",
     "LONG a c trusted normal 0 1 0 z\nLONG b c trusted normal x 1 0 5\n",
     GridSyntaxError, "invalid literal for int() with base 10: 'z'", 1),
    ("earliest-line-directive",
     GOOD + "LONG b c trusted normal\nLONG c c maybe normal 0 1 0 5\nLONG d c trusted normal x 1 0 5\n",
     GridSyntaxError, "LONG takes 8 fields", 2),
    # several faults on one line: the kind, then the numbers in order, then the span checks
    ("one-line-kind-first", "LONG a c maybe spicy x 1 0 5\n", GridSyntaxError,
     "span kind must be 'sensitive' or 'normal'", 1),
    ("one-line-number-before-trust", "LONG a c maybe normal 0 t -1 -5\n", GridSyntaxError,
     "invalid literal for int() with base 10: 't'", 1),
    ("one-line-trust-first", "LONG a c maybe normal -1 -1 6 5\n", GridSyntaxError,
     "trust must be 'trusted' or 'untrusted'", 1),
    # a syntax fault on any line comes before a fault of the grid as a whole
    ("syntax-before-grid", GOOD + GOOD + "LONG b c trusted normal 0 1 0 -\n", GridSyntaxError,
     "invalid literal for int() with base 10: '-'", 3),
]


class TestParseErrors:
    @pytest.mark.parametrize(
        "text, error, message, line", [row[1:] for row in PARSE_ERRORS], ids=[row[0] for row in PARSE_ERRORS]
    )
    def test_first_fault_by_line(self, text, error, message, line):
        with pytest.raises(GridError) as err:
            parse_grid(text)
        assert (type(err.value), str(err.value), err.value.line) == (error, f"line {line}: {message}", line)


def reference_syntax_error(text):
    """The first line's own fault, found one line at a time (None if every line is well formed)."""
    capacity_line = None
    longs = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if fields[0] == "CAPACITY":
            if len(fields) != 3:
                return lineno, "CAPACITY takes <tracks_per_column> <n_longs>"
            if capacity_line is not None:
                return lineno, f"CAPACITY already given on line {capacity_line}"
            if longs:
                return lineno, "CAPACITY must precede all LONG lines"
            capacity_line = lineno
            continue
        if fields[0] != "LONG":
            return lineno, f"unknown directive {fields[0]!r}"
        if len(fields) != 9:
            return lineno, "LONG takes 8 fields"
        _, wire_id, core_id, trust, kind, column, track, y0, y1 = fields
        if kind not in ("sensitive", "normal"):
            return lineno, "span kind must be 'sensitive' or 'normal'"
        try:
            LongWireSpan(wire_id, core_id, trust, kind == "sensitive", int(column), int(track), int(y0), int(y1))
        except ValueError as exc:
            return lineno, str(exc)
        longs += 1
    return None


FAULTS = {
    "kind": lambda f: f.__setitem__(4, "spicy"),
    "trust": lambda f: f.__setitem__(3, "maybe"),
    "column": lambda f: f.__setitem__(5, "x"),
    "track": lambda f: f.__setitem__(6, "1.5"),
    "y_start": lambda f: f.__setitem__(7, "0x5"),
    "y_end": lambda f: f.__setitem__(8, "y"),
    "order": lambda f: f.__setitem__(7, str(int(f[8]) + 1)),
    "negative-column": lambda f: f.__setitem__(5, "-1"),
    "negative-track": lambda f: f.__setitem__(6, "-2"),
    "short": lambda f: f.pop(),
    "directive": lambda f: f.__setitem__(0, "WIRE"),
}


class TestParseOracle:
    """Texts long enough to be built in several batches, with faults on random lines."""

    def text(self, rng, n):
        lines = ["# generated", "CAPACITY 16 8500"]
        for i in range(n):
            column, slot = divmod(i, 64)  # four spans a track, one above the other
            y = slot // 16 * 40
            lines.append(f"LONG w{i} core{i % 3} {rng.choice(['trusted', 'untrusted'])} "
                         f"{rng.choice(['sensitive', 'normal'])} {column} {slot % 16} {y} {y + 30}")
            if rng.random() < 0.05:
                lines.append(rng.choice(["", "   # note", "\t"]))
        return lines

    def test_well_formed_text_parses_as_the_constructor(self):
        rng = random.Random(3)
        lines = self.text(rng, 1300)
        grid = parse_grid("\n".join(lines))
        assert grid == RoutingGrid(spans_of("\n".join(lines)), 16, 8500)
        assert len(grid.spans) == 1300
        assert [s.wire_id for s in grid.spans] == [f"w{i}" for i in range(1300)]

    def test_first_faulty_line_wins(self):
        rng = random.Random(11)
        seen = set()
        for _ in range(60):
            lines = self.text(rng, rng.choice([400, 700, 1300]))
            longs = [i for i, line in enumerate(lines) if line.startswith("LONG")]
            for i in rng.sample(longs, rng.randint(1, 3)):
                fields = lines[i].split()
                for name in rng.sample(sorted(FAULTS), rng.choice([1, 1, 2])):
                    FAULTS[name](fields)
                    seen.add(name)
                lines[i] = " ".join(fields)
            if rng.random() < 0.2:
                lines.insert(rng.choice(longs), "CAPACITY 16 8500")
            text = "\n".join(lines)
            expected = reference_syntax_error(text)
            assert expected is not None
            with pytest.raises(GridSyntaxError) as err:
                parse_grid(text)
            assert (err.value.line, str(err.value)) == (expected[0], f"line {expected[0]}: {expected[1]}")
        assert seen == set(FAULTS)


SPAN_FIELDS = ("wire_id", "core_id", "trust", "sensitive", "column", "track", "y_start", "y_end")
SPAN_VALUES = ("a", "crypto", "trusted", True, 3, 5, 10, 20)


class TestLongWireSpan:
    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"trust": "maybe"}, "trust must be 'trusted' or 'untrusted'"),
            ({"y_start": 21}, "y_start must be <= y_end"),
            ({"column": -1}, "column must be >= 0"),
            ({"track": -1}, "track must be >= 0"),
            ({"trust": "maybe", "y_start": 21, "column": -1, "track": -1}, "trust must be 'trusted' or 'untrusted'"),
            ({"y_start": 21, "column": -1, "track": -1}, "y_start must be <= y_end"),
            ({"column": -1, "track": -1}, "column must be >= 0"),
        ],
    )
    def test_checks_positional_and_keyword(self, changes, message):
        values = dict(zip(SPAN_FIELDS, SPAN_VALUES), **changes)
        with pytest.raises(ValueError) as err:
            LongWireSpan(*values.values())
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            LongWireSpan(**values)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            dataclasses.replace(LongWireSpan(*SPAN_VALUES), **changes)
        assert str(err.value) == message

    def test_fields_and_signature(self):
        assert tuple(f.name for f in dataclasses.fields(LongWireSpan)) == SPAN_FIELDS
        assert tuple(inspect.signature(LongWireSpan).parameters) == SPAN_FIELDS
        assert LongWireSpan.__match_args__ == SPAN_FIELDS
        s = LongWireSpan(*SPAN_VALUES)
        assert tuple(getattr(s, name) for name in SPAN_FIELDS) == SPAN_VALUES
        assert dataclasses.astuple(s) == SPAN_VALUES
        with pytest.raises(TypeError):
            LongWireSpan(*SPAN_VALUES[:-1])
        with pytest.raises(TypeError):
            LongWireSpan(*SPAN_VALUES, 7)
        assert not hasattr(s, "__dict__")

    @pytest.mark.parametrize("name", SPAN_FIELDS)
    def test_frozen(self, name):
        s = LongWireSpan(*SPAN_VALUES)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, name, getattr(s, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(s, name)
        assert s == LongWireSpan(*SPAN_VALUES)

    def test_replace_keeps_the_other_fields(self):
        s = LongWireSpan(*SPAN_VALUES)
        moved = dataclasses.replace(s, track=7, y_end=30)
        assert moved == LongWireSpan("a", "crypto", "trusted", True, 3, 7, 10, 30)
        assert s.track == 5

    def test_equality_hash_repr(self):
        s, t = LongWireSpan(*SPAN_VALUES), LongWireSpan(**dict(zip(SPAN_FIELDS, SPAN_VALUES)))
        assert s == t and hash(s) == hash(t) and repr(s) == repr(t)
        assert repr(s) == (
            "LongWireSpan(wire_id='a', core_id='crypto', trust='trusted', sensitive=True, "
            "column=3, track=5, y_start=10, y_end=20)"
        )
        assert s != dataclasses.replace(s, y_end=21)
        assert s != SPAN_VALUES
        assert len({s, t, dataclasses.replace(s, wire_id="b")}) == 2

    def test_pickle_round_trip(self):
        s = LongWireSpan(*SPAN_VALUES)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(s, protocol))
            assert back == s and hash(back) == hash(s) and repr(back) == repr(s)
        assert copy.copy(s) == s and copy.deepcopy(s) == s


class TestRoutingGrid:
    def test_keeps_a_tuple_of_the_callers_list(self):
        a, b = span("a", "cpu", 3, 0, 9), span("b", "cpu", 4, 0, 9)
        given = [a, b]
        grid = RoutingGrid(given)
        given.append(span("c", "ip0", 3, 5, 12))  # overlaps "a"
        assert grid.spans == (a, b)
        assert grid == RoutingGrid((a, b)) and hash(grid) == hash(RoutingGrid((a, b)))
        assert grid._slots[0][3] == [a]
        with pytest.raises(ValueError, match="no span with wire_id 'c'"):
            grid.span("c")
        with pytest.raises(DuplicateOccupancy, match="spans a and c overlap on column 0 track 3"):
            RoutingGrid(given)


def spans_of(text):
    """The spans of a grid text's LONG lines, built without parse_grid."""
    return tuple(
        LongWireSpan(w, core, trust, kind == "sensitive", int(c), int(t), int(y0), int(y1))
        for _, w, core, trust, kind, c, t, y0, y1 in (
            line.split() for line in text.splitlines() if line.startswith("LONG")
        )
    )


class TestErrorOrder:
    """With several faults, the count comes first, then the first span with a bad
    track or a repeated id, then the overlap on the (column, track) slot seen first."""

    @pytest.mark.parametrize(
        "text, error, message, lines, line",
        [
            (
                "LONG x c trusted normal 0 0 0 5\n"
                "LONG a c trusted normal 1 0 0 10\n"
                "LONG b c trusted normal 0 1 0 10\n"
                "LONG c2 c trusted normal 0 1 5 15\n"
                "LONG d c trusted normal 1 0 5 15\n",
                DuplicateOccupancy,
                "spans a and d overlap on column 1 track 0",
                " (lines 2 and 5)",
                5,
            ),
            (
                "LONG a c trusted normal 0 0 0 10\n"
                "LONG b c trusted normal 0 0 5 15\n"
                "LONG a c trusted normal 0 1 0 5\n",
                DuplicateOccupancy,
                "duplicate wire_id a",
                "",
                3,
            ),
            (
                "CAPACITY 4 2\n"
                "LONG a c trusted normal 0 9 0 5\n"
                "LONG a c trusted normal 0 1 0 5\n"
                "LONG b c trusted normal 0 1 0 5\n",
                CapacityError,
                "3 spans exceed the 2 long-wire capacity",
                "",
                None,
            ),
        ],
        ids=["overlap-slot-order", "id-before-overlap", "count-first"],
    )
    def test_first_fault_reported(self, text, error, message, lines, line):
        with pytest.raises(error) as err:
            parse_grid(text)
        assert str(err.value) == ("" if line is None else f"line {line}: ") + message + lines
        assert err.value.line == line
        tracks, n_longs = (4, 2) if text.startswith("CAPACITY") else (16, 8500)
        with pytest.raises(error) as err:
            RoutingGrid(spans_of(text), tracks, n_longs)
        assert (str(err.value), err.value.line) == (message, None)

    def test_missing_wire_id_names_it(self):
        grid = parse_grid("LONG key c trusted sensitive 0 8 0 9\n")
        guarded = apply_guard_plan(grid, plan_guards(grid, "key"))
        for g in (grid, guarded):
            with pytest.raises(ValueError, match="'missing'"):
                g.span("missing")


class TestSerializeRoundTrip:
    def test_parse_serialize_parse_is_identity(self, docs_dir):
        text = (docs_dir / "sample_grid.txt").read_text()
        grid = parse_grid(text)
        canonical = serialize_grid(grid)
        assert parse_grid(canonical) == grid
        assert serialize_grid(parse_grid(canonical)) == canonical

    @pytest.mark.parametrize(
        "wire_id, core_id, field",
        [("a b", "c", "wire_id"), ("", "c", "wire_id"), ("w#1", "c", "wire_id"), ("w\n1", "c", "wire_id"),
         ("a", "co re", "core_id"), ("a", "", "core_id"), ("a", "#", "core_id"), ("a", "c\t", "core_id")],
    )
    def test_unwritable_ids_are_rejected(self, wire_id, core_id, field):
        grid = RoutingGrid((span("ok", "c", 0, 0, 5), span(wire_id, core_id, 1, 0, 5)))
        with pytest.raises(ValueError) as err:
            serialize_grid(grid)
        value = wire_id if field == "wire_id" else core_id
        assert str(err.value) == (
            f"span {wire_id!r}: {field} must be non-empty, without whitespace or '#', got {value!r}"
        )


class TestFindExposures:
    def grid(self):
        return RoutingGrid(
            (
                span("secret", "crypto", 8, 10, 29, sensitive=True, trust="trusted"),
                span("near", "spy", 9, 15, 40),
                span("far", "spy", 10, 0, 50),
                span("too_far", "spy", 11, 0, 50),
                span("elsewhere", "spy", 8, 0, 50, column=2),
                span("own", "crypto", 7, 0, 50, trust="trusted"),
            )
        )

    def test_reports_up_to_distance_two(self):
        exposures = find_exposures(self.grid())
        assert [(e.foreign.wire_id, e.distance, e.overlap) for e in exposures] == [
            ("near", 1, 15),
            ("far", 2, 20),
        ]

    def test_distance_three_not_reported(self):
        names = {e.foreign.wire_id for e in find_exposures(self.grid(), d_max=2)}
        assert "too_far" not in names
        for d_max in (True, 2.5, 2.0, "2", None, 0, -1):
            with pytest.raises(ValueError) as err:
                find_exposures(self.grid(), d_max)
            assert str(err.value) == f"d_max must be an int >= 1, got {d_max!r}"
        assert find_exposures(self.grid(), np.int64(2)) == find_exposures(self.grid())
        # at or beyond the channel width every track is read once
        wide = find_exposures(self.grid(), 16)
        assert [(e.foreign.wire_id, e.distance) for e in wide] == [("near", 1), ("far", 2), ("too_far", 3)]
        assert find_exposures(self.grid(), 15) == find_exposures(self.grid(), 10**9) == wide

    def test_other_column_not_reported(self):
        names = {e.foreign.wire_id for e in find_exposures(self.grid())}
        assert "elsewhere" not in names

    def test_same_core_not_reported(self):
        names = {e.foreign.wire_id for e in find_exposures(self.grid())}
        assert "own" not in names

    def test_translation_invariance(self):
        base = [(e.foreign.wire_id, e.distance, e.overlap) for e in find_exposures(self.grid())]
        moved = RoutingGrid(
            tuple(
                LongWireSpan(
                    s.wire_id, s.core_id, s.trust, s.sensitive,
                    s.column + 5, s.track + 3, s.y_start + 100, s.y_end + 100,
                )
                for s in self.grid().spans
            ),
            tracks_per_column=16,
        )
        assert [(e.foreign.wire_id, e.distance, e.overlap) for e in find_exposures(moved)] == base

    def test_csv_output(self):
        text = exposures_to_csv(find_exposures(self.grid()))
        assert text.splitlines()[0] == "sensitive_id,foreign_id,distance,overlap"
        assert text.splitlines()[1] == "secret,near,1,15"


class TestGuardPlanning:
    def isolated_grid(self):
        return RoutingGrid(
            (
                span("key_bus", "crypto", 8, 0, 19, sensitive=True, trust="trusted"),
                span("own_neighbor", "crypto", 9, 0, 19, trust="trusted"),
            )
        )

    def test_four_track_plan_mid_channel(self):
        plan = plan_guards(self.isolated_grid(), "key_bus")
        assert plan.required_tracks == (6, 7, 9, 10)
        # track 9 is fully covered by the same core: no guard span needed there
        assert sorted({g.track for g in plan.guards}) == [6, 7, 10]

    def test_edge_span_gets_clipped_plan(self):
        grid = RoutingGrid(
            (span("edge", "crypto", 0, 0, 9, sensitive=True, trust="trusted"),)
        )
        plan = plan_guards(grid, "edge")
        assert plan.required_tracks == (1, 2)
        assert len(plan.guards) == 2

    def test_foreign_neighbor_blocks(self):
        grid = RoutingGrid(
            (
                span("key_bus", "crypto", 8, 0, 19, sensitive=True, trust="trusted"),
                span("intruder", "spy", 9, 5, 12),
            )
        )
        with pytest.raises(GuardBlocked) as err:
            plan_guards(grid, "key_bus")
        assert "intruder" in str(err.value)

    def test_kept_guard_blocked_does_not_keep_the_grid(self):
        grid = RoutingGrid(
            (
                span("key_bus", "crypto", 8, 0, 19, sensitive=True, trust="trusted"),
                span("intruder", "spy", 9, 5, 12),
            )
        )
        with pytest.raises(GuardBlocked) as err:
            plan_guards(grid, "key_bus")
        alive = weakref.ref(grid)
        del grid
        assert alive() is None
        assert [s.wire_id for s in err.value.blockers] == ["intruder"]

    def test_partial_same_core_coverage_fills_gaps(self):
        grid = RoutingGrid(
            (
                span("key_bus", "crypto", 8, 0, 19, sensitive=True, trust="trusted"),
                span("stub", "crypto", 9, 5, 9, trust="trusted"),
            )
        )
        plan = plan_guards(grid, "key_bus")
        track9 = sorted((g.y_start, g.y_end) for g in plan.guards if g.track == 9)
        assert track9 == [(0, 4), (10, 19)]

    def test_apply_plan_empties_report_and_stays_valid(self):
        grid = self.isolated_grid()
        guarded = apply_guard_plan(grid, plan_guards(grid, "key_bus"))
        remaining = [
            e for e in find_exposures(guarded) if e.sensitive.wire_id == "key_bus"
        ]
        assert remaining == []
        # guard spans occupy the tracks: an intruder there is now a conflict
        with pytest.raises(DuplicateOccupancy):
            RoutingGrid(guarded.spans + (span("intruder", "spy", 7, 3, 6),))

    def test_guarding_a_non_sensitive_wire_is_an_error(self):
        with pytest.raises(ValueError):
            plan_guards(self.isolated_grid(), "own_neighbor")
        with pytest.raises(ValueError):
            plan_guards(self.isolated_grid(), "ghost")

    def test_fill_mode_recorded(self):
        plan = plan_guards(self.isolated_grid(), "key_bus", fill_mode="random_signal")
        assert plan.fill_mode == "random_signal"
        with pytest.raises(ValueError):
            GuardPlan("x", 0, (), (), fill_mode="lava")
        blocked = RoutingGrid(self.isolated_grid().spans + (span("intruder", "spy", 10, 5, 12),))
        with pytest.raises(GuardBlocked):
            plan_guards(blocked, "key_bus")
        for grid in (self.isolated_grid(), blocked):  # the mode is checked before any planning
            with pytest.raises(ValueError, match="fill_mode must be 'unoccupied' or 'random_signal'"):
                plan_guards(grid, "key_bus", fill_mode="lava")


class TestPlacementProbability:
    def test_paper_design_point(self):
        p = placement_success_probability(8500, 4, 5, 5)
        assert p == pytest.approx(0.0042353, abs=1e-6)
        assert round(p, 4) == 0.0042

    def test_caps_at_one(self):
        assert placement_success_probability(100, 100, 1, 1) == 1.0

    def test_single_long_each(self):
        assert placement_success_probability(8500, 4, 1, 1) == 4 / 8500

    def test_preconditions(self):
        with pytest.raises(ValueError):
            placement_success_probability(10, 4, 6, 6)
        with pytest.raises(ValueError):
            placement_success_probability(10, 0, 1, 1)


class TestShippedFixture:
    def test_exposure_count_matches_annotation(self, docs_dir):
        text = (docs_dir / "sample_grid.txt").read_text()
        annotated = int(re.search(r"expected-exposures:\s*(\d+)", text).group(1))
        grid = parse_grid(text)
        assert len(find_exposures(grid)) == annotated

    def test_guardable_wire_guards_cleanly(self, docs_dir):
        grid = parse_grid((docs_dir / "sample_grid.txt").read_text())
        plan = plan_guards(grid, "rsa_exp_bus")
        guarded = apply_guard_plan(grid, plan)
        assert [
            e for e in find_exposures(guarded) if e.sensitive.wire_id == "rsa_exp_bus"
        ] == []

    def test_exposed_wire_cannot_be_guarded(self, docs_dir):
        grid = parse_grid((docs_dir / "sample_grid.txt").read_text())
        with pytest.raises(GuardBlocked):
            plan_guards(grid, "aes_key_bus")


def guard_spans(grid, plan):
    """The guard spans apply_guard_plan adds for plan."""
    target = grid.span(plan.wire_id)
    return tuple(
        LongWireSpan(
            f"guard_{plan.wire_id}_{i}", target.core_id, target.trust, False,
            plan.column, g.track, g.y_start, g.y_end,
        )
        for i, g in enumerate(plan.guards)
    )


def constructor_error(grid, plan):
    """The error a fresh grid of the parent's spans plus the plan's guards raises."""
    with pytest.raises(GridError) as err:
        RoutingGrid(grid.spans + guard_spans(grid, plan), grid.tracks_per_column, grid.n_longs)
    return err.value


def assert_same_error(got, expected):
    assert (type(got), str(got), got.line) == (type(expected), str(expected), expected.line)


class TestApplyGuardPlanErrors:
    def grid(self, n_longs=100):
        return RoutingGrid(
            (
                span("key_bus", "crypto", 8, 0, 19, sensitive=True, trust="trusted"),
                span("spy", "ip0", 6, 30, 40),
                span("other", "ip0", 7, 0, 19, column=1),
            ),
            n_longs=n_longs,
        )

    def test_same_plan_twice_is_a_duplicate_wire_id(self):
        grid = self.grid()
        plan = plan_guards(grid, "key_bus")
        guarded = apply_guard_plan(grid, plan)
        with pytest.raises(DuplicateOccupancy, match="wire_id") as err:
            apply_guard_plan(guarded, plan)
        assert_same_error(err.value, constructor_error(guarded, plan))

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_guard_named_as_a_root_span_is_a_duplicate_wire_id(self, depth):
        grid = RoutingGrid(self.grid().spans + (
            span("guard_key_bus_1", "ip0", 3, 0, 9, column=1),
            span("k0", "cpu", 8, 0, 9, column=2, sensitive=True, trust="trusted"),
            span("k1", "cpu", 8, 0, 9, column=3, sensitive=True, trust="trusted"),
        ))
        for wire_id in ("k0", "k1")[:depth]:  # grids derived from the one that holds the id
            grid = apply_guard_plan(grid, plan_guards(grid, wire_id))
        plan = plan_guards(grid, "key_bus")
        with pytest.raises(DuplicateOccupancy, match="duplicate wire_id guard_key_bus_1") as err:
            apply_guard_plan(grid, plan)
        assert_same_error(err.value, constructor_error(grid, plan))

    def test_full_grid_is_a_capacity_error(self):
        grid = self.grid(n_longs=3)
        plan = plan_guards(grid, "key_bus")
        with pytest.raises(CapacityError) as err:
            apply_guard_plan(grid, plan)
        assert_same_error(err.value, constructor_error(grid, plan))

    @pytest.mark.parametrize(
        "guards",
        [
            (GuardSpan(6, 35, 50),),                         # over a foreign span
            (GuardSpan(9, 0, 10), GuardSpan(9, 10, 19)),     # over another guard
            (GuardSpan(16, 0, 19),),                         # outside the channel
            (GuardSpan(6, 0, 10), GuardSpan(6, 40, 45)),     # over the span just before it in y
            (GuardSpan(6, 30, 30),),                         # the same y_start as a span
            (GuardSpan(8, 0, 0),),                           # the same y_start as the target
            (GuardSpan(9, 10, 15), GuardSpan(9, 0, 12)),     # the second guard sorts before the first
            (GuardSpan(6, 41, 50), GuardSpan(6, 0, 30)),     # ... and it meets the span after it
        ],
        ids=["foreign", "guard", "channel", "before", "same-start", "same-start-target", "reversed",
             "reversed-foreign"],
    )
    def test_hand_built_plan_raises_as_the_constructor_does(self, guards):
        grid = self.grid()
        plan = GuardPlan("key_bus", 0, (6, 7, 9, 10), guards)
        with pytest.raises(GridError) as err:
            apply_guard_plan(grid, plan)
        assert_same_error(err.value, constructor_error(grid, plan))

    def test_guards_next_to_a_foreign_span_fit(self):
        grid = self.grid()
        plan = GuardPlan("key_bus", 0, (6, 7, 9, 10), (GuardSpan(6, 41, 50), GuardSpan(6, 20, 29)))
        derived = apply_guard_plan(grid, plan)  # one unit after and one unit before "spy" (30..40)
        check_derived(derived, grid.spans + guard_spans(grid, plan), grid)
        assert [s.wire_id for s in derived._slots[0][6]] == ["guard_key_bus_1", "spy", "guard_key_bus_0"]

    def test_unguarded_columns_are_shared_with_the_parent(self):
        grid = RoutingGrid(
            tuple(
                span(f"w{c}_{t}", "cpu", t, 0, 9, column=c, sensitive=t == 8, trust="trusted")
                for c in range(4)
                for t in (3, 8, 12)
            )
        )
        derived = apply_guard_plan(grid, plan_guards(grid, "w2_8"))
        for c in range(4):
            assert (derived._slots[c] is grid._slots[c]) == (c != 2)
        assert all(derived._slots[2][t] is slot for t, slot in grid._slots[2].items())
        assert sorted(derived._slots[2]) == [3, 6, 7, 8, 9, 10, 12]
        assert 7 not in derived._slots


# --------------------------------------------------------------------------- oracle
# Brute-force copies of the all-pairs scans the slot index replaces.


def brute_exposures(grid, d_max):
    found = []
    for s in grid.spans:
        if not s.sensitive:
            continue
        for f in grid.spans:
            if f.core_id == s.core_id or f.column != s.column:
                continue
            distance = abs(f.track - s.track)
            overlap = s.overlap(f)
            if 1 <= distance <= d_max and overlap > 0:
                found.append(Exposure(s, f, distance, overlap))
    found.sort(key=lambda e: (e.distance, -e.overlap, e.sensitive.wire_id, e.foreign.wire_id))
    return found


def brute_plan(grid, wire_id):
    """The GuardPlan for wire_id, or the tuple of its blockers in order."""
    target = grid.span(wire_id)
    required = tuple(
        target.track + d for d in (-2, -1, 1, 2) if 0 <= target.track + d < grid.tracks_per_column
    )
    blockers = []
    guards = []
    for track in required:
        occupants = [
            s
            for s in grid.spans
            if s.column == target.column and s.track == track and s.overlap(target) > 0
        ]
        foreign = [s for s in occupants if s.core_id != target.core_id]
        if foreign:
            blockers.extend(foreign)
            continue
        cursor = target.y_start
        for s in sorted(occupants, key=lambda s: s.y_start):
            if s.y_start > cursor:
                guards.append(GuardSpan(track, cursor, min(s.y_start - 1, target.y_end)))
            cursor = max(cursor, s.y_end + 1)
        if cursor <= target.y_end:
            guards.append(GuardSpan(track, cursor, target.y_end))
    if blockers:
        return tuple(blockers)
    return GuardPlan(wire_id, target.column, required, tuple(guards))


def random_grid(rng):
    """A valid grid of a few columns; cores are few, so neighbours often share one."""
    tracks = rng.randint(3, 8)
    cores = [("crypto", "trusted"), ("cpu", "trusted"), ("ip0", "untrusted")][: rng.randint(2, 3)]
    spans = []
    for column in range(rng.randint(1, 4)):
        for track in range(tracks):
            y = rng.randint(0, 5)
            while rng.random() < 0.7:
                core, trust = rng.choice(cores)
                length = rng.randint(1, 12)
                sensitive = trust == "trusted" and rng.random() < 0.3
                spans.append(span(f"w{len(spans)}", core, track, y, y + length - 1,
                                  column=column, sensitive=sensitive, trust=trust))
                y += length + rng.randint(0, 6)
    rng.shuffle(spans)
    return RoutingGrid(tuple(spans), tracks, len(spans) + rng.choice([rng.randint(0, 8), 200]))


def random_plan(rng, grid):
    """A hand-built plan for a random span, usually one that breaks the grid."""
    target = rng.choice(grid.spans)
    guards = []
    for _ in range(rng.randint(1, 3)):
        y = rng.randint(0, 40)
        guards.append(GuardSpan(rng.randint(0, grid.tracks_per_column), y, y + rng.randint(0, 8)))
    column = rng.choice([target.column, target.column, rng.randint(0, 4)])
    return GuardPlan(target.wire_id, column, (), tuple(guards))


def index_snapshot(grid):
    """Copies of a grid's wire-id dicts and slot index, to compare later."""
    slots = {c: {t: list(slot) for t, slot in tracks.items()} for c, tracks in grid._slots.items()}
    return dict(grid._ids), dict(grid._added), slots


def check_derived(derived, spans, grid):
    reference = RoutingGrid(spans, grid.tracks_per_column, grid.n_longs)
    assert derived == reference
    assert derived._slots == reference._slots
    # each slot's spans by y_start, ties in grid order
    brute = defaultdict(lambda: defaultdict(list))
    for s in sorted(spans, key=lambda s: s.y_start):
        brute[s.column][s.track].append(s)
    assert derived._slots == brute
    for s in spans:
        assert derived.span(s.wire_id) == s
    for d_max in (1, 2, 3, grid.tracks_per_column + 3):
        assert find_exposures(derived, d_max) == brute_exposures(reference, d_max)


class TestColumnIndexOracle:
    def test_matches_brute_force(self):
        rng = random.Random(5)
        seen = dict.fromkeys(
            ["exposed", "blocked", "applied", "full", "hand_ok", "CapacityError", "DuplicateOccupancy"], 0
        )
        for _ in range(300):
            grid = random_grid(rng)
            for d_max in (1, 2, 3, grid.tracks_per_column + 3):
                found = find_exposures(grid, d_max)
                assert found == brute_exposures(grid, d_max)
                seen["exposed"] += bool(found)
            targets = [s.wire_id for s in grid.spans if s.sensitive]
            rng.shuffle(targets)
            for wire_id in targets:  # chained: each plan sees the guards applied before it
                expected = brute_plan(grid, wire_id)
                if isinstance(expected, tuple):
                    with pytest.raises(GuardBlocked) as err:
                        plan_guards(grid, wire_id)
                    assert err.value.blockers == expected
                    assert str(err.value) == str(GuardBlocked(wire_id, expected))
                    seen["blocked"] += 1
                    continue
                plan = plan_guards(grid, wire_id)
                assert plan == expected
                spans = grid.spans + guard_spans(grid, plan)
                if len(spans) > grid.n_longs:
                    with pytest.raises(CapacityError) as err:
                        apply_guard_plan(grid, plan)
                    assert_same_error(err.value, constructor_error(grid, plan))
                    seen["full"] += 1
                    continue
                derived = apply_guard_plan(grid, plan)
                check_derived(derived, spans, grid)
                guarded = {g.track for g in plan.guards}
                for c, tracks in grid._slots.items():
                    if c != plan.column:
                        assert derived._slots[c] is tracks
                        continue
                    for t, slot in tracks.items():
                        assert (derived._slots[c][t] is slot) == (t not in guarded)
                grid = derived
                seen["applied"] += 1
            for _ in range(3):
                plan = random_plan(rng, grid)
                spans = grid.spans + guard_spans(grid, plan)
                try:
                    RoutingGrid(spans, grid.tracks_per_column, grid.n_longs)
                except GridError:
                    with pytest.raises(GridError) as err:
                        apply_guard_plan(grid, plan)
                    assert_same_error(err.value, constructor_error(grid, plan))
                    seen[type(err.value).__name__] += 1
                else:
                    check_derived(apply_guard_plan(grid, plan), spans, grid)
                    seen["hand_ok"] += 1
        assert min(seen.values()) >= 20, seen

    def test_parse_returns_the_same_grid(self):
        rng = random.Random(5)
        for _ in range(100):
            grid = random_grid(rng)
            for wire_id in [s.wire_id for s in grid.spans if s.sensitive]:
                try:
                    grid = apply_guard_plan(grid, plan_guards(grid, wire_id))
                except (GridError, GuardBlocked):
                    pass
            parsed = parse_grid(serialize_grid(grid))
            assert parsed.spans == grid.spans
            assert parsed._slots == grid._slots
            for s in grid.spans:
                assert parsed.span(s.wire_id) == grid.span(s.wire_id) == s


class TestBranchingLineage:
    """Grids derived from one parent, or from each other, answer only for their own spans."""

    def parent(self):
        return RoutingGrid(
            (
                span("k0", "crypto", 8, 0, 19, sensitive=True, trust="trusted"),
                span("k1", "cpu", 3, 0, 9, column=1, sensitive=True, trust="trusted"),
                span("k2", "crypto", 6, 30, 39, sensitive=True, trust="trusted"),
                span("other", "ip0", 12, 0, 50),
            ),
            n_longs=40,
        )

    def test_siblings_and_repeats(self):
        parent = self.parent()
        plans = {w: plan_guards(parent, w) for w in ("k0", "k1", "k2")}
        a = apply_guard_plan(parent, plans["k0"])
        b = apply_guard_plan(parent, plans["k1"])
        a2 = apply_guard_plan(parent, plans["k0"])
        ab = apply_guard_plan(a, plans["k1"])
        c = apply_guard_plan(parent, plans["k2"])
        ba = apply_guard_plan(b, plans["k0"])
        grids = {"parent": parent, "a": a, "b": b, "a2": a2, "ab": ab, "c": c, "ba": ba}
        owned = {"parent": (), "a": ("k0",), "b": ("k1",), "a2": ("k0",), "ab": ("k0", "k1"),
                 "c": ("k2",), "ba": ("k1", "k0")}
        assert a == a2 and a is not a2
        for name, grid in grids.items():
            expected = parent.spans + sum((guard_spans(parent, plans[w]) for w in owned[name]), ())
            assert grid == RoutingGrid(expected, parent.tracks_per_column, parent.n_longs), name
            for s in expected:
                assert grid.span(s.wire_id) == s
            for w in set(plans) - set(owned[name]):
                for i in range(len(plans[w].guards)):
                    with pytest.raises(ValueError, match=f"'guard_{w}_{i}'"):
                        grid.span(f"guard_{w}_{i}")
            for d_max in (1, 2, 3, grid.tracks_per_column + 3):
                assert find_exposures(grid, d_max) == brute_exposures(grid, d_max)

    def test_cross_applied_plans_act_as_the_constructor(self):
        parent = self.parent()
        plans = [plan_guards(parent, w) for w in ("k0", "k1", "k2")]
        grids = [parent]
        for plan in plans:
            grids.append(apply_guard_plan(parent, plan))
        grids.append(apply_guard_plan(grids[1], plans[1]))
        outcomes = {"ok": 0, "error": 0}
        for grid in list(grids):
            for plan in plans:
                spans = grid.spans + guard_spans(grid, plan)
                try:
                    RoutingGrid(spans, grid.tracks_per_column, grid.n_longs)
                except GridError:
                    with pytest.raises(GridError) as err:
                        apply_guard_plan(grid, plan)
                    assert_same_error(err.value, constructor_error(grid, plan))
                    outcomes["error"] += 1
                else:
                    derived = apply_guard_plan(grid, plan)
                    check_derived(derived, spans, grid)
                    grids.append(derived)
                    outcomes["ok"] += 1
        assert min(outcomes.values()) >= 4, outcomes
        for grid in grids:  # deriving more grids changed no earlier one
            for s in grid.spans:
                assert grid.span(s.wire_id) == s
            assert {s.wire_id for s in grid.spans} >= {"k0", "k1", "k2", "other"}

    def test_failed_derivation_leaves_the_parent_as_it_was(self):
        parent = self.parent()
        plan = GuardPlan("k0", 0, (), (GuardSpan(9, 0, 5), GuardSpan(9, 5, 8)))
        with pytest.raises(DuplicateOccupancy):
            apply_guard_plan(parent, plan)
        with pytest.raises(ValueError, match="'guard_k0_0'"):
            parent.span("guard_k0_0")
        derived = apply_guard_plan(parent, plan_guards(parent, "k0"))
        assert derived.span("guard_k0_0").track == 6
        with pytest.raises(CapacityError):
            apply_guard_plan(RoutingGrid(parent.spans, n_longs=5), plan_guards(parent, "k0"))

    def test_derivations_write_no_existing_index(self):
        parent = self.parent()
        plan = plan_guards(parent, "k0")
        grids, seen = [parent], [index_snapshot(parent)]

        def derive(grid, plan):
            try:
                derived = apply_guard_plan(grid, plan)
            finally:
                assert [index_snapshot(g) for g in grids] == seen  # no earlier grid changed
            grids.append(derived)
            seen.append(index_snapshot(derived))
            return derived

        children = [derive(parent, plan) for _ in range(20)]
        grandchild = derive(children[0], plan_guards(parent, "k1"))
        broken = GuardPlan("k2", 0, (), (GuardSpan(7, 30, 35), GuardSpan(7, 35, 39)))
        with pytest.raises(DuplicateOccupancy):
            derive(parent, broken)
        for child in children[1:]:
            assert child == children[0]
        assert all(grid._ids is parent._ids for grid in grids)  # the root's index is shared
        every_id = {s.wire_id for s in grandchild.spans} | {"guard_k2_0", "guard_k2_1"}
        for grid in grids:
            own = {s.wire_id: s for s in grid.spans}
            for w in every_id:
                if w in own:
                    assert grid.span(w) is own[w]
                else:
                    with pytest.raises(ValueError, match=f"'{w}'"):
                        grid.span(w)

    def test_threads_derive_from_one_parent(self):
        parent = self.parent()
        plan = plan_guards(parent, "k0")
        before = index_snapshot(parent)
        expected = RoutingGrid(parent.spans + guard_spans(parent, plan), parent.tracks_per_column,
                               parent.n_longs)

        def siblings(_):
            return [apply_guard_plan(parent, plan) for _ in range(25)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside derivations
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                derived = [grid for batch in pool.map(siblings, range(4), timeout=60) for grid in batch]
        finally:
            sys.setswitchinterval(interval)
        assert len(derived) == 100
        for grid in derived:
            check_derived(grid, expected.spans, parent)
        assert index_snapshot(parent) == before
