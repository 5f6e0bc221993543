"""The verdict of tools/bench_pair.py on hand-made paired runs."""

import importlib.util
import statistics

import pytest

from conftest import DOCS_DIR

_SPEC = importlib.util.spec_from_file_location("bench_pair", DOCS_DIR.parent / "tools" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
KEYS = {"name": "key_correct_frac", "unit": "ratio", "better": "higher", "bound": 0.1}


def runs(metric, base, head):
    """One pair per (base, head) value, each run holding only ``metric``."""
    return [{"pair": pair, "side": side, "result": {"metrics": {metric["name"]: {"value": value}}}}
            for pair, values in enumerate(zip(base, head), 1) for side, value in zip(("base", "head"), values)]


def judged(metric, base, head):
    (row,) = bench_pair.summarize(runs(metric, base, head), [metric])
    return row, row["verdict"]


BASE = [1.00, 1.02, 1.04, 1.06, 1.08, 1.10, 1.12, 1.14, 1.16, 1.18]  # median 1.09, IQR 1.1375 - 1.0425


class TestVerdict:
    def test_nine_wins_of_ten_are_enough_and_a_tie_is_no_win(self):
        row, verdict = judged(WALL, BASE, [b - 0.2 for b in BASE[:9]] + [BASE[9]])
        assert (row["head_won"], row["base_won"], row["tied"]) == (9, 0, 1)
        assert verdict["wins_needed"] == 9 and verdict["won_enough"]
        row, verdict = judged(WALL, BASE, [b - 0.2 for b in BASE[:8]] + BASE[8:])
        assert row["head_won"] == 8 and row["tied"] == 2 and not verdict["won_enough"]

    @pytest.mark.parametrize("pairs, needed", [(1, 1), (2, 1), (5, 4), (10, 9), (11, 10), (19, 18), (20, 18)])
    def test_wins_needed(self, pairs, needed):
        values = [1.0 + i / 100 for i in range(pairs)]
        _, verdict = judged(WALL, values, [v - 0.5 for v in values])
        assert verdict["wins_needed"] == needed and verdict["won_enough"]

    def test_gap_against_the_base_iqr(self):
        q1, _, q3 = statistics.quantiles(BASE, n=4, method="inclusive")
        _, wide = judged(WALL, BASE, [b - 0.1 for b in BASE])
        _, narrow = judged(WALL, BASE, [b - 0.05 for b in BASE])
        assert wide["base_iqr"] == narrow["base_iqr"] == pytest.approx(q3 - q1) == pytest.approx(0.09)
        assert wide["gap"] == pytest.approx(0.1) and wide["gap_above_iqr"]
        assert narrow["gap"] == pytest.approx(0.05) and narrow["won_enough"] and not narrow["gap_above_iqr"]

    def test_a_gain_goes_the_metric_s_better_way(self):
        _, lower = judged(KEYS, BASE, [b - 0.2 for b in BASE])  # lower is worse for this metric
        assert lower["gap"] == pytest.approx(-0.2) and not lower["won_enough"] and not lower["gap_above_iqr"]
        _, higher = judged(KEYS, BASE, [b + 0.2 for b in BASE])
        assert higher["gap"] == pytest.approx(0.2) and higher["won_enough"] and higher["gap_above_iqr"]

    @pytest.mark.parametrize(
        "metric, shift, change, worse",
        [(WALL, 1.3, 0.3, True), (WALL, 1.2, 0.2, False), (WALL, 0.5, -0.5, False),
         (KEYS, 0.8, -0.2, True), (KEYS, 0.95, -0.05, False), (KEYS, 1.5, 0.5, False)],
    )
    def test_median_change_against_the_bound(self, metric, shift, change, worse):
        base = [1.0] * 5
        _, verdict = judged(metric, base, [shift] * 5)
        assert verdict["change"] == pytest.approx(change) and verdict["bound"] == metric["bound"]
        assert verdict["worse_than_bound"] is worse

    def test_a_zero_base_median_has_no_relative_change(self):
        _, verdict = judged(WALL, [0.0] * 3, [1.0] * 3)
        assert verdict["change"] is None and not verdict["worse_than_bound"]


def test_each_workload_gets_its_own_summary_in_the_order_run(capsys):
    faster = [{**run, "workload": "sim-link"} for run in runs(WALL, BASE, [b - 0.2 for b in BASE])]
    level = [{**run, "workload": "audit-grid"} for run in runs(WALL, BASE[:5], BASE[:5])]
    summaries = bench_pair.summarize_workloads(faster + level, [WALL])
    assert list(summaries) == ["sim-link", "audit-grid"]
    (gain,), (same,) = summaries["sim-link"], summaries["audit-grid"]
    assert gain["pairs"] == 10 and gain["head_won"] == 10 and gain["verdict"]["won_enough"]
    assert same["pairs"] == 5 and same["tied"] == 5 and same["verdict"]["change"] == 0
    assert not same["verdict"]["won_enough"] and not same["verdict"]["worse_than_bound"]
    assert same["base"] == bench_pair.summarize(level, [WALL])[0]["base"]
    bench_pair.print_table(summaries["sim-link"])
    assert "10/0/0" in capsys.readouterr().out
