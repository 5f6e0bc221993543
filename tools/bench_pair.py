#!/usr/bin/env python3
"""Paired benchmark runs of two commits, for a performance claim.

    python3 tools/bench_pair.py --base 8ac5e25 --workload noisy-exfil --pairs 10 --seconds 15 --seed 1
    make bench-pair BASE=8ac5e25 WORKLOAD=sim-link,noisy-exfil [PAIRS=10 SECONDS=15 SEED=1 JSON=runs.json]

BASE and HEAD are each copied with `git archive` into one temporary
directory, so that both trees are built the same way (a clone and an archive
of one commit differ in `peak_rss_mb`).  --workload takes one workload or a
comma-separated list, run one after the other.  Each pair runs `bench/run.py
--trace 0` once in each copy; within each workload the side that runs first
alternates from pair to pair, BASE first in pair 1.  For each workload, one
table: for every end-to-end metric of HEAD's BENCHMARK.json, each side's
median and quartiles and the pairs each side won, by the metric's better
direction; ties count for neither.  Then its verdict on a claimed gain:
whether HEAD won enough pairs (nine tenths of them from 10 pairs up, all but
one below: 4 of 5, 9 of 10, 10 of 11), whether the median gap in HEAD's
favour is larger than BASE's interquartile range (IQR), and the relative
change of the median beside the metric's `bound`.  With --json the runs and each workload's summary are
written to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def archive(rev: str, dest: Path) -> str:
    """Extract the tree of rev into dest with `git archive`; return its full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    dest.mkdir()
    tree = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tree, check=True)
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in tree; its result object."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"], cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench/run.py failed in {tree.name}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def verdict(row: dict, metric: dict) -> dict:
    """A claim's tests on one metric's summary row: HEAD won at least ``wins_needed`` pairs (nine
    tenths of them from 10 pairs up, all but one below, and at least one: 4 of 5, 9 of 10, 10 of 11),
    the median gap in HEAD's favour exceeds BASE's IQR, and the relative change of the median (None
    when BASE's median is 0), which is ``worse_than_bound`` when it goes the worse way by more than
    the metric's ``bound``."""
    lower = metric["better"] == "lower"
    base, head, pairs = row["base"], row["head"], row["pairs"]
    wins_needed = max(1, pairs - max(1, pairs // 10))
    gap = base["median"] - head["median"] if lower else head["median"] - base["median"]  # > 0: HEAD better
    iqr = base["q3"] - base["q1"]
    change = (head["median"] - base["median"]) / abs(base["median"]) if base["median"] else None
    return {"wins_needed": wins_needed, "won_enough": row["head_won"] >= wins_needed, "gap": gap, "base_iqr": iqr,
            "gap_above_iqr": gap > iqr, "change": change, "bound": metric["bound"],
            "worse_than_bound": change is not None and (change if lower else -change) > metric["bound"]}


def summarize(runs: list[dict], metrics: list[dict]) -> list[dict]:
    """Per metric: each side's median and quartiles, the pairs HEAD won, BASE won and tied, and the verdict."""
    pairs = sorted({r["pair"] for r in runs})
    value = {(r["pair"], r["side"]): r["result"]["metrics"] for r in runs}
    summary = []
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        sides = {side: [value[p, side][name]["value"] for p in pairs] for side in ("base", "head")}
        diffs = [sign * (b - h) for b, h in zip(sides["base"], sides["head"])]  # > 0: HEAD better
        row = {"metric": name, "unit": metric["unit"], "pairs": len(pairs),
               "base": quartiles(sides["base"]), "head": quartiles(sides["head"]),
               "head_won": sum(d > 0 for d in diffs), "base_won": sum(d < 0 for d in diffs),
               "tied": sum(d == 0 for d in diffs)}
        summary.append({**row, "verdict": verdict(row, metric)})
    return summary


def summarize_workloads(runs: list[dict], metrics: list[dict]) -> dict[str, list[dict]]:
    """``summarize`` of each workload's runs, by workload in the order they ran."""
    workloads = dict.fromkeys(r["workload"] for r in runs)
    return {w: summarize([r for r in runs if r["workload"] == w], metrics) for w in workloads}


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def print_table(summary: list[dict]) -> None:
    """One workload's summary: each side's median and quartiles and the wins, then the verdict."""
    print(f"{'metric':18s} {'base median [q1, q3]':>36s} {'head median [q1, q3]':>36s}  head/base/tied wins")
    for row in summary:
        base, head = row["base"], row["head"]
        print(f"{row['metric']:18s} {base['median']:12.6g} [{base['q1']:.6g}, {base['q3']:.6g}] "
              f"{head['median']:12.6g} [{head['q1']:.6g}, {head['q3']:.6g}]  "
              f"{row['head_won']}/{row['base_won']}/{row['tied']}")
    print(f"{'metric':18s} {'won >= needed':>17s} {'gap > base IQR':>30s}  median change [bound]")
    for row in summary:
        v = row["verdict"]
        change = "n/a" if v["change"] is None else f"{v['change']:+.2%}"
        print(f"{row['metric']:18s} {_yes(v['won_enough']):>3s} {row['head_won']:5d} >= {v['wins_needed']:2d}  "
              f"{_yes(v['gap_above_iqr']):>3s} {v['gap']:11.4g} > {v['base_iqr']:<11.4g}  {change:>8s} "
              f"[{v['bound']:g}]{'  worse than its bound' if v['worse_than_bound'] else ''}")
    print()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the commit to compare HEAD with")
    parser.add_argument("--workload", required=True, help="a workload, or a comma-separated list of them")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", type=Path, help="write the runs and each workload's summary to this file")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        trees = {side: Path(tmp) / side for side in ("base", "head")}
        commits = {side: archive(rev, trees[side]) for side, rev in (("base", args.base), ("head", "HEAD"))}
        metrics = json.loads((trees["head"] / "BENCHMARK.json").read_text())["end_to_end"]
        runs = []
        for workload in args.workload.split(","):
            for pair in range(1, args.pairs + 1):
                order = ("base", "head") if pair % 2 else ("head", "base")
                for side in order:
                    result = run_once(trees[side], workload, args.seed, args.seconds)
                    runs.append({"workload": workload, "seed": args.seed, "seconds": args.seconds, "pair": pair,
                                 "side": side, "first": order[0], "result": result})
                    wall = result["metrics"]["wall_s"]["value"]
                    print(f"{workload} pair {pair:2d} {side:4s} wall_s {wall:.6g}", file=sys.stderr, flush=True)
    summaries = summarize_workloads(runs, metrics)
    for workload, summary in summaries.items():
        print(f"{workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s: "
              f"base {commits['base'][:10]} against head {commits['head'][:10]}")
        print_table(summary)
    if args.json:
        args.json.write_text(json.dumps({"base": commits["base"], "head": commits["head"], "runs": runs,
                                         "summary": summaries}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
