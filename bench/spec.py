"""What the benchmark runs and reports: the Makefile CLI runs and the metric tables.

This module imports nothing from the package, so the entry point can read
it before any workload process starts.  BENCHMARK.json repeats the metric
names; bench/selftest.py checks that the two agree.
"""

from __future__ import annotations

import statistics

from harness import self_seconds, span_totals

# `make reproduce` invocations, at their Makefile arguments: label -> (committed CSV, argv).
CLI_RUNS = {
    "simulate-alternating": ("trace_alternating.csv", "simulate --pattern alternating --n 21 --vt 5 --vr 5 --windows 2048 --seed 1"),
    "simulate-lfsr": ("trace_patterns_lfsr.csv", "simulate --pattern lfsr --n 21 --vt 5 --vr 5 --windows 2048 --seed 2"),
    "scaling-time": ("scaling_time.csv", "scaling-time --n-list 13,15,17,19,21 --windows 2048 --vt 5 --vr 5 --seed 3"),
    "scaling-length": ("scaling_length.csv", "scaling-length --n 21 --windows 1024 --seed 4"),
    "distance": ("distance.csv", "distance --n 21 --d-list 1,2,3,4 --windows 2048 --seed 5"),
    "dynamic-long": ("dynamic_long.csv", "dynamic --path long --n 21 --windows 2048 --seed 6"),
    "dynamic-local": ("dynamic_local.csv", "dynamic --path local --n 21 --windows 2048 --seed 6"),
    "ber": ("ber.csv", "ber --n-list 11,12,13,14,15 --bits 10000 --seed 7"),
    "bandwidth": ("bandwidth.csv", "bandwidth --n-list 13,15,17,19,21"),
    "exfil": ("exfil_demo.csv", "exfil --key 0xDEADBEEFCAFEBABE --w 10"),
    "prob-n64": ("prob_n64.csv", "prob --n 64 --w-list 4,6,8,10,12,14,16 --trials 20000 --seed 8"),
    "prob-n264": ("prob_n264.csv", "prob --n 264 --w-list 10,20,30,40 --trials 2000 --seed 9"),
    "audit": ("audit_exposures.csv", "audit --grid docs/sample_grid.txt"),
}

WORKLOADS = ("sim-link", "key-recovery", "noisy-exfil", "audit-grid")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "ops_ok_frac": "ratio",
    "key_correct_frac": "ratio",
}

# Per-layer metrics taken from a traced pass: (name, unit, source, how, scale).
#   busy      busy seconds of the named spans, times scale
#   per_work  busy seconds per unit of work of the named spans, times scale
#   work      work units of the named spans
#   count     a counter the workload kept
#   self      self seconds of the named layer
#   spans     number of spans the pass recorded
SPAN_METRICS = [
    *[(f"cli.{label}.s", "s", f"cli.{label}", "busy", 1.0) for label in CLI_RUNS],
    ("channel.simulate_trace.windows", "count", "channel.simulate_trace", "work", 1.0),
    ("channel.simulate_trace.busy_s", "s", "channel.simulate_trace", "busy", 1.0),
    ("channel.simulate_trace.us_per_window", "us", "channel.simulate_trace", "per_work", 1e6),
    ("exfil.measure_windows_noisy.us_per_window", "us", "exfil.measure_windows_noisy", "per_work", 1e6),
    ("stats.mean_ci.us_per_call", "us", "stats.mean_ci", "per_work", 1e6),
    ("stats.ks_two_sample.us_per_call", "us", "stats.ks_two_sample", "per_work", 1e6),
    ("stats.paired_delta_rc.us_per_pair", "us", "stats.paired_delta_rc", "per_work", 1e6),
    ("codec.simulate_covert_transfer.us_per_bit", "us", "codec.simulate_covert_transfer", "per_work", 1e6),
    ("codec.find_frames.ms", "ms", "codec.find_frames", "busy", 1e3),
    ("codec.find_frames.spurious", "count", "codec.find_frames.spurious", "count", 1.0),
    ("code8b10b.encode_bytes.us_per_byte", "us", "code8b10b.encode_bytes", "per_work", 1e6),
    ("code8b10b.decode_bits.us_per_byte", "us", "code8b10b.decode_bits", "per_work", 1e6),
    ("exfil.monte_carlo_recovery_rate.n64.us_per_trial", "us", "exfil.monte_carlo_recovery_rate.n64", "per_work", 1e6),
    ("exfil.monte_carlo_recovery_rate.n264.us_per_trial", "us", "exfil.monte_carlo_recovery_rate.n264", "per_work", 1e6),
    ("exfil.exhaustive_success_fraction.single.ns_per_key", "ns", "exfil.exhaustive_success_fraction.single", "per_work", 1e9),
    ("exfil.exhaustive_success_fraction.multi.ns_per_key", "ns", "exfil.exhaustive_success_fraction.multi", "per_work", 1e9),
    ("exfil.multi_window_recover.us_per_key", "us", "exfil.multi_window_recover", "per_work", 1e6),
    ("exfil.single_window_recover.noisy.us_per_key", "us", "exfil.single_window_recover.noisy", "per_work", 1e6),
    ("exfil.outcome.correct", "count", "exfil.outcome.correct", "count", 1.0),
    ("exfil.outcome.wrong", "count", "exfil.outcome.wrong", "count", 1.0),
    ("exfil.outcome.inconsistent", "count", "exfil.outcome.inconsistent", "count", 1.0),
    ("exfil.outcome.unresolved", "count", "exfil.outcome.unresolved", "count", 1.0),
    ("kernels.mc_single.us_per_trial", "us", "kernels.mc_single", "per_work", 1e6),
    ("kernels.sweep_single.ns_per_key", "ns", "kernels.sweep_single", "per_work", 1e9),
    ("kernels.sweep_multi.ns_per_key", "ns", "kernels.sweep_multi", "per_work", 1e9),
    ("audit.parse_grid.ms", "ms", "audit.parse_grid", "per_work", 1e3),
    ("audit.find_exposures.ms", "ms", "audit.find_exposures", "per_work", 1e3),
    ("audit.plan_guards.ms", "ms", "audit.plan_guards", "busy", 1e3),
    ("audit.apply_guard_plan.ms", "ms", "audit.apply_guard_plan", "busy", 1e3),
    ("audit.spans", "count", "audit.spans", "count", 1.0),
    ("audit.sensitive_spans", "count", "audit.sensitive_spans", "count", 1.0),
    ("audit.exposures", "count", "audit.exposures", "count", 1.0),
    ("audit.plans", "count", "audit.plans", "count", 1.0),
    ("audit.blocked_plans", "count", "audit.blocked_plans", "count", 1.0),
    *[(f"{layer}.self_s", "s", layer, "self", 1.0)
      for layer in ("cli", "channel", "stats", "codec", "code8b10b", "exfil", "kernels", "audit")],
    ("trace.spans", "count", None, "spans", 1.0),
]

# Per-layer metrics computed outside a single pass, and the import times the entry
# point takes from `python -X importtime`.
RUN_METRICS = {
    "cli.csv_files_changed": "count",
    "trace.overhead_s": "s",
    "host.wall_raw_s": "s",
    "host.probe_ms": "ms",
    "host.setup_raw_s": "s",
}
IMPORT_METRICS = ("import.longwire.s", "import.longwire.stats.s", "import.scipy.stats.s")

PER_LAYER = {
    **{name: unit for name, unit, *_ in SPAN_METRICS},
    **RUN_METRICS,
    **{name: "s" for name in IMPORT_METRICS},
}


def pass_metrics(p) -> dict[str, float]:
    """Per-layer values of one traced pass; a layer the workload never calls reads 0."""
    totals = span_totals(p.spans)
    own = self_seconds(p.spans)
    values = {}
    for name, _unit, source, how, scale in SPAN_METRICS:
        busy, work = totals.get(source, (0.0, 0))
        if how == "busy":
            value = busy * scale
        elif how == "per_work":
            value = busy / work * scale if work else 0.0
        elif how == "work":
            value = work
        elif how == "self":
            value = own.get(source, 0.0)
        elif how == "spans":
            value = len(p.spans)
        else:
            value = p.counts[source]
        values[name] = value
    return values


def median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}
