"""Experiment runner: every study is a subcommand emitting deterministic CSV.

Identical argv (and seed) produce byte-identical output; plotting is
left to external tooling.  Exit codes: 0 success, 1 domain error,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

import numpy as np

from . import audit as audit_mod
from . import codec, exfil, stats
from .channel import (
    DeviceProfile,
    Geometry,
    MeasurementConfig,
    expected_delta_rc,
    simulate_trace,
    trace_to_csv,
)
from .config import load_measurement, load_profile
from .errors import LongwireError
from .patterns import DYNAMIC4_CODES, PatternSpec, parse_pattern

DEFAULT_LOG2_TICKS = 21


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be a positive integer")
    return value


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _add_channel_args(sub, vt_default="2", vr_default=2, d_default=1):
    sub.add_argument("--profile", help="device profile file (key = value format)")
    sub.add_argument("--n", type=int, help=f"log2 clock ticks per window (default {DEFAULT_LOG2_TICKS})")
    sub.add_argument("--vt", default=vt_default, help="transmitter longs; thirds allowed, e.g. 1/3")
    sub.add_argument("--vr", type=_positive_int, default=vr_default, help="receiver longs")
    sub.add_argument("--d", type=_positive_int, default=d_default, help="track distance, 1 = adjacent")


def _load_setup(args) -> tuple[DeviceProfile, MeasurementConfig, Geometry]:
    if args.profile:
        profile = load_profile(args.profile)
        cfg = load_measurement(args.profile, default=MeasurementConfig(log2_ticks=DEFAULT_LOG2_TICKS))
    else:
        profile = DeviceProfile()
        cfg = MeasurementConfig(log2_ticks=DEFAULT_LOG2_TICKS)
    n = getattr(args, "n", None)
    if n is not None:
        cfg = MeasurementConfig(log2_ticks=n, f_clk_hz=cfg.f_clk_hz)
    geom = Geometry(v_t=Fraction(args.vt), v_r=args.vr, d=args.d)
    return profile, cfg, geom


def _csv_lines(header: list[str], rows: list[list]) -> str:
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(str(x) for x in row))
    return "\n".join(out) + "\n"


def _alternating_stats(profile, cfg, geom, windows, seed):
    trace = simulate_trace(profile, cfg, geom, PatternSpec.alternating(), windows, seed)
    counts = trace.counts
    dc = [counts[i + 1] - counts[i] for i in range(0, len(counts), 2)]
    drc = stats.paired_delta_rc(trace).values
    return trace, dc, drc


def cmd_simulate(args) -> str:
    profile, cfg, geom = _load_setup(args)
    if args.local:
        geom = Geometry(geom.v_t, geom.v_r, geom.d, coupling="local")
    pattern = parse_pattern(args.pattern)
    trace = simulate_trace(profile, cfg, geom, pattern, args.windows, args.seed)
    return trace_to_csv(trace)


def cmd_scaling_time(args) -> str:
    profile, cfg, geom = _load_setup(args)
    rows = []
    for n in args.n_list:
        cfg_n = MeasurementConfig(log2_ticks=n, f_clk_hz=cfg.f_clk_hz)
        _, dc, drc = _alternating_stats(profile, cfg_n, geom, args.windows, args.seed + n)
        dc_m, dc_lo, dc_hi = stats.mean_ci(dc)
        drc_m, drc_lo, drc_hi = stats.mean_ci(drc)
        rows.append(
            [n, f"{cfg_n.window_seconds:.8g}"]
            + [f"{v:.6g}" for v in (dc_m, dc_lo, dc_hi)]
            + [f"{v:.6g}" for v in (drc_m, drc_lo, drc_hi)]
        )
    header = ["n", "window_seconds", "delta_c", "delta_c_lo", "delta_c_hi",
              "delta_rc", "delta_rc_lo", "delta_rc_hi"]
    return _csv_lines(header, rows)


def cmd_scaling_length(args) -> str:
    profile, cfg, _ = _load_setup(args)
    vts = [Fraction(x) for x in args.vt_list.split(",") if x.strip()]
    vrs = _int_list(args.vr_list)
    rows = []
    for i, vt in enumerate(vts):
        for j, vr in enumerate(vrs):
            geom = Geometry(v_t=vt, v_r=vr, d=args.d)
            model = expected_delta_rc(profile, geom)
            _, _, drc = _alternating_stats(profile, cfg, geom, args.windows, args.seed + 1000 * i + j)
            rows.append([str(vt), vr, f"{model:.10g}", f"{float(np.mean(drc)):.6g}"])
    return _csv_lines(["vt", "vr", "delta_rc_model", "delta_rc_measured"], rows)


def cmd_distance(args) -> str:
    profile, cfg, geom0 = _load_setup(args)
    rows = []
    for d in args.d_list:
        geom = Geometry(v_t=geom0.v_t, v_r=geom0.v_r, d=d)
        model = expected_delta_rc(profile, geom)
        trace, _, drc = _alternating_stats(profile, cfg, geom, args.windows, args.seed + d)
        counts = trace.counts
        _, p = stats.ks_two_sample(counts[0::2], counts[1::2])
        rows.append([d, f"{model:.10g}", f"{float(np.mean(drc)):.6g}", f"{p:.6g}"])
    return _csv_lines(["d", "delta_rc_model", "delta_rc_measured", "ks_p_0_vs_1"], rows)


def cmd_dynamic(args) -> str:
    profile, cfg, geom = _load_setup(args)
    if args.path == "local":
        geom = Geometry(geom.v_t, geom.v_r, geom.d, coupling="local")
    rows = []
    # one seed for all six codes: differences between patterns are then
    # not masked by noise realization
    for idx, code in enumerate(DYNAMIC4_CODES):
        pattern = PatternSpec.dynamic4(code)
        trace = simulate_trace(profile, cfg, geom, pattern, args.windows, args.seed)
        mean, lo, hi = stats.mean_ci([float(c) for c in trace.counts])
        s = trace.samples[0]
        rows.append(
            [f"d{idx}", code, f"{s.duty:.4g}", f"{s.toggle_rate:.4g}"]
            + [f"{v:.10g}" for v in (mean, lo, hi)]
        )
    header = ["pattern", "code", "duty", "toggle_rate", "mean_count", "ci_lo", "ci_hi"]
    return _csv_lines(header, rows)


def cmd_ber(args) -> str:
    profile, cfg, geom = _load_setup(args)
    rows = []
    for n in args.n_list:
        cfg_n = MeasurementConfig(log2_ticks=n, f_clk_hz=cfg.f_clk_hz)
        rng = np.random.default_rng((args.seed, n))
        bits = [int(b) for b in rng.integers(0, 2, args.bits)]
        decoded = codec.simulate_covert_transfer(bits, profile, cfg_n, geom, args.seed + n)
        ber = stats.bit_error_rate(bits, decoded)
        errors = round(ber * len(bits))
        rows.append([n, f"{cfg_n.window_seconds:.8g}", len(bits), errors, f"{1.0 - ber:.6g}"])
    return _csv_lines(["n", "window_seconds", "bits", "errors", "accuracy"], rows)


def cmd_bandwidth(args) -> str:
    _, cfg, _ = _load_setup(args)
    rows = []
    for n in args.n_list:
        cfg_n = MeasurementConfig(log2_ticks=n, f_clk_hz=cfg.f_clk_hz)
        raw = codec.channel_bandwidth(cfg_n, codec.LineCode.NONE)
        enc = codec.channel_bandwidth(cfg_n, codec.LineCode.EIGHTB_TENB)
        rows.append([n, f"{cfg_n.window_seconds:.8g}", f"{raw:.6g}", f"{enc:.6g}"])
    return _csv_lines(["n", "window_seconds", "raw_bps", "bps_8b10b"], rows)


def cmd_exfil(args) -> str:
    key = exfil.parse_key(args.key)
    n = len(key)
    noise = None
    if args.noisy:
        profile, cfg, geom = _load_setup(args)
        noise = exfil.ExfilChannel(profile, cfg, geom, seed=args.seed, repeats=args.repeats)
    single = args.single or n < 2 * args.w + 1
    if noise is not None and not single:
        raise ValueError("noisy recovery is single-window only; pass --single")
    lines = [f"# n_key={n} w={args.w}"]
    if noise is not None:
        # the CLI knows the true key, so a noisy run is scored, never an error
        outcome, result = exfil.noisy_outcome(key, args.w, noise)
    elif single:
        result = exfil.single_window_recover(key, args.w)
    else:
        result = exfil.multi_window_recover(key, args.w)
        schedule = exfil.run_schedule(n, args.w)
        lines.append(
            f"# schedule: runs={schedule.total_runs} measurements={schedule.total_measurements}"
        )
    if result is not None:
        lines.append(f"# runs_used={result.runs_used} measurements_used={result.measurements_used}")
        lines.append(f"# recovered={len(result.known)}/{n}")
    if noise is not None:
        lines.append(f"# outcome={outcome}")
        feas = exfil.noise_feasibility(noise, args.w)
        lines.append(
            f"# feasibility: count_step={feas['count_step']:.6g}"
            f" noise_sigma={feas['noise_sigma']:.6g}"
            f" step_over_sigma={feas['step_over_sigma']:.6g}"
        )
    rows = [] if result is None else [[p, v] for p, v in exfil.recovery_to_rows(result)]
    body = _csv_lines(["position", "value_or_class_id"], rows)
    return "\n".join(lines) + "\n" + body


def cmd_prob(args) -> str:
    widths = args.w_list if args.w_list else [args.w]
    if any(w is None for w in widths):
        raise ValueError("pass --w or --w-list")
    rows = []
    for w in widths:
        p = exfil.recovery_probability(args.n_key, w)
        bound = f"{exfil.eq2_lower_bound(args.n_key, w):.4f}" if args.n_key % w == 0 else ""
        mc = ""
        if args.trials:
            mc = f"{exfil.monte_carlo_recovery_rate(args.n_key, w, args.trials, args.seed):.4f}"
        rows.append([args.n_key, w, f"{p:.4f}", bound, mc])
    return _csv_lines(["n_key", "w", "probability", "eq2_lower_bound", "monte_carlo"], rows)


def cmd_audit(args) -> str:
    with open(args.grid, encoding="utf-8") as fh:
        grid = audit_mod.parse_grid(fh.read())
    if args.guard is None:
        return audit_mod.exposures_to_csv(audit_mod.find_exposures(grid, d_max=args.d_max))
    plan = audit_mod.plan_guards(grid, args.guard, fill_mode=args.fill)
    guarded = audit_mod.apply_guard_plan(grid, plan)
    remaining = [
        e for e in audit_mod.find_exposures(guarded, d_max=args.d_max)
        if e.sensitive.wire_id == args.guard
    ]
    lines = [
        f"# guard plan for {plan.wire_id}: column {plan.column}, "
        f"tracks {','.join(str(t) for t in plan.required_tracks)}, fill={plan.fill_mode}",
        f"# exposures remaining for {plan.wire_id} after guarding: {len(remaining)}",
    ]
    body = _csv_lines(
        ["track", "y_start", "y_end", "fill_mode"],
        [[g.track, g.y_start, g.y_end, plan.fill_mode] for g in plan.guards],
    )
    return "\n".join(lines) + "\n" + body


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longwire",
        description="Simulate, encode, attack and audit the FPGA long-wire leakage channel.",
    )
    parser.add_argument("--out", help="write output to this file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a count trace")
    _add_channel_args(p)
    p.add_argument("--pattern", default="alternating",
                   help="alternating | longruns[:len] | lfsr[:seed] | d0..d5 | custom:<bits>")
    p.add_argument("--windows", type=_positive_int, default=2048)
    p.add_argument("--local", action="store_true", help="local-routing path (no long-wire overlap)")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scaling-time", help="count differences vs measurement time")
    _add_channel_args(p)
    p.add_argument("--n-list", type=_int_list, default=[13, 15, 17, 19, 21])
    p.add_argument("--windows", type=_positive_int, default=2048)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_scaling_time)

    p = sub.add_parser("scaling-length", help="relative difference over transmitter x receiver lengths")
    _add_channel_args(p)
    p.add_argument("--vt-list", default="1/3,2/3,1,2,3,4,5")
    p.add_argument("--vr-list", default="1,2,3,4,5")
    p.add_argument("--windows", type=_positive_int, default=1024)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_scaling_length)

    p = sub.add_parser("distance", help="effect and KS p-value vs wire distance")
    _add_channel_args(p)
    p.add_argument("--d-list", type=_int_list, default=[1, 2, 3, 4])
    p.add_argument("--windows", type=_positive_int, default=2048)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("dynamic", help="mean counts for the six 4-bit loop codes")
    _add_channel_args(p)
    p.add_argument("--path", choices=["long", "local"], default="long")
    p.add_argument("--windows", type=_positive_int, default=2048)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_dynamic)

    p = sub.add_parser("ber", help="covert-channel accuracy vs window length")
    _add_channel_args(p, vt_default="2", vr_default=2)
    p.add_argument("--n-list", type=_int_list, default=[13])
    p.add_argument("--bits", type=_positive_int, default=10000)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_ber)

    p = sub.add_parser("bandwidth", help="channel bandwidth per window length")
    _add_channel_args(p)
    p.add_argument("--n-list", type=_int_list, default=[13, 15, 17, 19, 21])
    p.set_defaults(func=cmd_bandwidth)

    p = sub.add_parser("exfil", help="recover a key from sliding-window measurements")
    _add_channel_args(p)
    p.add_argument("--key", required=True, help="key as hex (0x...) or binary string")
    p.add_argument("--w", type=_positive_int, required=True, help="window width in bits")
    p.add_argument("--single", action="store_true", help="single window width only")
    p.add_argument("--noisy", action="store_true", help="measure through the count simulator")
    p.add_argument("--repeats", type=_positive_int, default=1, help="averaged counts per window")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_exfil)

    p = sub.add_parser("prob", help="full-recovery probability table")
    p.add_argument("--n", dest="n_key", type=_positive_int, required=True, help="key length in bits")
    p.add_argument("--w", type=_positive_int, help="window width in bits")
    p.add_argument("--w-list", type=_int_list, help="sweep several window widths")
    p.add_argument("--trials", type=int, default=0, help="Monte Carlo trials (0 = analytic only)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("audit", help="exposure report and guard planning for a routing grid")
    p.add_argument("--grid", required=True, help="grid description file")
    p.add_argument("--d-max", type=_positive_int, default=2)
    p.add_argument("--guard", help="plan guard wires for this sensitive wire id")
    p.add_argument("--fill", choices=["unoccupied", "random_signal"], default="unoccupied")
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.func(args)
    except (LongwireError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
