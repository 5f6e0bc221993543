"""Experiment runner: every study is a subcommand emitting deterministic CSV.

Identical argv (and seed) produce byte-identical output; plotting is
left to external tooling; ``reproduce DIR`` writes every study's CSV.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import os
import shlex
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np

from . import audit as audit_mod
from . import codec, exfil, kernels, stats
from .channel import (
    DeviceProfile,
    Geometry,
    MeasurementConfig,
    _count_engine,
    _terms,
    as_longs,
    expected_delta_rc,
    simulate_trace,
    trace_to_csv,
)
from .config import load_setup
from .errors import LongwireError
from .patterns import DYNAMIC4_CODES, PatternSpec, _check_int, _parsed, parse_pattern, stimulus_columns

DEFAULT_LOG2_TICKS = 21

# `reproduce DIR` runs, in order: (CSV under DIR, argv), the pairs of bench/spec.py
# CLI_RUNS.  The audit run names its grid relative to the checkout.
REPRODUCE_RUNS = (
    ("trace_alternating.csv", "simulate --pattern alternating --n 21 --vt 5 --vr 5 --windows 2048 --seed 1"),
    ("trace_patterns_lfsr.csv", "simulate --pattern lfsr --n 21 --vt 5 --vr 5 --windows 2048 --seed 2"),
    ("scaling_time.csv", "scaling-time --n-list 13,15,17,19,21 --windows 2048 --vt 5 --vr 5 --seed 3"),
    ("scaling_length.csv", "scaling-length --n 21 --windows 1024 --seed 4"),
    ("distance.csv", "distance --n 21 --d-list 1,2,3,4 --windows 2048 --seed 5"),
    ("dynamic_long.csv", "dynamic --path long --n 21 --windows 2048 --seed 6"),
    ("dynamic_local.csv", "dynamic --path local --n 21 --windows 2048 --seed 6"),
    ("ber.csv", "ber --n-list 11,12,13,14,15 --bits 10000 --seed 7"),
    ("bandwidth.csv", "bandwidth --n-list 13,15,17,19,21"),
    ("exfil_demo.csv", "exfil --key 0xDEADBEEFCAFEBABE --w 10"),
    ("prob_n64.csv", "prob --n 64 --w-list 4,6,8,10,12,14,16 --trials 20000 --seed 8"),
    ("prob_n264.csv", "prob --n 264 --w-list 10,20,30,40 --trials 2000 --seed 9"),
    ("audit_exposures.csv", "audit --grid docs/sample_grid.txt"),
)


def _int_option(low: int, text: str) -> int:
    """The type of an integer option (``low`` bound by functools.partial): int(text) by the integer rule."""
    try:
        return _check_int(_parsed(text), "value", low)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_positive_int, _non_negative_int = functools.partial(_int_option, 1), functools.partial(_int_option, 0)


def _longs_option(text: str) -> Fraction:
    """The type of a wire-length option: ``channel.as_longs(text)``."""
    try:
        return as_longs(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _list_option(item, text: str) -> list:
    """The type of a comma-separated list option (``item`` bound by functools.partial): item(x) for each x."""
    items = [x for x in text.split(",") if x.strip()]
    if not items:
        raise argparse.ArgumentTypeError(f"{text!r} lists no values")
    return [item(x) for x in items]


_int_list, _longs_list = functools.partial(_list_option, _positive_int), functools.partial(_list_option, _longs_option)


# The options several studies share, one definition each; a study registers those it reads, not those it sweeps.
_OPTIONS = {
    "--n": dict(type=_positive_int, help=f"log2 clock ticks per window (default {DEFAULT_LOG2_TICKS})"),
    "--vt": dict(type=_longs_option, default="2", help="transmitter longs; thirds allowed, e.g. 1/3"),
    "--vr": dict(type=_positive_int, default=2, help="receiver longs"),
    "--d": dict(type=_positive_int, default=1, help="track distance, 1 = adjacent"),
    "--path": dict(choices=["long", "local"], default="long",
                   help="long-wire overlap, or local routing only"),
    "--windows": dict(type=_positive_int, default=2048),
    "--seed": dict(type=_non_negative_int, required=True),
    "--n-list": dict(type=_int_list, default=[13, 15, 17, 19, 21]),
}


def _add_options(sub, *options, action="store", **defaults):
    """Register --profile and the named shared options on ``sub``, then set the study's ``defaults``."""
    sub.add_argument("--profile", action=action, help="device profile file (key = value format)")
    for option in options:
        sub.add_argument(option, action=action, **_OPTIONS[option])
    sub.set_defaults(**defaults)


class _Gated(argparse.Action):
    """Store the value, and list the option in ``gated``: the study reads it only with its ``gate`` option."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.gated = [*namespace.gated, option_string]


def _load_setup(args) -> tuple[DeviceProfile, MeasurementConfig]:
    """The --profile file's setup (built-in defaults without one), at --n where the study has it."""
    cfg = MeasurementConfig(log2_ticks=DEFAULT_LOG2_TICKS)
    profile, cfg = load_setup(args.profile, cfg) if args.profile else (DeviceProfile(), cfg)
    if getattr(args, "n", None) is not None:
        cfg = replace(cfg, log2_ticks=args.n)
    return profile, cfg


def _csv_lines(header: list[str], rows: list[list]) -> str:
    return "".join(",".join(str(x) for x in row) + "\n" for row in [header, *rows])


def _alternating_stats(profile, cfg, geoms, windows, seeds):
    """One alternating trace per geometry, trace r seeded seeds[r], from one count-engine call: the counts of
    the 0 and the 1 windows and the paired relative differences, each one row per geometry."""
    duty, _, _ = stimulus_columns(PatternSpec.alternating(), windows)
    rngs = [np.random.default_rng(s) for s in seeds]
    counts = _count_engine(profile, cfg, _terms(profile, cfg, geoms), duty[None], 0.0, rngs)
    drc = stats._relative_deltas(counts, range(windows))
    return counts[:, 0::2], counts[:, 1::2], drc


def cmd_simulate(args) -> str:
    profile, cfg = _load_setup(args)
    geom = Geometry(v_t=args.vt, v_r=args.vr, d=args.d, coupling=args.path)
    pattern = parse_pattern(args.pattern)
    trace = simulate_trace(profile, cfg, geom, pattern, args.windows, args.seed)
    return trace_to_csv(trace)


def cmd_scaling_time(args) -> str:
    profile, cfg = _load_setup(args)
    geom = Geometry(v_t=args.vt, v_r=args.vr, d=args.d)
    rows = []
    for n in args.n_list:
        cfg_n = replace(cfg, log2_ticks=n)
        c0, c1, drc = _alternating_stats(profile, cfg_n, [geom], args.windows, [args.seed + n])
        dc_m, dc_lo, dc_hi = stats.mean_ci(c1[0] - c0[0])
        drc_m, drc_lo, drc_hi = stats.mean_ci(drc[0])
        rows.append(
            [n, f"{cfg_n.window_seconds:.8g}"]
            + [f"{v:.6g}" for v in (dc_m, dc_lo, dc_hi)]
            + [f"{v:.6g}" for v in (drc_m, drc_lo, drc_hi)]
        )
    header = ["n", "window_seconds", "delta_c", "delta_c_lo", "delta_c_hi",
              "delta_rc", "delta_rc_lo", "delta_rc_hi"]
    return _csv_lines(header, rows)


def cmd_scaling_length(args) -> str:
    profile, cfg = _load_setup(args)
    geoms = [Geometry(v_t=vt, v_r=vr, d=args.d) for vt in args.vt_list for vr in args.vr_list]
    seeds = [args.seed + 1000 * i + j for i in range(len(args.vt_list)) for j in range(len(args.vr_list))]
    _, _, drc = _alternating_stats(profile, cfg, geoms, args.windows, seeds)
    rows = [
        [str(geom.v_t), geom.v_r, f"{expected_delta_rc(profile, geom):.10g}", f"{measured:.6g}"]
        for geom, measured in zip(geoms, drc.mean(axis=1).tolist())
    ]
    return _csv_lines(["vt", "vr", "delta_rc_model", "delta_rc_measured"], rows)


def cmd_distance(args) -> str:
    profile, cfg = _load_setup(args)
    geoms = [Geometry(v_t=args.vt, v_r=args.vr, d=d) for d in args.d_list]
    c0, c1, drc = _alternating_stats(profile, cfg, geoms, args.windows, [args.seed + d for d in args.d_list])
    rows = []
    for geom, zeros, ones, measured in zip(geoms, c0, c1, drc.mean(axis=1).tolist()):
        _, p = stats.ks_two_sample(zeros, ones)
        rows.append([geom.d, f"{expected_delta_rc(profile, geom):.10g}", f"{measured:.6g}", f"{p:.6g}"])
    return _csv_lines(["d", "delta_rc_model", "delta_rc_measured", "ks_p_0_vs_1"], rows)


def cmd_dynamic(args) -> str:
    profile, cfg = _load_setup(args)
    geom = Geometry(v_t=args.vt, v_r=args.vr, d=args.d, coupling=args.path)
    columns = [stimulus_columns(PatternSpec.dynamic4(code), args.windows) for code in DYNAMIC4_CODES]
    duty, toggle = np.array([c[0] for c in columns]), np.array([c[1] for c in columns])  # one row per code
    # one seed, so one draw row, for all six codes: differences between
    # patterns are then not masked by noise realization
    terms = _terms(profile, cfg, (geom,))
    counts = _count_engine(profile, cfg, terms, duty, toggle, (np.random.default_rng(args.seed),))
    rows = []
    for idx, code in enumerate(DYNAMIC4_CODES):
        mean, lo, hi = stats.mean_ci(counts[idx])
        rows.append(
            [f"d{idx}", code, f"{duty[idx, 0]:.4g}", f"{toggle[idx, 0]:.4g}"]
            + [f"{v:.10g}" for v in (mean, lo, hi)]
        )
    header = ["pattern", "code", "duty", "toggle_rate", "mean_count", "ci_lo", "ci_hi"]
    return _csv_lines(header, rows)


def cmd_ber(args) -> str:
    profile, cfg = _load_setup(args)
    geom = Geometry(v_t=args.vt, v_r=args.vr, d=args.d)
    rows = []
    for n in args.n_list:
        cfg_n = replace(cfg, log2_ticks=n)
        rng = np.random.default_rng((args.seed, n))
        bits = rng.integers(0, 2, args.bits)
        decoded = codec._covert_transfer(bits, profile, cfg_n, geom, args.seed + n)
        ber = stats.bit_error_rate(bits, decoded)
        errors = round(ber * len(bits))
        rows.append([n, f"{cfg_n.window_seconds:.8g}", len(bits), errors, f"{1.0 - ber:.6g}"])
    return _csv_lines(["n", "window_seconds", "bits", "errors", "accuracy"], rows)


def cmd_bandwidth(args) -> str:
    _, cfg = _load_setup(args)
    rows = []
    for n in args.n_list:
        cfg_n = replace(cfg, log2_ticks=n)
        raw = codec.channel_bandwidth(cfg_n, codec.LineCode.NONE)
        enc = codec.channel_bandwidth(cfg_n, codec.LineCode.EIGHTB_TENB)
        rows.append([n, f"{cfg_n.window_seconds:.8g}", f"{raw:.6g}", f"{enc:.6g}"])
    return _csv_lines(["n", "window_seconds", "raw_bps", "bps_8b10b"], rows)


def cmd_exfil(args) -> str:
    key = exfil.parse_key(args.key)
    n = len(key)
    noise = None
    if args.noisy:
        profile, cfg = _load_setup(args)
        geom = Geometry(v_t=args.vt, v_r=args.vr, d=args.d)
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
        lines.append(f"# schedule: runs={result.runs_used} measurements={result.measurements_used}")
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
    widths = args.w_list or [args.w]
    # one draw of the trial keys for every width; each rate is monte_carlo_recovery_rate's count / trials
    hits = kernels.mc_widths(args.n_key, widths, args.trials, args.seed) if args.trials else [None] * len(widths)
    rows = []
    for w, count in zip(widths, hits):
        p = exfil.recovery_probability(args.n_key, w)
        bound = f"{exfil.eq2_lower_bound(args.n_key, w):.4f}" if args.n_key % w == 0 else ""
        mc = "" if count is None else f"{count / args.trials:.4f}"
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


def cmd_reproduce(args) -> str:
    os.makedirs(args.dir, exist_ok=True)
    for name, argv in REPRODUCE_RUNS:
        if main(["--out", os.path.join(args.dir, name), *shlex.split(argv)]) != 0:
            raise LongwireError(f"{name}: `longwire {argv}` failed")
    return f"wrote {args.dir}/\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; it is not changed after."""
    parser = argparse.ArgumentParser(
        prog="longwire",
        description="Simulate, encode, attack and audit the FPGA long-wire leakage channel.",
    )
    parser.add_argument("--out", help="write output to this file instead of stdout")
    # No abbreviations: where a study sweeps n, `--n` must not stand for `--n-list`.
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False),
    )

    p = sub.add_parser("simulate", help="simulate a count trace")
    _add_options(p, "--n", "--vt", "--vr", "--d", "--path", "--windows", "--seed", func=cmd_simulate)
    p.add_argument("--pattern", default="alternating",
                   help="alternating | longruns[:len] | lfsr[:seed] | d0..d5 | custom:<bits>")

    p = sub.add_parser("scaling-time", help="count differences vs measurement time")
    _add_options(p, "--vt", "--vr", "--d", "--n-list", "--windows", "--seed", func=cmd_scaling_time)

    p = sub.add_parser("scaling-length", help="relative difference over transmitter x receiver lengths")
    _add_options(p, "--n", "--d", "--windows", "--seed", func=cmd_scaling_length, windows=1024)
    p.add_argument("--vt-list", type=_longs_list, default="1/3,2/3,1,2,3,4,5")
    p.add_argument("--vr-list", type=_int_list, default=[1, 2, 3, 4, 5])

    p = sub.add_parser("distance", help="effect and KS p-value vs wire distance")
    _add_options(p, "--n", "--vt", "--vr", "--windows", "--seed", func=cmd_distance)
    p.add_argument("--d-list", type=_int_list, default=[1, 2, 3, 4])

    p = sub.add_parser("dynamic", help="mean counts for the six 4-bit loop codes")
    _add_options(p, "--n", "--vt", "--vr", "--d", "--path", "--windows", "--seed", func=cmd_dynamic)

    p = sub.add_parser("ber", help="covert-channel accuracy vs window length")
    _add_options(p, "--vt", "--vr", "--d", "--n-list", "--seed", func=cmd_ber, n_list=[13])
    p.add_argument("--bits", type=_positive_int, default=10000)

    p = sub.add_parser("bandwidth", help="channel bandwidth per window length")
    _add_options(p, "--n-list", func=cmd_bandwidth)

    p = sub.add_parser("exfil", help="recover a key from sliding-window measurements")
    p.add_argument("--key", required=True, help="key as hex (0x...) or binary string")
    p.add_argument("--w", type=_positive_int, required=True, help="window width in bits")
    p.add_argument("--single", action="store_true", help="single window width only")
    p.add_argument("--noisy", action="store_true", help="measure through the count simulator")
    noisy = p.add_argument_group("count simulator (with --noisy only)")
    _add_options(noisy, "--n", "--vt", "--vr", "--d", action=_Gated)
    noisy.add_argument("--repeats", action=_Gated, type=_positive_int, default=1,
                       help="averaged counts per window")
    noisy.add_argument("--seed", action=_Gated, type=_non_negative_int, default=0)
    p.set_defaults(func=cmd_exfil, gate="noisy", gated=[])

    p = sub.add_parser("prob", help="full-recovery probability table")
    p.add_argument("--n", dest="n_key", type=_positive_int, required=True, help="key length in bits")
    widths = p.add_mutually_exclusive_group(required=True)
    widths.add_argument("--w", type=_positive_int, help="window width in bits")
    widths.add_argument("--w-list", type=_int_list, help="sweep several window widths")
    p.add_argument("--trials", type=_non_negative_int, default=0, help="Monte Carlo trials (0 = analytic only)")
    p.add_argument("--seed", type=int, default=0, help="any integer; the trial keys use it mod 2^64")
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("audit", help="exposure report and guard planning for a routing grid")
    p.add_argument("--grid", required=True, help="grid description file")
    p.add_argument("--d-max", type=_positive_int, default=2)
    p.add_argument("--guard", help="plan guard wires for this sensitive wire id")
    p.add_argument("--fill", action=_Gated, choices=["unoccupied", "random_signal"], default="unoccupied",
                   help="guard fill (with --guard only)")
    p.set_defaults(func=cmd_audit, gate="guard", gated=[])

    p = sub.add_parser("reproduce", help="write every committed out/ CSV into DIR")
    p.add_argument("dir", metavar="DIR", help="directory for the CSVs; created if missing")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "gated", None) and getattr(args, args.gate) in (None, False):
        parser.error(f"{args.command} reads {', '.join(dict.fromkeys(args.gated))} only with --{args.gate}")
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
