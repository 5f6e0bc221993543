"""The four benchmark workloads: inputs made from a seed, a fixed job list, output checks.

sim-link      channel subcommands at their Makefile arguments plus one framed
              8b/10b transfer: few long traces through channel, codec, stats.
key-recovery  prob, exfil, exhaustive sweeps and noise-free recovery of random
              keys: exfil and kernels only, no channel.
noisy-exfil   random keys recovered through the count simulator: the channel
              used as hundreds of 55-window traces, each key scored.
audit-grid    a generated routing grid: parse, audit, guard, re-audit.

Checks compare against ground truth (closed forms, the sent payloads, the
true keys, an independent exposure search), never against committed bytes;
the committed out/*.csv are only counted as changed or not.
"""

from __future__ import annotations

import contextlib
import io
import math
import shlex
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np

from harness import HostProbe, Pass, check
from longwire import audit, channel, cli, code8b10b, codec, exfil, kernels, stats
from longwire.errors import GuardBlocked, InconsistentMeasurements, InvalidCodeGroup
from longwire.patterns import PatternSpec, parse_pattern
from spec import CLI_RUNS

ROOT = Path(__file__).resolve().parent.parent

# Six standard deviations: a correct program fails a statistical check about once in 10^9.
SIGMAS = 6.0


def run_cli(label: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(shlex.split(CLI_RUNS[label][1]))
    check(code == 0, f"exit code {code}")
    return buf.getvalue()


def cli_args(label: str):
    return cli.build_parser().parse_args(shlex.split(CLI_RUNS[label][1]))


def csv_rows(text: str) -> list[dict[str, str]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def within(measured: float, model: float, tolerance: float, what: str) -> None:
    check(abs(measured - model) <= tolerance, f"{what}: measured {measured:.6g}, model {model:.6g}")


def normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def recovery_fraction(n: int, w: int) -> Fraction:
    """Exact single-width full-recovery probability: each residue class must hold two values."""
    nq, m = divmod(n, w)
    return (1 - Fraction(1, 2**nq)) ** m * (1 - Fraction(2, 2**nq)) ** (w - m)


class Workload:
    """Inputs fixed at construction; run_pass() runs the job list once."""

    def __init__(self, seed: int, tiny: bool):
        self.tiny = tiny
        self.rng = np.random.default_rng(seed)
        self.first: dict[str, object] = {}
        self.csv_changed = 0

    def jobs(self):
        raise NotImplementedError

    def run_pass(self, tracing: bool, probe: HostProbe) -> Pass:
        return Pass(tracing, probe).run(self.jobs())

    def repeatable(self, label: str, value) -> None:
        """Every pass must reproduce the first pass's output exactly."""
        check(value == self.first.setdefault(label, value), f"{label}: output differs from the first pass")

    def cli_op(self, p: Pass, label: str, check_output, inner=None):
        """One Makefile invocation; returns True, or None when it failed."""
        def body():
            text, span = p.call(f"cli.{label}", run_cli, label)
            if label not in self.first:
                committed = ROOT / "out" / CLI_RUNS[label][0]
                if not committed.is_file() or committed.read_text(encoding="utf-8") != text:
                    self.csv_changed += 1
            self.repeatable(label, text)
            check_output(text)
            if inner is not None:
                inner(p, span)
            return True

        return p.op(f"cli {label}", body)


# --------------------------------------------------------------------------- sim-link

PROFILE = channel.DeviceProfile()


def full_swing(cfg: channel.MeasurementConfig, geom: channel.Geometry) -> float:
    return channel.expected_count(PROFILE, cfg, geom, 1.0) - channel.expected_count(PROFILE, cfg, geom, 0.0)


def pair_sigma(cfg: channel.MeasurementConfig) -> float:
    """Standard deviation of one window count: Gaussian noise, counter phase, rounding."""
    return math.sqrt(PROFILE.noise_sigma_for(cfg.ticks_per_window) ** 2 + 1.0 / 3.0 + 1.0 / 12.0)


def drc_tolerance(cfg: channel.MeasurementConfig, pairs: int) -> float:
    """SIGMAS standard errors of a mean paired relative difference."""
    count = PROFILE.base_rate * cfg.ticks_per_window
    return SIGMAS * math.sqrt(2.0) * pair_sigma(cfg) / count / math.sqrt(pairs)


class SimLink(Workload):
    FRAMES, FRAME_BYTES, FRAME_LOG2_TICKS = 64, 32, 15
    CFG21 = channel.MeasurementConfig(log2_ticks=21)

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        frames = 4 if tiny else self.FRAMES
        self.payloads = [bytes(self.rng.integers(0, 256, self.FRAME_BYTES, dtype=np.uint8)) for _ in range(frames)]
        self.transfer_seed = int(self.rng.integers(0, 2**31))
        self.alternating = None
        self.simulate_inputs = {label: self.simulate_args(label) for label in ("simulate-alternating", "simulate-lfsr")}

    def jobs(self):
        labels = ["simulate-alternating", "bandwidth"] if self.tiny else [
            "simulate-alternating", "simulate-lfsr", "scaling-time", "scaling-length",
            "distance", "dynamic-long", "dynamic-local", "ber", "bandwidth"]
        return [*((label, self.cli_job(label)) for label in labels),
                ("stats", self.stats_job), ("framed-transfer", self.transfer_job)]

    def cli_job(self, label):
        checks = {
            "simulate-alternating": self.check_alternating,
            "simulate-lfsr": self.check_lfsr,
            "scaling-time": self.check_scaling_time,
            "scaling-length": self.check_scaling_length,
            "distance": self.check_distance,
            "dynamic-long": lambda text: self.check_dynamic(text, "long"),
            "dynamic-local": lambda text: self.check_dynamic(text, "local"),
            "ber": self.check_ber,
            "bandwidth": self.check_bandwidth,
        }
        inner = partial(self.repeat_simulate, label) if label in self.simulate_inputs else None
        return lambda p: self.cli_op(p, label, checks[label], inner)

    @staticmethod
    def simulate_args(label: str) -> tuple:
        """simulate_trace's arguments for a `simulate` run, from the same argv."""
        args = cli_args(label)
        cfg = channel.MeasurementConfig(log2_ticks=args.n)
        geom = channel.Geometry(Fraction(args.vt), args.vr, args.d)
        return PROFILE, cfg, geom, parse_pattern(args.pattern), args.windows, args.seed

    def repeat_simulate(self, label: str, p: Pass, span) -> None:
        """cli -> channel: the trace the subcommand simulates."""
        inputs = self.simulate_inputs[label]
        p.inner(span, "channel.simulate_trace", channel.simulate_trace, *inputs, work=inputs[4])

    def check_trace(self, text: str, geom: channel.Geometry) -> channel.CountTrace:
        trace = channel.trace_from_csv(text)
        check(len(trace) == 2048, f"{len(trace)} windows, expected 2048")
        check(all(s.duty == s.tx_bit for s in trace.samples), "duty does not follow the sent bit")
        counts = np.array(trace.counts, dtype=float)
        bits = np.array(trace.tx_bits)
        ones, zeros = counts[bits == 1], counts[bits == 0]
        se = math.sqrt(ones.var(ddof=1) / len(ones) + zeros.var(ddof=1) / len(zeros))
        within(ones.mean() - zeros.mean(), full_swing(self.CFG21, geom), SIGMAS * se, "count step")
        return trace

    def check_alternating(self, text):
        trace = self.check_trace(text, channel.Geometry(5, 5))
        check(trace.tx_bits == [i % 2 for i in range(2048)], "not an alternating trace")
        self.alternating = trace

    def check_lfsr(self, text):
        self.check_trace(text, channel.Geometry(5, 5))

    def check_scaling_time(self, text):
        model = channel.expected_delta_rc(PROFILE, channel.Geometry(5, 5))
        rows = csv_rows(text)
        check([int(r["n"]) for r in rows] == [13, 15, 17, 19, 21], "wrong n column")
        for r in rows:
            cfg = channel.MeasurementConfig(log2_ticks=int(r["n"]))
            check(r["window_seconds"] == f"{cfg.window_seconds:.8g}", "window_seconds")
            lo, hi = float(r["delta_rc_lo"]), float(r["delta_rc_hi"])
            check(lo <= float(r["delta_rc"]) <= hi, "delta_rc outside its own interval")
            within(float(r["delta_rc"]), model, drc_tolerance(cfg, 1024), f"delta_rc at n={r['n']}")

    def check_scaling_length(self, text):
        rows = csv_rows(text)
        check(len(rows) == 35, f"{len(rows)} rows, expected 35")
        for r in rows:
            geom = channel.Geometry(Fraction(r["vt"]), int(r["vr"]))
            model = channel.expected_delta_rc(PROFILE, geom)
            check(r["delta_rc_model"] == f"{model:.10g}", "delta_rc_model")
            within(float(r["delta_rc_measured"]), model, drc_tolerance(self.CFG21, 512), f"delta_rc at {r['vt']}x{r['vr']}")

    def check_distance(self, text):
        rows = csv_rows(text)
        check([int(r["d"]) for r in rows] == [1, 2, 3, 4], "wrong d column")
        for r in rows:
            d = int(r["d"])
            model = channel.expected_delta_rc(PROFILE, channel.Geometry(2, 2, d))
            check(r["delta_rc_model"] == f"{model:.10g}", "delta_rc_model")
            within(float(r["delta_rc_measured"]), model, drc_tolerance(self.CFG21, 1024), f"delta_rc at d={d}")
            p_value = float(r["ks_p_0_vs_1"])
            check(p_value < 1e-6 if model else p_value > 1e-9, f"KS p-value {p_value} at d={d}")

    def check_dynamic(self, text, path):
        geom = channel.Geometry(2, 2, coupling=path)
        rows = csv_rows(text)
        check([r["code"] for r in rows] == ["0000", "1000", "1100", "1010", "1110", "1111"], "wrong codes")
        sem = pair_sigma(self.CFG21) / math.sqrt(2048)
        for r in rows:
            code = r["code"]
            duty = code.count("1") / 4
            # patterns.py counts one high pulse per 4-bit loop as 1/8 toggle per tick
            toggles = sum(code[i] != code[(i + 1) % 4] for i in range(4)) / 16
            check(float(r["duty"]) == duty and float(r["toggle_rate"]) == toggles, f"stimulus of {code}")
            model = channel.expected_count(PROFILE, self.CFG21, geom, duty, toggles)
            within(float(r["mean_count"]), model, SIGMAS * sem, f"{path} mean count of {code}")

    def check_ber(self, text):
        rows = csv_rows(text)
        check([int(r["n"]) for r in rows] == [11, 12, 13, 14, 15], "wrong n column")
        geom = channel.Geometry()
        for r in rows:
            cfg = channel.MeasurementConfig(log2_ticks=int(r["n"]))
            bits, errors = int(r["bits"]), int(r["errors"])
            check(r["accuracy"] == f"{1.0 - errors / bits:.6g}", "accuracy column")
            # A pair decodes as 1 unless the first count is strictly lower, so a 0 bit
            # also fails on a tie: half-count offsets on either side of the step.
            step, spread = full_swing(cfg, geom), math.sqrt(2.0) * pair_sigma(cfg)
            p_err = 0.5 * (normal_cdf((-step - 0.5) / spread) + normal_cdf((-step + 0.5) / spread))
            expected = bits * p_err
            slack = SIGMAS * math.sqrt(expected * (1 - p_err)) + 0.15 * expected + 3
            within(errors, expected, slack, f"bit errors at n={r['n']}")

    def check_bandwidth(self, text):
        for r in csv_rows(text):
            raw = 1e8 / 2 ** (int(r["n"]) + 1)
            check(r["raw_bps"] == f"{raw:.6g}" and r["bps_8b10b"] == f"{raw * 0.8:.6g}", f"bandwidth at n={r['n']}")

    def stats_job(self, p: Pass) -> None:
        trace = self.alternating
        check(trace is not None, "no alternating trace to analyse")
        counts = trace.counts

        def delta_rc():
            deltas, _ = p.call("stats.paired_delta_rc", stats.paired_delta_rc, trace, work=len(trace) // 2)
            (mean, lo, hi), _ = p.call("stats.mean_ci", stats.mean_ci, deltas.values, work=1)
            model = channel.expected_delta_rc(PROFILE, channel.Geometry(5, 5))
            width = hi - lo
            check(lo - width <= model <= hi + width, f"model delta_rc {model:.6g} outside [{lo:.6g}, {hi:.6g}]")
            self.repeatable("stats.delta_rc", (mean, lo, hi))

        def separation():
            (_, p_value), _ = p.call("stats.ks_two_sample", stats.ks_two_sample, counts[0::2], counts[1::2], work=1)
            check(p_value < 1e-6, f"KS p-value {p_value} between 0 and 1 windows")

        p.op("stats delta_rc", delta_rc)
        p.op("stats ks", separation)

    def transfer_job(self, p: Pass) -> None:
        cfg = channel.MeasurementConfig(log2_ticks=self.FRAME_LOG2_TICKS)
        geom = channel.Geometry()
        stream: list[int] = []
        starts = []
        for payload in self.payloads:
            bits = tuple(int(b) for byte in payload for b in format(byte, "08b"))
            frame = codec.Frame(bits, line_code=codec.LineCode.EIGHTB_TENB)
            body, parent = p.call("codec.frame_to_bits", codec.frame_to_bits, frame)
            p.inner(parent, "code8b10b.encode_bytes", code8b10b.encode_bytes, payload, work=len(payload))
            starts.append(len(stream))
            stream.extend(body)

        received = p.op("covert transfer", lambda: self.transfer(p, stream, cfg, geom))
        if received is None:
            return
        found = p.op("find frames", lambda: self.find(p, received, starts))
        for k, payload in enumerate(self.payloads):
            p.op(f"frame {k}", lambda: check(found is not None and found.get(starts[k]) == payload,
                                            f"frame {k} not recovered bit-exact"))

    def transfer(self, p, stream, cfg, geom):
        received, parent = p.call("codec.simulate_covert_transfer", codec.simulate_covert_transfer,
                                  stream, PROFILE, cfg, geom, self.transfer_seed, work=len(stream))
        if p.tracing:
            # codec -> channel: the trace behind the transfer
            symbols = [s for pair in codec.manchester_encode(stream) for s in pair]
            p.inner(parent, "channel.simulate_trace", channel.simulate_trace, PROFILE, cfg, geom,
                    PatternSpec.custom(symbols), len(symbols), self.transfer_seed, work=len(symbols))
        check(len(received) == len(stream), "received stream length")
        self.repeatable("transfer", received)
        return received

    def find(self, p, received, starts):
        frames, parent = p.call("codec.find_frames", codec.find_frames, received, codec.DEFAULT_SOF,
                                codec.DEFAULT_EOF, codec.LineCode.EIGHTB_TENB)
        found = {pos: bytes(int("".join(map(str, body[i:i + 8])), 2) for i in range(0, len(body), 8))
                 for pos, body in frames}
        p.counts["codec.find_frames.spurious"] += len(set(found) - set(starts))
        # codec -> code8b10b: decode each sent frame's body where it was sent
        sof = len(codec.DEFAULT_SOF)
        for k, start in enumerate(starts):
            body = received[start + sof:start + sof + 10 * len(self.payloads[k])]
            try:
                p.inner(parent, "code8b10b.decode_bits", code8b10b.decode_bits, body, work=len(self.payloads[k]))
            except InvalidCodeGroup:
                pass  # a corrupted body; find_frames is scored on the frames below
        return found


# --------------------------------------------------------------------------- key-recovery


def random_key(rng: np.random.Generator) -> int:
    return int.from_bytes(rng.bytes(8), "little")


class KeyRecovery(Workload):
    KEYS, W = 400, 10

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.sweep_n, self.sweep_w = (10, 3) if tiny else (16, 5)
        self.keys = [random_key(self.rng) for _ in range(8 if tiny else self.KEYS)]
        self.args = {label: cli_args(label) for label in ("prob-n64", "prob-n264", "exfil")}
        self.demo_key = exfil.parse_key(self.args["exfil"].key)

    def jobs(self):
        prob = [] if self.tiny else [(label, partial(self.prob_job, label)) for label in ("prob-n64", "prob-n264")]
        return [*prob, ("exfil", self.exfil_job), ("exhaustive-single", self.sweep_single_job),
                ("exhaustive-multi", self.sweep_multi_job), ("multi-window", self.multi_window_job)]

    def prob_job(self, label, p: Pass) -> None:
        self.cli_op(p, label, partial(self.check_prob, label), partial(self.repeat_prob, label))

    def exfil_job(self, p: Pass) -> None:
        recovered = self.cli_op(p, "exfil", self.check_exfil, self.repeat_exfil)
        p.score_key(recovered is not None)

    def check_prob(self, label, text):
        args = self.args[label]
        rows = csv_rows(text)
        check([int(r["w"]) for r in rows] == args.w_list, "wrong w column")
        for r in rows:
            w = int(r["w"])
            prob = float(recovery_fraction(args.n_key, w))
            within(float(r["probability"]), prob, 0.5e-4, f"probability at w={w}")
            nq, m = divmod(args.n_key, w)
            if m == 0:
                within(float(r["eq2_lower_bound"]), 1 - w * 2.0 ** (1 - nq), 0.5e-4, f"eq2 bound at w={w}")
            trials = args.trials
            slack = SIGMAS * math.sqrt(prob * (1 - prob) / trials) + 1 / trials + 0.5e-4
            within(float(r["monte_carlo"]), prob, slack, f"monte carlo rate at w={w}")

    def repeat_prob(self, label, p: Pass, span) -> None:
        """cli -> exfil -> kernels: the Monte Carlo runs behind each row."""
        args = self.args[label]
        for w in args.w_list:
            inputs = (args.n_key, w, args.trials, args.seed)
            _, mc = p.inner(span, f"exfil.monte_carlo_recovery_rate.n{args.n_key}", exfil.monte_carlo_recovery_rate,
                            *inputs, work=args.trials)
            if args.n_key <= kernels.KERNEL_MAX_BITS:
                p.inner(mc, "kernels.mc_single", kernels.mc_single, *inputs, work=args.trials)

    def check_exfil(self, text):
        key = self.args["exfil"].key.removeprefix("0x")
        expected = format(int(key, 16), f"0{4 * len(key)}b")
        values = "".join(r["value_or_class_id"] for r in csv_rows(text))
        check(values == expected, "demo key not recovered")

    def repeat_exfil(self, p: Pass, span) -> None:
        """cli -> exfil: the two-width recovery the subcommand runs."""
        p.inner(span, "exfil.multi_window_recover", exfil.multi_window_recover, self.demo_key, self.args["exfil"].w,
                work=1)

    def sweep_single_job(self, p: Pass) -> None:
        n, w = self.sweep_n, self.sweep_w

        def body():
            frac, span = p.call("exfil.exhaustive_success_fraction.single", exfil.exhaustive_success_fraction,
                                n, w, work=2**n)
            p.inner(span, "kernels.sweep_single", kernels.sweep_single, n, w, work=2**n)
            check(frac == recovery_fraction(n, w), f"single sweep {frac} != {recovery_fraction(n, w)}")
            check(frac == exfil.recovery_probability_exact(n, w), "sweep disagrees with recovery_probability_exact")

        p.op("exhaustive single", body)

    def sweep_multi_job(self, p: Pass) -> None:
        n, w = self.sweep_n, self.sweep_w

        def body():
            frac, span = p.call("exfil.exhaustive_success_fraction.multi", exfil.exhaustive_success_fraction,
                                n, w, True, work=2**n)
            p.inner(span, "kernels.sweep_multi", kernels.sweep_multi, n, w, work=2**n)
            # widths w and w+1 link all positions once n >= 2w+1: only the two constant keys stay open
            check(frac == Fraction(2**n - 2, 2**n), f"multi sweep {frac}")

        p.op("exhaustive multi", body)

    def multi_window_job(self, p: Pass) -> None:
        for i, value in enumerate(self.keys):
            key = exfil.KeyBits.from_int(value, 64)

            def body():
                result, _ = p.call("exfil.multi_window_recover", exfil.multi_window_recover, key, self.W, work=1)
                correct = result.complete and all(result.known[j] == b for j, b in enumerate(key.bits))
                p.score_key(correct)
                constant = value in (0, 2**64 - 1)
                check(correct != constant, f"key {value:#018x} recovered={correct}")

            p.op(f"multi-window key {i}", body)


# --------------------------------------------------------------------------- noisy-exfil


class NoisyExfil(Workload):
    KEYS, W, KEY_BITS = 400, 10, 64
    CONFIGS = ((19, 1), (19, 4), (21, 1), (21, 4), (23, 1), (23, 4))  # (log2_ticks, repeats)

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        # fresh keys for every setting: a key's residue classes decide much of its outcome,
        # so shared keys would make the settings' outcomes move together from seed to seed
        self.attacks = {
            config: [(exfil.KeyBits.from_int(random_key(self.rng), self.KEY_BITS), int(self.rng.integers(0, 2**31)))
                     for _ in range(4 if tiny else self.KEYS)]
            for config in self.CONFIGS
        }

    def jobs(self):
        return [(f"n{n}-r{r}", lambda p, config=(n, r): self.attack_job(p, config)) for n, r in self.CONFIGS]

    def attack_job(self, p: Pass, config) -> None:
        log2_ticks, repeats = config
        cfg = channel.MeasurementConfig(log2_ticks=log2_ticks)
        windows = (self.KEY_BITS - self.W + 1) * repeats
        for i, (key, chan_seed) in enumerate(self.attacks[config]):
            chan = exfil.ExfilChannel(PROFILE, cfg, channel.Geometry(), chan_seed, repeats)

            def attack(key=key, chan=chan):
                try:
                    return exfil.single_window_recover(key, self.W, chan)
                except InconsistentMeasurements:
                    return None

            def body(key=key, chan=chan, attack=attack):
                result, span = p.call("exfil.single_window_recover.noisy", attack, work=1)
                # exfil -> channel: the noisy window measurements behind the attack
                p.inner(span, "exfil.measure_windows_noisy", exfil.measure_windows_noisy, key, self.W, chan,
                        work=windows)
                if result is None:
                    outcome = "inconsistent"
                    p.refused += 1
                elif not result.complete:
                    outcome = "unresolved"
                elif all(result.known[j] == b for j, b in enumerate(key.bits)):
                    outcome = "correct"
                else:
                    outcome = "wrong"  # complete is not correct: every bit is scored
                p.counts[f"exfil.outcome.{outcome}"] += 1
                p.score_key(outcome == "correct")
                self.repeatable(f"{config} key {i}", outcome)

            p.op(f"noisy key {i} at {config}", body)


# --------------------------------------------------------------------------- audit-grid


class AuditGrid(Workload):
    """A generated grid of exactly SPANS spans; half of the sensitive spans get their
    neighbourhood cleared of other cores, so about half of the guard plans go through."""

    COLUMNS, TRACKS, HEIGHT, SPANS, SENSITIVE, CAPACITY = 32, 16, 1200, 7600, 100, 8500
    CORES = (("crypto", "trusted"), ("cpu", "trusted"), ("dsp", "trusted"),
             ("ip0", "untrusted"), ("ip1", "untrusted"), ("ip2", "untrusted"))
    D_MAX = 2

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        columns, total, sensitive = (2, 200, 6) if tiny else (self.COLUMNS, self.SPANS, self.SENSITIVE)
        rng = self.rng
        spans = []
        for column in range(columns):
            for track in range(self.TRACKS):
                y = int(rng.integers(0, 40))
                while True:
                    length = int(rng.integers(10, 60))
                    if y + length > self.HEIGHT:
                        break
                    core, trust = self.CORES[int(rng.integers(0, len(self.CORES)))]
                    spans.append([f"w{len(spans)}", core, trust, False, column, track, y, y + length - 1])
                    y += length + int(rng.integers(1, 60))
        chosen = rng.choice([i for i, s in enumerate(spans) if s[2] == "trusted"], size=sensitive, replace=False)
        by_column: dict[int, list[int]] = {}
        for i, s in enumerate(spans):
            by_column.setdefault(s[4], []).append(i)
        for i in chosen:
            spans[i][3] = True
        drop = set()
        for i in chosen[: sensitive // 2]:  # clear these neighbourhoods of other cores' normal spans
            s = spans[i]
            drop.update(j for j in by_column[s[4]]
                        if spans[j][1] != s[1] and not spans[j][3] and self.near(s, spans[j]))
        # then thin the grid to exactly `total` spans, so every seed does the same amount of work
        normal = [j for j, s in enumerate(spans) if not s[3] and j not in drop]
        drop.update(int(j) for j in rng.choice(normal, size=len(spans) - len(drop) - total, replace=False))
        self.spans = [tuple(s) for j, s in enumerate(spans) if j not in drop]
        self.text = "\n".join(
            [f"CAPACITY {self.TRACKS} {self.CAPACITY}"]
            + [f"LONG {w} {core} {trust} {'sensitive' if sens else 'normal'} {c} {t} {y0} {y1}"
               for w, core, trust, sens, c, t, y0, y1 in self.spans]) + "\n"
        sample = (ROOT / "docs" / "sample_grid.txt").read_text(encoding="utf-8")
        self.sample_exposures = int(sample.split("expected-exposures:")[1].split()[0])

    @classmethod
    def near(cls, s, f) -> bool:
        """f is within leakage reach of s: same column, 1..D_MAX tracks away, overlapping extents."""
        return (f[4] == s[4] and 1 <= abs(f[5] - s[5]) <= cls.D_MAX
                and min(s[7], f[7]) >= max(s[6], f[6]))

    @classmethod
    def exposures(cls, by_column) -> set[tuple[str, str, int, int]]:
        """Independent exposure search over spans bucketed by column."""
        found = set()
        for spans in by_column.values():
            for s in spans:
                if s[3]:
                    found.update((s[0], f[0], abs(f[5] - s[5]), min(s[7], f[7]) - max(s[6], f[6]) + 1)
                                 for f in spans if f[1] != s[1] and cls.near(s, f))
        return found

    def jobs(self):
        return [("sample-grid", lambda p: self.cli_op(p, "audit", self.check_sample)),
                ("grid", self.grid_job)]

    def check_sample(self, text):
        rows = csv_rows(text)
        check(len(rows) == self.sample_exposures, f"{len(rows)} exposures, expected {self.sample_exposures}")

    def grid_job(self, p: Pass) -> None:
        by_column: dict[int, list[tuple]] = {}
        for s in self.spans:
            by_column.setdefault(s[4], []).append(s)

        def audited(grid):
            found, _ = p.call("audit.find_exposures", audit.find_exposures, grid, self.D_MAX, work=1)
            got = {(e.sensitive.wire_id, e.foreign.wire_id, e.distance, e.overlap) for e in found}
            check(len(got) == len(found) and got == self.exposures(by_column), "exposures differ from the search")
            return found

        def parse():
            grid, _ = p.call("audit.parse_grid", audit.parse_grid, self.text, work=1)
            check(len(grid.spans) == len(self.spans), f"parsed {len(grid.spans)} of {len(self.spans)} spans")
            return grid

        grid = p.op("parse grid", parse)
        if grid is None:
            return
        p.counts["audit.spans"] = len(grid.spans)
        p.counts["audit.sensitive_spans"] = sum(s.sensitive for s in grid.spans)
        found = p.op("audit grid", lambda: audited(grid))
        p.counts["audit.exposures"] = len(found or ())

        for s in [s for s in self.spans if s[3]]:
            def plan(wire_id=s[0]):
                try:
                    return audit.plan_guards(grid, wire_id)
                except GuardBlocked as exc:
                    return exc

            def guard(s=s, plan=plan):
                nonlocal grid
                result, _ = p.call("audit.plan_guards", plan)
                exposed = any(f[1] != s[1] and self.near(s, f) for f in by_column[s[4]])
                blocked = isinstance(result, GuardBlocked)
                check(blocked == exposed, f"{s[0]}: blocked={blocked} but exposed={exposed}")
                if blocked:
                    p.counts["audit.blocked_plans"] += 1
                    return
                grid, _ = p.call("audit.apply_guard_plan", audit.apply_guard_plan, grid, result)
                p.counts["audit.plans"] += 1
                for k, g in enumerate(result.guards):
                    by_column[s[4]].append((f"guard_{s[0]}_{k}", s[1], s[2], False, s[4], g.track, g.y_start, g.y_end))
                check(len(grid.spans) == sum(map(len, by_column.values())), "guard spans not added")

            p.op(f"guard {s[0]}", guard)

        p.op("re-audit", lambda: audited(grid))


WORKLOADS = {"sim-link": SimLink, "key-recovery": KeyRecovery, "noisy-exfil": NoisyExfil, "audit-grid": AuditGrid}
