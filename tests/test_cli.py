import ast
import builtins
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from longwire import DeviceProfile, Geometry, MeasurementConfig, simulate_trace, stats
from longwire.channel import as_longs, expected_delta_rc
from longwire import cli
from longwire.cli import REPRODUCE_RUNS, build_parser, main
from longwire.exfil import parse_key, recovery_to_rows, single_window_recover
from longwire.patterns import DYNAMIC4_CODES, PatternSpec
from conftest import DOCS_DIR

GRID = str(DOCS_DIR / "sample_grid.txt")
REPO = DOCS_DIR.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_zero_windows_is_a_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--pattern", "alternating", "--windows", "0", "--seed", "1"])
        assert err.value.code == 2

    def test_unknown_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["bandwidth", "--frobnicate"])
        assert err.value.code == 2

    def test_domain_error_returns_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.grid"
        bad.write_text("LONG broken\n")
        code, _, err = run(capsys, "audit", "--grid", str(bad))
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # a width too wide for the key stops prob before any row, with or without the Monte Carlo
            (["prob", "--n", "64", "--w-list", "4,40"], "error: key length must be >= 2w - 1\n"),
            (["prob", "--n", "64", "--w-list", "4,40", "--trials", "100"], "error: key length must be >= 2w - 1\n"),
        ],
        ids=["prob-w-list", "prob-w-list-trials"],
    )
    def test_value_error_in_argv_returns_one(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize(
        "line, field",
        [
            ("noise_sigma = nan", "noise_sigma"),
            ("drift_bound = nan", "drift_bound"),
            ("base_rate = inf", "base_rate"),
            ("distance_atten = 1:nan", "distance_atten"),
            ("f_clk_hz = nan", "f_clk_hz"),
        ],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--windows", "4", "--seed", "1"],
            ["exfil", "--key", "10110010", "--w", "3", "--single", "--noisy", "--n", "13"],
        ],
        ids=["simulate", "exfil-noisy"],
    )
    def test_non_finite_profile_returns_one(self, capsys, tmp_path, line, field, argv):
        profile = tmp_path / "bad.profile"
        profile.write_text(line + "\n")
        code, out, err = run(capsys, *argv, "--profile", str(profile))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and f"{field} " in err

    def test_repeated_distance_returns_one(self, capsys, tmp_path):
        profile = tmp_path / "repeated.profile"
        profile.write_text("distance_atten = 1:1.0, 2:0.05, 2:0.9\n")
        code, out, err = run(capsys, "simulate", "--windows", "4", "--seed", "1", "--profile", str(profile))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "repeats distance 2" in err

    def test_guard_blocked_returns_one(self, capsys):
        code, _, err = run(capsys, "audit", "--grid", GRID, "--guard", "aes_key_bus")
        assert code == 1
        assert "blocked" in err


# Each study with its smallest argv, and the channel options it keeps, each with a non-default value.
STUDIES = {
    "simulate": (["simulate", "--windows", "8", "--seed", "1"],
                 [("--n", "13"), ("--vt", "1"), ("--vr", "1"), ("--d", "2"), ("--path", "local")]),
    "scaling-time": (["scaling-time", "--n-list", "13", "--windows", "16", "--seed", "1"],
                     [("--vt", "1"), ("--vr", "1"), ("--d", "2")]),
    "scaling-length": (["scaling-length", "--vt-list", "1", "--vr-list", "1", "--windows", "16", "--seed", "1"],
                       [("--n", "13"), ("--d", "2")]),
    "distance": (["distance", "--d-list", "1", "--windows", "16", "--seed", "1"],
                 [("--n", "13"), ("--vt", "1"), ("--vr", "1")]),
    "dynamic": (["dynamic", "--windows", "16", "--seed", "1"],
                [("--n", "13"), ("--vt", "1"), ("--vr", "1"), ("--d", "2"), ("--path", "local")]),
    "ber": (["ber", "--n-list", "9", "--bits", "200", "--seed", "1"], [("--vt", "1"), ("--vr", "1"), ("--d", "2")]),
    "bandwidth": (["bandwidth", "--n-list", "13"], []),
    "exfil-noisy": (["exfil", "--key", "10110010", "--w", "3", "--single", "--noisy", "--seed", "4"],
                    [("--n", "13"), ("--vt", "1"), ("--vr", "1"), ("--d", "2"), ("--repeats", "3")]),
}


# argv that names an option its study would ignore, or an empty list, with the usage error it gets.
REJECTED = [
    (STUDIES["scaling-time"][0] + ["--n", "15"], "unrecognized arguments: --n 15"),
    (STUDIES["ber"][0] + ["--n", "15"], "unrecognized arguments: --n 15"),
    (STUDIES["scaling-length"][0] + ["--vt", "3"], "unrecognized arguments: --vt 3"),
    (STUDIES["scaling-length"][0] + ["--vr", "3"], "unrecognized arguments: --vr 3"),
    (STUDIES["distance"][0] + ["--d", "2"], "unrecognized arguments: --d 2"),
    *[(STUDIES["bandwidth"][0] + [option, "3"], f"unrecognized arguments: {option} 3")
      for option in ("--n", "--vt", "--vr", "--d")],
    (STUDIES["simulate"][0] + ["--local"], "unrecognized arguments: --local"),
    (["exfil", "--key", "0xDEAD", "--w", "3", "--n", "30", "--d", "9", "--vt", "7", "--repeats", "5",
      "--seed", "3", "--profile", "no-such.profile"],
     "exfil reads --n, --d, --vt, --repeats, --seed, --profile only with --noisy"),
    *[(["exfil", "--key", "0xDEAD", "--w", "3", "--single", option, value], f"exfil reads {option} only with --noisy")
      for option, value in (("--vr", "3"), ("--seed", "0"), ("--repeats", "1"), ("--profile", "x.profile"))],
    (["audit", "--grid", GRID, "--fill", "random_signal"], "audit reads --fill only with --guard"),
    (["audit", "--grid", GRID, "--d-max", "3", "--fill", "unoccupied"], "audit reads --fill only with --guard"),
    (["prob", "--n", "64", "--w", "5", "--w-list", "4"], "--w-list: not allowed with argument --w"),
    (["prob", "--n", "64"], "one of the arguments --w --w-list is required"),
    (["scaling-time", "--n-list", ",", "--windows", "8", "--seed", "1"], "--n-list: ',' lists no values"),
    (["scaling-length", "--vt-list", " , ", "--seed", "1"], "--vt-list: ' , ' lists no values"),
    (["scaling-length", "--vr-list", ",", "--seed", "1"], "--vr-list: ',' lists no values"),
    (["distance", "--d-list", ",", "--seed", "1"], "--d-list: ',' lists no values"),
    (["ber", "--n-list", ",", "--seed", "1"], "--n-list: ',' lists no values"),
    (["bandwidth", "--n-list", ","], "--n-list: ',' lists no values"),
    (["prob", "--n", "64", "--w-list", ","], "--w-list: ',' lists no values"),
    *[([*argv[: argv.index("--seed") + 1], "-3", *argv[argv.index("--seed") + 2 :]],
       "argument --seed: value must be an int >= 0, got -3")
      for study, (argv, _) in STUDIES.items() if "--seed" in argv],
    (["prob", "--n", "64", "--w", "10", "--trials", "-5"], "argument --trials: value must be an int >= 0, got -5"),
    # a wire length that as_longs refuses, as --vr's int rule refuses a bad --vr
    (["simulate", "--vt", "1/0", "--windows", "4", "--seed", "1"],
     "argument --vt: wire length must be a multiple of 1/3 > 0, got '1/0'"),
    (["scaling-length", "--vt-list", "1,1/0", "--vr-list", "2", "--windows", "4", "--seed", "1"],
     "argument --vt-list: wire length must be a multiple of 1/3 > 0, got '1/0'"),
    (["simulate", "--vt", "0", "--windows", "4", "--seed", "1"],
     "argument --vt: wire length must be a multiple of 1/3 > 0, got '0'"),
    (["exfil", "--key", "0xDEAD", "--w", "3", "--single", "--noisy", "--vt", "0.5"],
     "argument --vt: wire length must be a multiple of 1/3 > 0, got '0.5'"),
]


# Each study's parsed defaults from its smallest argv: the shared options' own, or the study's where they differ.
DEFAULTS = {
    "simulate": dict(windows=2048, n=None, vt=Fraction(2), vr=2, d=1, path="long", func=cli.cmd_simulate),
    "scaling-time": dict(windows=2048, n_list=[13, 15, 17, 19, 21], vt=Fraction(2), vr=2, d=1,
                         func=cli.cmd_scaling_time),
    "scaling-length": dict(windows=1024, n=None, d=1, func=cli.cmd_scaling_length),
    "distance": dict(windows=2048, n=None, vt=Fraction(2), vr=2, func=cli.cmd_distance),
    "dynamic": dict(windows=2048, n=None, vt=Fraction(2), vr=2, d=1, path="long", func=cli.cmd_dynamic),
    "ber": dict(n_list=[13], vt=Fraction(2), vr=2, d=1, func=cli.cmd_ber),
    "bandwidth": dict(n_list=[13, 15, 17, 19, 21], func=cli.cmd_bandwidth),
}


class TestChannelOptions:
    @pytest.mark.parametrize("study", DEFAULTS)
    def test_smallest_argv_parses_to_the_study_defaults(self, study):
        argv = [study] if study == "bandwidth" else [study, "--seed", "1"]
        args = vars(build_parser().parse_args(argv))
        assert {name: args[name] for name in DEFAULTS[study]} == DEFAULTS[study]
        assert args["profile"] is None

    @pytest.mark.parametrize("study", [study for study in DEFAULTS if study != "bandwidth"])
    def test_seed_is_required(self, capsys, study):
        with pytest.raises(SystemExit) as err:
            main([study])
        assert err.value.code == 2
        assert "the following arguments are required: --seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", REJECTED, ids=[" ".join(argv) for argv, _ in REJECTED])
    def test_rejected_argv_is_a_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize(
        "study, option, value",
        [(study, option, value) for study, (_, kept) in STUDIES.items() for option, value in kept],
    )
    def test_kept_option_changes_the_csv(self, capsys, study, option, value):
        argv = STUDIES[study][0]
        code, default, _ = run(capsys, *argv)
        code_changed, changed, _ = run(capsys, *argv, option, value)
        assert code == code_changed == 0
        assert changed != default

    @pytest.mark.parametrize("study", STUDIES)
    def test_profile_is_opened_once(self, capsys, monkeypatch, study):
        profile = str(DOCS_DIR / "profiles" / "virtex6.profile")
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        code, out, _ = run(capsys, *STUDIES[study][0], "--profile", profile)
        assert code == 0 and out
        assert opened.count(profile) == 1


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--pattern", "lfsr", "--windows", "64", "--n", "13", "--seed", "9"],
            ["scaling-time", "--n-list", "13,15", "--windows", "64", "--seed", "3"],
            ["distance", "--d-list", "1,3", "--windows", "64", "--seed", "4"],
            ["dynamic", "--path", "local", "--windows", "32", "--seed", "5"],
            ["prob", "--n", "64", "--w-list", "8,10", "--trials", "500", "--seed", "6"],
            ["exfil", "--key", "0xDEAD", "--w", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_same_argv_same_bytes(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "nan" not in out1.lower()

    def test_prob_seed_is_taken_mod_2_64(self, capsys):
        argv = ["prob", "--n", "64", "--w", "10", "--trials", "200", "--seed"]
        negative, wrapped = run(capsys, *argv, "-5"), run(capsys, *argv, str(2**64 - 5))
        assert negative == wrapped and negative[0] == 0

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "x.csv"
        code, out, _ = run(capsys, "bandwidth", "--n-list", "13,21")
        code2 = main(["--out", str(target), "bandwidth", "--n-list", "13,21"])
        assert code == code2 == 0
        assert target.read_text() == out


class TestSubcommandOutputs:
    def test_prob_contains_paper_value(self, capsys):
        code, out, _ = run(capsys, "prob", "--n", "64", "--w", "10")
        assert code == 0
        assert "0.7761" in out
        assert out.splitlines()[0] == "n_key,w,probability,eq2_lower_bound,monte_carlo"

    def test_audit_matches_fixture_annotation(self, capsys):
        lines = Path(GRID).read_text().splitlines()
        annotated = int([l for l in lines if "expected-exposures" in l][0].split(":")[1])
        code, out, _ = run(capsys, "audit", "--grid", GRID)
        assert code == 0
        assert len(out.splitlines()) - 1 == annotated

    def test_audit_guard_plan(self, capsys):
        code, out, _ = run(capsys, "audit", "--grid", GRID, "--guard", "rsa_exp_bus")
        assert code == 0
        assert "exposures remaining for rsa_exp_bus after guarding: 0" in out

    def test_audit_fill_with_guard(self, capsys):
        code, out, _ = run(capsys, "audit", "--grid", GRID, "--guard", "rsa_exp_bus", "--fill", "random_signal")
        assert code == 0
        assert "fill=random_signal" in out.splitlines()[0]
        assert all(row.endswith(",random_signal") for row in out.splitlines()[3:])

    def test_simulate_alternating_duties(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--pattern", "alternating", "--windows", "4",
            "--n", "13", "--seed", "1",
        )
        lines = out.splitlines()
        assert lines[0] == "window,count,duty,toggle_rate,tx_bit"
        assert [l.split(",")[2] for l in lines[1:]] == ["0", "1", "0", "1"]

    def test_bandwidth_paper_numbers(self, capsys):
        code, out, _ = run(capsys, "bandwidth", "--n-list", "13")
        value = float(out.splitlines()[1].split(",")[2])
        assert value == pytest.approx(6103.52, abs=0.01)

    def test_ber_reports_high_accuracy(self, capsys):
        code, out, _ = run(
            capsys, "ber", "--n-list", "13", "--bits", "1000", "--seed", "2"
        )
        accuracy = float(out.splitlines()[1].split(",")[4])
        assert accuracy >= 0.98

    def test_dynamic_long_path_orders_by_hamming_weight(self, capsys):
        code, out, _ = run(
            capsys, "dynamic", "--path", "long", "--n", "21", "--windows", "256", "--seed", "3"
        )
        means = [float(l.split(",")[4]) for l in out.splitlines()[1:]]
        c0, c1, c2, c3, c4, c5 = means
        assert c0 < c1 < c2 < c4 < c5
        assert math.isclose(c2, c3, rel_tol=1e-4)

    def test_scaling_length_has_model_column(self, capsys):
        code, out, _ = run(
            capsys, "scaling-length", "--vt-list", "1/3,1,2", "--vr-list", "2",
            "--windows", "32", "--seed", "8",
        )
        lines = out.splitlines()
        assert lines[0] == "vt,vr,delta_rc_model,delta_rc_measured"
        # fractions of a long leave the model value unchanged
        assert lines[1].split(",")[2] == lines[2].split(",")[2]

    def test_exfil_full_recovery_report(self, capsys):
        code, out, _ = run(capsys, "exfil", "--key", "0xDEADBEEFCAFEBABE", "--w", "10")
        assert code == 0
        assert "# recovered=64/64" in out
        assert "# schedule: runs=21 measurements=109" in out

    def test_exfil_single_on_a_key_long_enough_for_two_widths(self, capsys):
        # 8 >= 2w + 1, so only --single keeps the one-width pass; bits 0, 3, 6 are all 1 and 1, 4, 7 all 0
        code, out, _ = run(capsys, "exfil", "--key", "10110010", "--w", "3", "--single")
        assert code == 0
        lines = out.splitlines()
        assert not any(line.startswith("# schedule:") for line in lines)
        rows = lines[lines.index("position,value_or_class_id") + 1 :]
        expected = recovery_to_rows(single_window_recover(parse_key("10110010"), 3))
        assert rows == [f"{p},{v}" for p, v in expected]
        assert rows == ["0,S0", "1,S1", "2,1", "3,S0", "4,S1", "5,0", "6,S0", "7,S1"]

    def test_exfil_noisy_needs_single_on_a_key_long_enough_for_two_widths(self, capsys):
        code, out, err = run(capsys, "exfil", "--key", "10110010", "--w", "3", "--noisy")
        assert code == 1
        assert out == ""
        assert err == "error: noisy recovery is single-window only; pass --single\n"

    def test_exfil_noisy_reports_feasibility(self, capsys):
        code, out, _ = run(
            capsys, "exfil", "--key", "10110010", "--w", "3", "--single",
            "--noisy", "--n", "13", "--seed", "4",
        )
        assert code == 0
        assert "# feasibility:" in out

    @pytest.mark.parametrize(
        "key, n, seed, outcome",
        [
            ("10110001", "21", "4", "correct"),
            ("10110001", "13", "1", "wrong"),
            ("10110010", "21", "4", "unresolved"),  # bits 0, 3, 6 are all 1
            ("10110010", "13", "4", "inconsistent"),  # step/sigma 1.7: the relations contradict
        ],
    )
    def test_exfil_noisy_run_is_scored(self, capsys, key, n, seed, outcome):
        code, out, _ = run(
            capsys, "exfil", "--key", key, "--w", "3", "--single", "--noisy", "--n", n, "--seed", seed,
        )
        assert code == 0
        lines = out.splitlines()
        assert f"# outcome={outcome}" in lines
        assert any(line.startswith("# feasibility: ") for line in lines)
        rows = lines[lines.index("position,value_or_class_id") + 1 :]
        if outcome == "inconsistent":
            assert rows == []
            assert not any(line.startswith("# recovered=") for line in lines)
        else:
            assert len(rows) == 8
            values = "".join(row.split(",")[1] for row in rows)
            assert (values == key) == (outcome == "correct")

    def test_exfil_noisy_one_bit_key_is_unresolved(self, capsys):
        # one window gives no relation, so the lone bit stays an unresolved class
        code, out, _ = run(capsys, "exfil", "--key", "0b1", "--w", "1", "--noisy")
        assert code == 0
        assert "# outcome=unresolved" in out.splitlines()

    def test_every_csv_subcommand_emits_header(self, capsys):
        cases = [
            ["simulate", "--windows", "2", "--seed", "1"],
            ["scaling-time", "--n-list", "13", "--windows", "16", "--seed", "1"],
            ["scaling-length", "--vt-list", "1", "--vr-list", "1", "--windows", "16", "--seed", "1"],
            ["distance", "--d-list", "1", "--windows", "16", "--seed", "1"],
            ["dynamic", "--windows", "16", "--seed", "1"],
            ["ber", "--n-list", "13", "--bits", "50", "--seed", "1"],
            ["bandwidth", "--n-list", "13"],
            ["prob", "--n", "16", "--w", "4"],
            ["audit", "--grid", GRID],
        ]
        for argv in cases:
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            header = out.splitlines()[0]
            assert "," in header and not any(ch.isdigit() for ch in header.split(",")[0])


def bench_cli_runs():
    """bench/spec.py's CLI_RUNS, read as a literal: the module imports the harness."""
    tree = ast.parse((DOCS_DIR.parent / "bench" / "spec.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "CLI_RUNS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spec.py defines no CLI_RUNS")


def test_reproduce_runs_match_bench_cli_runs():
    """The benchmark times and checks the reproduce runs against out/, so the two tables must agree."""
    assert REPRODUCE_RUNS and list(REPRODUCE_RUNS) == list(bench_cli_runs().values())


@pytest.fixture(scope="module")
def reproduced(tmp_path_factory):
    """The directory one in-process `reproduce` run wrote, run from the checkout."""
    target = tmp_path_factory.mktemp("reproduce")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(REPO)  # the audit run names its grid relative to the checkout
        assert main(["reproduce", str(target)]) == 0
    return target


def test_reproduce_writes_exactly_out(reproduced):
    assert sorted(p.name for p in reproduced.iterdir()) == sorted(p.name for p in (REPO / "out").iterdir())


@pytest.mark.parametrize("name", [name for name, _ in REPRODUCE_RUNS])
def test_reproduce_matches_committed_out(reproduced, name):
    """Each reproduce run writes its committed out/ file byte for byte."""
    assert (reproduced / name).read_bytes() == (REPO / "out" / name).read_bytes()


def test_reproduce_failure_names_the_csv(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # no docs/sample_grid.txt here, so the audit run fails
    code, out, err = run(capsys, "reproduce", str(tmp_path / "csv"))
    assert code == 1
    assert out == ""
    assert any(line.startswith("error:") and "audit_exposures.csv" in line for line in err.splitlines())


def per_trace_study(argv: list[str], profile=None) -> str:
    """The alternating and dynamic studies as one simulate_trace per row, read through the public trace API."""
    args = dict(zip(argv[1::2], argv[2::2]))
    profile = profile or DeviceProfile()
    cfg = MeasurementConfig(log2_ticks=int(args.get("--n", 21)))
    windows, seed = int(args["--windows"]), int(args["--seed"])
    alternating = PatternSpec.alternating()

    def csv(header, rows):
        return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])

    if argv[0] == "scaling-length":
        rows = []
        for i, vt in enumerate(args["--vt-list"].split(",")):
            for j, vr in enumerate(map(int, args["--vr-list"].split(","))):
                geom = Geometry(v_t=as_longs(vt), v_r=vr, d=int(args.get("--d", 1)))
                trace = simulate_trace(profile, cfg, geom, alternating, windows, seed + 1000 * i + j)
                drc = stats.paired_delta_rc(trace).values
                model = expected_delta_rc(profile, geom)
                rows.append([str(geom.v_t), vr, f"{model:.10g}", f"{float(np.mean(drc)):.6g}"])
        return csv(["vt", "vr", "delta_rc_model", "delta_rc_measured"], rows)
    if argv[0] == "distance":
        rows = []
        for d in map(int, args["--d-list"].split(",")):
            geom = Geometry(v_t=args.get("--vt", "2"), v_r=int(args.get("--vr", 2)), d=d)
            trace = simulate_trace(profile, cfg, geom, alternating, windows, seed + d)
            drc = stats.paired_delta_rc(trace).values
            _, p = stats.ks_two_sample(trace.counts[0::2], trace.counts[1::2])
            rows.append([d, f"{expected_delta_rc(profile, geom):.10g}", f"{float(np.mean(drc)):.6g}", f"{p:.6g}"])
        return csv(["d", "delta_rc_model", "delta_rc_measured", "ks_p_0_vs_1"], rows)
    if argv[0] == "scaling-time":
        rows = []
        geom = Geometry(v_t=args.get("--vt", "2"), v_r=int(args.get("--vr", 2)))
        for n in map(int, args["--n-list"].split(",")):
            cfg_n = MeasurementConfig(log2_ticks=n)
            trace = simulate_trace(profile, cfg_n, geom, alternating, windows, seed + n)
            dc = stats.mean_ci(trace.counts[1::2] - trace.counts[0::2])
            drc = stats.mean_ci(stats.paired_delta_rc(trace).values)
            rows.append([n, f"{cfg_n.window_seconds:.8g}", *(f"{v:.6g}" for v in (*dc, *drc))])
        return csv(["n", "window_seconds", "delta_c", "delta_c_lo", "delta_c_hi",
                    "delta_rc", "delta_rc_lo", "delta_rc_hi"], rows)
    geom = Geometry(v_t=args.get("--vt", "2"), coupling=args["--path"])
    rows = []
    for idx, code in enumerate(DYNAMIC4_CODES):
        trace = simulate_trace(profile, cfg, geom, PatternSpec.dynamic4(code), windows, seed)
        ci = stats.mean_ci(trace.counts)
        stimulus = (f"{trace.duty[0]:.4g}", f"{trace.toggle_rate[0]:.4g}")
        rows.append([f"d{idx}", code, *stimulus, *(f"{v:.10g}" for v in ci)])
    return csv(["pattern", "code", "duty", "toggle_rate", "mean_count", "ci_lo", "ci_hi"], rows)


class TestStudiesAgainstPerTrace:
    """Each study simulates all its traces in one count-engine call; its CSV is the per-trace one, byte for byte."""

    @pytest.mark.parametrize(
        "argv",
        [
            "scaling-length --vt-list 1/3,2/3,1,2,3,4,5 --vr-list 1,2,3,4,5 --windows 2 --seed 4",
            "scaling-length --vt-list 1/3,5 --vr-list 3,1 --windows 130 --n 15 --d 2 --seed 0",
            "distance --d-list 3,4 --windows 2048 --seed 5",
            "distance --d-list 1,2 --windows 66 --n 13 --vt 1/3 --vr 4 --seed 9",
            "scaling-time --n-list 11,12 --windows 10 --seed 1",
            "dynamic --path local --windows 2048 --seed 6",
            "dynamic --path long --windows 65 --n 15 --vt 1/3 --seed 7",
        ],
        ids=lambda argv: argv.split()[0],
    )
    def test_csv_equals_one_trace_per_row(self, capsys, argv):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0 and out == per_trace_study(argv.split())

    @pytest.mark.parametrize(
        "argv",
        [
            "scaling-length --vt-list 1,2 --vr-list 1,2 --windows 64 --n 1 --seed 3",
            "distance --d-list 1,2 --windows 64 --n 1 --seed 3",
            "scaling-time --n-list 1 --windows 64 --seed 3",
        ],
        ids=lambda argv: argv.split()[0],
    )
    def test_zero_count_error_is_the_per_trace_one(self, capsys, tmp_path, argv):
        """A zero count among the 1 windows: the study stops with paired_delta_rc's message for the first trace."""
        profile_file = tmp_path / "dim.profile"
        profile_file.write_text("base_rate = 1e-6\nnoise_sigma = 0\n")
        code, out, err = run(capsys, *argv.split(), "--profile", str(profile_file))
        with pytest.raises(ValueError) as expected:
            per_trace_study(argv.split(), DeviceProfile(base_rate=1e-6, noise_sigma=0.0))
        assert code == 1 and out == ""
        assert err == f"error: {expected.value}\n" and "zero count, relative difference undefined" in err

    @pytest.mark.parametrize("study", ["scaling-time --n-list 13", "scaling-length", "distance"])
    @pytest.mark.parametrize("windows", ["3", "5", "2049"])
    def test_odd_window_count_is_an_error(self, capsys, study, windows):
        code, out, err = run(capsys, *study.split(), "--windows", windows, "--seed", "1")
        assert code == 1 and out == ""
        assert err == "error: alternating trace must have a positive even number of windows\n"
