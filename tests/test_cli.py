import ast
import builtins
import math
from pathlib import Path

import pytest

from longwire.cli import REPRODUCE_RUNS, main
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
        "argv",
        [
            ["simulate", "--vt", "1/0", "--windows", "4", "--seed", "1"],
            ["scaling-length", "--vt-list", "1,1/0", "--vr-list", "2", "--windows", "4", "--seed", "1"],
        ],
        ids=["vt", "vt-list"],
    )
    def test_zero_denominator_returns_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "1/0" in err

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
       "argument --seed: '-3' must be a non-negative integer")
      for study, (argv, _) in STUDIES.items() if "--seed" in argv],
    (["prob", "--n", "64", "--w", "10", "--trials", "-5"], "argument --trials: '-5' must be a non-negative integer"),
]


class TestChannelOptions:
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
