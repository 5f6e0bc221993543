import math

import pytest

from longwire.cli import main
from conftest import DOCS_DIR

GRID = str(DOCS_DIR / "sample_grid.txt")


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

    def test_guard_blocked_returns_one(self, capsys):
        code, _, err = run(capsys, "audit", "--grid", GRID, "--guard", "aes_key_bus")
        assert code == 1
        assert "blocked" in err


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
        annotated = int(
            [l for l in open(GRID) if "expected-exposures" in l][0].split(":")[1]
        )
        code, out, _ = run(capsys, "audit", "--grid", GRID)
        assert code == 0
        assert len(out.splitlines()) - 1 == annotated

    def test_audit_guard_plan(self, capsys):
        code, out, _ = run(capsys, "audit", "--grid", GRID, "--guard", "rsa_exp_bus")
        assert code == 0
        assert "exposures remaining for rsa_exp_bus after guarding: 0" in out

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
