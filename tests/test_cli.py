"""End-to-end tests for the command-line front end.

Commands run in-process through main(argv). Two subprocess tests cover the
entry points: they run the target declared in pyproject.toml
[project.scripts] the way an installed console script does, and
``python -m leakexp``, both against this source tree, so no install is needed.
File outputs are compared byte for byte where determinism is part of the
contract.
"""
import ast
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import leakexp
import leakexp.cli as cli
import leakexp.leakage as leakage
from leakexp.cli import main

LN2 = math.log(2.0)
REPO = Path(__file__).resolve().parents[1]
SUBPROCESS_TIMEOUT = 60.0


def test_cli_imports_only_public_library_names():
    # The CLI formats; whatever it needs from the library is public API.
    private = []
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or node.module.split(".")[0] == "leakexp"
        ):
            names = (node.module or "").split(".") + [alias.name for alias in node.names]
            private += [name for name in names if name.startswith("_") and not name.endswith("__")]
    assert private == []


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("1 2\n11\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestLeakageCommand:
    def test_report_keys_and_values(self, capsys, matrix_file):
        code, out, _ = run(capsys, "leakage", "--matrix", matrix_file, "--channel", "bec:0.4")
        assert code == 0
        rep = json.loads(out)
        assert list(rep) == [
            "leakage_nats",
            "hash_entropy_nats",
            "bound_nats",
            "slack_nats",
            "method",
            "samples",
            "ci_halfwidth",
        ]
        assert abs(rep["leakage_nats"] - (1 - 0.4) ** 2 * LN2) <= 1e-12
        assert rep["method"] == "exact-enumeration"
        assert rep["samples"] == 0

    def test_bitflip_has_no_bound(self, capsys, matrix_file):
        code, out, _ = run(capsys, "leakage", "--matrix", matrix_file, "--channel", "bsc:0.11")
        assert code == 0
        rep = json.loads(out)
        assert rep["bound_nats"] is None and rep["slack_nats"] is None

    def test_stdin_matrix(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("1 1\n1\n"))
        code, out, _ = run(capsys, "leakage", "--matrix", "-", "--channel", "bec:0.5")
        assert code == 0
        assert abs(json.loads(out)["leakage_nats"] - 0.5 * LN2) <= 1e-12

    def test_out_file(self, capsys, matrix_file, tmp_path):
        dest = tmp_path / "r.json"
        code, out, _ = run(
            capsys, "leakage", "--matrix", matrix_file, "--channel", "bec:0.4",
            "--out", str(dest),
        )
        assert code == 0 and out == ""
        assert json.loads(dest.read_text())["samples"] == 0

    def test_parse_error_exit(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2\n1\n")
        code, _, err = run(capsys, "leakage", "--matrix", str(bad), "--channel", "bec:0.4")
        assert code == 2 and "line 2" in err

    def test_missing_file_exit(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "leakage", "--matrix", str(tmp_path / "nope.txt"), "--channel", "bec:0.4"
        )
        assert code == 2 and "cannot read" in err

    def test_bad_channel_exit(self, capsys, matrix_file):
        code, _, _ = run(capsys, "leakage", "--matrix", matrix_file, "--channel", "bec:1.4")
        assert code == 2

    def test_negative_dimension_exit(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("-1 2\n")
        code, out, err = run(capsys, "leakage", "--matrix", str(bad), "--channel", "bec:0.4")
        assert (code, out, err) == (2, "", "error: line 1: dimensions must be >= 0\n")

    def test_size_limit_exit(self, capsys, tmp_path):
        big = tmp_path / "big.txt"
        big.write_text("1 27\n" + "1" * 27 + "\n")
        code, _, err = run(capsys, "leakage", "--matrix", str(big), "--channel", "bec:0.5")
        assert code == 3 and "27" in err


class TestPmlCommand:
    def test_exact(self, capsys, matrix_file):
        code, out, _ = run(capsys, "pml", "--matrix", matrix_file, "--channel", "bec:0.3")
        rep = json.loads(out)
        assert code == 0
        assert abs(rep["p_ml"] - 0.09) <= 1e-12
        assert rep["method"] == "exact-enumeration" and rep["delta"] == 0.3

    def test_monte_carlo(self, capsys, matrix_file):
        code, out, _ = run(
            capsys, "pml", "--matrix", matrix_file, "--channel", "bec:0.3",
            "--samples", "20000", "--seed", "7",
        )
        rep = json.loads(out)
        assert code == 0
        assert rep["method"] == "monte-carlo" and rep["samples"] == 20000
        assert rep["ci_halfwidth"] > 0.0
        assert abs(rep["p_ml"] - 0.09) <= 0.02

    def test_only_the_exact_path_is_capped(self, capsys, tmp_path):
        wide = tmp_path / "wide.txt"
        wide.write_text("1 27\n" + "1" * 27 + "\n")
        code, out, err = run(capsys, "pml", "--matrix", str(wide), "--channel", "bec:0.5")
        assert code == 3 and out == "" and "capped at n=26" in err
        code, out, err = run(capsys, "pml", "--matrix", str(wide), "--channel", "bec:0.5",
                             "--samples", "100")
        assert code == 0 and err == "" and json.loads(out)["method"] == "monte-carlo"

    def test_needs_erasure_descriptor(self, capsys, matrix_file):
        code, _, err = run(capsys, "pml", "--matrix", matrix_file, "--channel", "bsc:0.3")
        assert code == 2 and "bec" in err

    def test_negative_samples(self, capsys, matrix_file):
        # Only 0 takes the exact path; any other count goes to Monte Carlo.
        code, out, err = run(capsys, "pml", "--matrix", matrix_file, "--channel", "bec:0.3",
                             "--samples", "-5")
        assert code == 2 and out == "" and "samples must be >= 1" in err


class TestVerifyBoundCommand:
    def test_rows_and_header(self, capsys, tmp_path):
        dest = tmp_path / "v.csv"
        code, _, _ = run(
            capsys, "verify-bound", "--k", "2", "--n", "8", "--channel", "bec:0.5",
            "--trials", "20", "--seed", "11", "--out", str(dest),
        )
        assert code == 0
        lines = dest.read_text().splitlines()
        assert lines[0] == "trial,leakage_nats,bound_nats,slack_nats"
        assert len(lines) == 21
        for line in lines[1:]:
            assert float(line.split(",")[3]) >= -1e-9

    def test_zero_trials(self, capsys):
        code, out, err = run(
            capsys, "verify-bound", "--k", "2", "--n", "4", "--channel", "bec:0.5",
            "--trials", "0",
        )
        assert code == 2 and out == "" and "trials must be >= 1" in err

    def test_negative_trials(self, capsys):
        code, out, err = run(
            capsys, "verify-bound", "--k", "2", "--n", "4", "--channel", "bec:0.5",
            "--trials", "-3",
        )
        assert code == 2 and out == "" and "trials must be >= 1" in err

    def test_single_bit_slack(self, capsys):
        # seed 0 draws the 1x1 matrix [1]
        code, out, _ = run(
            capsys, "verify-bound", "--k", "1", "--n", "1", "--channel", "bec:0.5",
            "--trials", "1", "--seed", "0",
        )
        assert code == 0
        slack = float(out.splitlines()[1].split(",")[3])
        assert abs(slack - (0.5 - 0.5 * LN2)) <= 1e-12

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for dest in (a, b):
            assert run(
                capsys, "verify-bound", "--k", "3", "--n", "9", "--channel", "bec:0.25",
                "--trials", "15", "--seed", "4", "--out", str(dest),
            )[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_size_limit(self, capsys):
        code, _, _ = run(
            capsys, "verify-bound", "--k", "2", "--n", "30", "--channel", "bec:0.5",
            "--trials", "1",
        )
        assert code == 3

    def test_violated_bound_exits_five(self, capsys, monkeypatch, tmp_path):
        def leaky(m, eps):
            return leakage.LeakageReport(0.5, 1.0, bound_nats=0.4, slack_nats=-0.1)

        monkeypatch.setattr(cli, "exact_leakage_bec", leaky)
        dest = tmp_path / "v.csv"
        code, out, err = run(
            capsys, "verify-bound", "--k", "2", "--n", "4", "--channel", "bec:0.5",
            "--trials", "3", "--out", str(dest),
        )
        assert code == 5 and "slack -0.1" in err
        assert out == "" and not dest.exists()

    def test_failed_run_keeps_the_old_file(self, capsys, monkeypatch, tmp_path):
        # Rows stream to a temporary file that replaces --out only on success.
        slacks = iter([0.3, 0.3, -0.1])

        def leaky(m, eps):
            slack = next(slacks)
            return leakage.LeakageReport(0.5 - slack, 1.0, bound_nats=0.5, slack_nats=slack)

        monkeypatch.setattr(cli, "exact_leakage_bec", leaky)
        dest = tmp_path / "v.csv"
        dest.write_text("old\n")
        code, out, err = run(
            capsys, "verify-bound", "--k", "2", "--n", "4", "--channel", "bec:0.5",
            "--trials", "3", "--out", str(dest),
        )
        assert code == 5 and out == "" and "slack -0.1" in err
        assert os.listdir(tmp_path) == ["v.csv"] and dest.read_text() == "old\n"

    def test_failed_run_on_stdout_keeps_the_rows_before_it(self, capsys, monkeypatch):
        # Without --out, rows are printed as they are made.
        slacks = iter([0.3, 0.3, -0.1])

        def leaky(m, eps):
            slack = next(slacks)
            return leakage.LeakageReport(0.5 - slack, 1.0, bound_nats=0.5, slack_nats=slack)

        monkeypatch.setattr(cli, "exact_leakage_bec", leaky)
        code, out, err = run(
            capsys, "verify-bound", "--k", "2", "--n", "4", "--channel", "bec:0.5",
            "--trials", "3",
        )
        assert code == 5 and "slack -0.1" in err
        assert out == "trial,leakage_nats,bound_nats,slack_nats\n0,0.2,0.5,0.3\n1,0.2,0.5,0.3\n"

    @pytest.mark.parametrize("k, n", [(5, 3), (-1, 3)])
    def test_bad_shape_exits_two_before_any_output(self, capsys, monkeypatch, k, n):
        def refuse(*args):
            raise AssertionError("random_matrix called for a bad shape")

        monkeypatch.setattr(cli, "random_matrix", refuse)
        code, out, err = run(
            capsys, "verify-bound", "--k", str(k), "--n", str(n), "--channel", "bec:0.5",
        )
        assert code == 2 and out == ""
        assert err == f"error: need 0 <= k <= n, got k={k} n={n}\n"


@pytest.mark.parametrize("command, target, fields, message", [
    ("leakage", "exact_leakage_bec", (-0.1, LN2), "leakage cannot be negative"),
    ("leakage", "exact_leakage_bsc", (1.0, LN2), "cannot exceed the hash output entropy"),
    ("leakage", "exact_leakage_bec", (0.5, LN2, 0.4, -0.1), "(slack -0.1)"),
    ("pml", "p_ml_erasure", (1.5, "exact-enumeration"), "probability 1.5 outside [0, 1]"),
    ("pml", "p_ml_erasure", (0.5, "guesswork"), "unknown method 'guesswork'"),
])
def test_report_invariant_exits_five(capsys, monkeypatch, tmp_path, matrix_file,
                                     command, target, fields, message):
    # Reports check themselves when built, so a library fault exits 5 with
    # nothing written.
    kind = leakage.LeakageReport if command == "leakage" else leakage.PmlResult
    monkeypatch.setattr(cli, target, lambda m, eps: kind(*fields))
    channel = "bsc:0.5" if target.endswith("bsc") else "bec:0.5"
    dest = tmp_path / "r.json"
    code, out, err = run(capsys, command, "--matrix", matrix_file, "--channel", channel,
                         "--out", str(dest))
    assert code == 5 and out == "" and message in err
    assert not dest.exists()


class TestSearchCommand:
    def test_deterministic_json(self, capsys):
        args = ("search", "--k", "2", "--n", "5", "--channel", "bec:0.5",
                "--trials", "20", "--seed", "1")
        code, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code == 0 and code2 == 0 and out1 == out2
        rep = json.loads(out1)
        assert len(rep["matrix"]) == 2 and len(rep["matrix"][0]) == 5
        assert rep["leakage_nats"] <= rep["hash_entropy_nats"]

    def test_channel_echoes_the_parsed_value(self, capsys):
        code, out, _ = run(capsys, "search", "--k", "2", "--n", "6", "--channel", "bec:0.1234567",
                           "--trials", "2")
        assert code == 0 and json.loads(out)["channel"] == "bec:0.1234567"

    def test_violated_bound_exits_five(self, capsys, monkeypatch):
        # search reads the module's own exact_leakage_bec
        monkeypatch.setattr(
            leakage, "exact_leakage_bec", lambda m, eps: leakage.LeakageReport(0.5, 1.0, 0.4, -0.1)
        )
        code, out, err = run(capsys, "search", "--k", "2", "--n", "4", "--channel", "bec:0.5",
                             "--trials", "3")
        assert code == 5 and out == "" and "slack -0.1" in err


class TestExponentsCommand:
    def test_single_curve_stdout(self, capsys):
        code, out, _ = run(
            capsys, "exponents", "er-bec", "--channel", "bec:0.5",
            "--rmin", "0", "--rmax", "0.6", "--steps", "3",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "R_nats,value_nats,R_bits,value_bits,theta_star"
        assert len(lines) == 4
        assert lines[1].startswith("0,0.287682072452,")

    def test_preset_writes_both_curves(self, capsys, tmp_path):
        code, out, _ = run(capsys, "exponents", "--preset", "fig3", "--out", str(tmp_path))
        assert code == 0
        er = (tmp_path / "fig3_er.csv").read_text()
        ex = (tmp_path / "fig3_ex.csv").read_text()
        assert er.count("\n") == 201 and ex.count("\n") == 201
        # clamped figure data never goes negative
        for line in ex.splitlines()[1:]:
            assert float(line.split(",")[1]) >= 0.0
        assert ex.splitlines()[1].split(",")[1] == "0.34657359028"

    def test_preset_byte_identical(self, capsys, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        d1.mkdir(), d2.mkdir()
        for d in (d1, d2):
            assert run(capsys, "exponents", "--preset", "fig4", "--out", str(d))[0] == 0
        assert (d1 / "fig4_er.csv").read_bytes() == (d2 / "fig4_er.csv").read_bytes()
        assert (d1 / "fig4_ex.csv").read_bytes() == (d2 / "fig4_ex.csv").read_bytes()

    def test_reduction_interval_agreement(self, capsys, tmp_path):
        code, _, _ = run(capsys, "exponents", "--preset", "fig4", "--out", str(tmp_path))
        assert code == 0
        er = {}
        for line in (tmp_path / "fig4_er.csv").read_text().splitlines()[1:]:
            parts = line.split(",")
            er[parts[0]] = float(parts[1])
        from leakexp.exponents import critical_rate, expurgation_rate

        lo = expurgation_rate((1 - 2 * 0.11) ** 2)
        hi = critical_rate(0.11)
        checked = 0
        for line in (tmp_path / "fig4_ex.csv").read_text().splitlines()[1:]:
            parts = line.split(",")
            r = float(parts[0])
            if lo <= r <= hi:
                assert abs(float(parts[1]) - er[parts[0]]) <= 1e-6
                checked += 1
        assert checked > 10

    def test_kind_and_preset_conflict(self, capsys):
        code, _, _ = run(capsys, "exponents", "er-bec", "--channel", "bec:0.5",
                         "--preset", "fig3")
        assert code == 2

    def test_neither_kind_nor_preset(self, capsys):
        assert run(capsys, "exponents")[0] == 2

    def test_curve_needs_channel(self, capsys):
        code, out, err = run(capsys, "exponents", "er-bec")
        assert (code, out, err) == (2, "", "error: curve evaluation needs --channel\n")

    @pytest.mark.parametrize("channel", ["bec:0.5", "bsc:0.11"])
    def test_family_kind_matches_general_byte_for_byte(self, capsys, channel):
        family_kind = "er-" + channel.split(":")[0]
        own = run(capsys, "exponents", family_kind, "--channel", channel)
        general = run(capsys, "exponents", "er-general", "--channel", channel)
        assert own[0] == 0 and own == general

    def test_family_mismatch(self, capsys):
        code, _, err = run(capsys, "exponents", "er-bec", "--channel", "bsc:0.25")
        assert code == 2 and "bec" in err

    def test_family_mismatch_names_the_parsed_value(self, capsys):
        code, _, err = run(capsys, "exponents", "er-bec", "--channel", "bsc:0.4999999")
        assert code == 2 and "got 'bsc:0.4999999'" in err

    def test_non_finite_rate_bound(self, capsys):
        code, out, err = run(capsys, "exponents", "er-bec", "--channel", "bec:0.5",
                             "--rmax", "inf")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_steps_above_the_cap_exit_three(self, capsys, tmp_path):
        dest = tmp_path / "c.csv"
        code, out, err = run(capsys, "exponents", "er-bec", "--channel", "bec:0.5",
                             "--steps", "10000000000000", "--out", str(dest))
        assert code == 3 and out == "" and "above the cap of 1000000" in err
        assert not dest.exists()

    def test_steps_two(self, capsys):
        code, out, _ = run(
            capsys, "exponents", "ex-bsc-reduction", "--channel", "bsc:0.25",
            "--steps", "2",
        )
        assert code == 0 and len(out.splitlines()) == 3


class TestRatesCommand:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "rates", "--channel", "bsc:0.11")
        assert code == 0
        rep = json.loads(out)
        assert abs(rep["delta"] - 0.6084) <= 1e-12
        assert abs(rep["R_cr_nats"] - 0.14799112447890425) <= 1e-12
        assert abs(rep["R_x_nats"] - 0.02993925293825314) <= 1e-12
        assert abs(rep["R_cr_bits"] - rep["R_cr_nats"] / LN2) <= 1e-12
        assert rep["R_x_nats"] <= rep["R_cr_nats"]

    def test_degenerate_exit(self, capsys):
        code, out, err = run(capsys, "rates", "--channel", "bsc:0.5")
        assert code == 4 and out == ""
        assert err == "error: eps=0.5 must lie strictly in (0, 1/2)\n"

    def test_family_checked(self, capsys):
        assert run(capsys, "rates", "--channel", "bec:0.2")[0] == 2

    def test_invariant_violation_exit(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "critical_rate", lambda eps: 0.0)
        assert run(capsys, "rates", "--channel", "bsc:0.11")[0] == 5


class TestScalingCommand:
    def test_shape_and_positivity(self, capsys):
        code, out, _ = run(
            capsys, "scaling", "--rate", str(0.1 * LN2), "--n", "6,8,10",
            "--channel", "bec:0.5", "--trials", "8", "--seed", "2",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,k,best_leakage_nats,minus_log_leakage_over_n"
        assert len(lines) == 4
        for line in lines[1:]:
            n, k, leak, slope = line.split(",")
            assert 1 <= int(k) <= int(n)
            assert float(leak) > 0.0 and float(slope) > 0.0

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for dest in (a, b):
            assert run(
                capsys, "scaling", "--rate", "0.1", "--n", "6,8",
                "--channel", "bec:0.5", "--trials", "6", "--seed", "3",
                "--out", str(dest),
            )[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_n_list(self, capsys):
        code, _, _ = run(
            capsys, "scaling", "--rate", "0.1", "--n", "6,x",
            "--channel", "bec:0.5",
        )
        assert code == 2

    def test_empty_n_list(self, capsys):
        code, out, err = run(
            capsys, "scaling", "--rate", "0.1", "--n", ",", "--channel", "bec:0.5",
        )
        assert (code, out, err) == (2, "", "error: --n list is empty\n")

    def test_rate_past_ln2_takes_k_equal_n(self, capsys):
        # 1e308 * n / ln 2 overflows a float; any rate >= ln 2 gives k = n.
        outs = [run(capsys, "scaling", "--rate", rate, "--n", "2,3", "--channel", "bec:0.5")
                for rate in ("1e308", "1")]
        assert outs[0] == outs[1] and outs[0][0] == 0
        assert [line.split(",")[:2] for line in outs[0][1].splitlines()[1:]] == [
            ["2", "2"], ["3", "3"]]

    def test_non_finite_rate(self, capsys):
        code, out, err = run(capsys, "scaling", "--rate", "inf", "--n", "8",
                             "--channel", "bec:0.5")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    @pytest.mark.parametrize("rate, sizes, want", [
        ("0.2", "20,30", 3),  # the second size is past the cap
        ("0.1", "8,0", 2),
        ("-1", "8", 2),
    ])
    def test_every_size_checked_before_drawing(self, capsys, monkeypatch, tmp_path,
                                               rate, sizes, want):
        drawn, draw = [], leakage.random_matrix
        monkeypatch.setattr(leakage, "random_matrix", lambda *args: drawn.append(args) or draw(*args))
        dest = tmp_path / "s.csv"
        code, out, err = run(
            capsys, "scaling", "--rate", rate, "--n", sizes, "--channel", "bec:0.5",
            "--trials", "50", "--seed", "1", "--out", str(dest),
        )
        assert code == want and out == "" and err.startswith("error:")
        assert not dest.exists() and drawn == []


_OVER_CAP = [
    (("search", "--k", "1", "--n", "27", "--channel", "bec:0.5", "--trials", "1"),
     "capped at n=26"),
    (("scaling", "--rate", "0.1", "--n", "27", "--channel", "bsc:0.1", "--trials", "1"),
     "capped at n=26"),
    (("verify-bound", "--k", "1", "--n", "27", "--channel", "bec:0.5", "--trials", "1"),
     "capped at n=26"),
    (("search", "--k", "1", "--n", "2", "--channel", "bec:0.5", "--trials", "10000000000000"),
     "10000000000000 trials at 1x2 exceed the work cap of 2^46"),
    (("verify-bound", "--k", "8", "--n", "26", "--channel", "bec:0.5", "--trials", "50000"),
     "50000 trials at 8x26 exceed the work cap of 2^46"),
    # Each block length with its own k: 0.3 nats per bit takes k = 11 at n = 26.
    (("scaling", "--rate", "0.3", "--n", "8,26", "--channel", "bec:0.5", "--trials", "50000"),
     "50000 trials at 11x26 exceed the work cap of 2^46"),
]


@pytest.mark.parametrize("argv, message", _OVER_CAP, ids=[f"argv{i}" for i in range(len(_OVER_CAP))])
def test_size_cap_checked_before_drawing(capsys, monkeypatch, argv, message):
    # A matrix with millions of columns takes minutes to draw, and a run past
    # the work cap hours, so the caps must be checked first.
    def refuse(*args):
        raise AssertionError("random_matrix called for an oversized run")

    monkeypatch.setattr(cli, "random_matrix", refuse)
    monkeypatch.setattr(leakage, "random_matrix", refuse)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and message in err


@pytest.mark.parametrize("argv", [
    ("rates", "--channel", "bsc:0.11", "--out", "{missing}/r.json"),
    ("exponents", "er-bec", "--channel", "bec:0.5", "--steps", "3", "--out", "{missing}/c.csv"),
    ("exponents", "--preset", "fig3", "--out", "{missing}"),
    ("verify-bound", "--k", "1", "--n", "2", "--channel", "bec:0.5", "--out", "{missing}/v.csv"),
])
def test_unwritable_out_exits_two(capsys, monkeypatch, tmp_path, argv):
    # verify-bound streams its rows, so it opens its output before the first draw.
    def refuse(*args):
        raise AssertionError("random_matrix called before the output was opened")

    monkeypatch.setattr(cli, "random_matrix", refuse)
    missing = tmp_path / "no-such-dir"
    code, out, err = run(capsys, *(a.format(missing=missing) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write output file {missing}/")


@pytest.mark.parametrize("existing", [True, False])
def test_streamed_rows_through_a_symlink_keep_the_link(capsys, tmp_path, existing):
    # Streamed rows go through a symlink in place; a rename would replace it.
    target, link = tmp_path / "t.csv", tmp_path / "l.csv"
    if existing:
        target.write_text("old\n")
    link.symlink_to(target)
    argv = ("verify-bound", "--k", "2", "--n", "6", "--channel", "bec:0.5", "--trials", "4")
    code, out, _ = run(capsys, *argv, "--out", str(link))
    assert code == 0 and out == "" and link.is_symlink()
    assert target.read_text() == run(capsys, *argv)[1]
    assert sorted(os.listdir(tmp_path)) == ["l.csv", "t.csv"]


def console_script_code():
    """Python source equivalent to the wrapper pip installs for ``leakexp``.

    The target comes from pyproject.toml [project.scripts] as
    ``module:attr``; the wrapper imports it, calls it with the arguments left
    in ``sys.argv[1:]`` and exits with its return value.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["leakexp"]
    module, _, attr = target.partition(":")
    return (
        "import sys\n"
        f"from {module} import {attr.split('.')[0]}\n"
        f"sys.exit({attr}())\n"
    )


def run_python(cwd, *args):
    """Run this interpreter on this source tree, from ``cwd``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=cwd,
        env=env, timeout=SUBPROCESS_TIMEOUT,
    )


class TestEntryPoints:
    def test_console_script_and_module(self, tmp_path):
        mat = tmp_path / "m.txt"
        mat.write_text("1 1\n1\n")
        argv = ["leakage", "--matrix", str(mat), "--channel", "bec:0.5"]
        out1 = run_python(tmp_path, "-c", console_script_code(), *argv)
        out2 = run_python(tmp_path, "-m", "leakexp", *argv)
        assert out1.returncode == 0, out1.stderr
        assert out2.returncode == 0, out2.stderr
        assert out1.stdout == out2.stdout

    def test_version(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr() == (f"leakexp {leakexp.__version__}\n", "")
        proc = run_python(tmp_path, "-c", console_script_code(), "--version")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "leakexp 0.1.0\n", "")

    def test_unknown_subcommand_exits_two(self, tmp_path):
        proc = run_python(tmp_path, "-c", console_script_code(), "transmogrify")
        assert proc.returncode == 2

    def test_back_to_back_calls_match_separate_processes(
        self, capsys, monkeypatch, tmp_path, matrix_file
    ):
        # main reuses one parser per process; a run of different subcommands
        # in one process must print, write and exit as one process per call.
        assert cli.build_parser() is cli.build_parser()
        jobs = [
            ["exponents", "--preset", "fig3"],
            ["exponents", "er-bsc", "--channel", "bsc:0.11", "--steps", "20"],
            ["leakage", "--matrix", matrix_file, "--channel", "bec:0.5"],
            ["exponents", "er-bec", "--channel", "bsc:0.25"],
            ["exponents", "er-bsc", "--channel", "bsc:0.11", "--steps", "20"],
        ]
        together, apart = tmp_path / "together", tmp_path / "apart"
        together.mkdir(), apart.mkdir()
        monkeypatch.chdir(together)
        in_process = [run(capsys, *argv) for argv in jobs]
        separate = []
        for argv in jobs:
            proc = run_python(apart, "-m", "leakexp", *argv)
            separate.append((proc.returncode, proc.stdout, proc.stderr))
        assert in_process == separate
        assert [code for code, _, _ in in_process] == [0, 0, 0, 2, 0]
        for name in ("fig3_er.csv", "fig3_ex.csv"):
            assert (together / name).read_bytes() == (apart / name).read_bytes()
