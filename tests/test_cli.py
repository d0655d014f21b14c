import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import factorbench
from factorbench.cli import main
from factorbench.dirichlet import ArithFn
from factorbench.verify import SUITES


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_psi_exact_output(capsys):
    code, out = run(capsys, "psi", "--n", "4400", "--kappa", "5")
    assert code == 0
    assert out == "1,2,3,4,9,10,17\nJ=17\n"


def test_psi_n_one(capsys):
    code, out = run(capsys, "psi", "--n", "1", "--kappa", "3")
    assert code == 0
    assert out == "\nJ=0\n"


def test_sieve_csv(capsys):
    code, out = run(capsys, "sieve", "--limit", "30", "--emit", "mu")
    header, rows = parse_csv(out)
    assert code == 0
    assert header == ["n", "mu"]
    table = {int(n): int(v) for n, v in rows}
    assert table[1] == 1 and table[4] == 0 and table[30] == -1


def test_sieve_json(capsys):
    code, out = run(capsys, "sieve", "--limit", "10", "--emit", "omega",
                    "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["omega"]["8"] == 3


def test_factorisatio_f(capsys):
    code, out = run(capsys, "factorisatio", "--limit", "30", "--emit", "f")
    _, rows = parse_csv(out)
    table = {int(n): int(v) for n, v in rows}
    assert code == 0
    assert table[12] == 8 and table[30] == 13


def test_factorisatio_fk(capsys):
    code, out = run(capsys, "factorisatio", "--limit", "12", "--k", "3",
                    "--emit", "fk")
    header, rows = parse_csv(out)
    assert code == 0
    assert header == ["n", "f1", "f2", "f3"]
    row12 = [int(v) for v in rows[11]]
    assert row12 == [12, 1, 4, 3]


def test_factorisatio_k_picks_fk_columns_only(capsys):
    # mu(16) = 0, so f(16) = 8 splits evenly whatever --k is
    for argv in (["--k", "2"], []):
        code, out = run(capsys, "factorisatio", "--limit", "16", *argv, "--emit", "feven")
        assert code == 0 and out.splitlines()[-1] == "16,4"
    code, out = run(capsys, "factorisatio", "--limit", "16", "--k", "2", "--emit", "fodd")
    assert out.splitlines()[-1] == "16,4"


@pytest.mark.parametrize("argv", [
    ("sieve", "--limit", "200", "--emit", "mu"),
    ("sieve", "--limit", "200", "--emit", "omega"),
    ("sieve", "--limit", "200", "--emit", "spf"),
    ("sieve", "--limit", "8200", "--emit", "spf"),  # two full writer chunks of 4096 rows and a part
    ("factorisatio", "--limit", "100", "--emit", "f"),
    ("factorisatio", "--limit", "100", "--emit", "fk", "--k", "3"),
    ("hr-count", "--x", "5000", "--kappa", "3"),
])
def test_csv_tables_are_the_bytes_csv_writer_writes(monkeypatch, capsys, argv):
    seen = []
    rows_to_csv = factorbench.cli._rows_to_csv
    monkeypatch.setattr(factorbench.cli, "_rows_to_csv",
                        lambda header, rows: seen.append((header, rows)) or rows_to_csv(header, rows))
    code, out = run(capsys, *argv)
    [(header, rows)] = seen
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    assert code == 0 and len(rows) > 1 and out == buf.getvalue()


def test_sieve_emits_sympys_smallest_prime_factor_across_2_16(capsys):
    # 65521 < 2^16 < 65537, 65539: the primes above 2^16 are stored as 0 and printed as themselves
    sympy = pytest.importorskip("sympy")
    want = [(n, min(sympy.factorint(n))) for n in range(2, 70_001)]
    code, out = run(capsys, "sieve", "--limit", "70000", "--emit", "spf")
    header, rows = parse_csv(out)
    assert code == 0 and header == ["n", "spf"]
    assert [(int(n), int(p)) for n, p in rows] == want
    code, out = run(capsys, "sieve", "--limit", "70000", "--emit", "spf", "--format", "json")
    assert code == 0 and json.loads(out) == {"spf": {str(n): p for n, p in want}}


def test_factorisatio_k_below_one_is_a_user_error(capsys):
    assert "--k must be >= 1" in user_error(capsys, "factorisatio", "--limit", "10", "--k", "0")


def test_factorisatio_parity_requires_k(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["factorisatio", "--limit", "10", "--k", "0", "--emit", "feven"])
    assert exc.value.code == 2


def test_dlambda(capsys):
    code, out = run(capsys, "dlambda", "--n", "30", "--lambda", "1,2")
    data = json.loads(out)
    assert code == 0
    assert data["d_lambda"] == 6 and data["bound"] == 6


def test_invert_identity(capsys):
    code, out = run(capsys, "invert", "--identity", "--limit", "20")
    header, rows = parse_csv(out)
    assert code == 0
    assert header == ["n", "re", "im"]
    vals = {int(n): float(re) for n, re, _ in rows}
    assert vals[1] == 1.0 and all(vals[n] == 0.0 for n in range(2, 21))


def test_invert_requires_input(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["invert", "--limit", "10"])
    assert exc.value.code == 2


def test_invert_and_convolve_csv_roundtrip(tmp_path, capsys, sieve_small):
    ones = tmp_path / "ones.csv"
    ones.write_text(ArithFn.ones(50).csv_text())
    inv = tmp_path / "inv.csv"
    code = main(["invert", "--input", str(ones), "--limit", "50",
                 "--out", str(inv)])
    assert code == 0
    G = ArithFn.from_csv(inv)  # output is re-parseable
    assert all(complex(G.values[n]) == complex(int(sieve_small.mu[n]))
               for n in range(1, 51))
    code = main(["convolve", "--a", str(ones), "--b", str(inv)])
    _, rows = parse_csv(capsys.readouterr().out)
    vals = {int(n): float(re) for n, re, _ in rows}
    assert vals[1] == 1.0 and all(abs(vals[n]) < 1e-9 for n in range(2, 51))


def test_hr_count(capsys):
    code, out = run(capsys, "hr-count", "--x", "100", "--kappa", "2",
                    "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["per_ell"]["1"] == 25  # primes up to 100


def test_coffeeshop(capsys):
    code, out = run(capsys, "coffeeshop", "--x", "10", "--c", "1",
                    "--kappa", "2")
    data = json.loads(out)
    assert code == 0
    assert data["sum"] == 11


def test_dz(capsys):
    code, out = run(capsys, "dz", "--z", "2", "--limit", "12",
                    "--emit", "fztilde")
    _, rows = parse_csv(out)
    vals = {int(n): float(re) for n, re, _ in rows}
    assert code == 0
    assert vals[12] == 42.0


def test_dz_complex_argument(capsys):
    code, out = run(capsys, "dz", "--z", "0,1", "--limit", "4",
                    "--emit", "fztilde")
    _, rows = parse_csv(out)
    assert code == 0
    # F~_i(4) = i f_1(4) + i^2 f_2(4) = -1 + i
    assert (float(rows[3][1]), float(rows[3][2])) == (-1.0, 1.0)


def test_dz_eval(capsys):
    code, out = run(capsys, "dz-eval", "--z", "2", "--sigma", "6",
                    "--limit", "2000")
    data = json.loads(out)
    assert code == 0
    assert math.isfinite(data["reciprocal_series"]["re"])
    assert data["beta_z"] > data["sigma"] - 6  # present and real


def test_beta_z(capsys):
    code, out = run(capsys, "beta-z", "--z", "-1")
    data = json.loads(out)
    assert code == 0
    assert abs(data["beta_z"] - 1.728647) < 1e-5


def test_zeta(capsys):
    code, out = run(capsys, "zeta", "--sigma", "2", "--prime")
    data = json.loads(out)
    assert code == 0
    assert abs(data["value"] - math.pi**2 / 6) < 1e-12
    assert data["derivative"] < 0
    assert data["error_bound"] <= 1e-12
    assert data["derivative_bound"] <= 1e-12


def test_kalmar(capsys):
    code, out = run(capsys, "kalmar", "--x", "10000")
    data = json.loads(out)
    assert code == 0
    assert 0.9 < data["ratio"] < 1.1
    assert abs(data["beta"] - 1.728647) < 1e-5


def test_sarnak(capsys):
    code, out = run(capsys, "sarnak", "--x", "10", "--xi", "f")
    data = json.loads(out)
    assert code == 0
    assert data["numerator"] == 3


# the text of verify --suite all --limit 2000; each RESIDUAL is a float
# residual, printed as d.dde-dd and at most 1e-9
VERIFY_ALL_2000 = """\
[PASS] mobius-sum-identity: checked n <= 2000, failures []
[PASS] omega-le-kappa-omega: kappa in 2,3,5 up to 2000
[PASS] f-equals-bruteforce: n <= 400, failures []
[PASS] mu-equals-feven-minus-fodd: n <= 2000, failures []
[PASS] d-lambda-bound: n <= 600, failures []
[PASS] convolve-inverse-roundtrip: worst residual RESIDUAL
[PASS] inverse-of-ones-is-mu: n <= 2000, failures []
[PASS] completely-multiplicative-inverse-is-F-mu: worst relative residual RESIDUAL
[PASS] inverse-sweep-equals-alternating: n <= 1000, z = 2 exact True, z = (0.6+0.8j) worst relative RESIDUAL
[PASS] binomial-identity: alpha,ell <= 12, failures []
[PASS] inverse-closed-form: failures []
[PASS] psi-reconstruction: kappa in 2,3,5, n <= 500
"""


def test_verify_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "sieve", "--limit", "2000")
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out
    code, out = run(capsys, "verify", "--suite", "all", "--limit", "2000")
    assert code == 0
    match = re.fullmatch(re.escape(VERIFY_ALL_2000).replace("RESIDUAL", r"(\d\.\d\de-\d\d)"), out)
    assert match, out
    assert all(float(residual) <= 1e-9 for residual in match.groups())


@pytest.mark.parametrize("suite", ["all", *SUITES])
@pytest.mark.parametrize("limit", ["0", "-5"])
def test_verify_limit_below_one_is_a_user_error(capsys, suite, limit):
    line = user_error(capsys, "verify", "--suite", suite, "--limit", limit)
    assert line == f"factorbench: error: limit must be >= 1, got {limit}"


def test_verify_unknown_suite(capsys):
    with pytest.raises((SystemExit, KeyError, ValueError)):
        main(["verify", "--suite", "nope"])


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "beta.json"
    code = main(["beta-z", "--z", "2", "--out", str(path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    data = json.loads(path.read_text())
    assert data["beta_z"] > 1


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["sieve"])  # missing required --limit
    assert exc.value.code == 2


def test_unknown_command_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_invert_input_without_limit(tmp_path, capsys):
    unit = tmp_path / "unit.csv"
    assert main(["invert", "--identity", "--limit", "5", "--out", str(unit)]) == 0
    code, out = run(capsys, "invert", "--input", str(unit))
    _, rows = parse_csv(out)
    assert code == 0
    assert [(int(n), int(re)) for n, re, _ in rows] == [(1, 1), (2, 0), (3, 0), (4, 0), (5, 0)]


def test_invert_identity_requires_limit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["invert", "--identity"])
    assert exc.value.code == 2


def test_dz_writes_exact_integers(capsys):
    code, out = run(capsys, "dz", "--z", "1000", "--limit", "64", "--emit", "fztilde")
    _, rows = parse_csv(out)
    assert code == 0
    # F~_z(2^6) = sum_k z^k C(5, k-1) = z (1 + z)^5
    assert rows[63] == ["64", str(1000 * 1001**5), "0"]


def user_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("factorbench: error: ")
    return lines[0]


def test_reproduce_below_psi_limit_is_a_user_error(capsys):
    assert "psi_4400" in user_error(capsys, "reproduce", "--limit", "1000")


def test_sieve_limit_below_two_is_a_user_error(capsys):
    assert "x=0.5 must be >= 1" in user_error(capsys, "hr-count", "--x", "0.5", "--kappa", "2")


@pytest.mark.parametrize("command", [
    ("kalmar",), ("sarnak",), ("coffeeshop", "--c", "1", "--kappa", "2"), ("hr-count", "--kappa", "2"),
])
def test_x_below_one_is_a_user_error(capsys, command):
    line = user_error(capsys, *command, "--x", "0.5")
    assert line == "factorbench: error: x=0.5 must be >= 1"


@pytest.mark.parametrize("command", [
    ("kalmar",), ("sarnak",), ("coffeeshop", "--c", "1", "--kappa", "2"), ("hr-count", "--kappa", "2"),
])
def test_infinite_x_is_a_user_error(capsys, command):
    line = user_error(capsys, *command, "--x", "inf")
    assert line == "factorbench: error: x must be finite, got inf"


def test_identity_with_a_limit_below_one_is_a_user_error(capsys):
    line = user_error(capsys, "invert", "--identity", "--limit", "0")
    assert line == "factorbench: error: --limit must be >= 1, got 0"


@pytest.mark.parametrize("header, missing", [("n,re", "im"), ("n,im", "re"), ("re,im", "n")])
def test_csv_without_a_column_is_a_user_error(tmp_path, capsys, header, missing):
    path = tmp_path / "F.csv"
    path.write_text(f"{header}\n1,1\n")
    assert user_error(capsys, "invert", "--input", str(path)).endswith(f"has no '{missing}' column")


def test_csv_with_a_repeated_n_is_a_user_error(tmp_path, capsys):
    path = tmp_path / "F.csv"
    path.write_text("n,re,im\n1,1,0\n1,5,0\n")
    assert user_error(capsys, "invert", "--input", str(path)).endswith("repeats n = 1")


def test_sieve_over_budget_is_a_user_error(capsys):
    assert "budget" in user_error(capsys, "sieve", "--limit", "100000000")


def test_header_only_csv_is_a_user_error(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("n,re,im\n")
    assert user_error(capsys, "invert", "--input", str(path)).endswith("has no rows")


def test_missing_input_file_is_a_user_error(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert str(missing) in user_error(capsys, "invert", "--input", str(missing))


def test_bad_sieve_budget_variable_is_a_user_error(monkeypatch, capsys):
    monkeypatch.setenv("FACTORBENCH_MAX_SIEVE", "1e7")
    assert "FACTORBENCH_MAX_SIEVE" in user_error(capsys, "sieve", "--limit", "10")


@pytest.mark.parametrize("command", ["invert", "convolve"])
@pytest.mark.parametrize("f2", ["1e+300", str(10**300)], ids=["1e+300", "301-digits"])
def test_an_int_past_a_double_meeting_a_complex_is_a_user_error(tmp_path, capsys, command, f2):
    # F(2)^2 = 10^600 is an exact int, which the sum at n = 4 adds to the complex F(4)
    path = tmp_path / "F.csv"
    path.write_text(f"n,re,im\n1,1,0\n2,{f2},0\n3,0,0\n4,0.5,0.5\n")
    argv = ["--input", str(path)] if command == "invert" else ["--a", str(path), "--b", str(path)]
    line = user_error(capsys, command, *argv)
    assert line == ("factorbench: error: an int too large for a double meets a float or "
                    "complex value: int too large to convert to float")


def test_series_overflow_is_a_user_error(capsys):
    line = user_error(capsys, "dz-eval", "--z", "1e30", "--sigma", "40", "--limit", "5000")
    assert "does not fit a double" in line


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_non_finite_zeta_sigma_is_a_user_error(capsys, sigma):
    assert "finite" in user_error(capsys, "zeta", "--sigma", sigma)


@pytest.mark.parametrize("option", ["sigma", "t"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_dz_eval_point_is_a_user_error(capsys, option, value):
    point = {"sigma": "3", "t": "0"} | {option: value}
    line = user_error(capsys, "dz-eval", "--z", "1", "--limit", "10",
                      "--sigma", point["sigma"], "--t", point["t"])
    assert line == f"factorbench: error: {option} must be finite, got {value}"


@pytest.mark.parametrize("sigma", ["1e40", "1e300"])
def test_zeta_at_huge_sigma(capsys, sigma):
    code, out = run(capsys, "zeta", "--sigma", sigma, "--prime")
    data = json.loads(out)
    assert code == 0
    assert data["value"] == 1.0
    assert math.isfinite(data["error_bound"]) and data["error_bound"] <= 1e-12
    assert math.isfinite(data["derivative_bound"]) and data["derivative_bound"] <= 1e-12


def test_beta_z_of_huge_z_is_a_user_error(capsys):
    assert "|z|=1e+300 too large" in user_error(capsys, "beta-z", "--z", "1e300")


def test_beta_z_of_tiny_z_is_a_user_error(capsys):
    assert "|z|=1e-07 too small" in user_error(capsys, "beta-z", "--z", "1e-7")


def test_cli_runs_without_scipy():
    # a None entry in sys.modules makes every import of scipy raise ImportError
    script = (
        "import io, sys\n"
        "sys.modules['scipy'] = None\n"
        "from factorbench.cli import main\n"
        "sys.stdout = io.StringIO()\n"
        "for argv in (['zeta', '--sigma', '2', '--prime'], ['beta-z', '--z', '2'],\n"
        "             ['kalmar', '--x', '1000'], ['reproduce', '--limit', '4400']):\n"
        "    assert main(argv) == 0, argv\n"
    )
    src = str(Path(factorbench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_python_dash_m_runs_the_command_line(capsys):
    assert main(["beta-z", "--z", "1"]) == 0
    expected = capsys.readouterr().out
    src = str(Path(factorbench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "factorbench", "beta-z", "--z", "1"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def strict_json(text):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_beta_z_at_zero_is_strict_json_null(capsys):
    code, out = run(capsys, "beta-z", "--z", "0")
    assert code == 0
    assert strict_json(out) == {"z": {"re": 0.0, "im": 0.0}, "beta_z": None}


def test_dz_eval_of_huge_z_is_strict_json_null(capsys):
    code, out = run(capsys, "dz-eval", "--z", str(2.0**53), "--sigma", "3", "--limit", "50")
    data = strict_json(out)
    assert code == 0
    assert data["beta_z"] is None
    assert math.isfinite(data["reciprocal_series"]["re"])


DZ_EVAL_NULL = (
    '{\n  "z": 2,\n  "sigma": %s,\n  "t": %s,\n  "limit": %s,\n'
    '  "reciprocal_series": {\n    "re": null,\n    "im": null\n  },\n'
    '  "beta_z": 2.185285451787482\n}\n'
)


@pytest.mark.parametrize("limit, sigma, t, want", [
    ("100", "-800", "0", DZ_EVAL_NULL % ("-800.0", "0.0", "100")),  # 2^800 overflows a double
    ("10", "2", "1e308", DZ_EVAL_NULL % ("2.0", "1e+308", "10")),  # and so does 1e308 log 2
])
def test_dz_eval_past_the_float_range_is_null(capsys, limit, sigma, t, want):
    code, out = run(capsys, "dz-eval", "--z", "2", "--limit", limit, "--sigma", sigma, "--t", t)
    assert code == 0
    assert out == want


def test_coffeeshop_with_a_non_finite_c_is_a_user_error(capsys):
    for c in ("inf", "nan"):
        assert "c must be finite" in user_error(capsys, "coffeeshop", "--x", "10", "--c", c, "--kappa", "2")


@pytest.mark.parametrize("z", ["nan", "inf", "-inf", "1,nan", "nan,0", "0,-inf"])
@pytest.mark.parametrize("command", [
    ("beta-z",), ("dz", "--limit", "20"), ("dz-eval", "--sigma", "3", "--limit", "20"),
])
def test_non_finite_z_is_a_user_error(capsys, command, z):
    line = user_error(capsys, *command, f"--z={z}")
    assert line == f"factorbench: error: z must be finite, got {z!r}"


@pytest.mark.parametrize("command", [
    ("beta-z",), ("dz", "--limit", "30"), ("dz-eval", "--sigma", "3", "--limit", "30"),
])
def test_negative_z_reads_as_a_value(capsys, command):
    # argparse alone reads -0.7,1.1 after --z as an unknown option
    assert run(capsys, *command, "--z", "-0.7,1.1") == run(capsys, *command, "--z=-0.7,1.1")
    assert run(capsys, *command, "--z", "-0.7,1.1")[0] == 0


def test_negative_infinite_z_reads_as_a_value(capsys):
    line = user_error(capsys, "beta-z", "--z", "-inf")
    assert line == "factorbench: error: z must be finite, got '-inf'"


def test_option_values_that_start_with_a_dash_read_as_values(capsys):
    # argparse alone reads each of these values as an unknown option
    line = user_error(capsys, "hr-count", "--x", "-inf", "--kappa", "2")
    assert line == "factorbench: error: x must be finite, got -inf"
    code, out = run(capsys, "dz-eval", "--z", "2", "--sigma", "6", "--t", "-1e-3")
    assert code == 0 and json.loads(out)["t"] == -1e-3
    assert "sigma" in user_error(capsys, "zeta", "--sigma", "-1e3")
    code, out = run(capsys, "coffeeshop", "--x", "10", "--c", "-1e-1", "--kappa", "2")
    # squarefree n <= 10: 1, four primes at c^1 f = -0.1, and 6, 10 at c^2 f = 0.03
    assert code == 0 and json.loads(out) == {"x": 10, "C": -0.1, "kappa": 2, "sum": 0.66}


def test_a_flag_before_an_option_stays_a_flag(capsys):
    code, out = run(capsys, "zeta", "--prime", "--sigma", "2")
    assert code == 0 and "derivative" in json.loads(out)


@pytest.mark.parametrize("x", ["1", "1.5"])
def test_x_below_two_answers(capsys, x):
    code, out = run(capsys, "sarnak", "--x", x)
    assert code == 0 and (json.loads(out)["numerator"], json.loads(out)["denominator"]) == (1, 1)
    code, out = run(capsys, "coffeeshop", "--x", x, "--c", "2", "--kappa", "2")
    assert code == 0 and json.loads(out)["sum"] == 1
    code, out = run(capsys, "hr-count", "--x", x, "--kappa", "2", "--format", "json")
    assert code == 0 and json.loads(out)["per_ell"] == {"0": 1}
    code, out = run(capsys, "kalmar", "--x", x)
    assert code == 0 and json.loads(out)["x"] == 1


@pytest.mark.parametrize("command", ["dz", "dz-eval"])
def test_z_commands_answer_at_limit_one(capsys, command):
    extra = ("--sigma", "3") if command == "dz-eval" else ("--emit", "gz")
    code, out = run(capsys, command, "--z", "2", "--limit", "1", *extra)
    assert code == 0
    if command == "dz":
        assert parse_csv(out) == (["n", "re", "im"], [["1", "1", "0"]])
    else:
        assert strict_json(out)["reciprocal_series"] == {"re": 1.0, "im": 0.0}
    line = user_error(capsys, command, "--z", "2", "--limit", "0", *extra)
    assert line == "factorbench: error: limit must be >= 1, got 0"


def test_coffeeshop_kappa_below_two_is_a_user_error(capsys):
    line = user_error(capsys, "coffeeshop", "--x", "10", "--c", "1", "--kappa", "1")
    assert line == "factorbench: error: kappa must be >= 2, got 1"


@pytest.mark.parametrize("command", ["dz", "dz-eval"])
def test_overflowing_inverse_is_a_user_error(capsys, command):
    # Ft_z(8) = z (z + 1)^2 is about 1e450 for z = 1e150 + i
    extra = ("--sigma", "3") if command == "dz-eval" else ()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        line = user_error(capsys, command, "--z=1e150,1", "--limit", "50", *extra)
    assert line.startswith("factorbench: error: Ft_z(8) = (inf+nanj) is not finite")


@pytest.mark.parametrize("z", ["", "abc", "1,2,3", "1,"])
def test_malformed_z_is_a_user_error(capsys, z):
    line = user_error(capsys, "beta-z", "--z", z)
    assert line == f"factorbench: error: z must be RE or RE,IM, got {z!r}"


def test_dz_eval_past_the_float_range_is_strict_json_null(capsys):
    # n^800 overflows a double for n >= 3; the sum is inf, written as null
    code, out = run(capsys, "dz-eval", "--z", "1", "--sigma=-800", "--limit", "20")
    assert code == 0
    assert strict_json(out)["reciprocal_series"]["re"] is None
