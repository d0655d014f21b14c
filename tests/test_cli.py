import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import factorbench
from factorbench.cli import main
from factorbench.dirichlet import ArithFn


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
    ArithFn.ones(50).to_csv(ones)
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


def test_verify_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "sieve", "--limit", "2000")
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


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
    assert "sieve limit" in user_error(capsys, "hr-count", "--x", "0.5", "--kappa", "2")


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


def test_series_overflow_is_a_user_error(capsys):
    line = user_error(capsys, "dz-eval", "--z", "1e30", "--sigma", "40", "--limit", "5000")
    assert "does not fit a double" in line


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_non_finite_zeta_sigma_is_a_user_error(capsys, sigma):
    assert "finite" in user_error(capsys, "zeta", "--sigma", sigma)


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
