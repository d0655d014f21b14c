"""Each workload, at a small size, passes its checks on the real program and
fails them when one kernel is broken; the tracer and the entry point behave."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

pytest.importorskip("sympy")
pytest.importorskip("mpmath")

import factorbench.counting  # noqa: E402
import factorbench.reproduce  # noqa: E402
import factorbench.sieve  # noqa: E402
import factorbench.zfamily  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(workloads.__file__).resolve().parent
SMALL = {
    "report": {"limit": 5000},  # the report's psi_4400 section needs a limit of 4400 or more
    "zfamily": {"limit": 3000},
    "counting": {"limit": 10**5, "n_factorize": 300, "n_psi": 300},
}


def small_round(name, out_dir, trace=False):
    return workloads.run_round(name, 7, trace, out_dir, time.monotonic(), inputs_override=SMALL[name])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_workload_passes_on_the_program(name, tmp_path):
    res = small_round(name, tmp_path)
    assert res["failed"] == 0 and res["op_failures"] == []
    assert res["checks"] > 0 and res["check_failures"] == []
    assert res["wall_s"] > 0 and res["setup_s"] > 0 and res["peak_rss_mb"] > 0


def test_report_catches_f_of_one_equal_to_two(tmp_path, monkeypatch):
    real = factorbench.reproduce.build_factorisation_tables

    def broken(limit, *args, **kwargs):
        ft = real(limit, *args, **kwargs)
        ft.f[1] = 2
        return ft

    monkeypatch.setattr(factorbench.reproduce, "build_factorisation_tables", broken)
    res = small_round("report", tmp_path)
    assert any("kalmar ratio" in f for f in res["check_failures"])
    assert any("sarnak" in f for f in res["check_failures"])


def test_report_catches_one_mobius_sign_flipped(tmp_path, monkeypatch):
    real = factorbench.reproduce.build_sieve

    def broken(limit, *args, **kwargs):
        tables = real(limit, *args, **kwargs)
        tables.mu[30] = -tables.mu[30]
        return tables

    monkeypatch.setattr(factorbench.reproduce, "build_sieve", broken)
    res = small_round("report", tmp_path)
    assert any("sarnak f numerator" in f for f in res["check_failures"])
    assert any("mu_parity_relation.pass" in f for f in res["check_failures"])


def test_zfamily_catches_a_wrong_inverse_value(tmp_path, monkeypatch):
    real = factorbench.zfamily.dirichlet_inverse

    def broken(F):
        inv = real(F)
        inv.values[77] += 1
        return inv

    monkeypatch.setattr(factorbench.zfamily, "dirichlet_inverse", broken)
    fails = small_round("zfamily", tmp_path)["check_failures"]
    assert any("summatory" in f for f in fails)
    assert any("not the unit" in f for f in fails)
    assert any("alternating" in f for f in fails)


def test_counting_catches_a_wrong_omega_and_spf(tmp_path, monkeypatch):
    real = factorbench.sieve.build_sieve

    def broken(limit, *args, **kwargs):
        tables = real(limit, *args, **kwargs)
        tables.big_omega[6] = 3  # 6 = 2 * 3 counted as a product of three primes
        tables.spf[91] = 13  # 91 = 7 * 13
        return tables

    monkeypatch.setattr(factorbench.sieve, "build_sieve", broken)
    fails = small_round("counting", tmp_path)["check_failures"]
    assert any("N_2,2" in f for f in fails)


@pytest.mark.parametrize("module, caller", [(factorbench.sieve, "factorize("), (factorbench.counting, "psi_tuple(")])
def test_counting_catches_a_wrong_factorization(tmp_path, monkeypatch, module, caller):
    real = factorbench.sieve.factorize

    def broken(n, tables):
        fi = real(n, tables)
        if n % 4 == 0:  # 2^e with e >= 2 reported as 2^1
            return type(fi)(n=n, factors=((2, 1),) + fi.factors[1:], big_omega=fi.big_omega,
                            small_omega=fi.small_omega)
        return fi

    # the counting module imported factorize by name, so each copy is broken on its own
    monkeypatch.setattr(module, "factorize", broken)
    fails = small_round("counting", tmp_path)["check_failures"]
    assert fails and all(f.startswith(caller) for f in fails)


def test_traced_round_reports_layers_and_restores_the_program(tmp_path):
    original = factorbench.sieve.build_sieve
    res = small_round("zfamily", tmp_path, trace=True)
    layers = res["layers"]
    assert factorbench.sieve.build_sieve is original
    assert factorbench.zfamily.dirichlet_inverse.__module__ == "factorbench.dirichlet"
    assert not hasattr(factorbench.zfamily.dirichlet_inverse, "__wrapped__")
    assert layers["sieve.build_sieve.calls"] == 1
    assert layers["sieve.integers"] == 3000
    # each context inverts F_z and the restricted inverse; five contexts
    assert layers["dirichlet.dirichlet_inverse.calls"] == 10
    assert layers["zfamily.beta_for_z.calls"] == 25
    spans = json.loads(Path(res["trace_file"]).read_text())["spans"]
    assert len(spans) == sum(v for k, v in layers.items() if k.endswith(".calls"))
    # self times partition the time of the outermost spans, inside the timed section
    roots = sum(end - start for _, parent, start, end in spans if parent == -1)
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(roots, rel=1e-9)
    assert roots <= res["wall_s"]


def test_run_exits_nonzero_without_the_program(tmp_path):
    root = Path(__file__).resolve().parents[2]
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "report", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
