"""One round of one benchmark workload, in a process of its own.

    python3 bench/workloads.py --workload report --seed 1 --trace 0 --t0 T --out-dir DIR

``bench/run.py`` starts this with ``src`` on ``PYTHONPATH`` and ``--t0`` set
to ``time.monotonic()`` just before the process was started, so that
``setup_s`` runs from process start to the first timed call: starting Python,
importing factorbench (numpy, scipy.optimize) and making the seeded inputs.
The timed section then calls factorbench and ends when every answer of the
workload exists; its outputs are checked afterwards against ``oracles`` and
against properties the mathematics guarantees. The last line of standard
output is one JSON object.

Every round runs in a fresh process because ``zeta.kalmar_beta``,
``factorizations._omega_profile_counts`` and ``dirichlet._divisors_ge2``
keep caches across calls: a second round in one process would find them warm,
which no command-line user does.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import random
import resource
import sys
import time
from pathlib import Path

import numpy as np

import oracles
from factorbench import cli, counting, dirichlet, sieve, zfamily
from tracer import Tracer

# --- sizes (each workload's make-up is described in README.md) -------------
REPORT_LIMIT = 1_000_000

ZFAMILY_LIMIT = 200_000
ZFAMILY_INTEGER_ZS = (-1, 1, 2, 3)
ZFAMILY_ALT_LIMIT = 1_000
ZFAMILY_SIGMA = 6
ZFAMILY_BETA_GRID = 20
ZFAMILY_MOBIUS_SAMPLE = 500

COUNTING_LIMIT = 10_000_000
COUNTING_XS = (10**5, 10**6, 10**7)
COUNTING_KAPPAS = (2, 3, 4)
COUNTING_FACTORIZE = 10_000
COUNTING_PSI = 10_000


class Ops:
    """Calls into factorbench inside the timed section.

    Each call is one attempted operation; one that raises is counted as
    failed, and its output is None, which the checks skip.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, label: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failing operation is a result, not a crash
            self.failures.append(f"{label}: {exc!r}")
            return None


class Checks:
    """Collects the output checks of one round."""

    def __init__(self):
        self.count = 0
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        self.count += 1
        if not ok:
            self.failures.append(what)


def close(a, b, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# --- report ------------------------------------------------------------------

def report_inputs(rng: random.Random, out_dir: Path, limit: int = REPORT_LIMIT) -> dict:
    return {
        "limit": limit,
        "seed": rng.randrange(1, 2**31),
        "path": out_dir / f"report-{os.getpid()}.json",
    }


def report_run(inp: dict, op: Ops) -> dict:
    def reproduce():
        path = inp["path"]
        argv = ["reproduce", "--limit", str(inp["limit"]), "--seed", str(inp["seed"]), "--out", str(path)]
        try:
            if cli.main(argv) != 0:
                raise RuntimeError(f"factorbench {' '.join(argv)} returned non-zero")
            return json.loads(path.read_text())
        finally:
            path.unlink(missing_ok=True)

    return {"report": op("factorbench reproduce", reproduce)}


def report_check(inp: dict, out: dict, check: Checks) -> None:
    import mpmath

    rep = out["report"]
    if rep is None:
        return
    for section, body in rep.items():
        if isinstance(body, dict) and "pass" in body:
            check(body["pass"] is True, f"{section}.pass is {body['pass']}")
    check(rep["fitted_constants"]["bound_holds_on_grid"] is True, "bound_holds_on_grid is false")

    mpmath.mp.dps = 30
    beta = rep["kalmar_beta"]["value"]
    beta_mp = mpmath.findroot(lambda s: mpmath.zeta(s) - 2, 1.7)
    check(abs(beta - beta_mp) <= 1e-10, f"beta {beta!r} vs mpmath {beta_mp}")
    constant = -1 / (beta_mp * mpmath.zeta(beta_mp, derivative=1))

    limit = inp["limit"]
    s1_memo: dict = {}
    pi = oracles.prime_pi_table(limit)
    fub = oracles.fubini(40)

    def by_omega(x: int, weight) -> int:
        counts = oracles.squarefree_counts_by_omega(x, pi if x == limit else None)
        return sum(weight(k) * fub[k] * c for k, c in enumerate(counts))

    for row in rep["kalmar_ratio"]["rows"]:
        x = row["x"]
        expected = oracles.summatory_fz_inverse(x, 1, s1_memo) / (mpmath.mpf(x) ** beta_mp * constant)
        check(close(row["ratio"], float(expected), 1e-9), f"kalmar ratio at {x}: {row['ratio']} vs {expected}")

    for row in rep["sarnak_correlation"]["rows"]:
        x = row["x"]
        num = by_omega(x, lambda k: (-1) ** k)
        den = oracles.summatory_fz_inverse(x, 1, s1_memo) if row["xi"] == "f" else by_omega(x, lambda k: 1)
        check(row["numerator"] == num, f"sarnak {row['xi']} numerator at {x}: {row['numerator']} vs {num}")
        check(row["denominator"] == den, f"sarnak {row['xi']} denominator at {x}: {row['denominator']} vs {den}")
        check(close(row["ratio"], num / den, 1e-12), f"sarnak {row['xi']} ratio at {x}")

    cs = rep["coffeeshop_exponents"]
    for row in cs["rows"]:
        x = row["x"]
        total = by_omega(x, lambda k: cs["C"] ** k)
        expected = math.log(total) / math.log(x)
        check(close(row["exponent"], expected, 1e-12), f"coffeeshop exponent at {x}: {row['exponent']} vs {expected}")


# --- zfamily -----------------------------------------------------------------

def zfamily_inputs(rng: random.Random, out_dir: Path, limit: int = ZFAMILY_LIMIT) -> dict:
    z_complex = cmath.rect(rng.uniform(1.0, 2.0), rng.uniform(0.3, math.pi - 0.3))
    return {
        "limit": limit,
        "zs": list(ZFAMILY_INTEGER_ZS) + [z_complex],
        # |z| in [2, 10]: zeta(2) and zeta(4) bracket 1 + 1/|z|, so every
        # root-finding call starts from the same interval whatever the seed
        "beta_grid": [cmath.rect(rng.uniform(2.0, 10.0), rng.uniform(0, 2 * math.pi))
                      for _ in range(ZFAMILY_BETA_GRID)],
        "mobius_sample": rng.sample(range(1, limit + 1), ZFAMILY_MOBIUS_SAMPLE),
        "checkpoints": sorted({limit // d for d in (1, 7, 10, 100, 1000)} | {rng.randrange(2, limit)}),
    }


def zfamily_run(inp: dict, op: Ops) -> dict:
    limit = inp["limit"]
    tables = op("build_sieve", sieve.build_sieve, limit)
    out: dict = {"ctx": {}, "conv": {}, "alt": {}, "series": {}}
    for z in inp["zs"]:
        out["ctx"][z] = op(f"build_context z={z}", zfamily.build_context, z, limit, tables)
    for z, ctx in out["ctx"].items():
        if ctx is None:
            continue
        out["conv"][z] = op(f"convolve z={z}", dirichlet.convolve, ctx.fz, ctx.fz_tilde)
        head = dirichlet.ArithFn(ZFAMILY_ALT_LIMIT, ctx.fz.values[: ZFAMILY_ALT_LIMIT + 1])
        out["alt"][z] = op(f"inverse_via_alternating z={z}", dirichlet.inverse_via_alternating, head)
        out["series"][z] = op(f"series_eval z={z}", dirichlet.series_eval, ctx.fz_tilde, ZFAMILY_SIGMA)
    out["betas"] = [op(f"beta_for_z z={w}", zfamily.beta_for_z, w) for w in inp["beta_grid"]]
    return out


def zfamily_check(inp: dict, out: dict, check: Checks) -> None:
    import mpmath
    import sympy

    mpmath.mp.dps = 30
    limit = inp["limit"]
    zeta6_minus_1 = float(mpmath.zeta(ZFAMILY_SIGMA) - 1)

    def beta_ok(w, beta, label):
        target = 1 + 1 / mpmath.mpf(abs(w))
        check(abs(mpmath.zeta(beta) - target) <= 1e-10, f"{label}: zeta(beta_z) = {mpmath.zeta(beta)} vs {target}")

    for z, ctx in out["ctx"].items():
        if ctx is None:
            continue
        exact = isinstance(z, int)
        inv = ctx.fz_tilde.values

        memo: dict = {}
        for x in inp["checkpoints"]:
            head = inv[1 : x + 1]
            got = sum(head) if exact else complex(math.fsum(v.real for v in head), math.fsum(v.imag for v in head))
            want = oracles.summatory_fz_inverse(x, z, memo)
            check(got == want if exact else close(got, want, 1e-9), f"z={z}: summatory at {x} is {got}, recursion gives {want}")

        conv = out["conv"].get(z)
        if conv is not None:
            if exact:
                check(conv.values[1:] == [1] + [0] * (limit - 1), f"z={z}: F_z * inverse is not the unit")
            else:
                scale = 0.0
                worst = abs(conv.values[1] - 1)
                for n in range(1, limit + 1):
                    scale += abs(inv[n])
                    if n > 1:
                        worst = max(worst, abs(conv.values[n]) / ((1 + abs(z)) * scale))
                check(worst <= 1e-9, f"z={z}: F_z * inverse differs from the unit by {worst:g} relative")

        alt = out["alt"].get(z)
        if alt is not None:
            fwd = inv[: ZFAMILY_ALT_LIMIT + 1]
            if exact:
                check(alt.values == fwd, f"z={z}: alternating-series inverse differs from the sweep at 10^3")
            else:
                bad = [n for n in range(1, ZFAMILY_ALT_LIMIT + 1) if not close(alt.values[n], fwd[n], 1e-9)]
                check(not bad, f"z={z}: alternating-series inverse differs at n={bad[:5]}")

        series = out["series"].get(z)
        if series is not None:
            # coefficients of 1/(1 - |z|(zeta - 1)) bound |inverse| termwise, so
            # the tail beyond the limit is at most limit^-3 of that series at s = 3
            r = abs(z)
            tail = limit ** -3.0 / (1 - r * float(mpmath.zeta(3) - 1))
            total_abs = 1 / (1 - r * zeta6_minus_1)
            rounding = 4 * limit * sys.float_info.epsilon * total_abs
            want = 1 / (1 - z * zeta6_minus_1)
            check(abs(series - want) <= tail + rounding, f"z={z}: series at 6 is {series}, want {want}")

        beta_ok(z, ctx.beta_z, f"context z={z}")

        if z == -1:
            bad = [n for n in inp["mobius_sample"] if inv[n] != sympy.mobius(n)]
            check(not bad, f"inverse of F_-1 differs from sympy.mobius at {bad[:5]}")
            check(all(v == 1 for v in ctx.gz.values[1:]), "G_-1 is not 1 everywhere")

    for w, beta in zip(inp["beta_grid"], out["betas"]):
        if beta is not None:
            beta_ok(w, beta, f"beta_for_z({w})")


# --- counting ----------------------------------------------------------------

def counting_inputs(rng: random.Random, out_dir: Path, limit: int = COUNTING_LIMIT,
                    n_factorize: int = COUNTING_FACTORIZE, n_psi: int = COUNTING_PSI) -> dict:
    small_primes = oracles.primes_upto(math.isqrt(limit))
    psi = []
    per_kappa = -(-n_psi // len(COUNTING_KAPPAS))
    for kappa in COUNTING_KAPPAS:
        chosen: list[int] = []
        while len(chosen) < per_kappa:
            cand = np.array([rng.randrange(1, limit + 1) for _ in range(2 * per_kappa)], dtype=np.int64)
            free = np.ones(len(cand), dtype=bool)
            for p in small_primes:
                pk = int(p) ** kappa
                if pk > limit:
                    break
                free &= cand % pk != 0
            chosen.extend(int(n) for n in cand[free])
        psi.extend((n, kappa) for n in chosen[:per_kappa])
    return {
        "limit": limit,
        "xs": [x for x in COUNTING_XS if x <= limit],
        "factorize": [rng.randrange(1, limit + 1) for _ in range(n_factorize)],
        "psi": psi[:n_psi],
    }


def counting_run(inp: dict, op: Ops) -> dict:
    tables = op("build_sieve", sieve.build_sieve, inp["limit"])
    profiles = {
        (x, kappa): op(f"profile_N_kappa x={x} kappa={kappa}", counting.profile_N_kappa, x, kappa, tables)
        for kappa in COUNTING_KAPPAS for x in inp["xs"]
    }
    constants = op("fit_counting_constants", counting.fit_counting_constants, inp["xs"], COUNTING_KAPPAS, tables)
    factorize = sieve.factorize
    facts = [op("factorize", factorize, n, tables) for n in inp["factorize"]]
    psi_tuple = counting.psi_tuple
    psis = [op("psi_tuple", psi_tuple, n, kappa, tables) for n, kappa in inp["psi"]]
    return {"profiles": profiles, "constants": constants, "facts": facts, "psis": psis}


def counting_check(inp: dict, out: dict, check: Checks) -> None:
    import sympy

    limit = inp["limit"]
    pi = oracles.prime_pi_table(limit)
    primes = oracles.primes_upto(limit)
    mu = oracles.mobius_upto(math.isqrt(limit))

    for (x, kappa), prof in out["profiles"].items():
        if prof is None:
            continue
        per = prof.per_ell
        check(per.get(0) == 1, f"N_{kappa},0({x}) = {per.get(0)}, want 1")
        check(per.get(1) == pi[x], f"N_{kappa},1({x}) = {per.get(1)}, want pi(x) = {pi[x]}")
        kappa_free = sum(mu[d] * (x // d**kappa) for d in range(1, math.isqrt(x) + 1) if d**kappa <= x)
        check(prof.total == kappa_free, f"sum over ell of N_{kappa},ell({x}) = {prof.total}, want {kappa_free}")
        semiprimes = sum(pi[x // p] - i for i, p in enumerate(primes, start=1) if p * p <= x)
        if kappa >= 3:
            semiprimes += pi[math.isqrt(x)]
        check(per.get(2) == semiprimes, f"N_{kappa},2({x}) = {per.get(2)}, want {semiprimes}")

    if out["constants"] is not None and all(p is not None for p in out["profiles"].values()):
        c1, c2 = out["constants"]
        ratios = []
        for (x, kappa), prof in out["profiles"].items():
            base = (kappa - 1) * (math.log(math.log(x)) + c2)
            for ell, lhs in prof.per_ell.items():
                if ell >= 1:
                    ratios.append(lhs / (c1 * x / math.log(x) * base ** (ell - 1) / math.factorial(ell - 1)))
        check(max(ratios) <= 1, f"fitted C1={c1}, C2={c2}: counting bound fails, ratio {max(ratios)}")
        check(max(ratios) >= 1 - 1e-6, f"fitted C1={c1} is not minimal: largest ratio {max(ratios)}")
        needed = max(
            math.fsum(1 / (int(p) * math.log(x / int(p))) for p in primes[primes * primes < x]) * math.log(x)
            - math.log(math.log(x))
            for x in inp["xs"]
        )
        check(needed < c2 <= needed + 1e-6, f"fitted C2={c2}, prime-sum inequality needs just above {needed}")

    isprime: dict[int, bool] = {}
    for n, fi in zip(inp["factorize"], out["facts"]):
        if fi is None:
            continue
        ps = [p for p, _ in fi.factors]
        for p in ps:
            if p not in isprime:
                isprime[p] = bool(sympy.isprime(p))
        product = math.prod(p**e for p, e in fi.factors)
        ok = (product == n and ps == sorted(set(ps)) and all(isprime[p] for p in ps)
              and all(e >= 1 for _, e in fi.factors))
        check(ok, f"factorize({n}) = {fi.factors}")

    for (n, kappa), res in zip(inp["psi"], out["psis"]):
        if res is None:
            continue
        tup, j = res
        increasing = all(a < b for a, b in zip(tup, tup[1:]))
        product = math.prod(int(primes[-(-i // (kappa - 1)) - 1]) for i in tup)
        check(increasing and product == n and j == (tup[-1] if tup else 0), f"psi_tuple({n}, {kappa}) = {res}")


WORKLOADS = {
    "report": (report_inputs, report_run, report_check),
    "zfamily": (zfamily_inputs, zfamily_run, zfamily_check),
    "counting": (counting_inputs, counting_run, counting_check),
}


def run_round(name: str, seed: int, trace: bool, out_dir: Path, t0: float,
              inputs_override: dict | None = None) -> dict:
    """Make the inputs, run the timed section, then check the outputs.

    ``t0`` is the ``time.monotonic()`` from which ``setup_s`` counts."""
    make_inputs, run, check_outputs = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    inp = make_inputs(rng, out_dir, **(inputs_override or {}))
    op = Ops()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    start = time.monotonic()
    try:
        out = run(inp, op)
    finally:
        wall = time.monotonic() - start
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks = Checks()
    check_outputs(inp, out, checks)
    result = {
        "workload": name,
        "seed": seed,
        "setup_s": start - t0,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "attempted": op.attempted,
        "failed": len(op.failures),
        "op_failures": op.failures[:20],
        "checks": checks.count,
        "check_failures": checks.failures[:20],
    }
    if tracer:
        result["layers"] = tracer.summary()
        trace_path = out_dir / f"trace-{name}-{seed}.json"
        tracer.dump(trace_path, start)
        result["trace_file"] = str(trace_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() when the process was started")
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    result = run_round(args.workload, args.seed, bool(args.trace), args.out_dir, args.t0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
