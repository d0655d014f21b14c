"""Self-contained invariant suites, runnable from the CLI without pytest.

Each suite check returns (name, passed, detail).  These duplicate the spirit
of the test suite at adjustable scale so a deployment can sanity-check itself.
The public checks take the tables and grid they check and build no tables;
the suites here and the reproduction report both call them.
"""

from __future__ import annotations

import cmath
import math
import random
from typing import Iterable

from . import counting, factorizations, zfamily
from .dirichlet import ArithFn, convolve, dirichlet_inverse
from .sieve import SieveTables, build_sieve, factorize

Check = tuple[str, bool, str]


def _mobius_sum_identity(tables: SieveTables, limit: int) -> Check:
    mu = tables.mu
    sums = [0] * (limit + 1)
    for d in range(1, limit + 1):
        md = int(mu[d])
        if md:
            for n in range(d, limit + 1, d):
                sums[n] += md
    bad = [n for n in range(1, limit + 1) if sums[n] != (1 if n == 1 else 0)]
    return ("mobius-sum-identity", not bad, f"checked n <= {limit}, failures {bad[:5]}")


def _omega_inequality(tables: SieveTables, limit: int) -> Check:
    bad = []
    for kappa in (2, 3, 5):
        mask = tables.kappa_free_mask(kappa)
        for n in range(2, limit + 1):
            if mask[n] and tables.big_omega[n] > kappa * tables.small_omega[n]:
                bad.append((kappa, n))
    return ("omega-le-kappa-omega", not bad, f"kappa in 2,3,5 up to {limit}")


def _f_bruteforce(tables: SieveTables, limit: int) -> Check:
    lim = min(limit, 400)
    ft = factorizations.build_factorisation_tables(lim)
    bad = [
        n
        for n in range(1, lim + 1)
        if ft.f[n] != len(factorizations.enumerate_ordered_factorizations(n))
    ]
    return ("f-equals-bruteforce", not bad, f"n <= {lim}, failures {bad[:5]}")


def mu_parity_failures(
    tables: SieveTables, ftables: factorizations.FactorisationTables, limit: int
) -> list[int]:
    """The n <= limit where f_even(n) - f_odd(n) differs from the sieve's mu."""
    return [
        n
        for n in range(1, limit + 1)
        if factorizations.mu_via_parity(n, ftables) != int(tables.mu[n])
    ]


def _mu_parity(tables: SieveTables, limit: int) -> Check:
    bad = mu_parity_failures(tables, factorizations.build_factorisation_tables(limit), limit)
    return ("mu-equals-feven-minus-fodd", not bad, f"n <= {limit}, failures {bad[:5]}")


def _d_lambda_bound(tables: SieveTables, limit: int) -> Check:
    lim = min(limit, 600)
    bad = []
    for n in range(2, lim + 1):
        fi = factorize(n, tables)
        squarefree = tables.mu[n] != 0
        for lam in factorizations.enumerate_partitions(fi.big_omega):
            d = factorizations.d_lambda(fi, lam)
            bound = factorizations.d_lambda_bound(lam)
            if d > bound or (squarefree and d != bound):
                bad.append((n, lam.parts))
    return ("d-lambda-bound", not bad, f"n <= {lim}, failures {bad[:5]}")


def _roundtrip(tables: SieveTables, limit: int, rng: random.Random) -> Check:
    lim = min(limit, 2000)
    worst = 0.0
    for _ in range(20):
        vals = [1] + [
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(lim - 1)
        ]
        F = ArithFn(lim, [0] + vals)
        H = convolve(F, dirichlet_inverse(F))
        worst = max(worst, max(abs(H.values[n] - (1 if n == 1 else 0)) for n in range(1, lim + 1)))
    return ("convolve-inverse-roundtrip", worst <= 1e-9, f"worst residual {worst:.2e}")


def _inverse_of_ones(tables: SieveTables, limit: int) -> Check:
    inv = dirichlet_inverse(ArithFn.ones(limit))
    bad = [n for n in range(1, limit + 1) if inv.values[n] != int(tables.mu[n])]
    return ("inverse-of-ones-is-mu", not bad, f"n <= {limit}, failures {bad[:5]}")


def cm_inverse_residual(tables: SieveTables, limit: int, rng: random.Random) -> float:
    """Worst |Ft - F mu| / max |Ft| over 20 random completely multiplicative F
    on 1..limit (|F(p)| <= 1); zero off the squarefree n follows from it."""
    worst = 0.0
    for _ in range(20):
        pv = {
            int(p): cmath.rect(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
            for p in tables.primes
            if p <= limit
        }
        F = ArithFn.completely_multiplicative(limit, tables, pv)
        inv = dirichlet_inverse(F)
        scale = max(abs(v) for v in inv.values[1:]) or 1.0
        for n in range(1, limit + 1):
            expect = F.values[n] * int(tables.mu[n])
            worst = max(worst, abs(inv.values[n] - expect) / scale)
    return worst


def _cm_support(tables: SieveTables, limit: int, rng: random.Random) -> Check:
    worst = cm_inverse_residual(tables, min(limit, 3000), rng)
    return (
        "completely-multiplicative-inverse-is-F-mu",
        worst <= 1e-9,
        f"worst relative residual {worst:.2e}",
    )


def _binomial_identity(tables: SieveTables, limit: int) -> Check:
    bad = [
        (alpha, k, ell)
        for alpha in range(1, 13)
        for k in range(alpha + 1)
        for ell in range(1, 13)
        if not zfamily.binomial_identity_check(alpha, k, ell)
    ]
    return ("binomial-identity", not bad, f"alpha,ell <= 12, failures {bad[:5]}")


def closed_form_mismatches(
    contexts: Iterable[zfamily.ZFamilyContext],
    ftables: factorizations.FactorisationTables,
    ps: tuple[int, ...],
    alphas: tuple[int, ...],
    ns: tuple[int, ...],
) -> tuple[int, list[tuple]]:
    """The prime-power closed form against each context's inverted table at
    p^alpha * n, over p not dividing n with p^alpha * n in range.  Returns
    the number of cases and the (z, p, alpha, n) that disagree."""
    cases, bad = 0, []
    for ctx in contexts:
        for p in ps:
            for alpha in alphas:
                for n in ns:
                    if n % p == 0 or p**alpha * n > ctx.limit:
                        continue
                    cases += 1
                    lhs = zfamily.inverse_at_prime_power(ctx.z, alpha, n, p, ftables)
                    if lhs != ctx.fz_tilde.values[p**alpha * n]:
                        bad.append((ctx.z, p, alpha, n))
    return cases, bad


def _closed_form(tables: SieveTables, limit: int) -> Check:
    ft = factorizations.build_factorisation_tables(64)
    contexts = (zfamily.build_context(z, min(tables.limit, 4000), tables) for z in (-1, 1, 2, 3))
    _, bad = closed_form_mismatches(contexts, ft, (2, 3), (1, 2, 3), (3, 5, 9, 15, 35))
    return ("inverse-closed-form", not bad, f"failures {bad[:5]}")


def _psi_minimality(tables: SieveTables, limit: int) -> Check:
    lim = min(limit, 500)
    bad = []
    for kappa in (2, 3, 5):
        mask = tables.kappa_free_mask(kappa)
        for n in range(2, lim + 1):
            if not mask[n]:
                continue
            tup, j = counting.psi_tuple(n, kappa, tables)
            prod = 1
            for i in tup:
                prod *= counting.tilde_p(i, kappa, tables)
            if prod != n or list(tup) != sorted(set(tup)) or j != tup[-1]:
                bad.append((kappa, n))
    return ("psi-reconstruction", not bad, f"kappa in 2,3,5, n <= {lim}")


SUITES = {
    "sieve": [_mobius_sum_identity, _omega_inequality],
    "factorisatio": [_f_bruteforce, _mu_parity, _d_lambda_bound],
    "dirichlet": [_roundtrip, _inverse_of_ones, _cm_support],
    "zfamily": [_binomial_identity, _closed_form],
    "counting": [_psi_minimality],
}


def run_suite(name: str, limit: int, seed: int = 12345) -> list[Check]:
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; pick from {['all', *SUITES]}")
    tables = build_sieve(max(limit, 100))
    rng = random.Random(seed)
    results: list[Check] = []
    for suite in names:
        for check in SUITES[suite]:
            if check in (_roundtrip, _cm_support):
                results.append(check(tables, limit, rng))
            else:
                results.append(check(tables, limit))
    return results
