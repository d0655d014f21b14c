"""Self-contained invariant suites, runnable from the CLI without pytest.

Each suite check takes (tables, limit, rng) and returns (name, passed,
detail); run_suite caps the limit of the slow ones (_CAP).  Each identity of
the paper is checked in one place here, which the suites, the reproduction
report and the acceptance gate (tests/test_acceptance.py) all call, each on
its own grid.  The public checks take the tables they check and build none.
"""

from __future__ import annotations

import cmath
import math
import random
from itertools import product
from typing import Iterable

import numpy as np

from . import counting, factorizations, zfamily
from .dirichlet import (ArithFn, convolve, dirichlet_inverse, dirichlet_inverse_stack,
                        inverse_via_alternating, stack_tables)
from .sieve import _COUNT_CHUNK, SieveTables, build_sieve, factorize

Check = tuple[str, bool, str]


def _mobius_sum_identity(tables: SieveTables, limit: int, rng: random.Random) -> Check:
    mu = tables.mu
    sums = [0] * (limit + 1)
    for d in range(1, limit + 1):
        md = int(mu[d])
        if md:
            for n in range(d, limit + 1, d):
                sums[n] += md
    bad = [n for n in range(1, limit + 1) if sums[n] != (1 if n == 1 else 0)]
    return ("mobius-sum-identity", not bad, f"checked n <= {limit}, failures {bad[:5]}")


def _omega_inequality(tables: SieveTables, limit: int, rng: random.Random) -> Check:
    """The sieve's Omega(n) <= kappa omega(n) on kappa-free n, omega from factorize."""
    kappas = (2, 3, 5)
    masks = [tables.kappa_free_mask(kappa, limit) for kappa in kappas]
    bad = []
    for n in range(2, limit + 1):
        big, small = int(tables.big_omega[n]), factorize(n, tables).small_omega
        bad += [(kappa, n) for kappa, mask in zip(kappas, masks) if mask[n] and big > kappa * small]
    return ("omega-le-kappa-omega", not bad, f"kappa in 2,3,5 up to {limit}")


def _f_bruteforce(tables: SieveTables, limit: int, rng: random.Random) -> Check:
    ft = factorizations.build_factorisation_tables(limit, tables)
    bad = [
        n
        for n in range(1, limit + 1)
        if ft.f[n] != len(factorizations.enumerate_ordered_factorizations(n))
    ]
    return ("f-equals-bruteforce", not bad, f"n <= {limit}, failures {bad[:5]}")


def mu_parity_failures(
    tables: SieveTables, ftables: factorizations.FactorisationTables, limit: int
) -> list[int]:
    """The n <= limit where f_even(n) - f_odd(n), taken once per signature,
    differs from the sieve's mu."""
    if limit > ftables.limit:
        raise ValueError(f"n={limit} out of table range [1, {ftables.limit}]")
    # mu is -1, 0 or 1, so clipping the difference to [-2, 2] keeps every mismatch
    diff = np.array([max(-2, min(2, factorizations.mu_via_parity(rep, ftables)))
                     for rep in ftables.reps], dtype=np.int8)
    return (np.flatnonzero(diff[ftables.ids[1 : limit + 1]] != tables.mu[1 : limit + 1]) + 1).tolist()


def _mu_parity(tables: SieveTables, limit: int, rng: random.Random) -> Check:
    ft = factorizations.build_factorisation_tables(limit, tables)
    bad = mu_parity_failures(tables, ft, limit)
    return ("mu-equals-feven-minus-fodd", not bad, f"n <= {limit}, failures {bad[:5]}")


def _d_lambda_bound(tables: SieveTables, limit: int, rng: random.Random) -> Check:
    """d_lambda(n) <= the multinomial bound for every partition lambda of
    Omega(n), with equality on squarefree n, for 2 <= n <= limit."""
    bad = []
    for n in range(2, limit + 1):
        profile = factorizations.d_lambda_all(n)
        squarefree = tables.mu[n] != 0
        for lam in factorizations.enumerate_partitions(int(tables.big_omega[n])):
            d = profile.get(lam.parts, 0)
            bound = factorizations.d_lambda_bound(lam)
            if d > bound or (squarefree and d != bound):
                bad.append((n, lam.parts))
    return ("d-lambda-bound", not bad, f"n <= {limit}, failures {bad[:5]}")


def _each_inverse(limit: int, draw, each) -> list:
    """each(F, Ft) for the 20 tables F of length limit + 1 that draw() makes,
    in order, and their inverses Ft, as rows (_Planes or object arrays).
    The tables are inverted in stacks (stack_tables and
    dirichlet_inverse_stack) of at most _COUNT_CHUNK // 2 values, so that a
    stack's complex doubles take no more than one _COUNT_CHUNK of int64,
    and each stack is freed before the next is drawn."""
    height = max(1, _COUNT_CHUNK // 2 // (limit + 1))
    results = []
    for start in range(0, 20, height):
        rows = min(height, 20 - start)
        f = stack_tables((draw() for _ in range(rows)), rows)
        results += [each(F, Ft) for F, Ft in zip(f, dirichlet_inverse_stack(f))]
        del f
    return results


def _roundtrip(tables: SieveTables, limit: int, rng: random.Random) -> Check:
    """F * Ft = I on 1..limit for 20 random complex F with F(1) = 1."""
    def draw():
        return [0, 1] + [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(limit - 1)]

    def residual(F, Ft):
        H = convolve(ArithFn(limit, F.tolist()), ArithFn(limit, Ft.tolist()))
        return max(abs(H.values[n] - (1 if n == 1 else 0)) for n in range(1, limit + 1))

    worst = max([0.0, *_each_inverse(limit, draw, residual)])
    return ("convolve-inverse-roundtrip", worst <= 1e-9, f"worst residual {worst:.2e}")


def _inverse_of_ones(tables: SieveTables, limit: int, rng: random.Random) -> Check:
    inv = dirichlet_inverse(ArithFn.ones(limit))
    bad = [n for n in range(1, limit + 1) if inv.values[n] != int(tables.mu[n])]
    return ("inverse-of-ones-is-mu", not bad, f"n <= {limit}, failures {bad[:5]}")


def _inverse_vs_alternating(tables: SieveTables, limit: int, rng: random.Random) -> Check:
    """The sweep against the alternating-series inverse on F_z: exactly for
    z = 2, to 1e-9 relative for a complex z."""
    z = complex(0.6, 0.8)
    f2, fz = (ArithFn(limit, [0, 1] + [-w] * (limit - 1)) for w in (2, z))
    exact_ok = dirichlet_inverse(f2).values == inverse_via_alternating(f2).values
    sweep = dirichlet_inverse(fz).values
    alt = inverse_via_alternating(fz).values
    scale = max(abs(v) for v in sweep[1:])
    worst = max(abs(a - b) for a, b in zip(sweep[1:], alt[1:])) / scale
    return (
        "inverse-sweep-equals-alternating",
        exact_ok and worst <= 1e-9,
        f"n <= {limit}, z = 2 exact {exact_ok}, z = {z} worst relative {worst:.2e}",
    )


def cm_inverse_residual(
    tables: SieveTables, limit: int, rng: random.Random
) -> tuple[float, float]:
    """The worst |Ft - F mu| and the worst |Ft - F mu| / max |Ft| over 20
    random completely multiplicative F on 1..limit (|F(p)| <= 1); zero off
    the squarefree n follows from either."""
    primes = tables.primes[tables.primes <= limit].tolist()
    mu = tables.mu[1 : limit + 1]

    def draw():
        pv = {p: cmath.rect(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi)) for p in primes}
        return ArithFn.completely_multiplicative(limit, tables, pv).values

    def residuals(F, Ft):
        Ft = np.asarray(Ft, dtype=complex)[1:]
        d = Ft - np.asarray(F, dtype=complex)[1:] * mu
        # np.hypot is the C hypot that abs(complex) calls, so this is abs to the bit
        residual = np.hypot(d.real, d.imag).max()
        return float(residual), float(residual / (np.hypot(Ft.real, Ft.imag).max() or 1.0))

    pairs = _each_inverse(limit, draw, residuals)
    return max([0.0, *(a for a, _ in pairs)]), max([0.0, *(r for _, r in pairs)])


def _cm_support(tables: SieveTables, limit: int, rng: random.Random) -> Check:
    _, worst = cm_inverse_residual(tables, limit, rng)
    return (
        "completely-multiplicative-inverse-is-F-mu",
        worst <= 1e-9,
        f"worst relative residual {worst:.2e}",
    )


def _binomial_identity(tables: SieveTables, limit: int, rng: random.Random) -> Check:
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
    ps: Iterable[int],
    alphas: Iterable[int],
    ns: Iterable[int],
) -> tuple[int, list[tuple]]:
    """The prime-power closed form against each context's inverted table at
    p^alpha * n, over p not dividing n with p^alpha * n in range: exactly
    for an int z, else to 1e-9 relative (absolute below 1).  Returns the
    number of cases and the (z, p, alpha, n) that disagree."""
    cases, bad = 0, []
    for ctx in contexts:
        for p, alpha, n in product(ps, alphas, ns):
            if n % p == 0 or p**alpha * n > ctx.limit:
                continue
            cases += 1
            lhs = zfamily.inverse_at_prime_power(ctx.z, alpha, n, p, ftables)
            rhs = ctx.fz_tilde.values[p**alpha * n]
            if isinstance(ctx.z, int):
                agree = lhs == rhs
            else:
                agree = abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))  # False on NaN
            if not agree:
                bad.append((ctx.z, p, alpha, n))
    return cases, bad


def _closed_form(tables: SieveTables, limit: int, rng: random.Random) -> Check:
    ft = factorizations.build_factorisation_tables(64, tables)
    contexts = (zfamily.build_context(z, min(tables.limit, 4000), tables) for z in (-1, 1, 2, 3))
    _, bad = closed_form_mismatches(contexts, ft, (2, 3), (1, 2, 3), (3, 5, 9, 15, 35))
    return ("inverse-closed-form", not bad, f"failures {bad[:5]}")


def _psi_minimality(tables: SieveTables, limit: int, rng: random.Random) -> Check:
    bad = []
    for kappa in (2, 3, 5):
        for n in np.flatnonzero(tables.kappa_free_mask(kappa, limit))[1:].tolist():  # kappa-free n >= 2
            tup, j = counting.psi_tuple(n, kappa, tables)
            prod = 1
            for i in tup:
                prod *= counting.tilde_p(i, kappa, tables)
            if prod != n or list(tup) != sorted(set(tup)) or j != tup[-1]:
                bad.append((kappa, n))
    return ("psi-reconstruction", not bad, f"kappa in 2,3,5, n <= {limit}")


SUITES = {
    "sieve": [_mobius_sum_identity, _omega_inequality],
    "factorisatio": [_f_bruteforce, _mu_parity, _d_lambda_bound],
    "dirichlet": [_roundtrip, _inverse_of_ones, _cm_support, _inverse_vs_alternating],
    "zfamily": [_binomial_identity, _closed_form],
    "counting": [_psi_minimality],
}

# the largest limit run_suite gives each check whose cost grows fast with
# it (a brute-force oracle, or 20 random tables); the rest take it as given
_CAP = {_f_bruteforce: 400, _d_lambda_bound: 600, _roundtrip: 2000,
        _cm_support: 3000, _inverse_vs_alternating: 1000, _psi_minimality: 500}


def run_suite(name: str, limit: int, seed: int = 12345) -> list[Check]:
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; pick from {['all', *SUITES]}")
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    tables = build_sieve(max(limit, 100))
    rng = random.Random(seed)  # only _roundtrip and _cm_support draw from it
    return [check(tables, min(limit, _CAP.get(check, limit)), rng)
            for suite in names for check in SUITES[suite]]
