"""Counting n <= x by number of prime factors, restricted to kappa-free n.

Includes the repeated-prime index sequence p~(j) (each prime repeated
kappa-1 times), the minimal-index-sum representation Psi(n) of a kappa-free
integer with its largest index J(n), and empirical fitting of the constants
in the Hardy-Ramanujan-style upper bound for N_{kappa,ell}(x).

The constants in the bound are never asserted a priori: the fit reports the
minimal values that make the inequality hold on the scanned grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .census import _signatures, census_counts
from .factorizations import FactorisationTables, sum_by_signature
from .sieve import SieveTables, _x_cutoff, factorize, iterated_log


@dataclass(frozen=True)
class CountingProfile:
    """Counts per ell of {n <= x : n kappa-free, Omega(n) = ell}."""

    x: float
    kappa: int
    per_ell: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.per_ell.values())


def count_bigomega(x: float, ell: int, tables: SieveTables) -> int:
    """|{n <= x : Omega(n) = ell}|, exact.
    A test reference only: test_N_kappa_ell_* check N_kappa_ell against it."""
    cutoff = _x_cutoff(x, 1, tables)
    return int(np.count_nonzero(tables.big_omega[1 : cutoff + 1] == ell))


def N_kappa_ell(x: float, kappa: int, ell: int, tables: SieveTables) -> int:
    """|{n <= x : n kappa-free and Omega(n) = ell}|, exact.
    Pinned by ACCEPT-11 and test_signature_sums through check_counting_bound."""
    return profile_N_kappa(x, kappa, tables).per_ell.get(ell, 0)


def profile_N_kappa(x: float, kappa: int, tables: SieveTables) -> CountingProfile:
    """All N_{kappa,ell}(x) from one signature census: profile_grid at one point."""
    return profile_grid([x], [kappa], tables)[0]


def profile_grid(xs, kappas, tables: SieveTables) -> list[CountingProfile]:
    """profile_N_kappa at every (x, kappa), x outer and kappa inner, in the
    callers' order (repeats allowed), from the cached census_counts at each x.

    n is kappa-free iff its signature's largest exponent is below kappa, and
    Omega(n) is the sieve's Omega at the signature's smallest n. So
    N_{kappa,ell}(x) is the sum of N_sigma(x) over the signatures with both.
    """
    xs, kappas = list(xs), list(kappas)
    if kappas and min(kappas) < 2:
        raise ValueError(f"kappa must be >= 2, got {min(kappas)}")
    cutoffs = [_x_cutoff(x, 1, tables) for x in xs]
    if not cutoffs or not kappas:  # no (x, kappa) pair to count
        return []
    signatures, reps, _ = _signatures(tables.limit)
    largest = np.array([sig[0] if sig else 0 for sig in signatures])  # signatures decrease
    # float64 bincounts of the counts, exact: each is at most x < 2^31
    return [CountingProfile(x=x, kappa=kappa, per_ell={ell: int(c) for ell, c in enumerate(np.bincount(
                tables.big_omega[reps], np.where(largest < kappa, census_counts(cutoff, tables.limit), 0))) if c})
            for x, cutoff in zip(xs, cutoffs) for kappa in kappas]


def tilde_p(j: int, kappa: int, tables: SieveTables) -> int:
    """j-th entry of the sequence of primes each repeated kappa-1 times."""
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    if kappa < 2:
        raise ValueError(f"kappa must be >= 2, got {kappa}")
    idx = -(-j // (kappa - 1))  # ceil(j / (kappa - 1))
    if idx > len(tables.primes):
        raise ValueError(f"prime index {idx} beyond sieve limit {tables.limit}")
    return int(tables.primes[idx - 1])


def psi_tuple(n: int, kappa: int, tables: SieveTables) -> tuple[tuple[int, ...], int]:
    """Minimal-index-sum increasing tuple (j_1 < ... < j_ell) with
    prod tilde_p(j_i) = n, together with J = j_ell.  n = 1 maps to ((), 0).

    Greedy: a prime p with p^e || n takes the e smallest indices of p's
    block of kappa-1 slots; validated against exhaustive search in tests.
    """
    if kappa < 2:
        raise ValueError(f"kappa must be >= 2, got {kappa}")
    if n == 1:
        return (), 0
    k1 = kappa - 1
    indices: list[int] = []
    for p, e in factorize(n, tables).factors:
        if e >= kappa:
            raise ValueError(f"{n} is not {kappa}-free; no representation exists")
        r = tables.prime_index(p)  # block of p is {(r-1)k1 + 1, ..., r k1}
        start = (r - 1) * k1
        indices.extend(range(start + 1, start + e + 1))
    indices.sort()
    return tuple(indices), indices[-1]


@dataclass(frozen=True)
class CountingBoundReport:
    x: float
    kappa: int
    ell: int
    c1: float
    c2: float
    lhs: int
    rhs: float

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs else math.inf

    @property
    def passes(self) -> bool:
        return self.lhs <= self.rhs


def hr_free_rhs(x: float, kappa: int, ell: int, c1: float, c2: float) -> float:
    """C1 x/log x * ((kappa-1) log_2 x + (kappa-1) C2)^{ell-1} / (ell-1)!,
    for a finite x > 1, where log x > 0."""
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if not 1 < x < math.inf:
        raise ValueError(f"x must be finite and > 1, got {x}")
    k1 = kappa - 1
    base = k1 * iterated_log(x, 2) + k1 * c2
    return c1 * x / math.log(x) * base ** (ell - 1) / math.factorial(ell - 1)


def check_counting_bound(
    x: float, kappa: int, ell: int, c1: float, c2: float, tables: SieveTables
) -> CountingBoundReport:
    """The paper's counting bound N_{kappa,ell}(x) <= hr_free_rhs at one point.
    Pinned by ACCEPT-11 and test_signature_sums; the package never calls it."""
    rhs = hr_free_rhs(x, kappa, ell, c1, c2)  # raises first, for any x <= 1
    lhs = N_kappa_ell(x, kappa, ell, tables)
    return CountingBoundReport(x=x, kappa=kappa, ell=ell, c1=c1, c2=c2, lhs=lhs, rhs=rhs)


def prime_reciprocal_sum(x: float, tables: SieveTables) -> float:
    """sum over primes with p^2 < x of 1/(p log(x/p))."""
    if tables.limit * tables.limit < x:
        raise ValueError(f"sieve limit {tables.limit} too small for x={x}")
    total = 0.0
    for p in tables.primes:
        p = int(p)
        if p * p >= x:
            break
        total += 1.0 / (p * math.log(x / p))
    return total


def fit_prime_sum_constant(xs, tables: SieveTables) -> float:
    """Minimal C2, plus 1e-9, with sum_{p^2<x} 1/(p log(x/p)) < (log_2 x + C2)/log x on xs."""
    needed = -math.inf
    for x in xs:
        s = prime_reciprocal_sum(x, tables)
        needed = max(needed, s * math.log(x) - iterated_log(x, 2))
    return needed + 1e-9


def fit_counting_constants(
    xs, kappas, tables: SieveTables, profiles: list[CountingProfile] | None = None
) -> tuple[float, float]:
    """Fit (C1, C2) empirically: C2 from the prime-sum inequality, then the
    minimal C1 making the N_{kappa,ell} bound hold over the whole grid.

    profiles, when given, are profile_N_kappa at every (x, kappa) of the grid;
    without them, profile_grid counts the whole grid.
    """
    for x in xs:  # before the prime sum, which cannot name a bad x
        _x_cutoff(x, 1, tables)
    c2 = fit_prime_sum_constant(xs, tables)
    if profiles is None:
        profiles = profile_grid(xs, kappas, tables)
    c1 = 0.0
    for profile in profiles:
        for ell, lhs in profile.per_ell.items():
            if ell < 1:
                continue
            rhs_unit = hr_free_rhs(profile.x, profile.kappa, ell, 1.0, c2)
            c1 = max(c1, lhs / rhs_unit)
    # headroom so the binding grid point passes under float rounding
    return c1 * (1 + 1e-9), c2


def coffeeshop_sum(x: float, c, kappa: int, ftables: FactorisationTables):
    """sum_{n<=x} c^Omega(n) f(n) over kappa-free n, once per signature, with
    the signature's Omega from ftables.big_omega: exact for an int c; for any
    other finite c, summed over Fraction(c) and rounded once.

    For kappa = 2 and any fixed c > 0 the sum is x^{1+o(1)}: on squarefree
    n with k prime factors f(n) is the Fubini number sum_{m>=0} m^k/2^{m+1},
    so the Dirichlet series is sum_m 2^{-m-1} prod_p (1 + c m p^{-s}), and
    log(1 + u) <= u^theta/theta with 1/sigma < theta < 1 makes it converge
    for every sigma > 1. The unrestricted sum of f grows like x^beta with
    beta = kalmar_beta() = 1.7286.
    """
    counts = ftables.census(x)
    exact = isinstance(c, int)
    if not exact and not math.isfinite(c):
        raise ValueError(f"c must be finite, got {c}")
    if kappa < 2:
        raise ValueError(f"kappa must be >= 2, got {kappa}")
    base = c if exact else Fraction(c)
    total = sum_by_signature(ftables, [
        k * base**omega if k and (not sig or sig[0] < kappa) else 0
        for k, omega, sig in zip(counts, ftables.big_omega, ftables.signatures)])
    if exact:
        return total
    try:
        return float(total)
    except OverflowError:  # beyond the largest float, which rounds to +-inf
        return math.inf if total > 0 else -math.inf


def growth_exponents(xs, c, kappa: int, ftables: FactorisationTables) -> list[tuple[float, float]]:
    """(x, log S(x)/log x) for the restricted power-weighted sum S, at each
    x of xs, which must be finite and > 1, where log x > 0.

    The exponent is descriptive, not a bound. For kappa = 2 it tends to 1
    (see coffeeshop_sum), but slowly: with c = 2 it is 1.4901 at x = 10^6,
    1.4598 at x = 10^9 (tests/test_census.py sums the census to 10^9) and
    still 1.4358 at x = 10^12.
    """
    out = []
    for x in xs:
        if not 1 < x < math.inf:
            raise ValueError(f"x must be finite and > 1, got {x}")
        s = coffeeshop_sum(x, c, kappa, ftables)
        if not s:  # a negative c can cancel the sum; log 0 has no exponent
            raise ValueError(f"the sum at x={x}, c={c} is 0 and has no growth exponent")
        out.append((x, math.log(abs(s)) / math.log(x)))
    return out
