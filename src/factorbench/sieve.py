"""Smallest-prime-factor sieve and the elementary arithmetic functions built on it.

Everything downstream (factorization counts, Dirichlet inversion, kappa-free
counting) consumes these tables in bulk, so Omega and mu are filled in during
sieve construction rather than recomputed per query: Omega by a recurrence on
n / spf(n), and mu as (-1)^Omega off the multiples of the squares of primes.
omega, which no table needs, comes from factorize.

spf is uint16: no composite n < 2^31 has spf(n) >= 2^16, so the entry is 0
at the primes >= 2^16, as at 0 and 1, and spf(n) = spf[n] or n. The vector
walks divide by the entry as it is: n // 0 = 0, and entry 0 stands in for 1.
"""

from __future__ import annotations

import math
import mmap
import os
from bisect import bisect_left
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache

import numpy as np

# The one chunk length of per-n work: the blocks of _halving_blocks, which
# build_sieve's Omega recurrence and the signature-id walk both take, and the
# f list of build_factorisation_tables. Their int64 and intp temporaries are
# then 512 KiB, below the peak the returned arrays set, where 2^20 entries
# made 8 MiB copies that raised the peak RSS of the tables. The signature
# census (census.py) walks no n and takes no chunk.
_COUNT_CHUNK = 1 << 16


class CapacityError(ValueError):
    """Requested limit exceeds the configured memory budget."""


@dataclass(frozen=True)
class FactoredInt:
    """An integer together with its full prime factorization."""

    n: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), primes increasing
    big_omega: int
    small_omega: int


@dataclass(frozen=True)
class SieveTables:
    """Bulk arrays over 0..limit: smallest prime factor, mu, Omega, and the primes.

    The arrays are shared by every caller that reads the tables, so callers
    must not write to them. Nothing enforces this: the fields are frozen,
    but the arrays stay writeable.
    """

    limit: int
    spf: np.ndarray        # uint16: spf(n) = spf[n] or n for n >= 2; 0 at 0, 1 and the primes >= 2^16
    mu: np.ndarray         # Mobius function, int8
    big_omega: np.ndarray  # Omega(n), prime factors with multiplicity, int8: Omega(n) <= 30 below 2^31
    primes: np.ndarray     # the primes <= limit in increasing order, int32

    def kappa_free_mask(self, kappa: int, cutoff: int) -> np.ndarray:
        """Boolean mask over 0..cutoff; mask[n] iff n is kappa-free (n >= 1):
        each p^kappa <= cutoff strikes its multiples, and 2^kappa > cutoff
        strikes none, so int(p) ** kappa is never built for a huge kappa.
        Built on each call, a fresh array each caller owns; inside the
        package only verify calls it, at kappa 2, 3 and 5."""
        if kappa < 2:
            raise ValueError(f"kappa must be >= 2, got {kappa}")
        if not 0 <= cutoff <= self.limit:
            raise ValueError(f"cutoff {cutoff} outside the sieve range [0, {self.limit}]")
        mask = np.ones(cutoff + 1, dtype=bool)
        mask[0] = False
        for p in self.primes:
            if kappa >= cutoff.bit_length() or (pk := int(p) ** kappa) > cutoff:  # 2^kappa > cutoff first
                break
            mask[pk::pk] = False
        return mask

    def prime_index(self, p: int) -> int:
        """1-based index of p in the prime sequence; raises if p is not prime.
        Bisects a memoryview of the primes, which compares Python ints."""
        primes = memoryview(self.primes)
        i = bisect_left(primes, p)
        if i == len(primes) or primes[i] != p:
            raise ValueError(f"{p} is not a prime <= {self.limit}")
        return i + 1


def build_sieve(limit: int) -> SieveTables:
    """spf by striking out 2's multiples and then, largest prime first, the odd
    multiples of each odd prime <= sqrt(limit), so that the smallest prime
    writes last; Omega(n) = Omega(n / spf(n)) + 1; mu(n) = (-1)^Omega(n), or 0
    on the multiples of p^2.

    The limit is capped by FACTORBENCH_MAX_SIEVE (default 50,000,000), read
    at call time, and must be below 2^31 so that the primes fit int32 and
    Omega int8.
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    if limit >= 2**31:
        raise CapacityError(f"sieve limit {Decimal(limit):.3e} is not below 2^31, "
                            "the bound of int32 primes and int8 Omega")
    raw = os.environ.get("FACTORBENCH_MAX_SIEVE", "50000000")
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"FACTORBENCH_MAX_SIEVE must be an integer, got {raw!r}") from None
    if limit > cap:
        # 2 + 1 + 1 bytes per n for spf, Omega and mu, 4 per prime, pi(x) < 1.25506 x / log x
        need = 4 * (limit + 1) + 4 * math.ceil(1.25506 * limit / math.log(limit))
        raise CapacityError(f"sieve limit {limit} exceeds budget {cap}: its arrays "
                            f"would take {need} bytes ({need / 2**20:.1f} MiB)")

    n = limit + 1
    root = math.isqrt(limit)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for i in range(2, math.isqrt(root) + 1):
        if small[i]:
            small[i * i :: i] = False
    small_primes = np.flatnonzero(small).tolist()
    # Anonymous pages go back to the OS when spf is freed; from malloc, under
    # glibc's sliding mmap threshold, a freed spf stayed on the heap (kalmar 10^7: +20 MB).
    spf = np.frombuffer(mmap.mmap(-1, 2 * n), dtype=np.uint16)
    spf[4::2] = 2
    for p in small_primes[:0:-1]:  # odd multiples only: the even ones keep 2
        spf[p * p :: 2 * p] = p
    primes = np.flatnonzero(spf == 0)[2:].astype(np.int32)  # untouched entries >= 2 are prime
    small_p = primes[: np.searchsorted(primes, 1 << 16)]
    spf[small_p] = small_p

    big_omega = np.zeros(n, dtype=np.int8)
    for block, m in _halving_blocks(spf, n):
        big_omega[block] = big_omega[m] + 1
    mu = np.bitwise_and(big_omega, 1, dtype=np.int8)  # Omega mod 2, then in place 1 - 2 (Omega mod 2)
    mu *= -2
    mu += 1
    mu[0] = 0
    for p in small_primes:
        mu[p * p :: p * p] = 0

    return SieveTables(limit=limit, spf=spf, mu=mu, big_omega=big_omega, primes=primes)


def _x_cutoff(x: float, least: int, *tables) -> int:
    """floor(x), the cutoff of a sum or count over n <= x: x must be finite,
    at least least and above 0, and floor(x) at most the limit of each table
    given; any other x is a ValueError that names it. The kappa-free profiles
    take least = 1; FactorisationTables.census, behind the sums of zeta and
    coffeeshop_sum, takes 0, and counts no n for 0 < x < 1."""
    try:
        cutoff = math.floor(x)
    except (OverflowError, ValueError):  # floor of +-inf and of nan
        raise ValueError(f"x must be finite, got {x}") from None
    if x < least or x <= 0:
        raise ValueError(f"x={x} must be >= {least}" if least > 0 else f"x={x} must be > 0")
    for t in tables:
        if cutoff > t.limit:
            kind = "sieve" if isinstance(t, SieveTables) else "table"
            raise ValueError(f"x={x} beyond {kind} limit {t.limit}")
    return cutoff


def _halving_blocks(spf: np.ndarray, n: int):
    """2..n - 1 in blocks [lo, 2 lo) of at most _COUNT_CHUNK entries: the
    slice and m = k / spf(k), with m = 0 at the primes stored as 0.  m < lo,
    so a recurrence on m reads finished entries: build_sieve's Omega and
    factorizations._signature_ids walk these."""
    lo = 2
    while lo < n:
        hi = min(2 * lo, lo + _COUNT_CHUNK, n)
        with np.errstate(divide="ignore"):
            m = np.arange(lo, hi) // spf[lo:hi]
        yield slice(lo, hi), m
        lo = hi


def factorize(n: int, tables: SieveTables) -> FactoredInt:
    """n's prime factorization, read from the live spf array one entry at a
    time, spf(m) = spf[m] or m."""
    if not 1 <= n <= tables.limit:
        raise ValueError(f"n={n} out of sieve range [1, {tables.limit}]")
    spf = tables.spf.item  # a Python int, without a numpy scalar in between
    factors = []
    big = 0
    m = n
    while m > 1:
        p = spf(m) or m
        m //= p
        e = 1
        while m % p == 0:
            m //= p
            e += 1
        factors.append((p, e))
        big += e
    return FactoredInt(n=n, factors=tuple(factors), big_omega=big, small_omega=len(factors))


@lru_cache(maxsize=200_000)
def _divisors(n: int) -> tuple[int, ...]:
    """All divisors of n >= 1 in increasing order, by trial division."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


@lru_cache(maxsize=None)
def _big_omega(n: int) -> int:
    """Omega(n) for n >= 1, prime factors with multiplicity, by trial division."""
    count = 0
    d = 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            count += 1
        d += 1
    return count + (n > 1)


def is_kappa_free(n: int, kappa: int, tables: SieveTables) -> bool:
    """True iff no p**kappa divides n. 1 is kappa-free for every kappa.
    A test reference only: test_kappa_free_mask_matches_pointwise checks
    kappa_free_mask against it."""
    if kappa < 2:
        raise ValueError(f"kappa must be >= 2, got {kappa}")
    return all(e < kappa for _, e in factorize(n, tables).factors)


def iterated_log(x: float, k: int) -> float:
    """k-th iterate of x -> max(log x, 1).  k=2 is a clamped log log."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    v = float(x)
    for _ in range(k):
        v = max(math.log(v), 1.0) if v > 0 else 1.0
    return v
