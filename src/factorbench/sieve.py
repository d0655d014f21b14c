"""Smallest-prime-factor sieve and the elementary arithmetic functions built on it.

Everything downstream (factorization counts, Dirichlet inversion, kappa-free
counting) consumes these tables in bulk, so mu and Omega are filled in during
sieve construction, from spf by a recurrence on n / spf(n), rather than
recomputed per query.  omega, which no table needs, comes from factorize.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


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
    spf: np.ndarray        # spf[n] = smallest prime factor of n (n >= 2), int32
    mu: np.ndarray         # Mobius function, int8
    big_omega: np.ndarray  # Omega(n), prime factors with multiplicity, int16
    primes: np.ndarray

    def kappa_free_mask(self, kappa: int, cutoff: int) -> np.ndarray:
        """Boolean mask over 0..cutoff; mask[n] iff n is kappa-free (n >= 1).
        Built on each call: a few ms at 10^7, a fresh array each caller owns."""
        if kappa < 2:
            raise ValueError(f"kappa must be >= 2, got {kappa}")
        if not 0 <= cutoff <= self.limit:
            raise ValueError(f"cutoff {cutoff} outside the sieve range [0, {self.limit}]")
        mask = np.ones(cutoff + 1, dtype=bool)
        mask[0] = False
        for p in self.primes:
            pk = int(p) ** kappa
            if pk > cutoff:
                break
            mask[pk::pk] = False
        return mask

    def prime_index(self, p: int) -> int:
        """1-based index of p in the prime sequence; raises if p is not prime."""
        i = bisect_left(self.primes, p)
        if i == len(self.primes) or self.primes[i] != p:
            raise ValueError(f"{p} is not a prime <= {self.limit}")
        return i + 1


def build_sieve(limit: int) -> SieveTables:
    """spf by sieving with the primes <= sqrt(limit); then, with p = spf(n) and
    m = n / p, Omega(n) = Omega(m) + 1 and, as p divides m or not,
    mu(n) = 0 or -mu(m).

    The limit is capped by FACTORBENCH_MAX_SIEVE (default 50,000,000), read
    at call time, and must be below 2^31 so that spf fits int32.
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    if limit >= 2**31:
        raise CapacityError(f"sieve limit {limit} is not below 2^31, the bound of int32 spf")
    raw = os.environ.get("FACTORBENCH_MAX_SIEVE", "50000000")
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"FACTORBENCH_MAX_SIEVE must be an integer, got {raw!r}") from None
    if limit > cap:
        raise CapacityError(f"sieve limit {limit} exceeds budget {cap}")

    n = limit + 1
    root = math.isqrt(limit)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for i in range(2, math.isqrt(root) + 1):
        if small[i]:
            small[i * i :: i] = False
    spf = np.zeros(n, dtype=np.int32)
    for p in np.flatnonzero(small)[::-1].tolist():  # descending: the smallest prime writes last
        spf[p * p :: p] = p
    primes = np.flatnonzero(spf == 0)[2:]  # untouched entries >= 2 are prime
    spf[primes] = primes

    big_omega = np.zeros(n, dtype=np.int16)
    mu = np.zeros(n, dtype=np.int8)
    mu[1] = 1
    for block, m, rep in _halving_blocks(spf, n):
        big_omega[block] = big_omega[m] + 1
        mu[block] = np.where(rep, 0, -mu[m])

    return SieveTables(limit=limit, spf=spf, mu=mu, big_omega=big_omega, primes=primes)


def _halving_blocks(spf: np.ndarray, n: int):
    """2..n - 1 in blocks [lo, 2 lo) of at most 2^20 (to cap temporaries): the
    slice, m = k / spf(k), and whether spf(k) repeats in k, i.e. spf(m) = spf(k)
    (spf(1) = 0 matches no prime).  m < lo: a recurrence reads finished entries."""
    lo = 2
    while lo < n:
        hi = min(2 * lo, lo + (1 << 20), n)
        p = spf[lo:hi]
        m = np.arange(lo, hi) // p
        yield slice(lo, hi), m, spf[m] == p
        lo = hi


def factorize(n: int, tables: SieveTables) -> FactoredInt:
    if not 1 <= n <= tables.limit:
        raise ValueError(f"n={n} out of sieve range [1, {tables.limit}]")
    factors = []
    m = n
    while m > 1:
        p = int(tables.spf[m])
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        factors.append((p, e))
    big = sum(e for _, e in factors)
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
