"""Smallest-prime-factor sieve and the elementary arithmetic functions built on it.

Everything downstream (factorization counts, Dirichlet inversion, kappa-free
counting) consumes these tables in bulk, so mu, Omega and omega are filled in
during sieve construction rather than recomputed per query.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from dataclasses import dataclass, field
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

    def reconstruct(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out

    @property
    def mobius(self) -> int:
        if any(e > 1 for _, e in self.factors):
            return 0
        return -1 if self.small_omega % 2 else 1


@dataclass
class SieveTables:
    """Bulk arrays over 1..limit: smallest prime factor, mu, Omega, omega.

    Immutable after construction; safe for unrestricted concurrent reads.
    """

    limit: int
    spf: np.ndarray        # spf[n] = smallest prime factor of n (n >= 2)
    mu: np.ndarray         # Mobius function, int8
    big_omega: np.ndarray  # Omega(n), prime factors with multiplicity
    small_omega: np.ndarray  # omega(n), distinct prime factors
    primes: np.ndarray
    _kappa_free_cache: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def kappa_free_mask(self, kappa: int) -> np.ndarray:
        """Boolean mask over 0..limit; mask[n] iff n is kappa-free (n >= 1)."""
        if kappa < 2:
            raise ValueError(f"kappa must be >= 2, got {kappa}")
        if kappa not in self._kappa_free_cache:
            mask = np.ones(self.limit + 1, dtype=bool)
            mask[0] = False
            for p in self.primes:
                pk = int(p) ** kappa
                if pk > self.limit:
                    break
                mask[pk::pk] = False
            self._kappa_free_cache[kappa] = mask
        return self._kappa_free_cache[kappa]

    def prime_index(self, p: int) -> int:
        """1-based index of p in the prime sequence; raises if p is not prime."""
        i = bisect_left(self.primes, p)
        if i == len(self.primes) or self.primes[i] != p:
            raise ValueError(f"{p} is not a prime <= {self.limit}")
        return i + 1


def build_sieve(limit: int) -> SieveTables:
    """Single pass producing spf, mu, Omega and omega over 1..limit.

    The limit is capped by FACTORBENCH_MAX_SIEVE (default 50,000,000), read
    at call time.
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    raw = os.environ.get("FACTORBENCH_MAX_SIEVE", "50000000")
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"FACTORBENCH_MAX_SIEVE must be an integer, got {raw!r}") from None
    if limit > cap:
        raise CapacityError(f"sieve limit {limit} exceeds budget {cap}")

    n = limit + 1
    spf = np.zeros(n, dtype=np.int64)
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == 0:
            sl = spf[i * i :: i]
            sl[sl == 0] = i
    primes = np.nonzero(spf == 0)[0][2:]  # untouched entries >= 2 are prime
    spf[primes] = primes

    big_omega = np.zeros(n, dtype=np.int16)
    small_omega = np.zeros(n, dtype=np.int16)
    mu = np.ones(n, dtype=np.int8)
    mu[0] = 0
    for p in primes:
        p = int(p)
        small_omega[p::p] += 1
        mu[p::p] *= -1
        pk = p
        while pk <= limit:
            big_omega[pk::pk] += 1
            pk *= p
        sq = p * p
        if sq <= limit:
            mu[sq::sq] = 0
    big_omega[1] = 0
    small_omega[1] = 0

    return SieveTables(
        limit=limit,
        spf=spf,
        mu=mu,
        big_omega=big_omega,
        small_omega=small_omega,
        primes=primes,
    )


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
    """True iff no p**kappa divides n. 1 is kappa-free for every kappa."""
    if kappa < 2:
        raise ValueError(f"kappa must be >= 2, got {kappa}")
    if not 1 <= n <= tables.limit:
        raise ValueError(f"n={n} out of sieve range [1, {tables.limit}]")
    return all(e < kappa for _, e in factorize(n, tables).factors)


def mobius(n: int, tables: SieveTables) -> int:
    if not 1 <= n <= tables.limit:
        raise ValueError(f"n={n} out of sieve range [1, {tables.limit}]")
    return int(tables.mu[n])


def unit_I(n: int) -> int:
    """Identity for Dirichlet convolution: 1 at n=1, else 0."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 1 if n == 1 else 0


def iterated_log(x: float, k: int) -> float:
    """k-th iterate of x -> max(log x, 1).  k=2 is a clamped log log."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    v = float(x)
    for _ in range(k):
        v = max(math.log(v), 1.0) if v > 0 else 1.0
    return v
