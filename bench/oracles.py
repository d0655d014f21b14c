"""Independent computations the benchmark checks factorbench against.

Nothing here imports factorbench. Each function uses a different method from
the program's kernel it checks:

- ``prime_pi_table``: Lucy-Hedgehog prime counting at every floor quotient
  x // d, where the program sieves smallest prime factors.
- ``mobius_upto``: the defining divisor sum  sum_{d | n} mu(d) = [n = 1],
  where the program multiplies signs prime by prime.
- ``summatory_fz_inverse``: S_z(x) = sum_{n <= x} of the Dirichlet inverse of
  F_z (1 at n = 1, -z elsewhere), from the floor-quotient recursion
  S_z(x) = 1 + z * sum_{d=2}^{x} S_z(x // d), where the program inverts a
  whole table. z = 1 gives Kalmar's sum of f, z = -1 the Mertens function.
- ``squarefree_counts_by_omega`` with ``fubini``: on a squarefree n with k
  prime factors f(n) is the Fubini number a(k), so sums of f weighted by a
  function of Omega over squarefree n reduce to a(k) times the number of
  squarefree n <= x with k prime factors.
"""

from __future__ import annotations

import math

import numpy as np


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n, from a boolean sieve of Eratosthenes."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.nonzero(is_prime)[0]


def prime_pi_table(x: int) -> dict[int, int]:
    """pi(v) for every v = x // d (d >= 1), by the Lucy-Hedgehog recursion."""
    r = math.isqrt(x)
    values = [x // d for d in range(1, r + 1)]
    values += list(range(values[-1] - 1, 0, -1))
    pi = {v: v - 1 for v in values}
    for p in range(2, r + 1):
        if pi[p] == pi[p - 1]:
            continue  # p is composite
        below = pi[p - 1]
        p2 = p * p
        for v in values:
            if v < p2:
                break
            pi[v] -= pi[v // p] - below
    return pi


def mobius_upto(n: int) -> list[int]:
    """mu[0..n] from mu(1) = 1 and sum_{d | m} mu(d) = 0 for m >= 2."""
    mu = [0] * (n + 1)
    if n >= 1:
        mu[1] = 1
    for d in range(1, n + 1):
        md = mu[d]
        if d > 1:
            md = mu[d] = -mu[d]  # mu[d] held sum_{e | d, e < d} mu(e)
        if md:
            for m in range(2 * d, n + 1, d):
                mu[m] += md
    return mu


def summatory_fz_inverse(x: int, z, memo: dict | None = None):
    """S_z(x) for the Dirichlet inverse of F_z; exact when z is an int.

    ``memo`` maps floor quotients to S_z and may be shared between calls with
    the same z; the values at every x // d are left in it.
    """
    memo = {} if memo is None else memo
    if x in memo:
        return memo[x]
    r = math.isqrt(x)
    quotients = sorted({x // d for d in range(1, r + 1)} | set(range(1, r + 1)))
    for v in quotients:
        if v in memo:
            continue
        total = 0
        d = 2
        while d <= v:
            q = v // d
            d_hi = v // q
            total += (d_hi - d + 1) * memo[q]
            d = d_hi + 1
        memo[v] = 1 + z * total
    return memo[x]


def fubini(k_max: int) -> list[int]:
    """Ordered Bell numbers a(0..k_max): a(k) = sum_{i=1}^{k} C(k, i) a(k - i)."""
    a = [1]
    for k in range(1, k_max + 1):
        a.append(sum(math.comb(k, i) * a[k - i] for i in range(1, k + 1)))
    return a


def squarefree_counts_by_omega(x: int, pi: dict[int, int] | None = None) -> list[int]:
    """counts[k] = #{n <= x squarefree with exactly k prime factors}.

    Recurses over products P of k increasing primes; the squarefree n = P q
    with a larger last prime q number pi(x // P) - pi(largest prime of P).
    ``pi`` must hold pi at every x // d (see ``prime_pi_table``).
    """
    if x < 1:
        return [0]
    pi = prime_pi_table(x) if pi is None else pi
    primes = [int(p) for p in primes_upto(math.isqrt(x))]
    counts = [1]  # n = 1

    def extend(P: int, index: int, k: int) -> None:
        # P has k prime factors, the largest being the index-th prime
        found = pi[x // P] - index
        if found <= 0:
            return
        if len(counts) == k + 1:
            counts.append(0)
        counts[k + 1] += found
        for j in range(index, len(primes)):
            p = primes[j]
            if P * p * p > x:
                break
            extend(P * p, j + 1, k + 1)

    extend(1, 0, 0)
    return counts
