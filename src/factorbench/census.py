"""N_sigma(x): how many n <= x have each prime signature sigma.

A prime signature is n's exponent multiset, decreasing. mu, Omega, being
kappa-free, f and f_k all depend on n only through it, so every sum over
n <= x of them is a sum over signatures weighted by these counts. The census
needs x and the limit of the signature list, nothing else: pi(v) at each
v = x // m comes from a Lucy-Hedgehog table, and the walk takes only the
primes <= isqrt(x), which that table gives. No sieve to x is built, and
x may lie past any sieve's limit. Each census is cached on (x, limit), so
the callers in one process share one census per cutoff.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)  # their product is about 3.04 * 10^14


@lru_cache(maxsize=8)
def _signatures(limit: int) -> tuple[list[tuple[int, ...]], list[int], np.ndarray]:
    """The decreasing exponent multisets (a_1, a_2, ...) with 2^a_1 3^a_2 ...
    <= limit, () first, each with its smallest n, and raised: raised[i, e] is
    the id of signatures[i] with its first e - 1 raised to e (e = 1 appends
    a 1), or -1. Raising the new prime's exponent from 1 to e steps through
    raised[., 2], ..., raised[., e]. Cached, so callers must not change the
    lists; raised is read-only. A limit at or past the product of _PRIMES
    would need a prime past them and is a ValueError."""
    if limit >= math.prod(_PRIMES):
        raise ValueError(f"signature limit {limit} needs primes past {_PRIMES[-1]}")
    signatures, reps = [()], [1]
    for sig, rep in zip(signatures, reps):  # both grow as read, one prime longer
        p, a = _PRIMES[len(sig)], 1
        while a <= (sig[-1] if sig else a) and rep * p**a <= limit:
            signatures.append(sig + (a,))
            reps.append(rep * p**a)
            a += 1
    index = {sig: i for i, sig in enumerate(signatures)}
    raised = np.full((len(signatures), limit.bit_length() + 1), -1, dtype=np.int16)
    for i, sig in enumerate(signatures):
        for e in {1, *(a + 1 for a in sig)}:
            j = (sig + (0,)).index(e - 1)  # e = 1 raises a 0 past the end
            raised[i, e] = index.get(sig[:j] + (e,) + sig[j + 1 :], -1)
    raised.flags.writeable = False
    return signatures, reps, raised


def _pi_table(x: int):
    """Lucy-Hedgehog, for x >= 2: pi, which maps an int64 array of values
    v = x // m >= 1 to pi(v), and the primes <= r = isqrt(x).

    small[v] = pi(v) for v <= r and large[d] = pi(x // d) for d <= r. Both
    start at the count of 2..v. Each prime p <= r, in increasing order,
    strikes the n > p whose smallest prime factor is p: at v they number
    S(v // p) - pi(p - 1), with S read from both tables before p's update.
    p is prime iff pi(p - 1) < small[p] when p's turn comes.
    """
    r = math.isqrt(x)
    d = np.arange(r + 1, dtype=np.int64)
    small, large = d - 1, x // np.maximum(d, 1) - 1
    small[0] = 0
    for p in range(2, r + 1):
        if (below := small[p - 1]) < small[p]:  # p is prime
            dp = d[1 : min(r, x // (p * p)) + 1] * p
            # np.where reads both tables at every d, so both indices are clipped
            large[1 : len(dp) + 1] -= np.where(dp <= r, large[np.minimum(dp, r)],
                                               small[np.minimum(x // dp, r)]) - below
            small[p * p :] -= small[d[p * p :] // p] - below

    def pi(v):  # for v <= r the small table, else x // v <= r indexes the large one
        return np.where(v <= r, small[np.minimum(v, r)], large[np.minimum(x // v, r)])

    return pi, np.flatnonzero(np.diff(small)) + 1


@lru_cache(maxsize=64)
def census_counts(x: int, limit: int) -> tuple[int, ...]:
    """Per id of _signatures(limit), how many n in 1..x have that signature,
    as Python ints, for 0 <= x <= limit; a larger x is a ValueError. The
    walk goes over the products P of prime powers, not over n.

    A node (v, i, sid) stands for a P whose primes lie below primes[i], with
    signature id sid and v = x // P. It counts the n = P q, q a prime >=
    primes[i], as pi(v) - i. Each p = primes[j], j >= i, with p^2 <= v then
    steps e = 1, 2, ... on v // p^e = x // (P p^e): while p <= v // p^e it
    counts n = P p^(e+1), and while pi(v // p^e) > j + 1, P p^e is a node of
    the next level. So every n > 1 is counted once, from the node of its
    part below its largest prime.
    """
    if x > limit:
        raise ValueError(f"x={x} beyond signature limit {limit}")
    raised = _signatures(limit)[2]
    counts = np.zeros(len(raised), np.int64)
    counts[0] = x >= 1  # n = 1
    if x < 2:
        return tuple(counts.tolist())
    pi, primes = _pi_table(x)  # every v of the walk is x // m for some m, and v >= 1
    v, i, sid = np.full(1, x, np.int64), np.zeros(1, np.int64), np.zeros(1, raised.dtype)  # the root, P = 1
    while len(v):
        one = raised[sid, 1]
        np.add.at(counts, one, pi(v) - i)  # >= 1: the root counts the prime 2, a child primes[i]
        width = np.maximum(np.searchsorted(primes**2, v, "right") - i, 0)
        j = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width - i, width)  # each node's i, i + 1, ...
        p = primes[j]
        v, s, e, children = np.repeat(v, width) // p, np.repeat(one, width), 1, [(v[:0], j[:0], one[:0])]
        while len(v):  # v = x // (P p^e); children[0] is typed, so concatenate never gets an empty list
            spawn = pi(v) > j + 1
            children.append((v[spawn], j[spawn] + 1, s[spawn]))
            up = p <= v
            v, p, j, e = v[up] // p[up], p[up], j[up], e + 1
            s = raised[s[up], e]
            counts += np.bincount(s, minlength=len(counts))
        v, i, sid = (np.concatenate(column) for column in zip(*children))
    return tuple(counts.tolist())
