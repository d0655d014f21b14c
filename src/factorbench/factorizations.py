"""Ordered-factorization counting.

f(n) counts tuples of integers >= 2 with product n (order matters), f_k(n)
counts those of length exactly k, and f_even/f_odd split by length parity
(the unit contributes to f_even at n=1).  All three depend only on n's prime
signature, the multiset of its exponents, so the tables are computed once
per signature by MacMahon's formula and read per n through a signature id,
which n takes from n / spf(n) along the sieve's walk.  Every sum over n <= x
runs once per signature: FactorisationTables.census reads N_sigma(x), the
number of n <= x of each signature, from census.census_counts, and the sums
weight those counts by f at each signature's smallest n (sum_by_signature)
and by the per-signature mu and Omega columns.  The signature list and the
census live in census.py; the kappa-free Omega profiles of counting read
the same cached census.  All counts are exact Python integers; the sieve
budget caps the table limit.

Also houses integer partitions stored by part multiplicities, the tuple
counter d_lambda grouped by the multiset of Omega-values, and its
factorial upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .census import _signatures, census_counts
from .sieve import (_COUNT_CHUNK, FactoredInt, SieveTables, _big_omega, _divisors, _halving_blocks, _x_cutoff,
                    build_sieve)

MAX_PARTITION_ELL = 90


@dataclass(frozen=True)
class PartitionMultiset:
    """A partition of ell stored as multiplicities: mults[k] copies of part k."""

    ell: int
    mults: tuple[tuple[int, int], ...]  # (part, multiplicity), parts increasing

    def __post_init__(self):
        if sum(k * m for k, m in self.mults) != self.ell:
            raise ValueError(f"parts do not sum to {self.ell}: {self.mults}")
        if any(m < 1 for _, m in self.mults):
            raise ValueError(f"zero multiplicity stored: {self.mults}")

    @property
    def num_parts(self) -> int:
        """m = r = total number of parts."""
        return sum(m for _, m in self.mults)

    @property
    def parts(self) -> tuple[int, ...]:
        """The partition as a nondecreasing tuple."""
        out: list[int] = []
        for k, m in self.mults:
            out.extend([k] * m)
        return tuple(out)

    @classmethod
    def from_parts(cls, parts) -> "PartitionMultiset":
        parts = sorted(parts)
        if not parts or any(p < 1 for p in parts):
            raise ValueError(f"parts must be positive integers, got {parts}")
        mults: list[tuple[int, int]] = []
        for p in parts:
            if mults and mults[-1][0] == p:
                mults[-1] = (p, mults[-1][1] + 1)
            else:
                mults.append((p, 1))
        return cls(ell=sum(parts), mults=tuple(mults))


def enumerate_partitions(ell: int) -> list[PartitionMultiset]:
    """All partitions of ell, each exactly once, parts nondecreasing."""
    if not 1 <= ell <= MAX_PARTITION_ELL:
        raise ValueError(f"ell must be in [1, {MAX_PARTITION_ELL}], got {ell}")
    out: list[PartitionMultiset] = []
    parts: list[int] = []

    def rec(remaining: int, minimum: int) -> None:
        if remaining == 0:
            out.append(PartitionMultiset.from_parts(parts))
            return
        for k in range(minimum, remaining + 1):
            parts.append(k)
            rec(remaining - k, k)
            parts.pop()

    rec(ell, 1)
    return out


def d_lambda_bound(lam: PartitionMultiset) -> int:
    """ell!/prod (k!)^{m_k} * m!/prod m_k!  (exact; both factors are multinomials)."""
    num = math.factorial(lam.ell) * math.factorial(lam.num_parts)
    den = 1
    for k, m in lam.mults:
        den *= math.factorial(k) ** m * math.factorial(m)
    q, r = divmod(num, den)
    if r:  # multinomial products are always integral
        raise AssertionError(f"non-integer bound for {lam}")
    return q


@lru_cache(maxsize=None)
def _omega_profile_counts(n: int) -> dict[tuple[int, ...], int]:
    """Counts of ordered factorization tuples of n, grouped by the sorted
    multiset of Omega-values of the entries.  Key () is the empty tuple (n=1)."""
    if n == 1:
        return {(): 1}
    out: dict[tuple[int, ...], int] = {}
    for d in _divisors(n)[1:]:
        od = _big_omega(d)
        for profile, c in _omega_profile_counts(n // d).items():
            key = tuple(sorted(profile + (od,)))
            out[key] = out.get(key, 0) + c
    return out


def d_lambda(n: FactoredInt, lam: PartitionMultiset) -> int:
    """Number of ordered tuples with product n whose Omega-multiset equals lam.

    Verification oracle (memoized enumeration), not a bulk kernel.
    """
    if n.big_omega != lam.ell:
        raise ValueError(f"Omega({n.n})={n.big_omega} but partition is of {lam.ell}")
    return _omega_profile_counts(n.n).get(lam.parts, 0)


def d_lambda_all(n: int) -> dict[tuple[int, ...], int]:
    """All nonzero d_lambda values of n at once, keyed by sorted part tuple;
    verify's d-lambda-bound check reads one per n."""
    return {k: v for k, v in _omega_profile_counts(n).items() if k}


@dataclass(frozen=True)
class _BySignature:
    """A per-n table stored once per prime signature: t[n] = values[ids[n]]."""

    values: list[int]
    ids: np.ndarray

    def __getitem__(self, n: int) -> int:
        return self.values[self.ids[n]]


@dataclass
class FactorisationTables:
    """f, f_k (k <= k_max = max Omega(n); f_0 is the unit), f_even and f_odd
    over 1..limit.  signatures[ids[n]] is n's exponent multiset, decreasing,
    reps[ids[n]] the smallest n with it, and mu[ids[n]] and big_omega[ids[n]]
    the sieve's mu and Omega at that n, which the sums over n <= x read; f
    is a per-n list of shared ints, the others read through ids.  The ids
    index census._signatures(limit), whose census counts the n <= x of
    each signature."""

    limit: int
    k_max: int
    ids: np.ndarray
    signatures: list[tuple[int, ...]]
    reps: list[int]
    mu: list[int]
    big_omega: list[int]
    f: list[int]
    fk: list[_BySignature]
    f_even: _BySignature
    f_odd: _BySignature

    def census(self, x: float) -> tuple[int, ...]:
        """Per signature id, how many n in 1..floor(x) have it: the cached
        census_counts, shared with every other caller at that cutoff."""
        return census_counts(_x_cutoff(x, 0, self), self.limit)


def _signature_ids(limit: int, tables: SieveTables, raised: np.ndarray) -> np.ndarray:
    """int16 ids over 0..limit (n = 0 shares n = 1's) into _signatures(limit),
    whose raised table is raised.

    On the sieve's walk, with p = spf(n) and m = n / p, p's exponent in n is
    one more than in m if spf(m) = p and 1 if not (spf[1] = 0 matches no
    prime), and ids[n] = raised[ids[m], that exponent]. At the primes the
    sieve stores as 0, m = 0 reads exps and ids of 1, and the test is true.
    """
    ids = np.zeros(limit + 1, dtype=np.int16)
    exps = np.zeros(limit + 1, dtype=np.int8)  # exponent of spf(n) in n
    for block, m in _halving_blocks(tables.spf, limit + 1):
        exps[block] = np.where(tables.spf[m] == tables.spf[block], exps[m] + 1, 1)
        ids[block] = raised[ids[m], exps[block]]
    if ids.min() < 0:
        raise AssertionError(f"n = {int(ids.argmin())} raised to no signature <= {limit}")
    return ids


def _fk_of_signature(sig: tuple[int, ...]) -> list[int]:
    """[f_0, ..., f_Omega] of any n with exponent multiset sig, by MacMahon:
    f_k = sum_j (-1)^j C(k, j) P(k - j), where P(m) = prod_i C(a_i + m - 1, a_i)
    counts the ways to spread each exponent over m ordered factors >= 1."""
    P = [math.prod(math.comb(a + m - 1, a) for a in sig) for m in range(sum(sig) + 1)]
    return [sum((-1) ** j * math.comb(k, j) * P[k - j] for j in range(k + 1))
            for k in range(len(P))]


def build_factorisation_tables(
    limit: int, tables: SieveTables | None = None
) -> FactorisationTables:
    """The tables over 1..limit, from the sieve tables, or from a sieve to
    limit (capped like any sieve) when tables is None.  The sieve is read
    only by the signature-id walk and the gathers of mu and Omega at the
    reps; a sieve built here is freed before the f list fills."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if tables is None:
        tables = build_sieve(max(limit, 2))
    elif tables.limit < limit:
        raise ValueError(f"sieve limit {tables.limit} is below table limit {limit}")
    signatures, reps, raised = _signatures(limit)
    ids = _signature_ids(limit, tables, raised)
    mu, big_omega = tables.mu[reps].tolist(), tables.big_omega[reps].tolist()
    del tables
    rows = [_fk_of_signature(sig) for sig in signatures]
    k_max = limit.bit_length() - 1
    fk = [_BySignature([r[k] if k < len(r) else 0 for r in rows], ids) for k in range(k_max + 1)]
    f_of_id, f = np.array([sum(r) for r in rows], dtype=object), [0]  # f[0] = 0
    for lo in range(1, limit + 1, _COUNT_CHUNK):  # every n of a signature gets its one int
        f.extend(f_of_id[ids[lo : lo + _COUNT_CHUNK]])
    f_even = _BySignature([sum(r[0::2]) for r in rows], ids)
    f_odd = _BySignature([sum(r[1::2]) for r in rows], ids)
    # the tables' lists are copies, so a write to them leaves the cached ones alone
    return FactorisationTables(limit, k_max, ids, list(signatures), list(reps), mu, big_omega, f, fk,
                               f_even, f_odd)


def sum_by_signature(ftables: FactorisationTables, weights) -> int:
    """sum over signature ids of weights[id] * f(reps[id]), exactly; weights
    counts[id] g(reps[id]) give the sum of g f over the counted n."""
    return sum(w * ftables.f[rep] for w, rep in zip(weights, ftables.reps) if w)


def mu_via_parity(n: int, ftables: FactorisationTables) -> int:
    """f_even(n) - f_odd(n); agrees with the Mobius function."""
    if not 1 <= n <= ftables.limit:
        raise ValueError(f"n={n} out of table range [1, {ftables.limit}]")
    return ftables.f_even[n] - ftables.f_odd[n]


def enumerate_ordered_factorizations(n: int) -> list[tuple[int, ...]]:
    """Brute-force list of all ordered tuples of integers >= 2 with product n.

    Exponential in Omega(n); oracle use only.  n=1 yields the empty tuple.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return [()]
    out: list[tuple[int, ...]] = []
    for d in _divisors(n)[1:]:
        for rest in enumerate_ordered_factorizations(n // d):
            out.append((d,) + rest)
    return out
