"""Ordered-factorization counting.

f(n) counts tuples of integers >= 2 with product n (order matters), f_k(n)
counts those of length exactly k, and f_even/f_odd split by length parity
(the unit contributes to f_even at n=1).  All three depend only on n's prime
signature, the multiset of its exponents, so the tables are computed once
per signature by MacMahon's formula and read per n through a signature id,
and sums over n <= x run once per signature, on count_by_signature.  All
counts are exact Python integers, so there is no overflow to guard against;
the table limit is capped by the sieve budget.

Also houses integer partitions stored by part multiplicities, the tuple
counter d_lambda grouped by the multiset of Omega-values, and its
factorial upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, takewhile
from operator import mul

import numpy as np

from .sieve import FactoredInt, SieveTables, _big_omega, _divisors, build_sieve

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
    """All nonzero d_lambda values of n at once, keyed by sorted part tuple.
    Pinned by ACCEPT-08; the package never calls it."""
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
    and reps[ids[n]] the smallest n with it; f is a per-n list of shared
    ints, the others read through ids."""

    limit: int
    k_max: int
    ids: np.ndarray
    signatures: list[tuple[int, ...]]
    reps: list[int]
    f: list[int]
    fk: list[_BySignature]
    f_even: _BySignature
    f_odd: _BySignature


def _key_weights(limit: int, primes) -> tuple[list[int], list[int]]:
    """Weights w_e and radices c_e + 1 of the signature key, at index e - 1
    for e = 1 .. floor(log2 limit).  c_e, the largest m with
    (p_1 ... p_m)^e <= limit, bounds how many primes an n <= limit has to
    exponent exactly e, and w_e = prod_{e' < e} (c_e' + 1)."""
    primorials = list(takewhile(lambda q: q <= limit, accumulate(map(int, primes), mul)))
    radices = [1 + sum(q**e <= limit for q in primorials) for e in range(1, limit.bit_length())]
    return list(accumulate(radices[:-1], mul, initial=1)), radices


def _signature_ids(limit: int, tables: SieveTables) -> tuple[np.ndarray, list, list[int]]:
    """int32 ids over 0..limit (n = 0 shares n = 1's), each id's exponent
    multiset and its smallest n.

    n's key sums w_a over its p^a || n, so its mixed-radix digit e counts the
    primes with exponent e.  It is built as w_1 = 1 per distinct prime (omega)
    plus w_e - w_{e-1} on every multiple of p^e, e >= 2.  Decodes are checked.
    """
    weights, radices = _key_weights(limit, tables.primes)
    keys = tables.small_omega[: limit + 1].astype(np.int64)
    for p in tables.primes[: np.searchsorted(tables.primes, math.isqrt(limit), "right")].tolist():
        pe, e = p * p, 2
        while pe <= limit:
            keys[pe::pe] += weights[e - 1] - weights[e - 2]
            pe, e = pe * p, e + 1
    uniq = np.unique(keys)
    ids = np.empty(limit + 1, dtype=np.int32)
    for lo in range(0, limit + 1, 1 << 16):  # in chunks: searchsorted returns int64
        ids[lo : lo + (1 << 16)] = np.searchsorted(uniq, keys[lo : lo + (1 << 16)])
    signatures, reps = [], []
    for key in uniq.tolist():
        sig = tuple(e for e in range(len(radices), 0, -1)
                    for _ in range(key // weights[e - 1] % radices[e - 1]))
        smallest = math.prod(int(p) ** a for p, a in zip(tables.primes, sig))
        if sum(weights[a - 1] for a in sig) != key or smallest > limit:
            raise AssertionError(f"signature key {key} decodes to {sig}, which is not exact")
        signatures.append(sig)
        reps.append(smallest)
    return ids, signatures, reps


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
    limit (capped like any sieve) when tables is None."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if tables is None:
        tables = build_sieve(max(limit, 2))
    elif tables.limit < limit:
        raise ValueError(f"sieve limit {tables.limit} is below table limit {limit}")
    ids, signatures, reps = _signature_ids(limit, tables)
    rows = [_fk_of_signature(sig) for sig in signatures]
    k_max = limit.bit_length() - 1
    fk = [_BySignature([r[k] if k < len(r) else 0 for r in rows], ids) for k in range(k_max + 1)]
    f = np.array([sum(r) for r in rows], dtype=object)[ids].tolist()
    f[0] = 0
    f_even = _BySignature([sum(r[0::2]) for r in rows], ids)
    f_odd = _BySignature([sum(r[1::2]) for r in rows], ids)
    return FactorisationTables(limit, k_max, ids, signatures, reps, f, fk, f_even, f_odd)


def count_by_signature(ftables: FactorisationTables, cutoff: int, mask=None, weights=None) -> list[int]:
    """Per signature id, how many n in 1..cutoff have it and mask[n] (all n
    when mask is None), or the sum of their weights[n], small integers such
    as mu: bincount adds those in float64, exactly below 2^53 (cutoff < 2^31)."""
    counts = np.zeros(len(ftables.reps), np.int64 if weights is None else np.float64)
    for lo in range(1, cutoff + 1, 1 << 20):  # chunks, as bincount copies its input to intp
        chunk = slice(lo, min(lo + (1 << 20), cutoff + 1))
        keep = slice(None) if mask is None else mask[chunk]
        w = None if weights is None else weights[chunk][keep]
        counts += np.bincount(ftables.ids[chunk][keep], w, minlength=len(counts))
    return [int(c) for c in counts]


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
