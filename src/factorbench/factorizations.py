"""Ordered-factorization counting.

f(n) counts tuples of integers >= 2 with product n (order matters), f_k(n)
counts those of length exactly k, and f_even/f_odd split by length parity
(the unit contributes to f_even at n=1).  All counts are exact Python
integers, so there is no overflow to guard against; widths are checked
against the configured table budget instead.

Also houses integer partitions stored by part multiplicities, the tuple
counter d_lambda grouped by the multiset of Omega-values, and its
factorial upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .sieve import CapacityError, FactoredInt, SieveTables, _big_omega, _divisors, factorize

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
    """All nonzero d_lambda values of n at once, keyed by sorted part tuple."""
    return {k: v for k, v in _omega_profile_counts(n).items() if k}


@dataclass
class FactorisationTables:
    """Bulk tables of f, f_k, f_even, f_odd over 1..limit.

    fk[k] is the table of f_k for 1 <= k <= k_max (fk[0] is unused filler).
    With k_max=0 only f is stored; the parity splits need the per-k tables
    and are left empty in that case.
    """

    limit: int
    k_max: int
    f: list[int]
    fk: list[list[int]]
    f_even: list[int]
    f_odd: list[int]


def _divisor_sweep(prev: list[int], limit: int) -> list[int]:
    """out[n] = sum over divisors m of n with m <= n/2 of prev[m]."""
    out = [0] * (limit + 1)
    for m in range(1, limit // 2 + 1):
        pm = prev[m]
        if pm:
            for n in range(2 * m, limit + 1, m):
                out[n] += pm
    return out


def build_factorisation_tables(
    limit: int,
    k_max: int | None = None,
    tables: SieveTables | None = None,
    *,
    budget: int = 20_000_000,
) -> FactorisationTables:
    """Divisor-recurrence sweeps: f(1)=1, f(n) = sum_{d|n, d<n} f(d) for n >= 2,
    and f_k(n) = sum_{d|n, d<=n/2} f_{k-1}(d) with f_1(n) = [n >= 2].

    k_max defaults to the largest Omega(n) for n <= limit (so no f_k is
    truncated); pass k_max=0 to skip the per-k tables and keep only f.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if k_max is None:
        k_max = limit.bit_length() - 1 if limit >= 2 else 0
    if (k_max + 2) * (limit + 1) > budget:
        raise CapacityError(
            f"tables of size {(k_max + 2) * (limit + 1)} exceed budget {budget}"
        )

    f = [0] * (limit + 1)
    if limit >= 1:
        f[1] = 1
    for m in range(1, limit // 2 + 1):
        fm = f[m]
        for n in range(2 * m, limit + 1, m):
            f[n] += fm

    fk: list[list[int]] = [[]]
    f_even: list[int] = []
    f_odd: list[int] = []
    if k_max >= 1:
        f_even = [0] * (limit + 1)
        f_odd = [0] * (limit + 1)
        f_even[1] = 1  # the unit's empty product has even length zero
        f1 = [0, 0] + [1] * (limit - 1) if limit >= 2 else [0] * (limit + 1)
        fk.append(f1)
        prev = f1
        for k in range(2, k_max + 1):
            prev = _divisor_sweep(prev, limit)
            fk.append(prev)
        for k in range(1, k_max + 1):
            target = f_even if k % 2 == 0 else f_odd
            col = fk[k]
            for n in range(2, limit + 1):
                target[n] += col[n]

    return FactorisationTables(
        limit=limit, k_max=k_max, f=f, fk=fk, f_even=f_even, f_odd=f_odd
    )


def mu_via_parity(n: int, ftables: FactorisationTables) -> int:
    """f_even(n) - f_odd(n); agrees with the Mobius function."""
    if not 1 <= n <= ftables.limit:
        raise ValueError(f"n={n} out of table range [1, {ftables.limit}]")
    if not ftables.f_even:
        raise ValueError("tables were built with k_max=0; parity splits unavailable")
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
