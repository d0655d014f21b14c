"""Truncated arithmetic-function algebra: convolution, inversion, and series sums.

Values are plain Python scalars (int or complex) in a list indexed 1..N, so
integer-valued inputs stay exact through convolution and inversion; mixed or
complex inputs fall back to complex doubles.  Instances are treated as
immutable: every operation returns a new ArithFn.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .sieve import SieveTables, _big_omega, _divisors


@dataclass(frozen=True)
class ComplexPoint:
    """A point s = sigma + i t of the complex plane."""

    sigma: float
    t: float = 0.0

    def as_complex(self) -> complex:
        return complex(self.sigma, self.t)


@dataclass
class ArithFn:
    """A truncated arithmetic function: values[n] for 1 <= n <= limit.

    values[0] is an unused placeholder so indices match the mathematics.
    """

    limit: int
    values: list

    def __post_init__(self):
        if len(self.values) != self.limit + 1:
            raise ValueError(
                f"need {self.limit + 1} slots, got {len(self.values)}"
            )

    def __getitem__(self, n: int):
        return self.values[n]

    @classmethod
    def from_values(cls, values_1_to_n: Iterable) -> "ArithFn":
        vals = list(values_1_to_n)
        return cls(limit=len(vals), values=[0] + vals)

    @classmethod
    def ones(cls, limit: int) -> "ArithFn":
        return cls(limit=limit, values=[0] + [1] * limit)

    @classmethod
    def unit(cls, limit: int) -> "ArithFn":
        return cls(limit=limit, values=[0, 1] + [0] * (limit - 1))

    @classmethod
    def mobius(cls, limit: int, tables: SieveTables) -> "ArithFn":
        if limit > tables.limit:
            raise ValueError(f"limit {limit} beyond sieve limit {tables.limit}")
        return cls(limit=limit, values=[0] + [int(tables.mu[n]) for n in range(1, limit + 1)])

    @classmethod
    def completely_multiplicative(
        cls, limit: int, tables: SieveTables, prime_values: dict
    ) -> "ArithFn":
        """Extend values on primes to all of 1..limit via F(mn) = F(m)F(n)."""
        if limit > tables.limit:
            raise ValueError(f"limit {limit} beyond sieve limit {tables.limit}")
        vals = [0] * (limit + 1)
        vals[1] = 1
        for n in range(2, limit + 1):
            p = int(tables.spf[n])
            vals[n] = vals[n // p] * prime_values[p]
        return cls(limit=limit, values=vals)

    def scale(self, c) -> "ArithFn":
        return ArithFn(self.limit, [0] + [c * v for v in self.values[1:]])

    def csv_text(self) -> str:
        """CSV with header n,re,im and one row per n; integers are written exactly."""
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["n", "re", "im"])
        for n in range(1, self.limit + 1):
            v = self.values[n]
            if isinstance(v, int):
                w.writerow([n, int(v), 0])
            else:
                v = complex(v)
                w.writerow([n, repr(v.real), repr(v.imag)])
        return buf.getvalue()

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.csv_text())

    @classmethod
    def from_csv(cls, path) -> "ArithFn":
        """Read csv_text's layout; a real column such as 3.0 also reads as an int."""
        rows = {}
        with open(path, newline="") as fh:
            for rec in csv.DictReader(fh):
                im = float(rec["im"])
                try:
                    re = int(rec["re"])
                except ValueError:
                    re = float(rec["re"])
                    re = int(re) if re.is_integer() else re
                rows[int(rec["n"])] = complex(re, im) if im else re
        limit = max(rows)
        if set(rows) != set(range(1, limit + 1)):
            raise ValueError("CSV must cover n = 1..N without gaps")
        return cls(limit=limit, values=[0] + [rows[n] for n in range(1, limit + 1)])


def convolve(F: ArithFn, G: ArithFn) -> ArithFn:
    """(F*G)(n) = sum over ab = n of F(a) G(b)."""
    if F.limit != G.limit:
        raise ValueError(f"limit mismatch: {F.limit} vs {G.limit}")
    N = F.limit
    out = [0] * (N + 1)
    fv, gv = F.values, G.values
    for a in range(1, N + 1):
        fa = fv[a]
        if fa == 0:
            continue
        for b in range(1, N // a + 1):
            out[a * b] += fa * gv[b]
    return ArithFn(limit=N, values=out)


def dirichlet_inverse(F: ArithFn) -> ArithFn:
    """The function Ft with F * Ft = I, by the forward-substitution sweep.

    O(N log N): once Ft(m) is final, its contributions F(d) Ft(m) are pushed
    to all dm <= N.  Exact when F is integer-valued with F(1) = +-1.
    """
    N = F.limit
    f1 = F.values[1]
    if f1 == 0:
        raise ValueError("F(1) = 0: Dirichlet inverse does not exist")
    exact_unit = f1 == 1 or f1 == -1
    inv1 = f1 if exact_unit else 1 / f1
    acc = [0] * (N + 1)
    out = [0] * (N + 1)
    out[1] = inv1
    fv = F.values
    for m in range(1, N + 1):
        if m > 1:
            out[m] = -inv1 * acc[m] if exact_unit else -acc[m] / f1
        fm = out[m]
        if fm == 0:
            continue
        for d in range(2, N // m + 1):
            acc[d * m] += fv[d] * fm
    return ArithFn(limit=N, values=out)


def _f_k_recursion(values) -> Callable:
    """fk(m, j): the sum of values[n_1]...values[n_j] over ordered j-tuples
    of integers >= 2 with product m, memoized over (first factor, rest)."""
    memo: dict[tuple[int, int], complex] = {}

    def fk(m: int, j: int):
        if j == 1:
            return values[m] if m >= 2 else 0
        if m == 1:
            return 0
        key = (m, j)
        if key not in memo:
            memo[key] = sum(values[d] * fk(m // d, j - 1) for d in _divisors(m)[1:])
        return memo[key]

    return fk


def f_k_F(F: ArithFn, n: int, k: int) -> complex:
    """Sum of F(n_1)...F(n_k) over ordered k-tuples of integers >= 2 with
    product n.  Zero for k > Omega(n).  Exponential-size object computed by
    memoized recursion over (first factor, rest); oracle scale only.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n > F.limit:
        raise ValueError(f"n={n} beyond truncation limit {F.limit}")
    return _f_k_recursion(F.values)(n, k)


def inverse_via_alternating(F: ArithFn) -> ArithFn:
    """Inverse through the alternating sum I(n) + sum_k (-1)^k f_k(F; n).

    Independent of the forward-substitution sweep; cost grows quickly with
    Omega(n), so keep the limit around 10^3.  F is normalized to F(1) = 1
    internally and the normalization is undone on output.
    """
    N = F.limit
    f1 = F.values[1]
    if f1 == 0:
        raise ValueError("F(1) = 0: Dirichlet inverse does not exist")
    G = F if f1 == 1 else F.scale(1 / f1)
    fk = _f_k_recursion(G.values)
    out = [0] * (N + 1)
    out[1] = 1
    for n in range(2, N + 1):
        out[n] = sum((-1) ** k * fk(n, k) for k in range(1, _big_omega(n) + 1))
    if f1 != 1:
        out = [0] + [v / f1 for v in out[1:]]
    return ArithFn(limit=N, values=out)


def restrict_support(F: ArithFn, predicate: Callable[[int], bool]) -> ArithFn:
    """Pointwise product with the indicator of the predicate."""
    return ArithFn(
        F.limit,
        [0] + [F.values[n] if predicate(n) else 0 for n in range(1, F.limit + 1)],
    )


def summatory(F: ArithFn, x: float):
    """Partial sum of F(n) over n <= x."""
    cutoff = min(int(math.floor(x)), F.limit)
    if math.floor(x) > F.limit:
        raise ValueError(f"x={x} beyond truncation limit {F.limit}")
    return sum(F.values[1 : cutoff + 1])


def series_eval(F: ArithFn, s) -> complex:
    """Truncated Dirichlet series sum F(n) n^{-s} with n^{-s} = exp(-s log n)."""
    if isinstance(s, ComplexPoint):
        s = s.as_complex()
    total = 0
    for n in range(1, F.limit + 1):
        v = F.values[n]
        if v:
            total += v * cmath.exp(-s * math.log(n))
    return total
