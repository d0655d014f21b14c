"""Truncated arithmetic-function algebra: convolution, inversion, and series sums.

Values are plain Python scalars (int, float or complex) in a list indexed
1..N, so integer-valued inputs stay exact through convolution and inversion;
mixed or complex inputs fall back to complex doubles.  Instances are treated as
immutable: every operation returns a new ArithFn.

convolve and dirichlet_inverse sweep strided slices of numpy arrays, and
every result equals the plain double loop's in value, type and signed zero:

- Each cell takes its terms in increasing order of the first factor: a in
  (F*G)(ab), m in the push F(d) Ft(m) to dm.  Where one numpy step covers a
  range of those factors, the steps that reach a cell run with the other
  factor descending.
- A term whose F(a) or Ft(m) compares equal to 0 is skipped, as the loop
  skips it; adding it would turn an int 0 into 0j or flip a zero's sign.

The arrays are int64 where that is provably exact, and dtype=object
otherwise; the same sweep runs on either:

- int64 needs every value to be a Python int (type int, not bool or a
  numpy scalar), F(1) = +-1 for the inverse, and a bound below 2^62 on
  every sum and term the sweep makes.  The inverse's bound is the same sweep
  run in float64 on (1, -|F(2)|, -|F(3)|, ...): its inverse B has
  B(n) = sum over d | n, d > 1, of |F(d)| B(n/d), so B(n) >= |Ft(n)|, and
  each term |F(d) Ft(m)| and each partial sum of cell dm is at most B(dm).
  The convolution's bound is max|F| max|G| 2 isqrt(N), as n has at most
  2 isqrt(n) divisors.  2^62 is half of int64's range: the float64 sums of
  non-negative terms round by far less than that factor of 2.  tolist()
  turns int64 into Python ints, so the result is the object sweep's in
  value and type.
- dtype=object covers floats, complex values, ints past the bound and a
  non-unit F(1).  Each element operation is the same Python +, -, * or /
  on the same operands as in the loop.  Complex values stay there because
  numpy's complex128 multiply may fuse a multiply-add and round
  differently.  Each step touches at most _CHUNK elements, because an
  object step makes a new Python object per element: unchunked steps raised
  the peak RSS of five F_z inversions and convolutions at N = 2*10^5 from
  146 to 163 MB.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable

import numpy as np

from .sieve import SieveTables, _big_omega, _divisors

_CHUNK = 4096
_INT64_SAFE = 2**62  # a bound below this proves int64 holds every sum, with 2x to spare


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
        return cls(limit=limit, values=[0] + tables.mu[1 : limit + 1].tolist())

    @classmethod
    def completely_multiplicative(
        cls, limit: int, tables: SieveTables, prime_values: dict
    ) -> "ArithFn":
        """Extend values on primes to all of 1..limit via F(mn) = F(m)F(n)."""
        if limit > tables.limit:
            raise ValueError(f"limit {limit} beyond sieve limit {tables.limit}")
        spf = tables.spf[: limit + 1].tolist()
        vals = [0] * (limit + 1)
        vals[1] = 1
        for n in range(2, limit + 1):
            p = spf[n]
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
        if not rows:
            raise ValueError(f"CSV {path} has no rows")
        limit = max(rows)
        if set(rows) != set(range(1, limit + 1)):
            raise ValueError("CSV must cover n = 1..N without gaps")
        return cls(limit=limit, values=[0] + [rows[n] for n in range(1, limit + 1)])


def _int64_or_none(values) -> np.ndarray | None:
    """values as an int64 array if every one is a Python int that fits, else None."""
    if set(map(type, values)) != {int}:
        return None
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return None


def _abs_max(a: np.ndarray) -> int:
    return max(int(a.max()), -int(a.min()))


def _chunks(lo: int, hi: int):
    """Slices that cover lo..hi-1 in increasing order, _CHUNK long at most."""
    for start in range(lo, hi, _CHUNK):
        yield slice(start, min(start + _CHUNK, hi))


def convolve(F: ArithFn, G: ArithFn) -> ArithFn:
    """(F*G)(n) = sum over ab = n of F(a) G(b), skipping the a with F(a) = 0.

    Hyperbola split at r = isqrt(N): each a <= r pushes F(a) G(b) to every
    ab <= N at once; then each b <= N/(r+1), in descending order, pushes to
    the ab with r < a <= N/b.  Every cell takes its terms in increasing a.
    """
    if F.limit != G.limit:
        raise ValueError(f"limit mismatch: {F.limit} vs {G.limit}")
    N = F.limit
    f = _int64_or_none(F.values)
    g = None if f is None else _int64_or_none(G.values)
    # n has at most 2 isqrt(n) divisors, so every sum is at most this bound
    if g is None or _abs_max(f) * _abs_max(g) * 2 * math.isqrt(N) >= _INT64_SAFE:
        f, g = np.array(F.values, dtype=object), np.array(G.values, dtype=object)
    return ArithFn(limit=N, values=_convolve_sweep(f, g).tolist())


def _convolve_sweep(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """convolve on arrays f and g of one dtype, in that dtype."""
    N = len(f) - 1
    out = np.zeros(N + 1, dtype=f.dtype)
    nonzero = ~(f == 0)
    r = math.isqrt(N)
    for a in range(1, r + 1):
        if nonzero[a]:
            for bs in _chunks(1, N // a + 1):
                cells = out[a * bs.start : a * bs.stop : a]
                cells += f[a : a + 1] * g[bs]
    big = r + 1 + np.flatnonzero(nonzero[r + 1 :])
    for b in range(N // (r + 1), 0, -1):
        for s in _chunks(0, np.searchsorted(big, N // b, side="right")):
            out[big[s] * b] += f[big[s]] * g[b : b + 1]
    return out


def dirichlet_inverse(F: ArithFn) -> ArithFn:
    """The function Ft with F * Ft = I, by the forward-substitution sweep.

    O(N log N): once Ft(m) is final, its contributions F(d) Ft(m) are pushed
    to all dm <= N, skipping the m with Ft(m) = 0.  Exact when F is
    integer-valued with F(1) = +-1.
    """
    f1 = F.values[1]
    if f1 == 0:
        raise ValueError("F(1) = 0: Dirichlet inverse does not exist")
    f = _int64_or_none(F.values) if f1 == 1 or f1 == -1 else None
    if f is not None:
        # the inverse of (1, -|F(2)|, -|F(3)|, ...) bounds every sum the sweep makes
        majorant = -np.abs(f.astype(np.float64))
        majorant[1] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            if not _inverse_sweep(majorant).max() < _INT64_SAFE:  # also when NaN
                f = None
    if f is None:
        f = np.array(F.values, dtype=object)
    return ArithFn(limit=F.limit, values=_inverse_sweep(f).tolist())


def _inverse_sweep(f: np.ndarray) -> np.ndarray:
    """dirichlet_inverse on an array f, in f's dtype.

    Each m <= isqrt(N) is finalized and pushed on its own.  Above that, a
    block (M, 2M] hears only from m <= M, so it is finalized whole and
    pushed for each d, in descending order.
    """
    N = len(f) - 1
    f1 = f[1]
    exact_unit = f1 == 1 or f1 == -1
    inv1 = f1 if exact_unit else 1 / f1
    acc = np.zeros(N + 1, dtype=f.dtype)
    out = np.zeros(N + 1, dtype=f.dtype)
    out[1] = inv1
    r = math.isqrt(N)
    for m in range(1, r + 1):
        if m > 1:
            out[m] = -inv1 * acc[m] if exact_unit else -acc[m] / f1
        if out[m] == 0:
            continue
        for ds in _chunks(2, N // m + 1):
            cells = acc[ds.start * m : ds.stop * m : m]
            cells += f[ds] * out[m : m + 1]
    neg_inv1 = -f[1:2]
    M = r
    while M < N:
        top = min(2 * M, N)
        for s in _chunks(M + 1, top + 1):
            out[s] = neg_inv1 * acc[s] if exact_unit else -acc[s] / f[1:2]
            acc[s] = 0  # final cells take no more terms; free their sums
        ms = M + 1 + np.flatnonzero(~(out[M + 1 : top + 1] == 0))
        ft = out[ms]
        for d in range(N // (M + 1), 1, -1):
            for s in _chunks(0, np.searchsorted(ms, N // d, side="right")):
                acc[ms[s] * d] += f[d : d + 1] * ft[s]
        M = top
    return out


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
    """Truncated Dirichlet series sum F(n) n^{-s} with n^{-s} = exp(-s log n).

    The terms are doubles, and math.fsum sums the real and the imaginary
    parts; an exact integer F(n) too large for a double is a ValueError that
    names n.  Zero terms are left out, as 0 * inf is NaN where n^{-s}
    overflows.  The terms are made _CHUNK at a time, which keeps the
    temporaries small.
    """
    if isinstance(s, ComplexPoint):
        s = s.as_complex()
    terms = []
    with np.errstate(over="ignore", invalid="ignore"):
        for c in _chunks(1, F.limit + 1):
            v = _doubles(F.values[c], c.start)
            n = np.flatnonzero(v)
            terms.append(v[n] * np.exp(-s * np.log(n + c.start)))
        return complex(_fsum([t.real for t in terms]), _fsum([t.imag for t in terms]))


def _doubles(values: list, first: int) -> np.ndarray:
    """values as complex doubles; an int too large for one is a ValueError
    that names its n, counting the first value as n = first."""
    try:
        return np.array(values, dtype=np.complex128)
    except OverflowError:
        for n, v in enumerate(values, first):
            try:
                complex(v)
            except OverflowError:
                raise ValueError(
                    f"F({n}) does not fit a double: it is an integer of "
                    f"{v.bit_length()} bits"
                ) from None
        raise


def _fsum(parts: list) -> float:
    """math.fsum over arrays, or their plain sum where fsum refuses: inf - inf,
    or an intermediate sum past the float range."""
    try:
        return math.fsum(chain.from_iterable(p.tolist() for p in parts))
    except (OverflowError, ValueError):
        return float(sum(p.sum() for p in parts))
