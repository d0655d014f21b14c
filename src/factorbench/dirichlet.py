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

The sweep runs on one of three representations, the first that holds the
input exactly:

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
- Planes (_Planes) hold complex values as the float64 real and imaginary
  planes of one complex128 array, with a bool array that marks which
  values are Python complex numbers.  They are used where F(1) is the int
  1 or -1 and every later value is a Python complex or the int 0, with at
  least one complex: F_z, its squarefree restriction and F_z * Ft_z.  A
  product is formed as CPython 3.11 multiplies complex numbers,
  (a c - b d, a d + b c), with each multiply and each add its own float64
  ufunc: numpy's complex128 multiply may fuse a multiply-add and round
  differently.  An int enters a product or a sum as (float(v), +0.0), as
  in int * complex and int + complex, and an int times an int is the
  exact int product with a +0.0 zero.  The marks decide which results
  come back as the ints 0 or +-1 and which as complex.  A table shorter
  than N = 2^13 runs the object sweep, which is faster there, and so does
  an interpreter that mixes an int into complex arithmetic in another way.
- dtype=object covers the rest: floats, other ints, ints past the bound,
  a complex or non-unit F(1).  Each element operation is the same Python
  +, -, * or / on the same operands as in the loop.  Each step touches at
  most _CHUNK elements, because an object step makes a new Python object
  per element: unchunked steps raised the peak RSS of five F_z inversions
  and convolutions at N = 2*10^5 from 146 to 163 MB.

The plane and object sweeps run under np.errstate(all="ignore"): a value
that overflows becomes inf or nan, as in Python, and numpy warns of
nothing.
"""

from __future__ import annotations

import csv
import io
import math
import mmap
import operator
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import Callable, Iterable

import numpy as np

from .sieve import SieveTables, _big_omega, _divisors

_CHUNK = 4096
_INT64_SAFE = 2**62  # a bound below this proves int64 holds every sum, with 2x to spare
# whether this interpreter mixes an int into complex arithmetic as (float(v), +0.0),
# which the planes copy
_INT_ENTERS_AS_COMPLEX = repr(-1 * 0j) == "(-0+0j)" and repr(0 + complex(0.0, -0.0)) == "0j"


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


# Planes from this N up.  A plane step makes a dozen numpy calls where an
# object step makes three, so below it the objects are faster: on a 2-vCPU
# VM a complex inverse at N = 2000 took 3.9 ms on planes and 1.9 ms on
# objects, the two cost about the same from 4096 to 8192, and at 2*10^5
# planes are 3x faster.
_PLANES_MIN_N = 2**13

# the marks of a product with a complex value: all complex, broadcast to its length
_ALL_COMPLEX = np.ones(1, dtype=bool)
_ALL_COMPLEX.flags.writeable = False


class _Planes:
    """Python complex values and the ints 0, 1 and -1 as one complex128
    array c, whose float64 real and imaginary planes the arithmetic reads,
    and a bool array k that marks the complex ones.  An int v is held as
    (float(v), +0.0), the complex number CPython makes of it in int + complex
    and int * complex.

    The operators are the ones the sweeps use, and each gives per element
    what the same Python operation gives.  An int index reads or writes one
    Python value.
    """

    __slots__ = ("c", "k")

    def __init__(self, c: np.ndarray, k: np.ndarray):
        self.c, self.k = c, k

    @classmethod
    def zeros(cls, n: int) -> "_Planes":
        # c lives in anonymous pages, which go back to the OS when c is freed.
        # glibc keeps a freed malloc block of this size on its heap, where
        # the Python objects of the result list, made in arenas of their
        # own, cannot reuse it: that raised the zfamily peak RSS by 3 to 5%.
        c = np.frombuffer(mmap.mmap(-1, 16 * n), dtype=np.complex128)
        return cls(c, np.zeros(n, dtype=bool))

    def __len__(self) -> int:
        return len(self.c)

    def __getitem__(self, key):
        if isinstance(key, int):
            v = self.c[key].item()
            return v if self.k[key] else int(v.real)
        return _Planes(self.c[key], self.k[key])

    def __setitem__(self, key, value) -> None:
        if isinstance(value, _Planes):
            self.c[key], self.k[key] = value.c, value.k
        else:
            self.c[key], self.k[key] = value, type(value) is complex

    def __eq__(self, other) -> np.ndarray:
        return self.c == other

    def __neg__(self) -> "_Planes":
        return _Planes(_exact_ints(-self.c, self.k), self.k.copy())

    def __mul__(self, other: "_Planes") -> "_Planes":
        # CPython's complex product (a c - b d, a d + b c), one float64 ufunc
        # per multiply and add, so that none is fused into a multiply-add.
        # The sweeps multiply a vector by one value.
        vec, one = (self, other) if len(other) == 1 else (other, self)
        a, b = vec.c.real, vec.c.imag
        c, d = one.c.view(np.float64).tolist()
        prod = np.empty(len(vec), dtype=np.complex128)
        np.subtract(a * c, b * d, out=prod.real)
        np.add(a * d, b * c, out=prod.imag)
        if one.k[0]:
            return _Planes(prod, _ALL_COMPLEX)
        k = vec.k.copy()
        return _Planes(_exact_ints(prod, k), k)

    def __iadd__(self, other: "_Planes") -> "_Planes":
        self.c += other.c  # adds the real planes and the imaginary planes
        self.k |= other.k
        return self

    def tolist(self) -> list:
        values = self.c.tolist()
        for n in np.flatnonzero(~self.k).tolist():
            values[n] = int(values[n].real)
        return values


def _exact_ints(c: np.ndarray, k: np.ndarray) -> np.ndarray:
    """c with each unmarked entry, the negation or product of ints in 0, 1
    and -1, made the int's (float(v), +0.0): the formula may leave -0.0."""
    if not k.all():
        ints = ~k
        c.real[ints] += 0.0
        c.imag[ints] = 0.0
    return c


def _planes_or_none(values) -> _Planes | None:
    """values as _Planes if N >= _PLANES_MIN_N, F(1) is the int 1 or -1,
    every later value is a Python complex or the int 0, and one of them is
    complex; else None.  They are read _CHUNK at a time, so that no
    full-length temporary is made."""
    if not _INT_ENTERS_AS_COMPLEX or len(values) <= _PLANES_MIN_N:
        return None
    f1 = values[1]
    kinds = set(map(type, islice(values, 2, None)))
    if type(f1) is not int or f1 not in (1, -1):
        return None
    if complex not in kinds or not kinds <= {int, complex}:
        return None
    planes = _Planes.zeros(len(values))
    planes.c[1] = f1
    planes.k[2:] = True
    for s in _chunks(2, len(values)):
        part = values[s]
        try:
            planes.c[s] = part
        except OverflowError:  # an int too large for a double, so not 0
            return None
        if int in kinds:
            k = planes.k[s]
            k[:] = np.fromiter(map(operator.is_, map(type, part), repeat(complex)), bool, len(part))
            if planes.c[s][~k].any():  # an int other than 0
                return None
    return planes


def _zeros_like(a):
    if isinstance(a, _Planes):
        return _Planes.zeros(len(a))
    return np.zeros(len(a), dtype=a.dtype)


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
        f = _planes_or_none(F.values)
        g = None if f is None else _planes_or_none(G.values)
    if g is None:
        f, g = np.array(F.values, dtype=object), np.array(G.values, dtype=object)
    with np.errstate(all="ignore"):
        out = _convolve_sweep(f, g)
    del f, g  # free the inputs before the result list is built
    return ArithFn(limit=N, values=out.tolist())


def _convolve_sweep(f, g):
    """convolve on f and g of one representation, in that representation."""
    N = len(f) - 1
    out = _zeros_like(f)
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
        f = _planes_or_none(F.values)
    if f is None:
        f = np.array(F.values, dtype=object)
    with np.errstate(all="ignore"):
        out = _inverse_sweep(f)
    del f  # free the input before the result list is built
    return ArithFn(limit=F.limit, values=out.tolist())


def _inverse_sweep(f):
    """dirichlet_inverse on f, in f's representation.

    Each m <= isqrt(N) is finalized and pushed on its own.  Above that, a
    block (M, 2M] hears only from m <= M, so it is finalized whole and
    pushed for each d, in descending order.  A cell holds the sum of its
    terms until it is finalized and the inverse from then on: every push
    goes to a cell above the one that makes it.
    """
    N = len(f) - 1
    f1 = f[1]
    exact_unit = f1 == 1 or f1 == -1
    inv1 = f1 if exact_unit else 1 / f1
    out = _zeros_like(f)
    out[1] = inv1
    r = math.isqrt(N)
    for m in range(1, r + 1):
        if m > 1:
            out[m] = -inv1 * out[m] if exact_unit else -out[m] / f1
        if out[m] == 0:
            continue
        for ds in _chunks(2, N // m + 1):
            cells = out[ds.start * m : ds.stop * m : m]
            cells += f[ds] * out[m : m + 1]
    neg_inv1 = -f[1:2]
    M = r
    while M < N:
        top = min(2 * M, N)
        for s in _chunks(M + 1, top + 1):
            out[s] = neg_inv1 * out[s] if exact_unit else -out[s] / f[1:2]
        ms = M + 1 + np.flatnonzero(~(out[M + 1 : top + 1] == 0))
        ft = out[ms]
        for d in range(N // (M + 1), 1, -1):
            for s in _chunks(0, np.searchsorted(ms, N // d, side="right")):
                out[ms[s] * d] += f[d : d + 1] * ft[s]
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
    """f_k(F; n): the sum of F(n_1)...F(n_k) over ordered k-tuples of
    integers >= 2 with product n, the paper's f_k weighted by F.  Zero for
    k > Omega(n).  Exponential-size object computed by memoized recursion
    over (first factor, rest); oracle scale only.  Nothing in the package
    calls it; the test_f_k_F_* tests in tests/test_dirichlet.py pin it to
    the f_k tables, to Omega and to the completely multiplicative case.
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
