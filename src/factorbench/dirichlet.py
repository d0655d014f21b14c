"""Truncated arithmetic-function algebra: convolution, inversion, and series sums.

Values are plain Python scalars (int, float or complex) in a list indexed
1..N, so integer-valued inputs stay exact through convolution and inversion;
mixed or complex inputs fall back to complex doubles.  Every operation
returns a new ArithFn and leaves its inputs as they were.  A result the
int64 or plane sweep made holds that table in place of the list, and the
next kernel reads the table with no type scan and no conversion.  A
constant function, 1 at n = 1 and one object v at every later n (F_z,
ones and unit), holds only v: a kernel fills its int64 array or planes
with v, with no list to scan or convert.  The first read of values makes
the list and drops the table or constant, so a change to the list is seen
by every later kernel (ArithFn).

convolve and dirichlet_inverse sweep strided slices of numpy arrays, and
every result equals the plain double loop's in value, type and signed zero.
Each kernel has two sweeps: an order-free one for int64 (and the inverse's
float64 bound), and one ordered sweep for planes and objects.  The input
takes the first of three representations that holds it exactly:

- int64 needs every value to be a Python int (type int, not bool or a
  numpy scalar), F(1) = +-1 for the inverse, and a bound below 2^62 on
  every sum and term the sweep makes.  Integer sums below that bound are
  exact in any order, so the int64 sweep takes no care of order or of zero
  terms: each numpy step adds one strided slice of products, zeros
  included, and none scatters through an index array.  The inverse's bound
  is B, with B(1) = 1 and B(n) = sum over d | n, d > 1, of |F(d)| B(n/d),
  so B(n) >= |Ft(n)|.  A term |F(d) Ft(m)| is at most B(dm), and a partial
  sum of cell dm, in whatever order its terms come, is a sum over a subset
  of them, so it is at most B(dm) too.  A certificate bounds B in one pass
  over F (_int64_certified): with N^sigma = 2^61 and
  S = sum over 2 <= d <= N of |F(d)| d^-sigma at most 1, induction gives
  B(n) <= sum over d of |F(d)| (n/d)^sigma <= n^sigma S <= 2^61.  Where S,
  summed in float64, is not at most 1 - 10^-6, B itself is computed, as
  the same sweep run in float64 on (1, -|F(2)|, -|F(3)|, ...), whose
  inverse it is.  The convolution's bound is max|F| max|G| 2 isqrt(N), as
  n has at most 2 isqrt(n) divisors.  2^62 is half of int64's range: the
  float64 sums, all of terms of one sign, round by far less than that
  factor of 2.  The result holds the int64 array, whose tolist() gives
  Python ints, so its values are the object sweep's in value and type.
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
  come back as the ints 0 or +-1 and which as complex.  stack_tables puts
  tables of one length in the rows of one stack, and
  dirichlet_inverse_stack inverts them all in one sweep, each row to the
  bit as dirichlet_inverse inverts it alone.  An interpreter that mixes an
  int into complex arithmetic in another way runs the objects instead.
- dtype=object covers the rest: floats, other ints, ints past the bound,
  a complex or non-unit F(1).  Each element operation is the same Python
  +, -, * or / on the same operands as in the loop.  Each step touches at
  most _CHUNK elements, because an object step makes a new Python object
  per element: unchunked steps raised the peak RSS of five F_z inversions
  and convolutions at N = 2*10^5 from 146 to 163 MB.

Float rounding, signed zeros and the int or complex type of each value
depend on the order of the operations, so the ordered sweep keeps the
loop's, on planes and objects alike:

- Each cell takes its terms in increasing order of the first factor: a in
  (F*G)(ab), m in the push F(d) Ft(m) to dm.  Where one numpy step covers a
  range of those factors, the steps that reach a cell run with the other
  factor descending.
- A term whose F(a) or Ft(m) compares equal to 0 is skipped, as the loop
  skips it; adding it would turn an int 0 into 0j or flip a zero's sign.
  A step's strided slice may hold such a term, and adds it to no cell
  (_push), so every double, signed zero, int or complex type, inf and nan
  stays as it was.  On objects the term is formed with the int 0 in place
  of the zero (_kept): 0.0 * 10**400 raises, where the loop forms nothing.

The ordered sweep runs under np.errstate(all="ignore"): a value that
overflows becomes inf or nan, as in Python, and numpy warns of nothing.
Where an int too large for a double meets a float or complex value, Python
raises OverflowError; the sweep raises it as a ValueError.
"""

from __future__ import annotations

import cmath
import csv
import math
import mmap
import operator
from contextlib import contextmanager
from itertools import chain, islice, repeat
from typing import Iterable

import numpy as np

from .sieve import _COUNT_CHUNK, SieveTables, _big_omega, _divisors

_CHUNK = 4096
_INT64_SAFE = 2**62  # a bound below this proves int64 holds every sum, with 2x to spare
# whether this interpreter mixes an int into complex arithmetic as (float(v), +0.0),
# which the planes copy
_INT_ENTERS_AS_COMPLEX = repr(-1 * 0j) == "(-0+0j)" and repr(0 + complex(0.0, -0.0)) == "0j"


def _rows_to_csv(header, rows) -> str:
    """The text csv.writer writes for header and an iterable of rows whose
    fields need no quoting, such as ints and floats: each field as str (a
    float's repr), comma-joined lines ending in \r\n. One %-format builds
    each _CHUNK rows, so no copy of every field is held at once. The one CSV
    writer of the package: ArithFn.csv_text and the cli's tables use it."""
    line = ",".join(["%s"] * len(header)) + "\r\n"
    rows = iter(rows)
    parts = [",".join(header) + "\r\n"]
    while part := list(islice(rows, _CHUNK)):
        parts.append(line * len(part) % tuple(chain.from_iterable(part)))
    return "".join(parts)


class ArithFn:
    """A truncated arithmetic function: values[n] for 1 <= n <= limit.

    values[0] is an unused placeholder so indices match the mathematics.

    A kernel's result holds the int64 array or the _Planes its sweep made
    (an object sweep's result is a list), and the next kernel reads that
    table as it is.  A constant_tail function holds a _ConstantTail, its
    limit and its one later value, which enters a kernel with no scan or
    conversion.  The first read of values makes the list by tolist() and
    drops the table or constant, so from then on the list is the only
    copy: a change to it is seen by every later kernel.
    """

    __slots__ = ("limit", "_values", "_table")
    __hash__ = None

    def __init__(self, limit: int, values: list):
        if len(values) != limit + 1:
            raise ValueError(f"need {limit + 1} slots, got {len(values)}")
        self.limit, self._values, self._table = limit, values, None

    @classmethod
    def _holding(cls, table) -> "ArithFn":
        """The function whose values are table's tolist(), held as table."""
        F = cls.__new__(cls)
        F.limit, F._values, F._table = len(table) - 1, None, table
        return F

    @property
    def values(self) -> list:
        if self._table is not None:
            self._values, self._table = self._table.tolist(), None
        return self._values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.limit, self.values) == (other.limit, other.values)

    def __repr__(self) -> str:
        return f"ArithFn(limit={self.limit!r}, values={self.values!r})"

    @classmethod
    def from_values(cls, values_1_to_n: Iterable) -> "ArithFn":
        vals = list(values_1_to_n)
        return cls(limit=len(vals), values=[0] + vals)

    @classmethod
    def constant_tail(cls, limit: int, v) -> "ArithFn":
        """F(1) = 1 and F(n) = v, the one object, for 2 <= n <= limit."""
        if limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        return cls._holding(_ConstantTail(limit, v))

    @classmethod
    def ones(cls, limit: int) -> "ArithFn":
        return cls.constant_tail(limit, 1)

    @classmethod
    def unit(cls, limit: int) -> "ArithFn":
        return cls.constant_tail(limit, 0)

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
            p = spf[n] or n  # 0 at the primes >= 2^16
            vals[n] = vals[n // p] * prime_values[p]
        return cls(limit=limit, values=vals)

    def scale(self, c) -> "ArithFn":
        return ArithFn(self.limit, [0] + [c * v for v in self.values[1:]])

    def csv_text(self) -> str:
        """CSV with header n,re,im and one row per n, by _rows_to_csv: an int
        exactly (a bool as 0 or 1) with im 0, any other value as the reprs of
        its complex parts."""
        def rows():
            for n, v in enumerate(islice(self.values, 1, None), 1):
                if isinstance(v, int):
                    yield n, int(v), 0
                else:
                    v = complex(v)
                    yield n, v.real, v.imag

        return _rows_to_csv(["n", "re", "im"], rows())

    @classmethod
    def from_csv(cls, path) -> "ArithFn":
        """Read csv_text's layout; a real column such as 3.0 also reads as an int."""
        rows = {}
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for col in ("n", "re", "im"):
                if col not in (reader.fieldnames or ()):
                    raise ValueError(f"CSV {path} has no {col!r} column")
            for rec in reader:
                im = float(rec["im"])
                try:
                    re = int(rec["re"])
                except ValueError:
                    re = float(rec["re"])
                    re = int(re) if re.is_integer() else re
                n = int(rec["n"])
                if n in rows:
                    raise ValueError(f"CSV {path} repeats n = {n}")
                rows[n] = complex(re, im) if im else re
        if not rows:
            raise ValueError(f"CSV {path} has no rows")
        limit = max(rows)
        if set(rows) != set(range(1, limit + 1)):
            raise ValueError("CSV must cover n = 1..N without gaps")
        return cls(limit=limit, values=[0] + [rows[n] for n in range(1, limit + 1)])


def _later_types(values) -> set:
    """The types of F(2), ..., F(N), read once for both representation checks."""
    return set(map(type, islice(values, 2, None)))


class _Input:
    """A kernel's input F in the representations its sweeps take.  A table
    F holds is read as it is where the sweeps may read it (_held), and a
    constant F makes its int64 array or planes from its one later value,
    with no list; else F's list is converted, its later types scanned once
    for both checks.  objects() reads F's list, which a constant F makes."""

    def __init__(self, F: ArithFn):
        self.F = F
        self.held = F._table if isinstance(F._table, _ConstantTail) else _held(F)
        self.later = None if self.held is not None else _later_types(F.values)

    def int64(self) -> np.ndarray | None:
        if isinstance(self.held, _ConstantTail):
            return self.held.int64()
        if self.held is not None:
            return self.held if isinstance(self.held, np.ndarray) else None
        return _int64_or_none(self.F.values, self.later)

    def planes(self) -> _Planes | None:
        if isinstance(self.held, _ConstantTail):
            return self.held.planes()
        if self.held is not None:
            return self.held if isinstance(self.held, _Planes) else None
        return _planes_or_none(self.F.values, self.later)

    def objects(self) -> np.ndarray:
        return np.array(self.F.values, dtype=object)


def _int64_or_none(values, later: set) -> np.ndarray | None:
    """values as an int64 array if every one is a Python int that fits, else
    None; later is _later_types(values)."""
    if later | set(map(type, values[:2])) != {int}:
        return None
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return None


def _held(F: ArithFn):
    """F's table where a kernel may read it as it is: an int64 array, or
    planes whose values _plane_row would take, so that every sweep on them
    is the one the list would get.  Else None, a constant's too, and the
    kernel reads F's list."""
    table = F._table
    if isinstance(table, _ConstantTail) or (
            isinstance(table, _Planes) and not (_INT_ENTERS_AS_COMPLEX and _plane_table_ok(table))):
        return None
    return table


def _result(out) -> ArithFn:
    """A sweep's result: an int64 array or _Planes held as it is, an object
    array as its list."""
    if isinstance(out, np.ndarray) and out.dtype == object:
        return ArithFn(len(out) - 1, out.tolist())
    return ArithFn._holding(out)


def _value_at_1(F: ArithFn):
    """F(1), read from F's table or constant where it holds one; a
    ValueError at limit 0."""
    if F.limit < 1:
        raise ValueError(f"F has limit {F.limit}: the Dirichlet inverse needs F(1)")
    if isinstance(F._table, _ConstantTail):
        return 1
    return F.values[1] if F._table is None else F._table[1:2].tolist()[0]


class _ConstantTail:
    """The values of ArithFn.constant_tail: 1 at n = 1 and the one object v
    at every 2 <= n <= limit.  Each later value has the type of v, so the
    types _later_types would scan are {type(v)}, or none below limit 2, and
    int64() and planes() give what _int64_or_none and _planes_or_none would
    make of the list."""

    __slots__ = ("limit", "v")

    def __init__(self, limit: int, v):
        self.limit, self.v = limit, v

    def __len__(self) -> int:
        return self.limit + 1

    def tolist(self) -> list:
        # one list filled in place: building the tail apart and concatenating
        # took 2.3 ms at limit 2*10^5, against 0.3 ms (2-vCPU x86-64 box)
        values = [self.v] * (self.limit + 1)
        values[:2] = [0, 1][: self.limit + 1]
        return values

    def int64(self) -> np.ndarray | None:
        """None where v is no Python int or lies past int64."""
        if self.limit >= 2 and not (type(self.v) is int and -(2**63) <= self.v < 2**63):
            return None
        out = np.full(self.limit + 1, self.v if self.limit >= 2 else 0, dtype=np.int64)
        out[:2] = [0, 1][: self.limit + 1]
        return out

    def planes(self) -> _Planes | None:
        """None where v is no Python complex, below limit 2, or where ints
        enter complex arithmetic otherwise."""
        if not _INT_ENTERS_AS_COMPLEX or self.limit < 2 or type(self.v) is not complex:
            return None
        planes = _Planes.zeros(self.limit + 1)
        planes.c[1] = 1
        planes.c[2:] = self.v
        planes.k[2:] = True
        return planes


class _Planes:
    """Python complex values and the ints 0, 1 and -1 as one complex128
    array c, whose float64 real and imaginary planes the arithmetic reads,
    and a bool array k that marks the complex ones.  An int v is held as
    (float(v), +0.0), the complex number CPython makes of it in int + complex
    and int * complex.  A table is a 1-D c and k; a stack of tables of one
    length is 2-D, one table per row.

    The operators are the ones the sweeps use, and each gives per element
    what the same Python operation gives.  Indexing gives a view, and
    np.asarray gives c.
    """

    __slots__ = ("c", "k")

    def __init__(self, c: np.ndarray, k: np.ndarray):
        self.c, self.k = c, k

    @classmethod
    def zeros(cls, *shape: int) -> "_Planes":
        # A c of at most 512 KiB, the size of a _COUNT_CHUNK of int64, such as
        # a stack of verify's draws, comes from the heap, where it reuses what
        # the per-n chunks of the tables freed: in pages of its own, those
        # stacks raised the report's peak RSS by 0.5 MB.  A longer c lives in
        # anonymous pages, which go back to the OS when c is freed.  glibc
        # keeps a freed malloc block of that size on its heap, where the
        # Python objects of the result list, made in arenas of their own,
        # cannot reuse it: that raised the zfamily peak RSS by 3 to 5%.
        n = math.prod(shape)
        if 2 * n <= _COUNT_CHUNK:
            c = np.zeros(n, dtype=np.complex128)
        else:
            c = np.frombuffer(mmap.mmap(-1, 16 * n), dtype=np.complex128)
        return cls(c.reshape(shape), np.zeros(shape, dtype=bool))

    def __len__(self) -> int:
        return len(self.c)

    @property
    def shape(self) -> tuple:
        return self.c.shape

    def __getitem__(self, key) -> "_Planes":
        return _Planes(self.c[key], self.k[key])

    def __setitem__(self, key, value: "_Planes") -> None:
        self.c[key], self.k[key] = value.c, value.k

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.c, dtype=dtype, copy=copy)

    def __eq__(self, other) -> np.ndarray:
        return self.c == other

    def __neg__(self) -> "_Planes":
        return _Planes(_exact_ints(-self.c, self.k), self.k.copy())

    def __mul__(self, other: "_Planes") -> "_Planes":
        # CPython's complex product (a c - b d, a d + b c), one float64 ufunc
        # per multiply and add, so that none is fused into a multiply-add.
        # The sweeps multiply by one value, or by a column of one per row.
        a, b = self.c.real, self.c.imag
        c, d = other.c.real, other.c.imag
        ac = a * c
        prod = np.empty(ac.shape, dtype=np.complex128)
        np.subtract(ac, b * d, out=prod.real)
        np.add(a * d, b * c, out=prod.imag)
        k = self.k | other.k
        return _Planes(_exact_ints(prod, k), k)

    def __iadd__(self, other: "_Planes") -> "_Planes":
        self.c += other.c  # adds the real planes and the imaginary planes
        self.k |= other.k
        return self

    def push(self, terms: "_Planes", keep: np.ndarray) -> None:
        """self += terms where keep holds: a term the loop skips adds
        nothing, and every double, signed zero, inf, nan and mark of its
        cell stays as it was."""
        if keep.all():
            self.c += terms.c
            self.k |= terms.k
        else:
            np.add(self.c, terms.c, out=self.c, where=keep)
            np.logical_or(self.k, terms.k, out=self.k, where=keep)

    def tolist(self) -> list:
        """A table's Python values: its marked entries as complex, the rest as ints."""
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


def _planes_or_none(values, later: set) -> _Planes | None:
    """values as _Planes if _plane_row takes them, else None; later is
    _later_types(values)."""
    if not _INT_ENTERS_AS_COMPLEX:
        return None
    planes = _Planes.zeros(len(values))
    return planes if _plane_row(values, later, planes) else None


def _plane_table_ok(t: _Planes) -> bool:
    """Whether _plane_row would take the values of t, a 1-D table: F(1) the
    int 1 or -1, every later value a complex or the int 0, one a complex."""
    ints = ~t.k[2:]
    return (not t.k[1] and t.c[1] in (1, -1) and not ints.all()
            and not np.any(t.c[2:], where=ints))


def _plane_row(values, later: set, row: _Planes) -> bool:
    """Write values into row, 1-D zeros of their length, if F(1) is the int
    1 or -1, every later value is a Python complex or the int 0, and one of
    them is complex; return whether it could.  later is
    _later_types(values).  The values are read _CHUNK at a time, so that no
    full-length temporary is made."""
    # later is empty where N < 2, so values[1] is read only where it exists
    if not {complex} <= later <= {int, complex} or type(values[1]) is not int or values[1] not in (1, -1):
        return False
    row.c[1] = values[1]
    row.k[2:] = True
    for s in _chunks(2, len(values)):
        part = values[s]
        try:
            row.c[s] = part
        except OverflowError:  # an int too large for a double, so not 0
            return False
        if int in later:
            k = row.k[s]
            k[:] = np.fromiter(map(operator.is_, map(type, part), repeat(complex)), bool, len(part))
            if row.c[s][~k].any():  # an int other than 0
                return False
    return True


def _zeros_like(a):
    if isinstance(a, _Planes):
        return _Planes.zeros(*a.shape)
    return np.zeros(a.shape, dtype=a.dtype)


def _kept(a):
    """keep = ~(a == 0), where the loop keeps a term, and the values to
    form terms with: a itself on planes, and on objects a copy with each
    zero made the int 0, so that a term the loop skips is never formed as
    the loop would form it (0.0 * 10**400 raises; 0 * 10**400 is 0)."""
    keep = ~(a == 0)
    if isinstance(a, np.ndarray):
        a = np.where(keep, a, 0)
    return keep, a


def _push(cells, terms, keep) -> None:
    """cells += terms where keep holds, on planes or objects."""
    if isinstance(cells, _Planes):
        cells.push(terms, keep)
    else:
        np.add(cells, terms, out=cells, where=keep)


def _abs_max(a: np.ndarray) -> int:
    return max(int(a.max()), -int(a.min()))


def _chunks(lo: int, hi: int, step: int = _CHUNK):
    """Slices that cover lo..hi-1 in increasing order, step long at most."""
    for start in range(lo, hi, step):
        yield slice(start, min(start + step, hi))


@contextmanager
def _sweeping():
    """The context of a sweep: numpy warns of nothing, and an int too large
    for a double meeting a float or complex value is a ValueError."""
    with np.errstate(all="ignore"):
        try:
            yield
        except OverflowError as exc:
            raise ValueError("an int too large for a double meets a float or complex "
                             f"value: {exc}") from None


def _order_free(a) -> bool:
    """Whether a is an int64 array or the inverse's float64 majorant, whose
    sweep may add each cell's terms in any order."""
    return isinstance(a, np.ndarray) and a.dtype != object


def convolve(F: ArithFn, G: ArithFn) -> ArithFn:
    """(F*G)(n) = sum over ab = n of F(a) G(b).

    Hyperbola split at r = isqrt(N): each a <= r pushes F(a) G(b) to every
    ab <= N at once; then each b <= N/(r+1) pushes to the ab with
    r < a <= N/b.  On planes and objects the a with F(a) = 0 are skipped and
    the b run in descending order, so every cell takes its terms in
    increasing a.
    """
    if F.limit != G.limit:
        raise ValueError(f"limit mismatch: {F.limit} vs {G.limit}")
    f_in, g_in = _Input(F), _Input(G)
    f = f_in.int64()
    g = None if f is None else g_in.int64()
    # n has at most 2 isqrt(n) divisors, so every sum is at most this bound
    if g is None or _abs_max(f) * _abs_max(g) * 2 * math.isqrt(F.limit) >= _INT64_SAFE:
        f = f_in.planes()
        g = None if f is None else g_in.planes()
    if g is None:
        f, g = f_in.objects(), g_in.objects()
    with _sweeping():
        out = _convolve_sweep(f, g)
    del f, g  # free the inputs before an object result's list is built
    return _result(out)


def _convolve_sweep(f, g):
    """convolve on f and g of one representation, in that representation."""
    if _order_free(f):
        return _strided_convolve(f, g)
    N = len(f) - 1
    out = _zeros_like(f)
    keep, fk = _kept(f)
    r = math.isqrt(N)
    for a in range(1, r + 1):
        if keep[a]:
            for bs in _chunks(1, N // a + 1):
                cells = out[a * bs.start : a * bs.stop : a]
                cells += f[a : a + 1] * g[bs]
    for b in range(N // (r + 1), 0, -1):
        for s in _chunks(r + 1, N // b + 1):
            _push(out[s.start * b : s.stop * b : b], fk[s] * g[b : b + 1], keep[s])
    return out


def _strided_convolve(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The int64 convolution, one strided slice per step: each a <= r =
    isqrt(N) adds F(a) G(b) for every b <= N/a, then each b <= N/(r+1) adds
    F(a) G(b) for every r < a <= N/b.  Each pair ab <= N comes once."""
    N = len(f) - 1
    out = np.zeros_like(f)
    r = math.isqrt(N)
    for a in range(1, r + 1):
        k = N // a
        out[a : k * a + 1 : a] += f[a] * g[1 : k + 1]
    for b in range(1, N // (r + 1) + 1):
        hi = N // b
        out[(r + 1) * b : hi * b + 1 : b] += g[b] * f[r + 1 : hi + 1]
    return out


def dirichlet_inverse(F: ArithFn) -> ArithFn:
    """The function Ft with F * Ft = I, by the forward-substitution sweep.

    O(N log N): once Ft(m) is final, its contributions F(d) Ft(m) are pushed
    to all dm <= N; planes and objects skip the terms with Ft(m) = 0.
    Exact when F is integer-valued with F(1) = +-1.
    """
    f1 = _value_at_1(F)
    if f1 == 0:
        raise ValueError("F(1) = 0: Dirichlet inverse does not exist")
    f_in = _Input(F)
    f = f_in.int64() if f1 == 1 or f1 == -1 else None
    if f is not None and not _int64_certified(f):
        # the inverse of (1, -|F(2)|, -|F(3)|, ...) bounds every sum the sweep makes
        majorant = -np.abs(f.astype(np.float64))
        majorant[1] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            if not _inverse_sweep(majorant).max() < _INT64_SAFE:  # also when NaN
                f = None
    if f is None:
        f = f_in.planes()
    if f is None:
        f = f_in.objects()
    with _sweeping():
        out = _inverse_sweep(f)
    del f  # free the input before an object result's list is built
    return _result(out)


def _int64_certified(f: np.ndarray) -> bool:
    """Whether S = sum over 2 <= d <= N of |F(d)| d^-sigma, with N^sigma =
    2^61, is at most 1 - 10^-6, which proves the int64 inverse sweep safe
    without the majorant's sweep (see the module docstring).  S is summed in
    float64, _CHUNK values of d at a time; its relative rounding error,
    about (_CHUNK + N / _CHUNK + 64) 2^-53, stays below the 10^-6 margin
    for every N below 10^13."""
    N = len(f) - 1
    if N < 2:
        return True
    sigma = 61 * math.log(2) / math.log(N)
    total = 0.0
    for s in _chunks(2, N + 1):
        weights = np.log(np.arange(s.start, s.stop, dtype=np.float64))
        weights *= -sigma
        size = np.abs(f[s].astype(np.float64))
        total += float(size @ np.exp(weights, out=weights))
    return total <= 1 - 1e-6


def stack_tables(tables: Iterable[list], height: int):
    """height tables of values of one length N + 1 (slot 0 unused), as the
    rows of one 2-D stack.  Each table is written into its row before the
    next is read, so the caller need keep none alive.

    The stack is _Planes where every table is one _plane_row takes; else
    it is an object array of the tables.  Either way row i's tolist() is
    table i, and np.asarray(stack, complex) holds the tables as complex
    doubles.
    """
    planes, rows = None, []
    for i, values in enumerate(tables):
        if i == 0 and _INT_ENTERS_AS_COMPLEX:
            planes = _Planes.zeros(height, len(values))
        if planes is not None and not _plane_row(values, _later_types(values), planes[i]):
            rows, planes = [planes[j].tolist() for j in range(i)], None
        if planes is None:
            rows.append(values)
    return planes if planes is not None else np.array(rows, dtype=object)


def dirichlet_inverse_stack(stack):
    """The Dirichlet inverse of each row of a stack_tables stack, as a stack
    of the same kind: row i's tolist() is dirichlet_inverse's values for
    table i, to the bit.  _Planes are inverted by one sweep of the whole
    stack; each row of an object stack goes through dirichlet_inverse."""
    if isinstance(stack, _Planes):
        with _sweeping():
            return _inverse_sweep(stack)
    inverses = [dirichlet_inverse(ArithFn(len(row) - 1, row.tolist())).values for row in stack]
    return np.array(inverses, dtype=object)


def _inverse_sweep(f):
    """dirichlet_inverse on f, in f's representation: int64 and float64 go
    to _strided_inverse.  Planes, a table or a stack of tables along a
    leading row axis, each row swept as on its own, and objects, a table,
    take the loop below.

    Once Ft(m) is final, its terms F(d) Ft(m) are pushed to every dm <= N.
    After m = 1, the m run in blocks (M, 2M], which hear only from m <= M,
    and each block in chunks of at most _CHUNK values, as a plane step
    makes a dozen temporaries and an object step a Python object per value.
    A chunk is finalized whole and pushed along its longer axis: each m's
    strided slice of d where the chunk has fewer m than d, in increasing m,
    else each d's slice of its m, in decreasing d.  So every cell takes its
    terms in increasing m.  A term the loop skips, where Ft(m) compares
    equal to 0 in its row, adds nothing (_kept, _push).
    """
    if _order_free(f):
        return _strided_inverse(f)
    *rows, width = f.shape
    N = width - 1
    step = max(1, _CHUNK // math.prod(rows))  # columns of a chunk
    f1 = f[..., 1:2]
    unit = isinstance(f, _Planes) or f[1] == 1 or f[1] == -1  # planes hold only F(1) = +-1
    out = _zeros_like(f)
    out[..., 1:2] = ft = f1 if unit else 1 / f1  # a unit F(1) is its own inverse
    neg_inv1 = -f1
    keep, ft = _kept(ft)
    for s in _chunks(2, N + 1, step):
        _push(out[..., s], f[..., s] * ft, keep)
    M = 1
    while M < N:
        for s in _chunks(M + 1, min(2 * M, N) + 1, step):
            out[..., s] = ft = neg_inv1 * out[..., s] if unit else -out[s] / f1
            keep, ft = _kept(ft)
            if s.stop - s.start < N // s.start - 1:
                for j, m in enumerate(range(s.start, s.stop)):
                    for ds in _chunks(2, N // m + 1, step):
                        cells = out[..., ds.start * m : ds.stop * m : m]
                        _push(cells, f[..., ds] * ft[..., j : j + 1], keep[..., j : j + 1])
            else:
                for d in range(N // s.start, 1, -1):
                    k = min(s.stop, N // d + 1) - s.start  # the m in s with dm <= N
                    cells = out[..., s.start * d : (s.start + k) * d : d]
                    _push(cells, f[..., d : d + 1] * ft[..., :k], keep[..., :k])
        M = min(2 * M, N)
    return out


def _strided_inverse(f: np.ndarray) -> np.ndarray:
    """_inverse_sweep on int64 or float64, with F(1) = +-1, one strided
    slice per step: each m <= isqrt(N) adds F(d) Ft(m) for every d <= N/m;
    each block (M, 2M] is finalized whole, then adds F(d) Ft(m) for every m
    in it with dm <= N, one d at a time."""
    N = len(f) - 1
    out = np.zeros_like(f)
    out[1] = f[1]  # the inverse of F(1) = +-1 is F(1)
    neg_inv1 = -f[1]
    r = math.isqrt(N)
    for m in range(1, r + 1):
        if m > 1:
            out[m] *= neg_inv1
        k = N // m
        out[2 * m : k * m + 1 : m] += f[2 : k + 1] * out[m]
    M = r
    while M < N:
        top = min(2 * M, N)
        block = out[M + 1 : top + 1]
        block *= neg_inv1
        for d in range(2, N // (M + 1) + 1):
            hi = min(top, N // d)
            out[(M + 1) * d : hi * d + 1 : d] += f[d] * block[: hi - M]
        M = top
    return out


def _f_k_rows(values, reach: list[int]) -> list[list]:
    """rows[j][m] = f_j(F; m), F's values in values, for m < len(reach) and
    1 <= j <= reach[m], and None at the other m of row j.

    Row 1 is F(m), 0 at m = 1.  Each later row j, built bottom-up, has 0 at
    m = 1 and rows[j][m] = sum over d | m, d > 1, in increasing d, of
    F(d) rows[j - 1][m/d], as one Python sum(): the f_j recursion over
    (first factor, rest) makes each entry so, in value, type and signed
    zero.  reach[m/d] must be at least reach[m] - 1, so that every entry
    read has been made.
    """
    n = len(reach) - 1
    divisors = [_divisors(m)[1:] for m in range(n + 1)]
    rows = [[], [0, 0] + values[2 : n + 1]]
    for j in range(2, max(reach) + 1):
        prev = rows[-1]
        row = [0, 0] + [None] * (n - 1)
        for m in range(2, n + 1):
            if reach[m] >= j:
                row[m] = sum(values[d] * prev[m // d] for d in divisors[m])
        rows.append(row)
    return rows


def f_k_F(F: ArithFn, n: int, k: int) -> complex:
    """f_k(F; n): the sum of F(n_1)...F(n_k) over ordered k-tuples of
    integers >= 2 with product n, the paper's f_k weighted by F.  Zero for
    k > Omega(n).  Read from _f_k_rows's first k rows over m <= n; oracle
    scale only.  Nothing in the package calls it; the test_f_k_F_* tests in
    tests/test_dirichlet.py pin it to the f_k tables, to Omega and to the
    completely multiplicative case.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n > F.limit:
        raise ValueError(f"n={n} beyond truncation limit {F.limit}")
    return _f_k_rows(F.values, [k] * (n + 1))[k][n]


def inverse_via_alternating(F: ArithFn) -> ArithFn:
    """Inverse through the alternating sum I(n) + sum_k (-1)^k f_k(F; n).

    Independent of the forward-substitution sweep.  The f_k(F; n) come from
    one _f_k_rows table, which holds f_j(F; m) where j <= Omega(m) or, for
    m <= N/2, j < Omega(m) + log2(N/m): the entries the alternating sums
    read and the entries those are summed from, and no others.  Its cost
    grows with N log N times the divisor counts, so keep the limit around
    10^3.  F is normalized to F(1) = 1 internally and the normalization is
    undone on output: a unit F(1), 1 or -1, is its own inverse, so it
    multiplies, and an int F stays exact; any other F(1) divides.
    """
    N = F.limit
    f1 = _value_at_1(F)
    if f1 == 0:
        raise ValueError("F(1) = 0: Dirichlet inverse does not exist")
    unit = f1 == 1 or f1 == -1
    G = F if f1 == 1 else F.scale(f1 if unit else 1 / f1)
    omega = [0] + [_big_omega(n) for n in range(1, N + 1)]
    reach = [0] + [omega[m] + max(0, (N // m).bit_length() - 2) for m in range(1, N + 1)]
    rows = _f_k_rows(G.values, reach)
    out = [0] * (N + 1)
    out[1] = 1
    for n in range(2, N + 1):
        out[n] = sum((-1) ** k * rows[k][n] for k in range(1, omega[n] + 1))
    if f1 != 1:
        out = [0] + [v * f1 if unit else v / f1 for v in out[1:]]
    return ArithFn(limit=N, values=out)


def restrict_support(F: ArithFn, support: np.ndarray) -> ArithFn:
    """F times the indicator of support, a boolean mask over 0..limit or
    longer such as tables.mu != 0: each value off the support becomes the
    int 0, and values[0] stays 0.  A table F holds is restricted as a held
    table of its kind; else each kept value is the same object as in F's list."""
    if len(support) <= F.limit:
        raise ValueError(f"support covers 0..{len(support) - 1}, not 0..{F.limit}")
    table = _held(F)
    if table is not None:
        kept = np.flatnonzero(support[: F.limit + 1])
        out = _zeros_like(table)
        out[kept] = table[kept]
        return ArithFn._holding(out)
    values = F.values.copy()
    for n in np.flatnonzero(np.logical_not(support[: F.limit + 1])).tolist():
        values[n] = 0
    return ArithFn(F.limit, values)


def first_non_finite(F: ArithFn) -> int | None:
    """The first n whose F(n) is a float or complex that is not finite, or
    None: an int is finite.  A table F holds is read as it is."""
    table = _held(F)
    if isinstance(table, np.ndarray):  # int64
        return None
    if table is not None:
        bad = np.flatnonzero(~np.isfinite(table.c))
        return int(bad[0]) if len(bad) else None
    return next((n for n, v in enumerate(F.values)
                 if not (isinstance(v, int) or cmath.isfinite(v))), None)


def series_eval(F: ArithFn, s) -> complex:
    """Truncated Dirichlet series sum F(n) n^{-s} at a number s, real or
    complex, with n^{-s} = exp(-s log n).

    The terms are doubles, and their real and imaginary parts are each
    summed exactly and rounded once, as math.fsum rounds them (_exact_sum);
    an exact integer F(n) too large for a double is a ValueError that names
    n.  Zero terms are left out, as 0 * inf is NaN where n^{-s} overflows.
    Where a term is not finite, or a partial sum could pass the float
    range, the terms go through _fsum instead, which gives inf or nan as
    the doubles do.  The terms are made _CHUNK at a time, which keeps the
    temporaries small.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = _exact_sum(_series_terms(F, s), F.limit)
        if total is None:
            terms = list(_series_terms(F, s))
            total = complex(_fsum([t.real for t in terms]), _fsum([t.imag for t in terms]))
        return total


def _series_terms(F: ArithFn, s):
    """The nonzero terms F(n) n^{-s} as complex128 arrays, one per _CHUNK values of n."""
    table = _held(F)
    for c in _chunks(1, F.limit + 1):
        v = _doubles(F.values[c], c.start) if table is None else np.asarray(table[c], np.complex128)
        n = np.flatnonzero(v)
        yield v[n] * np.exp(-s * np.log(n + c.start))


_EXPONENTS = 2098  # np.frexp's exponents of the finite nonzero doubles: -1073..1024


def _exact_sum(chunks: Iterable[np.ndarray], count: int) -> complex | None:
    """The sum of the real parts and the sum of the imaginary parts of at
    most count complex128 values, given in contiguous chunks of at most
    _CHUNK, each sum exact and rounded once to the double math.fsum gives
    (an exact 0 as +0.0).  None where a value is not finite, or where count
    values as large as the largest could reach 2^1023, so that fsum might
    overflow partway.

    np.frexp writes each part x as M 2^(e - 53) with M an integer below
    2^53, and M = hi 2^26 + lo splits it into a 27-bit and a 26-bit half.
    np.bincount sums each half per exponent, real and imaginary parts in
    bins of their own; a chunk's bin is below 2^39, so its float64 sum is
    exact, and the int64 totals hold the halves of 2^36 values.  The bins
    are folded into one Python int, and int true division rounds it once.
    """
    headroom = 1023 - count.bit_length()  # count values below 2^e sum below 2^1023
    his = np.zeros(2 * _EXPONENTS, dtype=np.int64)
    los = np.zeros(2 * _EXPONENTS, dtype=np.int64)
    for t in chunks:
        if not len(t):
            continue
        m, e = np.frexp(t.view(np.float64))  # the real and imaginary parts, interleaved
        if not np.isfinite(m).all() or e.max() > headroom:
            return None
        hi = np.floor(m * 2.0**27)
        lo = m * 2.0**53 - hi * 2.0**26
        bins = e + 1073
        bins[1::2] += _EXPONENTS
        his += np.bincount(bins, hi, 2 * _EXPONENTS).astype(np.int64)
        los += np.bincount(bins, lo, 2 * _EXPONENTS).astype(np.int64)
    sums = []
    for part in (slice(0, _EXPONENTS), slice(_EXPONENTS, None)):
        hi, lo = his[part].tolist(), los[part].tolist()
        bins = np.flatnonzero(his[part] | los[part]).tolist()
        total = sum(((hi[b] << 26) + lo[b]) << b for b in bins)
        sums.append(total / (1 << 1126))  # x = M 2^(b - 1126) in bin b
    return complex(*sums)


def _doubles(values: list, first: int) -> np.ndarray:
    """values as complex doubles; an int too large for one is a ValueError
    that names its n, counting the first value as n = first.

    A list of ints that numpy reads as int64 goes through int64: its cast
    to double rounds to nearest as complex(int) does, and it is faster than
    converting each int on its own.  A list
    that starts with a non-int, or that numpy reads as another dtype, is
    converted to complex128 directly.
    """
    if type(values[0]) is int:
        ints = np.array(values)
        if ints.dtype == np.int64:
            return ints.astype(np.complex128)
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
