import cmath
import csv
import io
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from factorbench import (
    ArithFn,
    build_sieve,
    convolve,
    dirichlet,
    dirichlet_inverse,
    f_k_F,
    inverse_via_alternating,
    factorize,
    restrict_support,
    series_eval,
)
from factorbench.factorizations import enumerate_ordered_factorizations
from factorbench.sieve import _big_omega, _divisors


def loop_convolve(fv, gv):
    """Reference: the plain double loop over a, then b."""
    N = len(fv) - 1
    out = [0] * (N + 1)
    for a in range(1, N + 1):
        fa = fv[a]
        if fa == 0:
            continue
        for b in range(1, N // a + 1):
            out[a * b] += fa * gv[b]
    return out


def loop_inverse(fv):
    """Reference: the plain forward-substitution sweep, one m at a time."""
    N = len(fv) - 1
    f1 = fv[1]
    exact_unit = f1 == 1 or f1 == -1
    inv1 = f1 if exact_unit else 1 / f1
    acc = [0] * (N + 1)
    out = [0] * (N + 1)
    out[1] = inv1
    for m in range(1, N + 1):
        if m > 1:
            out[m] = -inv1 * acc[m] if exact_unit else -acc[m] / f1
        fm = out[m]
        if fm == 0:
            continue
        for d in range(2, N // m + 1):
            acc[d * m] += fv[d] * fm
    return out


def loop_series(fv, s):
    """Reference: F(n) exp(-s log n) added one n at a time, and the sum of
    the terms' moduli, which bounds the rounding of any order of summation."""
    total, size = 0, 0.0
    for n in range(1, len(fv)):
        if fv[n]:
            term = fv[n] * cmath.exp(-s * math.log(n))
            total += term
            size += abs(term)
    return total, size


def f_k_recursion(values):
    """Reference: fk(m, j), the sum of values[n_1]...values[n_j] over ordered
    j-tuples of integers >= 2 with product m, memoized over (first factor,
    rest) in fk.memo."""
    memo = {}

    def fk(m, j):
        if j == 1:
            return values[m] if m >= 2 else 0
        if m == 1:
            return 0
        key = (m, j)
        if key not in memo:
            memo[key] = sum(values[d] * fk(m // d, j - 1) for d in _divisors(m)[1:])
        return memo[key]

    fk.memo = memo
    return fk


def alternating_by_recursion(fv):
    """Reference: the alternating-series inverse I(n) + sum_k (-1)^k f_k(F; n)
    on f_k_recursion, F normalized to F(1) = 1 as inverse_via_alternating
    normalizes it, and the (m, j) the recursion memoized."""
    N, f1 = len(fv) - 1, fv[1]
    unit = f1 == 1 or f1 == -1
    gv = fv if f1 == 1 else [0] + [(f1 if unit else 1 / f1) * v for v in fv[1:]]
    fk = f_k_recursion(gv)
    out = [0, 1] + [sum((-1) ** k * fk(n, k) for k in range(1, _big_omega(n) + 1))
                    for n in range(2, N + 1)]
    if f1 != 1:
        out = [0] + [v * f1 if unit else v / f1 for v in out[1:]]
    return out, set(fk.memo)


def summatory(F, x):
    """The partial sum of F(n) over n <= x."""
    cutoff = min(int(math.floor(x)), F.limit)
    if math.floor(x) > F.limit:
        raise ValueError(f"x={x} beyond truncation limit {F.limit}")
    return sum(F.values[1 : cutoff + 1])


def typed(values):
    return [(type(v), repr(v)) for v in values]


def random_values(kind, limit, f1, rng):
    """f1 followed by limit - 1 values of one kind, zeros and signed zeros included."""
    def one():
        if kind == "int":
            return rng.choice([0, 0, 1, -1, 2, -3, 2**64 + rng.randint(0, 99), -(2**65) - 7])
        if kind == "float":
            return rng.choice([0.0, -0.0, rng.uniform(-1, 1), rng.uniform(-1, 1)])
        if kind == "complex":
            return rng.choice([0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                               complex(rng.uniform(-1, 1), rng.uniform(-1, 1))])
        return rng.choice([0, 1, -2, 0j, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))])

    return [f1] + [one() for _ in range(limit - 1)]


# small sizes, the sizes around the isqrt(N) split, and the chunk boundaries
KERNEL_SIZES = st.one_of(
    st.integers(min_value=1, max_value=40),
    st.sampled_from([k * k + e for k in (5, 8, 31) for e in (-1, 0, 1)]),
    st.sampled_from([4095, 4096, 4097, 8193]),
)


@settings(max_examples=60, deadline=None)
@given(
    KERNEL_SIZES,
    st.sampled_from(["int", "float", "complex", "mixed"]),
    st.sampled_from([1, -1, 2]),
    st.integers(min_value=0, max_value=2**32),
)
def test_kernels_match_loops_exactly(limit, kind, f1, seed):
    rng = random.Random(seed)
    F = ArithFn.from_values(random_values(kind, limit, f1, rng))
    G = ArithFn.from_values(random_values(kind, limit, rng.choice([1, 0, -1]), rng))
    assert typed(dirichlet_inverse(F).values) == typed(loop_inverse(F.values))
    assert typed(convolve(F, G).values) == typed(loop_convolve(F.values, G.values))


# the values a plane sweep takes after F(1): int zeros, signed complex zeros,
# and complex numbers whose parts are +-1, inf, nan or anything in [-1, 1]
PLANE_PARTS = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]


def random_plane_values(limit, f1, rng):
    def one():
        kind = rng.randrange(4)
        if kind == 0:
            return 0
        if kind == 1:
            return rng.choice([0j, complex(-0.0, 0.0), complex(0.0, -0.0)])
        if kind == 2:
            return complex(rng.choice(PLANE_PARTS), rng.choice(PLANE_PARTS))
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    values = [f1] + [one() for _ in range(limit - 1)]
    if limit > 1 and not any(type(v) is complex for v in values):
        values[-1] = 1j
    return values


@settings(max_examples=60, deadline=None)
@given(
    KERNEL_SIZES,
    st.sampled_from([1, -1]),
    st.sampled_from([1, -1]),
    st.integers(min_value=0, max_value=2**32),
)
def test_plane_kernels_match_loops_exactly(limit, f1, g1, seed):
    rng = random.Random(seed)
    F = ArithFn.from_values(random_plane_values(limit, f1, rng))
    G = ArithFn.from_values(random_plane_values(limit, g1, rng))
    if limit > 1:
        assert dirichlet._planes_or_none(F.values, dirichlet._later_types(F.values)) is not None
    assert typed(dirichlet_inverse(F).values) == typed(loop_inverse(F.values))
    assert typed(convolve(F, G).values) == typed(loop_convolve(F.values, G.values))


def plane_stack_tables(limit, height, rng):
    """height tables of random_plane_values with slot 0, each with its own
    share of zeros: the rows' Ft(m) are 0 at different m."""
    tables = []
    for _ in range(height):
        values = random_plane_values(limit, rng.choice([1, -1]), rng)
        share = rng.choice([0.0, 0.5, 0.9])
        for n in range(1, limit):
            if rng.random() < share:
                values[n] = rng.choice([0, 0j, complex(-0.0, -0.0)])
        if limit > 1 and complex not in map(type, values):
            values[-1] = 1j
        tables.append([0] + values)
    return tables


def assert_stack_rows_match_the_loops(tables, stack):
    inv = dirichlet.dirichlet_inverse_stack(stack)
    assert len(stack) == len(inv) == len(tables)
    for values, row, inv_row in zip(tables, stack, inv):
        assert typed(row.tolist()) == typed(values)
        assert typed(inv_row.tolist()) == typed(loop_inverse(values))


def with_stack_chunk_edges(test):
    """test with an example at each limit within 2 of a stack's chunk,
    _CHUNK // height columns, for heights 2 to 5."""
    for height in range(2, 6):
        for e in (-2, -1, 0, 1, 2):
            test = example(dirichlet._CHUNK // height + e, height, e + 2)(test)
    return test


@settings(max_examples=40, deadline=None)
@given(KERNEL_SIZES, st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**32))
@with_stack_chunk_edges
def test_stacked_plane_inverse_matches_the_loops_row_by_row(limit, height, seed):
    rng = random.Random(seed)
    tables = plane_stack_tables(limit, height, rng)
    stack = dirichlet.stack_tables(iter(tables), height)
    assert isinstance(stack, dirichlet._Planes) == (limit > 1)
    assert_stack_rows_match_the_loops(tables, stack)


@pytest.mark.parametrize("row", [0, 2])
@pytest.mark.parametrize("spoil", ["float", "int", "interpreter"])
def test_a_stack_planes_cannot_hold_matches_the_loops_row_by_row(row, spoil, monkeypatch):
    tables = plane_stack_tables(60, 4, random.Random(11))
    if spoil == "float":
        tables[row][7] = 0.5
    elif spoil == "int":
        tables[row][7] = -2  # an int other than 0 after F(1)
    else:
        monkeypatch.setattr(dirichlet, "_INT_ENTERS_AS_COMPLEX", False)
    stack = dirichlet.stack_tables(iter(tables), 4)
    assert isinstance(stack, np.ndarray) and stack.dtype == object
    assert_stack_rows_match_the_loops(tables, stack)


@pytest.mark.parametrize("limit, height", [(2, 1), (2, 5), (40, 3), (2048, 4)])
def test_a_plane_able_stack_of_any_size_takes_planes(limit, height):
    tables = plane_stack_tables(limit, height, random.Random(3))
    assert isinstance(dirichlet.stack_tables(iter(tables), height), dirichlet._Planes)


@pytest.fixture
def sweep_dtypes(monkeypatch):
    """The dtype of every array sweep the kernels run, in order, or the
    type of the complex planes a sweep runs on."""
    seen = []

    def spy(name):
        sweep = getattr(dirichlet, name)

        def spied(*arrays):
            a = arrays[0]
            seen.append(a.dtype if isinstance(a, np.ndarray) else type(a))
            return sweep(*arrays)

        monkeypatch.setattr(dirichlet, name, spied)

    spy("_inverse_sweep")
    spy("_convolve_sweep")
    return seen


@pytest.fixture
def list_scans(monkeypatch):
    """The length of every list whose types _later_types scans, in order."""
    seen = []
    scan = dirichlet._later_types

    def spied(values):
        seen.append(len(values))
        return scan(values)

    monkeypatch.setattr(dirichlet, "_later_types", spied)
    return seen


@pytest.mark.parametrize("z", [-1, 1, 2, 3])
def test_integer_f_z_runs_in_int64_and_equals_the_loops(z, sweep_dtypes):
    limit = 20_000
    fz = ArithFn(limit, [0, 1] + [-z] * (limit - 1))
    inv = dirichlet_inverse(fz)
    assert typed(inv.values) == typed(loop_inverse(fz.values))
    assert typed(convolve(fz, inv).values) == typed(loop_convolve(fz.values, inv.values))
    # the certificate holds, so the int64 sweeps run without the float64 majorant
    assert sweep_dtypes == [np.int64, np.int64]


def test_small_integers_run_in_int64_and_equal_the_loops(sweep_dtypes):
    rng = random.Random(7)
    limit = 5000
    F = ArithFn.from_values([-1] + [rng.randint(-2, 2) for _ in range(limit - 1)])
    G = ArithFn.from_values([rng.randint(-99, 99) for _ in range(limit)])
    assert typed(dirichlet_inverse(F).values) == typed(loop_inverse(F.values))
    assert typed(convolve(F, G).values) == typed(loop_convolve(F.values, G.values))
    assert sweep_dtypes == [np.int64, np.int64]


def test_an_inverse_only_the_majorant_proves_runs_in_int64(sweep_dtypes):
    # S = 30 (zeta(sigma) - 1) is about 1.14 at N = 5000, so the certificate
    # fails, and the majorant's largest value, about 1.28e18, is below 2^62
    limit = 5000
    F = ArithFn.from_values([1] + [-30] * (limit - 1))
    assert not dirichlet._int64_certified(np.array(F.values, dtype=np.int64))
    inv = dirichlet_inverse(F)
    assert 2**60 < max(inv.values) < 2**61
    assert typed(inv.values) == typed(loop_inverse(F.values))
    assert sweep_dtypes == [np.float64, np.int64]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=3000),
    st.floats(min_value=0.5, max_value=1.2),
    st.integers(min_value=0, max_value=2**32),
)
def test_a_certified_inverse_stays_below_n_to_the_sigma(limit, scale, seed):
    # F(d) = +-w_d scale d^sigma at up to three d <= 12, the w_d summing to 1,
    # and 0 elsewhere, so S is just below scale: about three draws in four
    # pass the certificate, some with |Ft(n)| past 0.8 n^sigma
    rng = random.Random(seed)
    sigma = 61 * math.log(2) / math.log(limit)
    values = [rng.choice([1, -1])] + [0] * (limit - 1)
    ds = rng.sample(range(2, min(limit, 12) + 1), min(3, limit - 1))
    weights = [rng.random() for _ in ds]
    for d, w in zip(ds, weights):
        values[d - 1] = rng.choice([1, -1]) * int(scale * w / sum(weights) * d**sigma)
    F = ArithFn.from_values(values)
    if dirichlet._int64_certified(np.array(F.values, dtype=np.int64)):
        inv = dirichlet_inverse(F)
        assert all(abs(v) <= n**sigma for n, v in enumerate(inv.values[1:], 1))
        assert typed(inv.values) == typed(loop_inverse(F.values))


def test_inverse_past_2_62_runs_on_objects(sweep_dtypes):
    # F(n) = -2^31 for n >= 2: Ft(4) = 2^62 + 2^31 and Ft(6) = 2^63 + 2^31,
    # just past int64, where a wrong bound would wrap
    F = ArithFn.from_values([1] + [-(2**31)] * 6)
    inv = dirichlet_inverse(F)
    assert inv.values[4] == 2**62 + 2**31 and inv.values[6] == 2**63 + 2**31
    assert typed(inv.values) == typed(loop_inverse(F.values))
    assert sweep_dtypes == [np.float64, object]


def test_convolution_past_2_62_runs_on_objects(sweep_dtypes):
    # every n >= 2 has at least two divisors, so (F*F)(n) >= 2^63
    F = ArithFn.from_values([2**31] * 64)
    H = convolve(F, F)
    assert H.values[2] == 2**63 and H.values[60] == 12 * 2**62
    assert typed(H.values) == typed(loop_convolve(F.values, F.values))
    assert sweep_dtypes == [object]


def random_small_ints(limit, rng):
    """F(1) = +-1, then small ints, a third of them 0, so that both F(d) = 0
    and Ft(m) = 0 occur."""
    return [rng.choice([1, -1])] + [rng.choice([0, 0, 1, -1, 2, -3]) for _ in range(limit - 1)]


def assert_int64_sweeps_match_the_loops(fv, gv):
    """The int64 inverse and convolution sweeps, and the float64 majorant,
    against the loops, on fv and gv with a slot 0."""
    f, g = np.array(fv, dtype=np.int64), np.array(gv, dtype=np.int64)
    inv = dirichlet._inverse_sweep(f).tolist()
    assert inv == loop_inverse(fv)
    assert dirichlet._convolve_sweep(f, g).tolist() == loop_convolve(fv, gv)
    # the majorant's values are exact in float64 at these sizes
    majorant = [0, 1] + [-abs(v) for v in fv[2:]]
    bound = dirichlet._inverse_sweep(np.array(majorant, dtype=np.float64)).tolist()
    assert bound == loop_inverse(majorant)
    assert all(abs(v) <= b for v, b in zip(inv, bound))


# r^2 - 1, r^2 and r^2 + 1 are where isqrt(N) steps, which moves the
# hyperbola split and the first block; 2^k and 2^k + 1 end a block or
# start a new one
INT64_EDGES = sorted({r * r + e for r in (2, 3, 7, 12, 45) for e in (-1, 0, 1)}
                     | {2**k + e for k in range(13) for e in (0, 1)})


@pytest.mark.parametrize("limit", INT64_EDGES)
def test_int64_sweeps_match_the_loops_at_block_and_hyperbola_edges(limit, sweep_dtypes):
    rng = random.Random(limit)
    F = ArithFn.from_values(random_small_ints(limit, rng))
    G = ArithFn.from_values(random_small_ints(limit, rng))
    inv = dirichlet_inverse(F)
    if limit >= 16:
        assert 0 in F.values[2:] and 0 in inv.values[2:]
    assert typed(inv.values) == typed(loop_inverse(F.values))
    assert typed(convolve(F, G).values) == typed(loop_convolve(F.values, G.values))
    assert sweep_dtypes == [np.int64, np.int64]
    assert_int64_sweeps_match_the_loops(F.values, G.values)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=0, max_value=2**32))
def test_int64_sweeps_match_the_loops(limit, seed):
    rng = random.Random(seed)
    assert_int64_sweeps_match_the_loops(
        [0] + random_small_ints(limit, rng), [0] + random_small_ints(limit, rng)
    )


@pytest.mark.parametrize("values", [
    [1, 2, 0.5],  # a float
    [1, True, 2],  # a bool is not an int here
    [1, np.int64(3), 2],  # nor is a numpy scalar
    [1, 2**64, 2],  # an int past int64
    [2, 1, 3],  # F(1) is not a unit
])
def test_inverse_of_values_int64_cannot_hold_runs_on_objects(values, sweep_dtypes):
    F = ArithFn.from_values(values)
    assert typed(dirichlet_inverse(F).values) == typed(loop_inverse(F.values))
    assert sweep_dtypes == [object]


def test_complex_f_z_runs_on_planes_and_equals_the_loops(sweep_dtypes, sieve_big):
    limit = 20_000
    fz = ArithFn(limit, [0, 1] + [complex(0.7, -1.1)] * (limit - 1))  # z = -0.7 + 1.1i
    inv = dirichlet_inverse(fz)
    mu = sieve_big.mu
    restricted = ArithFn(limit, [v if mu[n] != 0 else 0 for n, v in enumerate(inv.values)])
    assert typed(inv.values) == typed(loop_inverse(fz.values))
    assert typed(dirichlet_inverse(restricted).values) == typed(loop_inverse(restricted.values))
    assert typed(convolve(fz, inv).values) == typed(loop_convolve(fz.values, inv.values))
    assert sweep_dtypes == [dirichlet._Planes] * 3


@pytest.mark.parametrize("limit", [2, 100, 2**13 - 1, 2**13])
def test_complex_tables_of_any_length_run_on_planes(limit, sweep_dtypes):
    fz = ArithFn(limit, [0, 1] + [complex(0.7, -1.1)] * (limit - 1))
    inv = dirichlet_inverse(fz)
    assert typed(inv.values) == typed(loop_inverse(fz.values))
    assert typed(convolve(fz, inv).values) == typed(loop_convolve(fz.values, inv.values))
    assert sweep_dtypes == [dirichlet._Planes] * 2


@pytest.mark.parametrize("values", [
    [1, -2, 0.5j],  # an int other than 0 after F(1)
    [1, 0.5, 1j],  # a float
    [1, True, 1j],  # a bool
    [1j, 1j, 0],  # a complex F(1)
    [complex(1, 0), 1j, 0],  # even one equal to 1
    [2, 1j, 0],  # an int F(1) other than +-1
    [1, 0, 2**70, 1j],  # a large int
])
def test_complex_values_planes_cannot_hold_run_on_objects(values, sweep_dtypes):
    F = ArithFn.from_values(values)
    G = ArithFn.from_values([1] + [1j] * (len(values) - 1))
    assert typed(dirichlet_inverse(F).values) == typed(loop_inverse(F.values))
    assert typed(convolve(F, G).values) == typed(loop_convolve(F.values, G.values))
    assert typed(convolve(G, F).values) == typed(loop_convolve(G.values, F.values))
    assert sweep_dtypes == [object] * 3


def test_a_term_the_loop_skips_is_never_formed():
    # F(50) G(2) = 0.0 * 10**400 raises OverflowError, where the loop skips it
    fv = [0, 1] + [0] * 99
    fv[50] = 0.0
    gv = [0, 1, 10**400] + [0] * 98
    assert typed(convolve(ArithFn(100, fv), ArithFn(100, gv)).values) == typed(loop_convolve(fv, gv))


def test_an_int_past_a_double_beside_complex_values_runs_on_objects(sweep_dtypes):
    # 10^400 * 1j overflows, but (F * G) makes only int products with it
    F = ArithFn.from_values([1, 10**400, 1j])
    G = ArithFn.from_values([1, 2, 3])
    assert typed(convolve(F, G).values) == typed(loop_convolve(F.values, G.values))
    assert sweep_dtypes == [object]


def test_an_interpreter_that_mixes_ints_into_complex_otherwise_runs_on_objects(sweep_dtypes, monkeypatch):
    limit = 2**13 + 1
    fz = ArithFn(limit, [0, 1] + [complex(0.7, -1.1)] * (limit - 1))
    inv = dirichlet_inverse(fz)
    product = convolve(fz, inv)
    monkeypatch.setattr(dirichlet, "_INT_ENTERS_AS_COMPLEX", False)
    assert typed(dirichlet_inverse(fz).values) == typed(inv.values)
    assert typed(convolve(fz, inv).values) == typed(product.values)
    assert sweep_dtypes == [dirichlet._Planes] * 2 + [object] * 2


def held_copy(R):
    """An ArithFn of a fresh list of R's values that leaves R's table held."""
    return ArithFn(R.limit, R._table.tolist() if R._table is not None else list(R.values))


def held_inputs(kind, limit, rng):
    """Two kernel results of one kind, made from random values with zeros,
    signed zeros and F(1) = +-1: int64 and planes results hold their table."""
    finite = rng.random() < 0.5  # planes without inf and nan parts, so that every series sum is finite

    def values(f1):
        if kind == "int64":
            return [f1] + [rng.choice([0, 0, 1, -1, 2, -1]) for _ in range(limit - 1)]
        if kind == "planes" and finite:
            return [f1] + [rng.choice([0, 0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                                       complex(rng.uniform(-1, 1), rng.uniform(-1, 1))])
                           for _ in range(limit - 2)] + [1j][: limit - 1]
        if kind == "planes":
            return random_plane_values(limit, f1, rng)
        return random_values("float", limit, f1, rng)

    F, G = (ArithFn.from_values(values(rng.choice([1, -1]))) for _ in range(2))
    return dirichlet_inverse(F), convolve(F, G)


@settings(max_examples=60, deadline=None)
@given(
    KERNEL_SIZES,
    st.sampled_from(["int64", "planes", "object"]),
    st.integers(min_value=0, max_value=2**32),
)
def test_kernels_on_held_tables_equal_the_kernels_on_their_lists(limit, kind, seed):
    rng = random.Random(seed)
    support = np.array([n == 1 or rng.random() < 0.6 for n in range(limit + 1)])
    kernels = [
        lambda R, S: dirichlet_inverse(R),
        lambda R, S: convolve(R, S),
        lambda R, S: convolve(S, R),
        lambda R, S: convolve(R, R),
        lambda R, S: restrict_support(R, support),
        lambda R, S: dirichlet_inverse(restrict_support(R, support)),
        lambda R, S: series_eval(R, complex(1.5, -2.0)),
    ]
    R, S = held_inputs(kind, limit, rng)
    held = kind != "object" or limit == 1  # F(1) alone is an int, so int64
    assert (R._table is not None, S._table is not None) == (held, held)
    for kernel in kernels:
        want = kernel(held_copy(R), held_copy(S))
        got = kernel(R, S)
        if isinstance(got, ArithFn):
            got, want = typed(got.values), typed(want.values)
        assert (type(got), repr(got)) == (type(want), repr(want))
        assert (R._table is not None, S._table is not None) == (held, held)  # read as tables
    assert typed(R.values) == typed(held_copy(R).values) and R._table is None


@pytest.mark.parametrize("spoil", ["an unmarked 1", "a marked F(1)", "no complex"])
def test_held_planes_plane_row_would_refuse_take_the_list_path(spoil, sweep_dtypes):
    limit = 2**13 + 1
    values = [0, 1] + [complex(0.7, -1.1), 0] * (limit // 2)
    if spoil == "an unmarked 1":
        values[77] = 1
    elif spoil == "a marked F(1)":
        values[1] = 1j
    else:
        values[2::2] = [0] * len(values[2::2])
    table = dirichlet._Planes.zeros(limit + 1)
    table.c[:] = values
    table.k[:] = [type(v) is complex for v in values]

    def crafted():
        F = ArithFn._holding(table)
        assert typed(held_copy(F).values) == typed(values)
        return F

    support = np.array([n % 3 != 0 for n in range(limit + 1)])
    assert typed(dirichlet_inverse(crafted()).values) == typed(loop_inverse(values))
    assert typed(convolve(crafted(), crafted()).values) == typed(loop_convolve(values, values))
    assert typed(restrict_support(crafted(), support).values) == typed(
        [v if support[n] else 0 for n, v in enumerate(values)])
    assert repr(series_eval(crafted(), 2)) == repr(series_eval(ArithFn(limit, values), 2))
    # the list path: ints alone sweep in int64
    assert sweep_dtypes == [np.int64 if spoil == "no complex" else object] * 2


@pytest.mark.parametrize("z, limit", [(2, 2000), (complex(0.7, -1.1), 2**13 + 1)])
def test_a_change_to_a_held_result_is_seen_by_every_later_kernel(z, limit, sieve_small, sweep_dtypes):
    fz = ArithFn(limit, [0, 1] + [-z] * (limit - 1))
    inv = dirichlet_inverse(fz)
    assert inv._table is not None
    inv.values[77] += 1
    changed = inv.values.copy()
    squarefree = [v if sieve_small.mu[n] != 0 else 0 for n, v in enumerate(changed)]
    assert typed(convolve(fz, inv).values) == typed(loop_convolve(fz.values, changed))
    restricted = restrict_support(inv, sieve_small.mu != 0)
    assert typed(dirichlet_inverse(restricted).values) == typed(loop_inverse(squarefree))
    assert repr(series_eval(inv, 3)) == repr(series_eval(ArithFn(limit, changed), 3))
    assert series_eval(inv, 3) != series_eval(dirichlet_inverse(fz), 3)
    # the changed list is no table a sweep made, yet it still sweeps as one
    assert set(sweep_dtypes) == ({np.dtype(np.int64)} if z == 2 else {dirichlet._Planes})


# values of every kind a constant function's later value can take: ints in
# and past int64 and the 2^62 bound, a bool, floats with a signed zero, and
# complex numbers with a signed zero, a nan and an overflowing product
CONSTANT_TAILS = [0, 1, -1, 2, -3, 2**62 - 1, -(2**62), 2**62, 2**63, 10**30, True, 0.5, -0.0,
                  complex(0.6, 0.8), complex(-0.0, 1.0), complex(math.nan, 0), 1e308 + 1e308j]


def other_operand(v, limit, rng):
    """A list function to convolve a constant with: small ints beside an
    int v, plane values beside a complex v, floats beside the rest."""
    if type(v) is int:
        return ArithFn.from_values(random_small_ints(limit, rng))
    if type(v) is complex:
        return ArithFn.from_values(random_plane_values(limit, 1, rng))
    return ArithFn.from_values(random_values("float", limit, 1, rng))


def outcome(kernel, *args):
    """kernel(*args) as (type, repr), per value for an ArithFn, or the
    error it raises."""
    try:
        got = kernel(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    if isinstance(got, ArithFn):
        return typed(got.values)
    return type(got), repr(got)


@pytest.mark.parametrize("v", CONSTANT_TAILS, ids=repr)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(limit=st.one_of(st.sampled_from([0, 1, 2, 2**13 + 1]), KERNEL_SIZES),
       seed=st.integers(min_value=0, max_value=2**32))
@example(limit=0, seed=0)
@example(limit=1, seed=0)
@example(limit=2, seed=0)
@example(limit=2**13 + 1, seed=0)
def test_a_constant_function_equals_its_list_in_every_kernel(v, limit, seed, sweep_dtypes):
    rng = random.Random(seed)
    twin_values = [0, 1][: limit + 1] + [v] * (limit - 1)
    G = other_operand(v, limit, rng)
    support = np.array([n == 1 or rng.random() < 0.6 for n in range(limit + 1)])
    kernels = [
        dirichlet_inverse,
        lambda F: convolve(F, G),
        lambda F: convolve(G, F),
        lambda F: convolve(F, F),
        lambda F: restrict_support(F, support),
        lambda F: series_eval(F, complex(1.5, -2.0)),
        dirichlet.first_non_finite,
        ArithFn.csv_text,
        repr,
        lambda F: F == ArithFn(limit, twin_values),
    ]
    if limit <= 300:
        kernels.append(inverse_via_alternating)
    for kernel in kernels:
        # each kernel takes a fresh constant, as the first read of its values
        # turns it into a list
        constant = ArithFn.constant_tail(limit, v)
        twin = ArithFn(limit, twin_values.copy())
        start = len(sweep_dtypes)
        want = outcome(kernel, twin)
        swept = len(sweep_dtypes) - start
        assert outcome(kernel, constant) == want
        assert sweep_dtypes[start + swept :] == sweep_dtypes[start : start + swept]


@pytest.mark.parametrize("v", [-2, complex(0.6, 0.8)])
def test_a_change_to_a_constant_functions_list_is_seen_by_the_next_inverse(v, sweep_dtypes, list_scans):
    limit = 2**13 + 1
    F = ArithFn.constant_tail(limit, v)
    unchanged = dirichlet_inverse(F)
    assert list_scans == []
    F.values[77] += 1
    changed = [0, 1] + [v] * (limit - 1)
    changed[77] += 1
    assert typed(F.values) == typed(changed)
    inv = dirichlet_inverse(F)
    assert typed(inv.values) == typed(loop_inverse(changed)) != typed(unchanged.values)
    assert list_scans == [limit + 1]
    assert sweep_dtypes == [np.dtype(np.int64) if v == -2 else dirichlet._Planes] * 2


@pytest.mark.parametrize("limit, ones, unit", [(0, [0], [0]), (1, [0, 1], [0, 1]), (2, [0, 1, 1], [0, 1, 0])])
def test_ones_and_unit_at_the_smallest_limits(limit, ones, unit):
    assert typed(ArithFn.ones(limit).values) == typed(ones)
    assert typed(ArithFn.unit(limit).values) == typed(unit)
    assert ArithFn.ones(limit).limit == ArithFn.unit(limit).limit == limit


def test_a_negative_limit_is_a_value_error_that_names_it():
    for make in (ArithFn.ones, ArithFn.unit, lambda limit: ArithFn.constant_tail(limit, 2j)):
        with pytest.raises(ValueError, match=r"^limit must be >= 0, got -1$"):
            make(-1)


def test_inverses_of_a_limit_0_function_are_value_errors():
    empty = ArithFn.from_values([])
    held = convolve(empty, empty)  # an int64 table of length 1
    assert held._table is not None
    for F in (empty, held):
        for inverse in (dirichlet_inverse, inverse_via_alternating):
            with pytest.raises(ValueError, match="F has limit 0: the Dirichlet inverse needs F"):
                inverse(F)


def test_a_limit_0_function_of_floats_convolves_as_the_loop():
    F = ArithFn(0, [0.0])  # no F(1) for the planes to read
    assert typed(convolve(F, F).values) == typed(loop_convolve(F.values, F.values))


def test_first_non_finite_reads_tables_and_lists():
    assert dirichlet.first_non_finite(ArithFn.from_values([1, 2**80, -0.0, 3j])) is None
    assert dirichlet.first_non_finite(ArithFn.from_values([1, 2, complex(1, math.inf), math.nan])) == 3
    limit = 2**13 + 1
    z = complex(1e150, 1)
    held = dirichlet_inverse(ArithFn(limit, [0, 1] + [-z] * (limit - 1)))
    assert isinstance(held._table, dirichlet._Planes)
    n = dirichlet.first_non_finite(held)
    assert held._table is not None and n == 8
    values = held.values
    assert all(cmath.isfinite(v) for v in values[:n]) and not cmath.isfinite(values[n])
    assert dirichlet.first_non_finite(dirichlet_inverse(ArithFn.ones(limit))) is None


def test_a_held_result_compares_and_prints_as_its_list():
    inv = dirichlet_inverse(ArithFn.ones(30))
    assert inv.limit == 30 and inv._table is not None
    want = ArithFn(limit=30, values=inv._table.tolist())
    assert inv == want and inv != ArithFn.ones(30) and repr(inv) == repr(want)
    assert repr(want).startswith("ArithFn(limit=30, values=[0, 1, -1, -1, 0, -1, 1,")


def test_inverse_of_ones_is_mu_at_a_million(sieve_big):
    assert dirichlet_inverse(ArithFn.ones(10**6)).values[1:] == sieve_big.mu[1:].tolist()


def test_mu_convolved_with_ones_is_unit(sieve_small):
    limit = 2000
    H = convolve(ArithFn.from_values(sieve_small.mu[1 : limit + 1].tolist()), ArithFn.ones(limit))
    assert H.values[1] == 1
    assert all(H.values[n] == 0 for n in range(2, limit + 1))


def test_ones_convolved_with_ones_is_divisor_count():
    H = convolve(ArithFn.ones(100), ArithFn.ones(100))
    assert H.values[12] == 6
    assert H.values[1] == 1
    assert H.values[97] == 2


def test_from_values_fills_1_to_n():
    F = ArithFn.from_values(iter([5, -6, 7j]))
    assert F.limit == 3 and F.values == [0, 5, -6, 7j]


def test_unit_is_identity_element():
    rng = random.Random(0)
    F = ArithFn.from_values([rng.randint(-5, 5) for _ in range(50)])
    H = convolve(F, ArithFn.unit(50))
    assert H.values == F.values


def test_convolve_limit_mismatch():
    with pytest.raises(ValueError):
        convolve(ArithFn.ones(10), ArithFn.ones(11))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_convolution_commutes(seed):
    rng = random.Random(seed)
    limit = 60
    F = ArithFn.from_values([rng.randint(-3, 3) for _ in range(limit)])
    G = ArithFn.from_values([rng.randint(-3, 3) for _ in range(limit)])
    assert convolve(F, G).values == convolve(G, F).values


def test_convolution_associates():
    rng = random.Random(5)
    limit = 60
    fns = [
        ArithFn.from_values([rng.randint(-3, 3) for _ in range(limit)])
        for _ in range(3)
    ]
    lhs = convolve(convolve(fns[0], fns[1]), fns[2])
    rhs = convolve(fns[0], convolve(fns[1], fns[2]))
    assert lhs.values == rhs.values


def test_inverse_of_ones_is_mu(sieve_small):
    inv = dirichlet_inverse(ArithFn.ones(10_000))
    assert all(inv.values[n] == int(sieve_small.mu[n]) for n in range(1, 10_001))


def test_inverse_of_unit_is_unit():
    inv = dirichlet_inverse(ArithFn.unit(100))
    assert inv.values == ArithFn.unit(100).values


def test_inverse_requires_nonzero_at_one():
    with pytest.raises(ValueError):
        dirichlet_inverse(ArithFn.from_values([0, 1, 1]))


def test_inverse_roundtrip_random():
    rng = random.Random(11)
    limit = 2000
    for _ in range(10):
        vals = [1] + [
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(limit - 1)
        ]
        F = ArithFn(limit, [0] + vals)
        H = convolve(F, dirichlet_inverse(F))
        assert abs(H.values[1] - 1) <= 1e-9
        assert max(abs(H.values[n]) for n in range(2, limit + 1)) <= 1e-9


def test_f_k_F_of_ones_is_fk(ftables_small):
    F = ArithFn.ones(3000)
    assert f_k_F(F, 12, 2) == 4
    for n in (12, 30, 60, 720):
        for k in range(1, 6):
            assert f_k_F(F, n, k) == ftables_small.fk[k][n]


def test_f_k_F_vanishes_beyond_omega(sieve_small):
    rng = random.Random(3)
    F = ArithFn.from_values([rng.uniform(-1, 1) for _ in range(500)])
    for n in (12, 64, 210):
        omega = factorize(n, sieve_small).big_omega
        assert f_k_F(F, n, omega + 1) == 0


def test_f_k_F_completely_multiplicative(sieve_small):
    # F(p) = i at every prime: f_k(F; n) = F(n) f_k(n)
    pv = {int(p): 1j for p in sieve_small.primes if p <= 500}
    F = ArithFn.completely_multiplicative(500, sieve_small, pv)
    assert f_k_F(F, 4, 2) == 1j * 1j * 1  # the single tuple (2, 2)
    for n in (12, 30, 360):
        tuples = enumerate_ordered_factorizations(n)
        for k in range(1, 5):
            expect = F.values[n] * len([t for t in tuples if len(t) == k])
            assert cmath.isclose(f_k_F(F, n, k), expect, abs_tol=1e-12)


def test_completely_multiplicative_across_2_16_is_the_product_over_each_factorization():
    # F(p) = the index of p, so a prime read wrongly above 2^16 changes F
    sympy = pytest.importorskip("sympy")
    tables = build_sieve(70_000)
    for p in (65521, 65537, 65539, 69997):
        assert factorize(p, tables).factors == ((p, 1),)
    assert factorize(65536, tables).factors == ((2, 16),)
    index = {p: i for i, p in enumerate(tables.primes.tolist(), start=1)}
    F = ArithFn.completely_multiplicative(70_000, tables, index)
    for n in range(1, 70_001):
        assert F.values[n] == math.prod(index[p] ** e for p, e in sympy.factorint(n).items()), n


def test_alternating_inverse_examples(sieve_small):
    F = ArithFn.ones(200)
    alt = inverse_via_alternating(F)
    assert alt.values[4] == 0  # -f_1(4) + f_2(4) = -1 + 1
    for p in (2, 3, 5, 7, 11, 13):
        assert alt.values[p] == -1
    assert all(alt.values[n] == int(sieve_small.mu[n]) for n in range(1, 201))


def test_alternating_inverse_matches_recurrence():
    rng = random.Random(21)
    limit = 500
    vals = [1] + [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(limit - 1)]
    F = ArithFn(limit, [0] + vals)
    direct = dirichlet_inverse(F)
    alt = inverse_via_alternating(F)
    scale = max(abs(v) for v in direct.values[1:])
    for n in range(1, limit + 1):
        assert abs(direct.values[n] - alt.values[n]) <= 1e-9 * scale


def test_alternating_inverse_normalizes_internally():
    rng = random.Random(8)
    limit = 200
    vals = [2.0] + [rng.uniform(-1, 1) for _ in range(limit - 1)]
    F = ArithFn(limit, [0] + vals)
    direct = dirichlet_inverse(F)
    alt = inverse_via_alternating(F)
    for n in range(1, limit + 1):
        assert abs(direct.values[n] - alt.values[n]) <= 1e-9


def alternating_inputs(kind, limit, rng):
    if kind == "non-unit":
        return [rng.choice([2, 0.5, 1j])] + random_values("mixed", limit, 0, rng)[1:]
    return random_values(kind, limit, rng.choice([1, -1]), rng)


@pytest.mark.parametrize("kind", ["int", "float", "complex", "non-unit"])
def test_f_k_rows_equal_the_recursion(kind):
    # complex values include 0j and signed zeros, which the sums must keep
    rng = random.Random(kind)
    limit = 1000
    fv = [0] + alternating_inputs(kind, limit, rng)
    fk = f_k_recursion(fv)
    rows = dirichlet._f_k_rows(fv, [9] * (limit + 1))
    for j in range(1, 10):
        assert typed(rows[j][1:]) == typed([fk(m, j) for m in range(1, limit + 1)]), j
    F = ArithFn(limit, fv)
    assert typed(inverse_via_alternating(F).values) == typed(alternating_by_recursion(fv)[0])
    for n in (720, 768, 997, 1000):
        for k in (1, 3, _big_omega(n), _big_omega(n) + 1):
            assert typed([f_k_F(F, n, k)]) == typed([fk(n, k)])


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=300),
    st.sampled_from(["int", "float", "complex", "non-unit"]),
    st.integers(min_value=0, max_value=2**32),
)
def test_alternating_inverse_equals_the_recursion(limit, kind, seed):
    fv = [0] + alternating_inputs(kind, limit, random.Random(seed))
    tables = []

    def f_k_rows(values, reach):
        tables.append(real_f_k_rows(values, reach))
        return tables[-1]

    real_f_k_rows = dirichlet._f_k_rows
    with mock.patch.object(dirichlet, "_f_k_rows", f_k_rows):
        alt = inverse_via_alternating(ArithFn(limit, fv))
    want, memoized = alternating_by_recursion(fv)
    assert typed(alt.values) == typed(want)
    # the table makes the entries the recursion memoizes, and no others
    [rows] = tables
    assert {(m, j) for j in range(2, len(rows)) for m in range(2, limit + 1) if rows[j][m] is not None} == memoized


def test_alternating_inverse_of_a_minus_one_unit_stays_exact():
    F = ArithFn.from_values([-1] + [10**6] * 63)
    alt = inverse_via_alternating(F)
    assert alt.values[64] == -1000005000010000010000005000001000000
    assert typed(alt.values) == typed(dirichlet_inverse(F).values)


def test_restrict_support(sieve_small):
    kinds = [
        [n * (-1) ** n for n in range(1, 31)],
        [-0.0 if n % 3 == 0 else n / 7 for n in range(1, 31)],  # -0.0 on and off the support
        [complex(-0.0, 0.0) if n % 2 == 0 else complex(n, -0.0) for n in range(1, 31)],
    ]
    for values in kinds:
        F = ArithFn.from_values(values)
        # the sieve's masks cover 0..10^4, longer than the 0..30 they restrict; the last fits exactly
        for support in (sieve_small.mu != 0, sieve_small.kappa_free_mask(3, sieve_small.limit), np.ones(31, dtype=bool)):
            R = restrict_support(F, support)
            assert R.limit == 30 and type(R.values[0]) is int and R.values[0] == 0
            for n in range(1, 31):
                if support[n]:
                    assert R.values[n] is F.values[n]
                else:
                    assert type(R.values[n]) is int and R.values[n] == 0
            with pytest.raises(ValueError, match="support covers 0..29, not 0..30"):
                restrict_support(F, support[:30])
        assert all(v is w for v, w in zip(F.values[1:], values))  # F is left as it was
        squarefree = restrict_support(F, sieve_small.mu != 0).values
        assert squarefree == restrict_support(F, sieve_small.kappa_free_mask(2, 30)).values


def test_summatory(sieve_small):
    assert summatory(ArithFn.ones(200), 100) == 100
    assert summatory(ArithFn.from_values(sieve_small.mu[1:10_001].tolist()), 10_000) == -23


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=3000),
    st.sampled_from(["int", "float", "complex", "mixed"]),
    st.complex_numbers(min_magnitude=0.5, max_magnitude=8, allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=2**32),
)
def test_series_eval_equals_the_loop_within_rounding(limit, kind, s, seed):
    values = random_values(kind, limit, 1, random.Random(seed))
    want, size = loop_series([0] + values, s)
    # both sums round each of at most limit additions by at most 2^-53 of a
    # partial sum, itself at most size, and the terms agree to a few ulps
    assert abs(series_eval(ArithFn.from_values(values), s) - want) <= 4 * (limit + 4) * 2**-53 * size


def test_series_eval_zeta2():
    F = ArithFn.ones(1_000_000)
    val = series_eval(F, 2.0)
    assert abs(val - math.pi**2 / 6) < 1e-6


def test_series_eval_rejects_integers_beyond_a_double():
    with pytest.raises(ValueError, match=r"F\(2\) does not fit a double"):
        series_eval(ArithFn.from_values([1, 10**400]), 2)
    with pytest.raises(ValueError, match=r"F\(4\) does not fit a double: it is an integer of 1329 bits"):
        series_eval(ArithFn.from_values([1, 0, 0, 10**400]), 2)


def test_series_eval_skips_zero_terms():
    # 2^800 overflows a double; the zero terms are left out, not 0 * inf = NaN
    assert series_eval(ArithFn.from_values([1, 0, 0]), -800) == 1
    assert series_eval(ArithFn.from_values([0, 0]), 2) == 0


def test_series_eval_past_the_float_range_is_inf_or_nan():
    # where math.fsum refuses, the plain sum gives what the terms' floats do
    assert series_eval(ArithFn.from_values([1e308, 1e308]), 0) == math.inf
    assert cmath.isnan(series_eval(ArithFn.from_values([math.inf, -math.inf]), 0))


def test_series_eval_sums_the_terms_once_rounded():
    # at s = 0 the terms are 1, 2^-53, 2^-53: adding one at a time rounds each 2^-53 away
    assert series_eval(ArithFn.from_values([1, 2.0**-53, 2.0**-53]), 0) == 1 + 2.0**-52


def test_series_eval_complex_point():
    F = ArithFn.ones(500)
    s = complex(2.0, 1.0)
    direct = sum(n ** -s for n in range(1, 501))
    assert cmath.isclose(series_eval(F, s), direct, rel_tol=1e-12)


def seeded_doubles(kind, length, rng):
    """length doubles: 53-bit mantissas at exponents from -1074 to 1000,
    subnormals alone, or pairs x, -x that cancel to 0 exactly, shuffled."""
    def wide():
        return math.ldexp(rng.choice([1, -1]) * rng.getrandbits(53), rng.randint(-1074, 1000) - 52)

    if kind == "wide":
        return [wide() for _ in range(length)]
    if kind == "subnormal":
        return [math.ldexp(rng.randint(-(2**52), 2**52), -1074) for _ in range(length)]
    half = [wide() for _ in range(length // 2)]
    xs = half + [-x for x in half] + [0.0] * (length % 2)
    rng.shuffle(xs)
    return xs


def same_double(a, b):
    return a.hex() == b.hex() and math.copysign(1, a) == math.copysign(1, b)


@pytest.mark.parametrize("length", [4095, 4096, 4097])
@pytest.mark.parametrize("kind", ["wide", "subnormal", "cancelling"])
def test_exact_sum_is_fsum_bit_for_bit(kind, length):
    rng = random.Random(f"{kind}:{length}")
    re, im = seeded_doubles(kind, length, rng), seeded_doubles("wide", length, rng)
    terms = np.array(re) + 0j
    terms.imag = im
    got = dirichlet._exact_sum((terms[s] for s in dirichlet._chunks(0, length)), length)
    assert same_double(got.real, math.fsum(re)) and same_double(got.imag, math.fsum(im))
    # at s = 0 the terms are the values themselves: -0.0 real parts sum to +0.0 as in fsum
    values = [complex(-0.0 if kind == "cancelling" and x == 0 else x, y) for x, y in zip(re, im)]
    total = series_eval(ArithFn.from_values(values), 0)
    assert same_double(total.real, math.fsum(re)) and same_double(total.imag, math.fsum(im))
    if kind == "cancelling":
        assert same_double(got.real, 0.0)


def test_exact_sum_leaves_non_finite_and_overflowing_terms_to_fsum():
    assert dirichlet._exact_sum([np.array([1.0, math.inf + 0j])], 2) is None
    assert dirichlet._exact_sum([np.array([complex(1.0, math.nan)])], 1) is None
    # 3 values below 2^1021 sum below 2^1023, 4 need not
    assert dirichlet._exact_sum([np.array([2.0**1020 + 0j] * 3)], 3) == 3 * 2.0**1020
    assert dirichlet._exact_sum([np.array([2.0**1020 + 0j] * 3)], 4) is None


# odd ints near +-2^53, where a double holds every other int and the ties
# round to even, and the ends of int64
INT64_EDGE_INTS = [sign * (2**53 + k) for sign in (1, -1) for k in range(-9, 10, 2)] + [
    2**63 - 1, -(2**63), 2**63 - 2**10 + 1, -(2**63) + 2**10 - 1,
]


def test_series_eval_reads_int64_ints_as_complex_does():
    assert np.array(INT64_EDGE_INTS).dtype == np.int64  # the int64 route
    got = dirichlet._doubles(INT64_EDGE_INTS, 1)
    want = np.array([complex(v) for v in INT64_EDGE_INTS], dtype=np.complex128)
    assert got.dtype == np.complex128 and got.tobytes() == want.tobytes()
    # at s = 0 the n = 1 term is F(1) itself
    for v in INT64_EDGE_INTS:
        assert repr(series_eval(ArithFn.from_values([v]), 0)) == repr(complex(v))


@pytest.mark.parametrize("values", [
    [2**63],  # numpy reads it as uint64
    [2**64 + 1, 3],  # and these as objects
    [-(2**63) - 1, 2**63 - 1],
    [5, 10**300],
])
def test_series_eval_of_ints_past_int64(values):
    # at s = 0 every term is F(n) itself
    want = complex(math.fsum(float(v) for v in values))
    assert series_eval(ArithFn.from_values(values), 0) == want


def test_series_eval_names_an_int_past_a_double_after_an_int64_chunk():
    values = [1] * dirichlet._CHUNK + [3, 10**400]
    n = dirichlet._CHUNK + 2
    with pytest.raises(ValueError, match=rf"F\({n}\) does not fit a double: it is an integer of 1329 bits"):
        series_eval(ArithFn.from_values(values), 2)


@pytest.mark.parametrize("values", [
    [1, 2j, -3, complex(-0.0, 0.5)],  # ints and complex numbers
    [complex(0.0, -0.0), 5, 2**62 + 1],  # a complex first
    [3, 0.1, -2],  # ints and a float
])
def test_series_eval_reads_other_lists_directly(values):
    got = dirichlet._doubles(values, 1)
    assert got.tobytes() == np.array(values, dtype=np.complex128).tobytes()


def test_growth_of_restricted_inverse_partial_sums(sieve_big):
    # bounded F with F(1)=1: the inverse restricted to squarefree support
    # keeps its partial sums well under x^1.1 at every checkpoint
    rng = random.Random(42)
    limit = 100_000
    vals = [1] + [rng.uniform(-1, 1) for _ in range(limit - 1)]
    inv = dirichlet_inverse(ArithFn(limit, [0] + vals))
    mu = sieve_big.mu
    exponents = []
    for x in (10**3, 10**4, 10**5):
        s = sum(inv.values[n] for n in range(1, x + 1) if mu[n] != 0)
        assert abs(s) <= x**1.1
        exponents.append(math.log(max(abs(s), 1e-12)) / math.log(x))
    print(f"restricted partial-sum exponents: {exponents}")
    assert all(e <= 1.1 for e in exponents)


def test_csv_roundtrip(tmp_path, sieve_small):
    F = ArithFn.from_values(sieve_small.mu[1:51].tolist())
    path = tmp_path / "mu.csv"
    path.write_text(F.csv_text())
    G = ArithFn.from_csv(path)
    assert G.limit == 50
    assert [complex(v) for v in G.values[1:]] == [complex(v) for v in F.values[1:]]


def test_csv_text_is_the_bytes_csv_writer_writes():
    values = [True, complex(-0.0, -0.0), -0.0, complex(1.0, -0.0), math.inf, complex(-math.inf, math.nan),
              math.nan, 1e-300, complex(1e300, -1e-300), 2**63 + 1, -(2**70), 0, False]
    values *= 316  # 4108 rows: one full writer chunk of 4096 and a part
    rows = [["n", "re", "im"]]
    for n, v in enumerate(values, start=1):
        rows.append([n, int(v), 0] if isinstance(v, int) else [n, repr(complex(v).real), repr(complex(v).imag)])
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    text = ArithFn.from_values(values).csv_text()
    assert text == buf.getvalue()
    lines = text.split("\r\n")
    assert lines[1:4] == ["1,1,0", "2,-0.0,-0.0", "3,-0.0,0.0"]
    assert lines[6:14] == ["6,-inf,nan", "7,nan,0.0", "8,1e-300,0.0", "9,1e+300,-1e-300",
                           "10,9223372036854775809,0", "11,-1180591620717411303424,0", "12,0,0", "13,0,0"]
    assert len(lines) == 4110 and lines[-1] == ""


def test_csv_keeps_big_integers_exact(tmp_path):
    F = ArithFn.from_values([1, 2**60 + 1, -(3**50), 0.5, 2j])
    path = tmp_path / "big.csv"
    path.write_text(F.csv_text())
    G = ArithFn.from_csv(path)
    assert G.values == F.values
    assert all(type(g) is type(f) for f, g in zip(F.values, G.values))


def test_csv_reads_float_columns(tmp_path):
    path = tmp_path / "old.csv"
    path.write_text("n,re,im\n1,1.0,0.0\n2,-3.0,0.0\n3,0.25,0.0\n4,1.0,2.0\n")
    assert ArithFn.from_csv(path).values == [0, 1, -3, 0.25, 1 + 2j]
