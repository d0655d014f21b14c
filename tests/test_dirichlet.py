import cmath
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorbench import (
    ArithFn,
    ComplexPoint,
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
    with mock.patch.object(dirichlet, "_PLANES_MIN_N", 0):  # planes at every size
        if limit > 1:
            assert dirichlet._planes_or_none(F.values) is not None
        assert typed(dirichlet_inverse(F).values) == typed(loop_inverse(F.values))
        assert typed(convolve(F, G).values) == typed(loop_convolve(F.values, G.values))


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


@pytest.mark.parametrize("z", [-1, 1, 2, 3])
def test_integer_f_z_runs_in_int64_and_equals_the_loops(z, sweep_dtypes):
    limit = 20_000
    fz = ArithFn(limit, [0, 1] + [-z] * (limit - 1))
    inv = dirichlet_inverse(fz)
    assert typed(inv.values) == typed(loop_inverse(fz.values))
    assert typed(convolve(fz, inv).values) == typed(loop_convolve(fz.values, inv.values))
    # the float64 majorant, then the int64 sweeps
    assert sweep_dtypes == [np.float64, np.int64, np.int64]


def test_small_integers_run_in_int64_and_equal_the_loops(sweep_dtypes):
    rng = random.Random(7)
    limit = 5000
    F = ArithFn.from_values([-1] + [rng.randint(-2, 2) for _ in range(limit - 1)])
    G = ArithFn.from_values([rng.randint(-99, 99) for _ in range(limit)])
    assert typed(dirichlet_inverse(F).values) == typed(loop_inverse(F.values))
    assert typed(convolve(F, G).values) == typed(loop_convolve(F.values, G.values))
    assert sweep_dtypes == [np.float64, np.int64, np.int64]


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
    restricted = restrict_support(inv, lambda n: mu[n] != 0)
    assert typed(inv.values) == typed(loop_inverse(fz.values))
    assert typed(dirichlet_inverse(restricted).values) == typed(loop_inverse(restricted.values))
    assert typed(convolve(fz, inv).values) == typed(loop_convolve(fz.values, inv.values))
    assert sweep_dtypes == [dirichlet._Planes] * 3


@pytest.mark.parametrize("limit, sweep", [(2**13 - 1, object), (2**13, dirichlet._Planes)])
def test_complex_tables_below_2_13_run_on_objects(limit, sweep, sweep_dtypes):
    fz = ArithFn(limit, [0, 1] + [complex(0.7, -1.1)] * (limit - 1))
    inv = dirichlet_inverse(fz)
    assert typed(inv.values) == typed(loop_inverse(fz.values))
    assert typed(convolve(fz, inv).values) == typed(loop_convolve(fz.values, inv.values))
    assert sweep_dtypes == [sweep] * 2


@pytest.mark.parametrize("values", [
    [1, -2, 0.5j],  # an int other than 0 after F(1)
    [1, 0.5, 1j],  # a float
    [1, True, 1j],  # a bool
    [1j, 1j, 0],  # a complex F(1)
    [complex(1, 0), 1j, 0],  # even one equal to 1
    [2, 1j, 0],  # an int F(1) other than +-1
    [1, 0, 2**70, 1j],  # a large int
])
def test_complex_values_planes_cannot_hold_run_on_objects(values, sweep_dtypes, monkeypatch):
    monkeypatch.setattr(dirichlet, "_PLANES_MIN_N", 0)
    F = ArithFn.from_values(values)
    G = ArithFn.from_values([1] + [1j] * (len(values) - 1))
    assert typed(dirichlet_inverse(F).values) == typed(loop_inverse(F.values))
    assert typed(convolve(F, G).values) == typed(loop_convolve(F.values, G.values))
    assert typed(convolve(G, F).values) == typed(loop_convolve(G.values, F.values))
    assert sweep_dtypes == [object] * 3


def test_an_int_past_a_double_beside_complex_values_runs_on_objects(sweep_dtypes, monkeypatch):
    monkeypatch.setattr(dirichlet, "_PLANES_MIN_N", 0)
    # 10^400 * 1j overflows, but (F * G) makes only int products with it
    F = ArithFn.from_values([1, 10**400, 1j])
    G = ArithFn.from_values([1, 2, 3])
    assert typed(convolve(F, G).values) == typed(loop_convolve(F.values, G.values))
    assert sweep_dtypes == [object]


def test_inverse_of_ones_is_mu_at_a_million(sieve_big):
    assert dirichlet_inverse(ArithFn.ones(10**6)).values[1:] == sieve_big.mu[1:].tolist()


def test_mu_convolved_with_ones_is_unit(sieve_small):
    limit = 2000
    H = convolve(ArithFn.mobius(limit, sieve_small), ArithFn.ones(limit))
    assert H.values[1] == 1
    assert all(H.values[n] == 0 for n in range(2, limit + 1))


def test_ones_convolved_with_ones_is_divisor_count():
    H = convolve(ArithFn.ones(100), ArithFn.ones(100))
    assert H.values[12] == 6
    assert H.values[1] == 1
    assert H.values[97] == 2


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


def test_restrict_support(sieve_small):
    F = ArithFn.ones(100)
    assert restrict_support(F, lambda n: True).values == F.values
    kfree = restrict_support(F, lambda n: bool(sieve_small.kappa_free_mask(2)[n]))
    assert kfree.values[4] == 0 and kfree.values[6] == 1
    musq = restrict_support(F, lambda n: sieve_small.mu[n] != 0)
    assert musq.values == kfree.values


def test_summatory(sieve_small):
    assert summatory(ArithFn.ones(200), 100) == 100
    assert summatory(ArithFn.mobius(10_000, sieve_small), 10_000) == -23


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
    val = series_eval(F, ComplexPoint(2.0))
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
    s = ComplexPoint(2.0, 1.0)
    direct = sum(n ** (-s.as_complex()) for n in range(1, 501))
    assert cmath.isclose(series_eval(F, s), direct, rel_tol=1e-12)


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
    F = ArithFn.mobius(50, sieve_small)
    path = tmp_path / "mu.csv"
    F.to_csv(path)
    G = ArithFn.from_csv(path)
    assert G.limit == 50
    assert [complex(v) for v in G.values[1:]] == [complex(v) for v in F.values[1:]]


def test_csv_keeps_big_integers_exact(tmp_path):
    F = ArithFn.from_values([1, 2**60 + 1, -(3**50), 0.5, 2j])
    path = tmp_path / "big.csv"
    F.to_csv(path)
    G = ArithFn.from_csv(path)
    assert G.values == F.values
    assert all(type(g) is type(f) for f, g in zip(F.values, G.values))


def test_csv_reads_float_columns(tmp_path):
    path = tmp_path / "old.csv"
    path.write_text("n,re,im\n1,1.0,0.0\n2,-3.0,0.0\n3,0.25,0.0\n4,1.0,2.0\n")
    assert ArithFn.from_csv(path).values == [0, 1, -3, 0.25, 1 + 2j]
