import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorbench import (
    ArithFn,
    ComplexPoint,
    convolve,
    dirichlet_inverse,
    f_k_F,
    inverse_via_alternating,
    factorize,
    restrict_support,
    series_eval,
    summatory,
)
from factorbench.factorizations import enumerate_ordered_factorizations


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


def test_series_eval_zeta2():
    F = ArithFn.ones(1_000_000)
    val = series_eval(F, ComplexPoint(2.0))
    assert abs(val - math.pi**2 / 6) < 1e-6


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
