import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorbench import (
    CapacityError,
    build_sieve,
    factorize,
    is_kappa_free,
    iterated_log,
    mobius,
    unit_I,
)
from factorbench.sieve import _big_omega, _divisors


def trial_division_is_prime(n):
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def test_spf_by_inspection(sieve_small):
    assert sieve_small.spf[10] == 2
    assert sieve_small.spf[9] == 3


def test_mu_small_values(sieve_small):
    assert sieve_small.mu[6] == 1
    assert sieve_small.mu[4] == 0
    assert mobius(30, sieve_small) == -1
    assert mobius(12, sieve_small) == 0


def test_mu_at_large_prime(sieve_big):
    assert trial_division_is_prime(999_983)
    assert sieve_big.mu[999_983] == -1


def test_build_rejects_bad_limits():
    with pytest.raises(ValueError):
        build_sieve(1)
    with pytest.raises(CapacityError):
        build_sieve(10**12)


def test_factorize_examples(sieve_small):
    fi = factorize(12, sieve_small)
    assert fi.factors == ((2, 2), (3, 1))
    assert fi.big_omega == 3 and fi.small_omega == 2

    one = factorize(1, sieve_small)
    assert one.factors == () and one.big_omega == 0 and one.small_omega == 0

    fi = factorize(4400, sieve_small)
    assert fi.factors == ((2, 4), (5, 2), (11, 1))
    assert fi.big_omega == 7


def test_factorize_out_of_range(sieve_small):
    with pytest.raises(ValueError):
        factorize(0, sieve_small)
    with pytest.raises(ValueError):
        factorize(10_001, sieve_small)


@given(st.integers(min_value=1, max_value=10_000))
def test_factorize_roundtrip(n):
    tables = _cached_small()
    fi = factorize(n, tables)
    assert fi.reconstruct() == n
    assert all(b < a for a, b in zip([p for p, _ in fi.factors][1:], [p for p, _ in fi.factors]))
    assert fi.big_omega >= fi.small_omega


_SMALL = None


def _cached_small():
    global _SMALL
    if _SMALL is None:
        _SMALL = build_sieve(10_000)
    return _SMALL


def test_kappa_free_examples(sieve_small):
    assert not is_kappa_free(8, 3, sieve_small)
    assert is_kappa_free(8, 4, sieve_small)
    assert is_kappa_free(4400, 5, sieve_small)
    assert is_kappa_free(1, 2, sieve_small)
    with pytest.raises(ValueError):
        is_kappa_free(8, 1, sieve_small)


def test_unit_function():
    assert unit_I(1) == 1
    assert unit_I(2) == 0
    assert unit_I(100) == 0


def test_mobius_sum_identity_exhaustive(sieve_small):
    # sum of mu(d) over divisors d of n equals the unit
    limit = 10_000
    sums = [0] * (limit + 1)
    for d in range(1, limit + 1):
        md = int(sieve_small.mu[d])
        if md:
            for n in range(d, limit + 1, d):
                sums[n] += md
    assert sums[1] == 1
    assert all(sums[n] == 0 for n in range(2, limit + 1))


@pytest.mark.parametrize("kappa", [2, 3, 5])
def test_omega_inequality_on_kappa_free(sieve_big, kappa):
    mask = sieve_big.kappa_free_mask(kappa)
    big, small = sieve_big.big_omega, sieve_big.small_omega
    for n in range(2, 100_001):
        if mask[n]:
            assert big[n] <= kappa * small[n]


def test_kappa_free_mask_matches_pointwise(sieve_small):
    mask = sieve_small.kappa_free_mask(3)
    for n in range(1, 2001):
        assert bool(mask[n]) == is_kappa_free(n, 3, sieve_small)


def test_iterated_log():
    x = math.exp(math.exp(2.0))
    assert iterated_log(x, 1) == pytest.approx(math.exp(2.0))
    assert iterated_log(x, 2) == pytest.approx(2.0)
    # clamp kicks in below e
    assert iterated_log(2.0, 2) == 1.0
    assert iterated_log(0.5, 1) == 1.0


def test_prime_index(sieve_small):
    assert sieve_small.prime_index(2) == 1
    assert sieve_small.prime_index(11) == 5
    with pytest.raises(ValueError):
        sieve_small.prime_index(9)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**6))
def test_divisor_and_omega_helpers_match_sympy(n):
    sympy = pytest.importorskip("sympy")
    assert _divisors(n) == tuple(sympy.divisors(n))
    assert _big_omega(n) == sympy.primeomega(n)


def test_sieve_budget_is_read_from_the_environment_at_call_time(monkeypatch):
    monkeypatch.setenv("FACTORBENCH_MAX_SIEVE", "100")
    with pytest.raises(CapacityError):
        build_sieve(1000)
