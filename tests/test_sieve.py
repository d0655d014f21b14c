import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factorbench import (
    CapacityError,
    build_sieve,
    factorize,
    is_kappa_free,
    iterated_log,
)
from factorbench.sieve import _COUNT_CHUNK, _big_omega, _divisors, _halving_blocks
from factorbench.verify import _omega_inequality


def sieve_reference(limit):
    """The per-prime loop build_sieve used before its recurrence. spf is found
    as int64 and stored as the sieve stores it: uint16, with 0 at the primes
    >= 2^16 as at 0 and 1."""
    n = limit + 1
    spf = np.zeros(n, dtype=np.int64)
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == 0:
            sl = spf[i * i :: i]
            sl[sl == 0] = i
    primes = np.nonzero(spf == 0)[0][2:].astype(np.int32)
    spf[primes] = primes
    spf[spf >= 2**16] = 0
    spf = spf.astype(np.uint16)

    big_omega = np.zeros(n, dtype=np.int8)
    mu = np.ones(n, dtype=np.int8)
    mu[0] = 0
    for p in primes:
        p = int(p)
        mu[p::p] *= -1
        pk = p
        while pk <= limit:
            big_omega[pk::pk] += 1
            pk *= p
        sq = p * p
        if sq <= limit:
            mu[sq::sq] = 0
    big_omega[1] = 0
    return {"spf": spf, "mu": mu, "big_omega": big_omega, "primes": primes}


def assert_sieve_equals_reference(limit):
    tables = build_sieve(limit)
    for name, want in sieve_reference(limit).items():
        got = getattr(tables, name)
        assert got.shape == want.shape, (limit, name)
        assert np.array_equal(got, want), (limit, name, np.flatnonzero(got != want)[:5])
        assert got.dtype == want.dtype, (limit, name)
    assert tables.spf.dtype == np.uint16
    primes = tables.primes
    assert np.flatnonzero(tables.spf == 0).tolist() == [0, 1, *primes[primes >= 2**16].tolist()]


def test_sieve_equals_reference_at_every_small_limit():
    for limit in range(2, 401):
        assert_sieve_equals_reference(limit)


@pytest.mark.parametrize("limit", [2**20 - 1, 2**20, 2**20 + 1, 2**21 + 5, 10**6])
def test_sieve_equals_reference_across_blocks(limit):
    assert_sieve_equals_reference(limit)


@pytest.mark.parametrize("p", [p for p in range(3, 100) if all(p % d for d in range(2, p))])
def test_sieve_equals_reference_at_odd_prime_squares(p):
    # p^2 is the first odd multiple p strikes and the first n that p^2 makes mu zero;
    # limits 2..5, below 3^2, are in test_sieve_equals_reference_at_every_small_limit
    for limit in (p * p - 1, p * p, p * p + 1):
        assert_sieve_equals_reference(limit)


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
    assert sieve_small.mu[30] == -1
    assert sieve_small.mu[12] == 0


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
    assert math.prod(p**e for p, e in fi.factors) == n
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
    mask = sieve_big.kappa_free_mask(kappa, 100_000)
    big = sieve_big.big_omega
    for n in range(2, 100_001):
        if mask[n]:
            assert big[n] <= kappa * factorize(n, sieve_big).small_omega


def test_sieve_tables_are_frozen_and_keep_no_cache(sieve_small):
    names = [f.name for f in dataclasses.fields(sieve_small)]
    assert names == ["limit", "spf", "mu", "big_omega", "primes"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        sieve_small.mu = sieve_small.big_omega
    assert sieve_small.kappa_free_mask(2, 100) is not sieve_small.kappa_free_mask(2, 100)
    assert vars(sieve_small).keys() == set(names)


def test_verify_omega_check_catches_a_wrong_big_omega():
    tables = build_sieve(100)
    assert _omega_inequality(tables, 100, None) == ("omega-le-kappa-omega", True, "kappa in 2,3,5 up to 100")
    tables.big_omega[6] = 5  # 6 = 2 * 3 is squarefree with omega 2, and 5 > 2 * 2
    name, passed, _ = _omega_inequality(tables, 100, None)
    assert name == "omega-le-kappa-omega" and not passed


def test_kappa_free_mask_matches_pointwise(sieve_small):
    mask = sieve_small.kappa_free_mask(3, 2000)
    assert mask.dtype == bool and len(mask) == 2001 and not mask[0]
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


def test_prime_index_is_the_position_of_every_prime(sieve_1e5):
    primes = [n for n in range(2, 10**5 + 1) if trial_division_is_prime(n)]
    for i, p in enumerate(primes, start=1):
        got = sieve_1e5.prime_index(p)
        assert got == i and type(got) is int
    not_primes = [0, 1, -7, 100_003] + [n for n in range(4, 1001) if not trial_division_is_prime(n)]
    assert 100_003 == next(n for n in range(10**5, 10**6) if trial_division_is_prime(n))
    for n in not_primes:
        with pytest.raises(ValueError, match=f"{n} is not a prime <= 100000"):
            sieve_1e5.prime_index(n)


def test_factorize_gives_python_ints_up_to_the_largest_prime(sieve_1e5):
    for n in (1, 2, 12, 4400, 2**16, 99_991, 10**5):
        fi = factorize(n, sieve_1e5)
        assert math.prod(p**e for p, e in fi.factors) == n
        assert all(type(p) is int and type(e) is int for p, e in fi.factors)
        assert type(fi.big_omega) is int and type(fi.small_omega) is int
    assert factorize(99_991, sieve_1e5).factors == ((99_991, 1),)  # the largest prime <= 10^5


def test_factorize_reads_the_live_spf_array():
    tables = build_sieve(100)
    assert factorize(91, tables).factors == ((7, 1), (13, 1))
    tables.spf[91] = 13  # a write after the build, as the benchmark's own check injects
    assert factorize(91, tables).factors == ((13, 1), (7, 1))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**6))
def test_divisor_and_omega_helpers_match_sympy(n):
    sympy = pytest.importorskip("sympy")
    assert _divisors(n) == tuple(sympy.divisors(n))
    assert _big_omega(n) == sympy.primeomega(n)


@pytest.fixture(scope="module")
def sieve_1e5():
    return build_sieve(10**5)


@pytest.fixture(scope="module")
def sieve_2e17():
    return build_sieve(2**17)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(min_value=1, max_value=2**17))
@example(n=1)
@example(n=65521)  # the largest prime below 2^16, stored as itself
@example(n=2**16)
@example(n=65537)  # the smallest prime above 2^16, stored as 0
@example(n=99991)  # the largest prime below 10^5
@example(n=10**5)
@example(n=2**17 - 1)  # a prime
def test_sieve_tables_match_sympy(sieve_2e17, n):
    sympy = pytest.importorskip("sympy")
    factors = sympy.factorint(n)
    tables = sieve_2e17
    assert tables.mu[n] == sympy.mobius(n)
    assert tables.big_omega[n] == sympy.primeomega(n)
    assert bool(np.isin(n, tables.primes)) == sympy.isprime(n)
    if n >= 2:
        p = min(factors)
        assert tables.spf[n] == (p if p < 2**16 else 0)
        assert (int(tables.spf[n]) or n) == p
    fi = factorize(n, tables)
    assert fi.factors == tuple(sorted(factors.items()))
    assert fi.big_omega == sympy.primeomega(n)
    assert fi.small_omega == sympy.primenu(n)


def test_sieve_limit_must_fit_int32(monkeypatch):
    monkeypatch.setenv("FACTORBENCH_MAX_SIEVE", str(2**40))
    with pytest.raises(CapacityError, match="2\\^31"):
        build_sieve(2**31)


def test_sieve_budget_is_read_from_the_environment_at_call_time(monkeypatch):
    monkeypatch.setenv("FACTORBENCH_MAX_SIEVE", "100")
    with pytest.raises(CapacityError):
        build_sieve(1000)


@pytest.mark.parametrize("limit", [101, 1000, 12_345, 10**6])
def test_capacity_error_states_the_bytes_of_the_arrays(monkeypatch, limit):
    tables = build_sieve(limit)
    nbytes = sum(getattr(tables, f).nbytes for f in ("spf", "mu", "big_omega", "primes"))
    monkeypatch.setenv("FACTORBENCH_MAX_SIEVE", "100")
    with pytest.raises(CapacityError, match=f"sieve limit {limit} exceeds budget 100") as err:
        build_sieve(limit)
    stated = int(re.search(r"would take (\d+) bytes", str(err.value)).group(1))
    assert nbytes <= stated <= 1.1 * nbytes


def test_sieve_arrays_take_4_bytes_per_n_and_4_per_prime():
    sympy = pytest.importorskip("sympy")
    limit = 2**21 + 5
    tables = build_sieve(limit)
    nbytes = sum(getattr(tables, f).nbytes for f in ("spf", "mu", "big_omega", "primes"))
    assert nbytes == 4 * (limit + 1) + 4 * int(sympy.primepi(limit))


@pytest.mark.parametrize("limit, short", [(2**31, "2.147e+9"), (int(1e300), "1.000e+300"), (10**5000, "1.000e+5000")],
                         ids=["2^31", "1e300", "10^5000"])  # 10^5000 is past str(int)'s digit limit
def test_a_limit_past_int32_is_stated_in_short_form(limit, short):
    with pytest.raises(CapacityError) as err:
        build_sieve(limit)
    assert str(err.value) == f"sieve limit {short} is not below 2^31, the bound of int32 primes and int8 Omega"


@pytest.mark.parametrize("n", [3, 2**20 + 1, 2**21 + 5])
def test_halving_blocks_visit_each_k_once_after_its_m(n):
    spf = build_sieve(n).spf
    visits = np.zeros(n, dtype=np.int64)
    for block, m in _halving_blocks(spf, n):
        k = np.arange(block.start, block.stop)
        assert len(k) <= _COUNT_CHUNK and (m < block.start).all()
        big = spf[block] == 0  # the primes >= 2^16, where m = 0 stands in for 1
        p = np.where(big, k, spf[block])  # spf(k) = spf[k] or k
        assert np.array_equal(m == 0, big)
        assert (np.where(big, 1, m) * p == k).all()
        rep = spf[m] == spf[block]  # the repeat test of the signature-id walk
        assert np.array_equal(rep, m % p == 0)
        visits[block] += 1
    assert visits[:2].tolist() == [0, 0] and (visits[2:] == 1).all()
