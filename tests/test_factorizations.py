import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorbench import (
    CapacityError,
    PartitionMultiset,
    build_factorisation_tables,
    build_sieve,
    census,
    d_lambda,
    d_lambda_bound,
    enumerate_partitions,
    factorizations,
    factorize,
    iterated_log,
    mu_via_parity,
)
from factorbench.factorizations import (
    d_lambda_all,
    enumerate_ordered_factorizations,
)


def partition_count_pentagonal(n):
    """Euler's pentagonal-number recurrence; independent of the enumerator."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n]


def stirling2(n, k):
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def ordered_bell(ell):
    return sum(math.factorial(j) * stirling2(ell, j) for j in range(ell + 1))


def test_f_small_examples(ftables_small):
    assert ftables_small.f[1] == 1
    assert ftables_small.f[12] == 8
    assert ftables_small.fk[2][12] == 4
    assert ftables_small.f[30] == 13


def test_f2_of_12_tuples():
    tuples = [t for t in enumerate_ordered_factorizations(12) if len(t) == 2]
    assert sorted(tuples) == [(2, 6), (3, 4), (4, 3), (6, 2)]


def test_parity_split_at_12(ftables_small):
    even = len([t for t in enumerate_ordered_factorizations(12) if len(t) % 2 == 0])
    odd = len([t for t in enumerate_ordered_factorizations(12) if len(t) % 2 == 1])
    assert (even, odd) == (4, 4)
    assert ftables_small.f_even[12] == 4
    assert ftables_small.f_odd[12] == 4


def test_f_against_bruteforce_exhaustive(ftables_small):
    for n in range(1, 3001):
        assert ftables_small.f[n] == len(enumerate_ordered_factorizations(n))


def test_fk_against_bruteforce(ftables_small):
    for n in range(2, 501):
        tuples = enumerate_ordered_factorizations(n)
        for k in range(1, 7):
            assert ftables_small.fk[k][n] == len([t for t in tuples if len(t) == k])


def test_fk_vanishes_beyond_omega(ftables_small, sieve_small):
    for n in range(2, 200):
        omega = factorize(n, sieve_small).big_omega
        for k in range(omega + 1, ftables_small.k_max + 1):
            assert ftables_small.fk[k][n] == 0


def test_f_is_unit_plus_fk_sum(ftables_small):
    for n in range(1, 3001):
        total = (1 if n == 1 else 0) + sum(
            ftables_small.fk[k][n] for k in range(1, ftables_small.k_max + 1)
        )
        assert ftables_small.f[n] == total
        assert ftables_small.f[n] == ftables_small.f_even[n] + ftables_small.f_odd[n]


def test_mu_via_parity_examples(ftables_small, sieve_small):
    assert mu_via_parity(12, ftables_small) == 0
    assert mu_via_parity(1, ftables_small) == 1
    assert mu_via_parity(30, ftables_small) == -1


def test_mu_via_parity_matches_sieve(ftables_small, sieve_small):
    for n in range(1, 3001):
        assert mu_via_parity(n, ftables_small) == int(sieve_small.mu[n])


def test_ordered_bell_on_squarefree(ftables_small, sieve_small):
    for n in range(1, 3001):
        if sieve_small.mu[n] != 0:
            ell = factorize(n, sieve_small).small_omega
            assert ftables_small.f[n] == ordered_bell(ell)


def test_enumerate_partitions_small():
    parts = {p.parts for p in enumerate_partitions(3)}
    assert parts == {(1, 1, 1), (1, 2), (3,)}
    assert len(enumerate_partitions(5)) == 7


def test_enumerate_partitions_count_50():
    assert len(enumerate_partitions(50)) == partition_count_pentagonal(50) == 204226


def test_enumerate_partitions_range():
    with pytest.raises(ValueError):
        enumerate_partitions(0)
    with pytest.raises(ValueError):
        enumerate_partitions(91)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=35))
def test_partition_invariants(ell):
    parts = enumerate_partitions(ell)
    assert len(parts) == partition_count_pentagonal(ell)
    assert len({p.parts for p in parts}) == len(parts)
    for p in parts:
        assert sum(p.parts) == ell
        assert list(p.parts) == sorted(p.parts)
        assert p.num_parts == len(p.parts)


def test_d_lambda_examples(sieve_small):
    n30 = factorize(30, sieve_small)
    assert d_lambda(n30, PartitionMultiset.from_parts([1, 2])) == 6
    assert d_lambda(n30, PartitionMultiset.from_parts([1, 1, 1])) == 6
    n4 = factorize(4, sieve_small)
    assert d_lambda(n4, PartitionMultiset.from_parts([1, 1])) == 1


def test_d_lambda_rejects_mismatch(sieve_small):
    with pytest.raises(ValueError):
        d_lambda(factorize(30, sieve_small), PartitionMultiset.from_parts([1, 1]))


def test_d_lambda_bound_examples():
    assert d_lambda_bound(PartitionMultiset.from_parts([1, 2])) == 6
    assert d_lambda_bound(PartitionMultiset.from_parts([7])) == 1
    assert d_lambda_bound(PartitionMultiset.from_parts([1, 1, 1])) == 6


def test_d_lambda_decomposes_f(ftables_small, sieve_small):
    # f(n) = I(n) + sum over partitions of d_lambda(n)
    for n in range(2, 1001):
        assert sum(d_lambda_all(n).values()) == ftables_small.f[n]


def test_d_lambda_bound_sharp_on_squarefree(sieve_small):
    for n in range(2, 1001):
        fi = factorize(n, sieve_small)
        profile = d_lambda_all(n)
        squarefree = sieve_small.mu[n] != 0
        for lam in enumerate_partitions(fi.big_omega):
            d = profile.get(lam.parts, 0)
            bound = d_lambda_bound(lam)
            assert d <= bound
            if squarefree:
                assert d == bound


def test_growth_trend_reports_fitted_constant(ftables_big, sieve_big):
    # log f(n) <= ell log ell + c ell log_2(ell) log_3(ell) with ell = Omega(n);
    # no canonical value for the constant exists, so c is fitted and reported.
    worst = -math.inf
    omega = sieve_big.big_omega
    f = ftables_big.f
    for n in range(2, ftables_big.limit + 1):
        fn = f[n]
        if fn <= 1:
            continue
        ell = int(omega[n])
        slack = math.log(fn) - ell * math.log(ell)
        denom = ell * iterated_log(ell, 2) * iterated_log(ell, 3)
        worst = max(worst, slack / denom)
    print(f"fitted growth constant c = {worst:.6f}")
    # at this scale the ell log ell term alone already dominates, so the
    # fitted correction constant can come out non-positive
    assert math.isfinite(worst) and worst < 1.0
    # and the fitted bound indeed holds everywhere it was fitted
    c = max(worst, 0.0)
    for n in (7, 16, 9240, 2**19, 999_983):
        fn = f[n]
        ell = int(omega[n])
        if fn > 1:
            bound = ell * math.log(ell) + c * ell * iterated_log(ell, 2) * iterated_log(ell, 3)
            assert math.log(fn) <= bound + 1e-9


def test_build_rejects_oversize(monkeypatch):
    # a limit above the sieve cap raises CapacityError
    monkeypatch.setenv("FACTORBENCH_MAX_SIEVE", "1000")
    with pytest.raises(CapacityError):
        build_factorisation_tables(1001)


def test_build_rejects_a_sieve_below_the_limit(sieve_small):
    with pytest.raises(ValueError, match="below table limit"):
        build_factorisation_tables(10_001, sieve_small)


def _divisor_sweep(prev, limit):
    """out[n] = sum over divisors m of n with m <= n/2 of prev[m]."""
    out = [0] * (limit + 1)
    for m in range(1, limit // 2 + 1):
        pm = prev[m]
        if pm:
            for n in range(2 * m, limit + 1, m):
                out[n] += pm
    return out


def sweep_reference(limit):
    """f, [f_1 .. f_kmax], f_even and f_odd as per-n lists, by the divisor
    recurrences f(n) = sum_{d|n, d<n} f(d) and f_k(n) = sum_{d|n, d<=n/2}
    f_{k-1}(d) with f_1(n) = [n >= 2]; independent of prime signatures."""
    k_max = limit.bit_length() - 1
    f = [0] * (limit + 1)
    f[1] = 1
    for m in range(1, limit // 2 + 1):
        for n in range(2 * m, limit + 1, m):
            f[n] += f[m]
    fk = [[0, 0] + [1] * (limit - 1)]
    for _ in range(2, k_max + 1):
        fk.append(_divisor_sweep(fk[-1], limit))
    f_even = [0] * (limit + 1)
    f_odd = [0] * (limit + 1)
    f_even[1] = 1
    for k, col in enumerate(fk, start=1):
        target = f_even if k % 2 == 0 else f_odd
        for n in range(2, limit + 1):
            target[n] += col[n]
    return f, fk, f_even, f_odd


@pytest.mark.parametrize("fixture", ["ftables_small", "ftables_parity"])
def test_signature_tables_equal_the_divisor_sweeps(fixture, request):
    ft = request.getfixturevalue(fixture)
    f, fk, f_even, f_odd = sweep_reference(ft.limit)
    assert ft.k_max == len(fk)
    assert ft.f == f
    for n in range(1, ft.limit + 1):
        assert (ft.f_even[n], ft.f_odd[n]) == (f_even[n], f_odd[n])
        assert ft.fk[0][n] == (n == 1)
        assert all(ft.fk[k][n] == fk[k - 1][n] for k in range(1, ft.k_max + 1))


def test_f_entries_share_one_int_per_signature(ftables_small):
    ft = ftables_small
    firsts = {}
    for n in range(1, ft.limit + 1):
        assert ft.f[n] is firsts.setdefault(int(ft.ids[n]), ft.f[n])
    assert len(firsts) == len(ft.signatures)


def test_f_entries_share_one_int_per_signature_across_the_fill_chunks(chunk_tables):
    _, ft = chunk_tables
    shared = [ft.f[rep] for rep in ft.reps]
    assert len(ft.f) == ft.limit + 1 and ft.f[0] == 0
    assert all(ft.f[n] is shared[i] for n, i in enumerate(ft.ids.tolist()) if n)


def test_table_builds_hold_one_chunk_of_temporaries(chunk_tables, peak_over_retained_mib):
    # at 2^21 + 5, blocks of 2^20 held 8 MiB (the sieve) and a full-length
    # gather 16 MiB (the f list); a 2^16 chunk's temporaries take 512 KiB each
    tables, _ = chunk_tables
    assert peak_over_retained_mib(lambda: build_sieve(tables.limit)) <= 1.5
    assert peak_over_retained_mib(lambda: build_factorisation_tables(tables.limit, tables)) <= 1.5


def test_tables_keep_the_sieves_primes_to_their_limit_without_a_copy(chunk_tables, peak_over_retained_mib):
    # 997 is prime, so the census at the limit needs it; small tables from a
    # large sieve copy none of its 155,000 primes
    tables, _ = chunk_tables
    assert peak_over_retained_mib(lambda: build_factorisation_tables(997, tables)) <= 0.5
    ft = build_factorisation_tables(997, tables)
    assert list(ft.census(997)) == count_by_signature(ft, 997)


def test_a_sieve_built_for_the_tables_is_freed_before_the_f_fill(monkeypatch):
    built, alive = [], []

    def sieve(limit):
        tables = build_sieve(limit)
        built.append(weakref.ref(tables))
        return tables

    def fk_of_signature(sig, real=factorizations._fk_of_signature):
        alive.append(built[0]() is not None)
        return real(sig)

    monkeypatch.setattr(factorizations, "build_sieve", sieve)
    monkeypatch.setattr(factorizations, "_fk_of_signature", fk_of_signature)
    ft = build_factorisation_tables(1000)
    assert len(built) == 1 and len(alive) == len(ft.signatures)
    assert not any(alive)


def test_ids_decode_to_the_factorization(ftables_parity, sieve_big):
    sigs, ids = ftables_parity.signatures, ftables_parity.ids
    assert ids.dtype == np.int16
    assert len(set(sigs)) == len(sigs)
    assert ftables_parity.big_omega == [sum(sig) for sig in sigs]
    assert ftables_parity.mu == [(-1) ** len(sig) if set(sig) <= {1} else 0 for sig in sigs]
    assert set(sigs) == set(_signatures_up_to(100_000, [2, 3, 5, 7, 11, 13, 17]))
    for n in range(1, 100_001):
        exps = sorted((e for _, e in factorize(n, sieve_big).factors), reverse=True)
        assert sigs[ids[n]] == tuple(exps)


def _signatures_up_to(limit, primes, most=None, i=0, value=1):
    """Every decreasing exponent tuple whose smallest representative
    prod primes[i]^a_i is at most limit."""
    yield ()
    if i == len(primes):
        return
    a, pa = 1, primes[i]
    while value * pa <= limit and (most is None or a <= most):
        for rest in _signatures_up_to(limit, primes, a, i + 1, value * pa):
            yield (a,) + rest
        a, pa = a + 1, pa * primes[i]


def test_signature_ids_at_the_square_of_the_largest_prime_and_past_2_16():
    limit = 70_000
    tables = build_sieve(limit)
    signatures, _, raised = census._signatures(limit)
    ids = factorizations._signature_ids(limit, tables, raised)
    primes = tables.primes
    p = int(primes[np.searchsorted(primes, math.isqrt(limit), side="right") - 1])
    assert p == 263 and signatures[ids[p * p]] == (2,)
    assert {signatures[i] for i in ids[primes].tolist()} == {(1,)}  # 65537 and up are stored as 0
    assert signatures[ids[0]] == signatures[ids[1]] == ()
    assert signatures[ids[65536]] == (16,)


def test_signatures_below_2_31_fit_int16_ids():
    # 2^31 bounds every sieve limit; the product of the first ten primes is above it
    sigs = list(_signatures_up_to(2**31 - 1, [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]))
    assert len(sigs) == 1476 < 2**15
    assert max(map(len, sigs)) == 9


def test_ids_decode_to_the_factorization_across_the_walk_blocks(chunk_tables):
    tables, ft = chunk_tables
    assert ft.ids.dtype == np.int16
    sample = np.random.default_rng(2024).integers(1, 2**21 + 6, 2000).tolist()
    for n in [*range(2**20 - 50, 2**20 + 50), *range(2**21 - 50, 2**21 + 6), *sample]:
        exps = sorted((e for _, e in factorize(n, tables).factors), reverse=True)
        assert ft.signatures[ft.ids[n]] == tuple(exps)
        assert ft.reps[ft.ids[n]] == math.prod(p**e for p, e in zip([2, 3, 5, 7, 11, 13, 17], exps))


def count_by_signature(ftables, cutoff):
    """Per signature id, how many n in 1..cutoff have it: one np.bincount of
    the per-n ids. The per-n oracle of census_counts."""
    return np.bincount(ftables.ids[1 : cutoff + 1], minlength=len(ftables.signatures)).tolist()


@pytest.mark.parametrize("xs", [range(3000), [2**16, 2**16 + 1, 99991, 2**20, 2**20 + 1, 2**21, 2**21 + 5]],
                         ids=["every x below 3000", "chunk edges to 2^21 + 5"])
def test_signature_census_equals_the_per_n_bincount(chunk_tables, xs):
    _, ft = chunk_tables
    signatures, reps, _ = census._signatures(ft.limit)
    assert (signatures, reps) == (ft.signatures, ft.reps)
    for x in xs:
        counts = census.census_counts(x, ft.limit)
        assert type(counts) is tuple and {type(c) for c in counts} == {int} and sum(counts) == x
        assert list(counts) == count_by_signature(ft, x), x
