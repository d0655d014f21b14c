import csv
import io
import json
import math
import re
from itertools import combinations, product

import numpy as np
import pytest

from factorbench import census, cli, counting, zeta
from factorbench.counting import (
    CountingProfile,
    N_kappa_ell,
    check_counting_bound,
    coffeeshop_sum,
    count_bigomega,
    fit_counting_constants,
    fit_prime_sum_constant,
    growth_exponents,
    prime_reciprocal_sum,
    profile_N_kappa,
    profile_grid,
    psi_tuple,
    tilde_p,
)
from factorbench.sieve import build_sieve, is_kappa_free, iterated_log


def profile_reference(x, kappa, tables):
    """profile_N_kappa one point at a time, the reference for profile_grid:
    a kappa-free mask, then a compress and a bincount of Omega per 2^20 chunk."""
    cutoff = math.floor(x)
    mask = tables.kappa_free_mask(kappa, cutoff)
    counts = np.zeros(32, dtype=np.int64)
    for lo in range(1, cutoff + 1, 1 << 20):
        chunk = slice(lo, min(lo + (1 << 20), cutoff + 1))
        counts += np.bincount(tables.big_omega[chunk][mask[chunk]], minlength=32)
    return CountingProfile(x=x, kappa=kappa, per_ell={ell: int(c) for ell, c in enumerate(counts) if c})


def test_count_examples(sieve_small):
    assert count_bigomega(10, 2, sieve_small) == 4  # 4, 6, 9, 10
    assert count_bigomega(10, 0, sieve_small) == 1  # just 1


def test_counts_match_bruteforce(sieve_small):
    big = sieve_small.big_omega
    for x in (50, 500):
        for ell in range(0, 8):
            assert count_bigomega(x, ell, sieve_small) == sum(
                1 for n in range(1, x + 1) if big[n] == ell
            )


def test_N_kappa_ell_examples(sieve_small):
    assert N_kappa_ell(10, 2, 2, sieve_small) == 2  # 6, 10
    assert N_kappa_ell(10, 3, 2, sieve_small) == 4  # ell <= kappa case
    for ell in range(0, 6):
        assert N_kappa_ell(100, 2, ell, sieve_small) <= count_bigomega(100, ell, sieve_small)


def test_N_kappa_ell_equals_bigomega_when_ell_below_kappa(sieve_small):
    # Omega(n) < kappa forces every exponent below kappa, so the kappa-free
    # restriction is vacuous there (at ell = kappa it is not: p^kappa)
    for kappa in (2, 3, 5):
        for ell in range(1, kappa):
            for x in (100, 5000):
                assert N_kappa_ell(x, kappa, ell, sieve_small) == count_bigomega(
                    x, ell, sieve_small
                )


@pytest.mark.parametrize("kappa", [2, 3, 5])
def test_profile_totals_kappa_free_count(sieve_big, kappa):
    x = 100_000
    profile = profile_N_kappa(x, kappa, sieve_big)
    mask = sieve_big.kappa_free_mask(kappa, x)
    assert profile.total == int(mask[1:].sum())


@pytest.mark.parametrize("kappa", [2, 3, 5])
def test_profile_reads_the_sieve_only_to_its_cutoff(sieve_big, kappa):
    x = 10**5
    assert profile_N_kappa(x, kappa, sieve_big) == profile_N_kappa(x, kappa, build_sieve(x))
    assert len(sieve_big.kappa_free_mask(kappa, x)) == x + 1
    with pytest.raises(ValueError, match="outside the sieve range"):
        sieve_big.kappa_free_mask(kappa, sieve_big.limit + 1)


def test_profile_across_bincount_chunks_equals_one_bincount(chunk_tables):
    tables, _ = chunk_tables
    for x, kappa in product([2**20, 2**20 + 1, 2**21 + 5], [2, 3]):
        mask = tables.kappa_free_mask(kappa, x)[1:]
        counts = np.bincount(tables.big_omega[1 : x + 1][mask])
        want = {ell: int(c) for ell, c in enumerate(counts) if c}
        assert profile_N_kappa(x, kappa, tables).per_ell == want
        assert N_kappa_ell(x, kappa, 2, tables) == want[2]


@pytest.mark.parametrize("kappa", [2, 3, 4, 5, 7])
@pytest.mark.parametrize("x", [1, 1.5, 2, 2**16, 2**16 + 1, 2**20, 2**20 + 1, 2**20 + 2,
                               2**21, 2**21 + 1, 2**21 + 2, 2**21 + 5])
def test_profile_matches_the_reference_kernel(chunk_tables, x, kappa):
    tables, _ = chunk_tables
    assert profile_N_kappa(x, kappa, tables) == profile_reference(x, kappa, tables)


def test_level_block_edges_count_each_n_once_pointwise(chunk_tables):
    # cutoffs at 2^20 and 2^21 and the two n past each: the profile at n less
    # the one at n - 1 is n alone, at Omega(n), iff n is kappa-free; 9 | 2^21 + 1
    tables, _ = chunk_tables
    kappas = [2, 3, 4]
    edges = [2**20, 2**20 + 1, 2**20 + 2, 2**21, 2**21 + 1, 2**21 + 2]
    xs = sorted({x for n in edges for x in (n - 1, n)})
    grid = dict(zip(product(xs, kappas), profile_grid(xs, kappas, tables)))
    for n, kappa in product(edges, kappas):
        want = dict(grid[n - 1, kappa].per_ell)
        if is_kappa_free(n, kappa, tables):
            want[int(tables.big_omega[n])] = want.get(int(tables.big_omega[n]), 0) + 1
        assert grid[n, kappa].per_ell == want, (n, kappa)
    assert not is_kappa_free(2**21 + 1, 2, tables)


def test_grid_whose_top_kappa_strikes_only_in_the_last_block(chunk_tables):
    # 2^21 is the one 21st power up to 2^21 and 2^20 the one 20th power below
    # it; the census counts both in the root's steps e = 19, 20 on p = 2
    tables, _ = chunk_tables
    xs, kappas = [2**21, 2**21 - 1], [21, 2, 20, 22]
    got = profile_grid(xs, kappas, tables)
    assert got == [profile_reference(x, kappa, tables) for x in xs for kappa in kappas]
    at, below = dict(zip(kappas, got[:4])), dict(zip(kappas, got[4:]))
    assert at[21].per_ell == below[21].per_ell  # 2^21 is not 21-free
    assert at[22].per_ell[21] == below[22].per_ell.get(21, 0) + 1 == 1


def test_grid_holds_the_census_temporaries_within_2_mib(peak_over_retained_mib):
    # a full-length int8 level array took 5 MiB at 5 * 2^20; the census holds
    # one level of nodes and their (node, prime) pairs, and a pi table of
    # 2 isqrt(x) entries, and reads no per-n array of the sieve
    tables = build_sieve(5 * 2**20)
    assert peak_over_retained_mib(lambda: profile_grid([tables.limit, 10**6], [3, 2], tables)) <= 2


def test_profiles_on_one_sieve_build_the_signature_list_once(sieve_small):
    census._signatures.cache_clear()
    for x, kappa in product([100, 1000, 10**4], [2, 3, 5]):
        profile_N_kappa(x, kappa, sieve_small)
    fit_counting_constants([100, 5000], [2, 3], sieve_small)
    assert census._signatures.cache_info().misses == 1
    assert not census._signatures(sieve_small.limit)[2].flags.writeable


def test_grid_answers_unsorted_repeated_points_in_the_callers_order(chunk_tables):
    tables, _ = chunk_tables
    xs = [2**21 + 5, 1, 2**20 + 1, 1.5, 2**16 + 1, 2**20, 2, 2**20 + 1]
    kappas = [5, 2, 7, 2, 3, 4, 10**12]
    want = [profile_reference(x, kappa, tables) for x in xs for kappa in kappas]
    assert profile_grid(xs, kappas, tables) == want


def test_fit_without_profiles_equals_the_fit_on_reference_profiles(chunk_tables):
    tables, _ = chunk_tables
    xs, kappas = [10**3, 2**20 + 1, 10**4, 2**21 + 5], [3, 2, 5]
    reference = [profile_reference(x, kappa, tables) for x in xs for kappa in kappas]
    assert fit_counting_constants(xs, kappas, tables) == fit_counting_constants(xs, kappas, tables, reference)


def test_fit_on_an_empty_grid(sieve_small):
    assert fit_counting_constants([], [2], sieve_small) == (0.0, -math.inf)
    xs = [100, 1000]
    assert fit_counting_constants(xs, [], sieve_small) == (0.0, fit_prime_sum_constant(xs, sieve_small))
    assert profile_grid([], [2], sieve_small) == profile_grid([100], [], sieve_small) == []


def test_kappa_below_two_is_a_value_error(sieve_small):
    for call in (lambda: profile_N_kappa(100, 1, sieve_small),
                 lambda: profile_grid([100, 10], [3, 1], sieve_small),
                 lambda: fit_counting_constants([100], [2, 1], sieve_small),
                 lambda: profile_grid([], [1], sieve_small),
                 lambda: fit_counting_constants([], [1], sieve_small)):
        with pytest.raises(ValueError, match=r"^kappa must be >= 2, got 1$"):
            call()


def test_profiles_read_omega_from_the_sieve_at_each_signatures_smallest_n():
    # 6 is the smallest n of signature (1, 1): a wrong Omega there moves every
    # squarefree semiprime pq <= x from ell = 2 to ell = 3, as it moves the sums
    tables, x = build_sieve(1000), 1000
    want = profile_reference(x, 2, tables).per_ell
    semiprimes = sum(1 for p, q in combinations(tables.primes.tolist(), 2) if p * q <= x)
    assert want[2] == semiprimes
    tables.big_omega[6] = 3
    moved = {ell: c for ell, c in want.items() if ell != 2} | {3: want[3] + semiprimes}
    assert profile_N_kappa(x, 2, tables).per_ell == moved


@pytest.mark.parametrize("x, message", [
    (10_001, "x=10001 beyond sieve limit 10000"),
    (0.5, "x=0.5 must be >= 1"),
    (0, "x=0 must be >= 1"),
    (math.nan, "x must be finite, got nan"),
    (math.inf, "x must be finite, got inf"),
])
def test_x_errors_name_x(sieve_small, x, message):
    for call in (lambda: profile_N_kappa(x, 2, sieve_small),
                 lambda: profile_grid([100, x], [2], sieve_small),
                 lambda: fit_counting_constants([100, x], [2], sieve_small)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_huge_kappa_counts_every_n(sieve_small, capsys):
    # 2^kappa > x, so every n <= x is kappa-free; 2**kappa itself is never built
    kappa = 10**12
    want = {ell: count_bigomega(100, ell, sieve_small) for ell in range(7)}
    assert profile_N_kappa(100, kappa, sieve_small).per_ell == want
    assert profile_grid([100], [kappa, 7], sieve_small) == [
        CountingProfile(100, kappa, want), CountingProfile(100, 7, want)]
    assert sieve_small.kappa_free_mask(kappa, 100)[1:].all()
    assert cli.main(["hr-count", "--x", "100", "--kappa", str(kappa)]) == 0
    assert capsys.readouterr().out == "ell,count\r\n" + "".join(f"{ell},{c}\r\n" for ell, c in want.items())
    assert cli.main(["hr-count", "--x", "100", "--kappa", str(kappa), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["kappa"] == kappa


def test_grid_of_thousands_of_kappas(sieve_small):
    # all but 12 of them have 2^kappa > 10^4 and share the top level's
    # column; a column each would take Omega(n) * 3000 past int16 at Omega = 11
    kappas = range(2, 3001)
    assert profile_grid([10**4], kappas, sieve_small) == [
        profile_reference(10**4, kappa, sieve_small) for kappa in kappas]


def test_hr_count_bytes(capsys):
    assert cli.main(["hr-count", "--x", "30", "--kappa", "2"]) == 0
    assert capsys.readouterr().out == "ell,count\r\n0,1\r\n1,10\r\n2,7\r\n3,1\r\n"
    assert cli.main(["hr-count", "--x", "30", "--kappa", "3", "--format", "json"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "x": 30.0,\n  "kappa": 3,\n  "per_ell": {\n'
        '    "0": 1,\n    "1": 10,\n    "2": 10,\n    "3": 5\n  }\n}\n')


@pytest.mark.parametrize("x", ["1", "2.5", "97", "1000"])
@pytest.mark.parametrize("kappa", [2, 3, 9])
def test_hr_count_writes_the_reference_profile(sieve_small, capsys, x, kappa):
    rows = sorted(profile_reference(float(x), kappa, sieve_small).per_ell.items())
    buf = io.StringIO()
    csv.writer(buf).writerows([("ell", "count"), *rows])
    assert cli.main(["hr-count", "--x", x, "--kappa", str(kappa)]) == 0
    assert capsys.readouterr().out == buf.getvalue()
    assert cli.main(["hr-count", "--x", x, "--kappa", str(kappa), "--format", "json"]) == 0
    want = json.dumps({"x": float(x), "kappa": kappa, "per_ell": dict(rows)}, indent=2) + "\n"
    assert capsys.readouterr().out == want


def test_tilde_p_examples(sieve_small):
    assert tilde_p(5, 2, sieve_small) == 11  # kappa_1 = 1: j-th prime
    assert tilde_p(4, 5, sieve_small) == 2
    assert tilde_p(5, 5, sieve_small) == 3
    assert tilde_p(9, 5, sieve_small) == 5


def test_psi_examples(sieve_small):
    assert psi_tuple(4400, 5, sieve_small) == ((1, 2, 3, 4, 9, 10, 17), 17)
    assert psi_tuple(2, 2, sieve_small) == ((1,), 1)
    assert psi_tuple(1, 3, sieve_small) == ((), 0)
    # 12 = 2*2*3 with kappa=3: blocks {1,2} -> 2 and {3,4} -> 3
    assert psi_tuple(12, 3, sieve_small) == ((1, 2, 3), 3)


def test_psi_rejects_non_kappa_free(sieve_small):
    with pytest.raises(ValueError):
        psi_tuple(8, 3, sieve_small)


def exhaustive_min_sum_tuple(n, kappa, tables):
    """All increasing tuples over tilde-p with the given product, by search."""
    from factorbench.sieve import factorize

    ell = factorize(n, tables).big_omega
    k1 = kappa - 1
    # indices that can possibly participate: primes dividing n only
    candidates = []
    for p, e in factorize(n, tables).factors:
        r = tables.prime_index(p)
        block = range((r - 1) * k1 + 1, r * k1 + 1)
        candidates.extend(block)
    best = None
    count = 0
    for tup in combinations(sorted(candidates), ell):
        prod = 1
        for j in tup:
            prod *= tilde_p(j, kappa, tables)
        if prod == n:
            count += 1
            if best is None or sum(tup) < sum(best):
                best = tup
    return best, count


@pytest.mark.parametrize("kappa", [2, 3, 5])
def test_psi_minimal_and_reconstructs(sieve_small, kappa):
    mask = sieve_small.kappa_free_mask(kappa, 2000)
    for n in range(2, 2001):
        if not mask[n]:
            continue
        tup, j = psi_tuple(n, kappa, sieve_small)
        prod = 1
        for i in tup:
            prod *= tilde_p(i, kappa, sieve_small)
        assert prod == n
        assert list(tup) == sorted(tup) and len(set(tup)) == len(tup)
        assert j == tup[-1]
        if n <= 300:  # exhaustive search is combinatorial
            best, _count = exhaustive_min_sum_tuple(n, kappa, sieve_small)
            assert best == tup


def test_counting_bound_scales_with_c1(sieve_small):
    a = check_counting_bound(1000, 2, 2, 1.0, 1.0, sieve_small)
    b = check_counting_bound(1000, 2, 2, 2.0, 1.0, sieve_small)
    assert b.ratio == pytest.approx(a.ratio / 2)


def test_counting_bound_ell1_is_prime_count(sieve_small):
    # N_{kappa,1}(x) counts exactly the primes up to x
    x = 1000
    report = check_counting_bound(x, 2, 1, 1.3, 1.0, sieve_small)
    assert report.lhs == sum(1 for p in sieve_small.primes if p <= x)
    assert report.passes  # C1 = 1.3 suffices at ell = 1


def test_fitted_constants_make_bound_hold(sieve_big):
    xs = [10**2, 10**3, 10**4, 10**5, 10**6]
    kappas = (2, 3)
    c1, c2 = fit_counting_constants(xs, kappas, sieve_big)
    print(f"fitted counting constants C1 = {c1:.6f}, C2 = {c2:.6f}")
    for x in xs:
        for kappa in kappas:
            for ell in profile_N_kappa(x, kappa, sieve_big).per_ell:
                if ell >= 1:
                    assert check_counting_bound(x, kappa, ell, c1, c2, sieve_big).passes


def test_prime_sum_fact_up_to_1e8(sieve_big):
    xs = [10**2, 10**3, 10**4, 10**5, 10**6, 10**7, 10**8]
    c2 = fit_prime_sum_constant(xs, sieve_big)
    print(f"fitted prime-sum constant C2 = {c2:.6f}")
    for x in xs:
        lhs = prime_reciprocal_sum(x, sieve_big)
        rhs = (iterated_log(x, 2) + c2) / math.log(x)
        assert lhs < rhs


def test_coffeeshop_hand_example(ftables_small, sieve_small):
    # squarefree n <= 10: f(1)+f(2)+f(3)+f(5)+f(6)+f(7)+f(10) = 11
    assert coffeeshop_sum(10, 1, 2, ftables_small) == 11


def test_coffeeshop_unrestricted_for_large_kappa(ftables_small, sieve_small):
    x = 50
    unrestricted = sum(ftables_small.f[n] for n in range(1, x + 1))
    assert coffeeshop_sum(x, 1, 7, ftables_small) == unrestricted


def test_coffeeshop_exact_integer(ftables_small, sieve_small):
    total = coffeeshop_sum(100, 2, 2, ftables_small)
    assert isinstance(total, int)
    brute = sum(
        2 ** int(sieve_small.big_omega[n]) * ftables_small.f[n]
        for n in range(1, 101)
        if sieve_small.mu[n] != 0
    )
    assert total == brute


def test_growth_exponents_trend(ftables_big):
    rows = growth_exponents([10**3, 10**4, 10**5, 10**6], 2, 2, ftables_big)
    exps = [e for _, e in rows]
    print(f"C=2 kappa=2 exponents: {exps}")
    assert exps == sorted(exps, reverse=True)


def test_counting_profile_type(sieve_small):
    profile = profile_N_kappa(100, 2, sieve_small)
    assert profile.per_ell[1] == N_kappa_ell(100, 2, 1, sieve_small)
    assert all(c > 0 for c in profile.per_ell.values())


def sum_calls(x, ftables):
    """The sums over n <= x: kalmar_ratio, sarnak_correlation with both
    selectors, and coffeeshop_sum."""
    return [lambda: zeta.kalmar_ratio(x, ftables),
            lambda: zeta.sarnak_correlation(x, "f", ftables),
            lambda: zeta.sarnak_correlation(x, "fmu2", ftables),
            lambda: coffeeshop_sum(x, 2, 2, ftables)]


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_non_finite_x_is_a_value_error_that_names_x(ftables_small, sieve_small, x):
    for call in (lambda: profile_N_kappa(x, 2, sieve_small),
                 lambda: N_kappa_ell(x, 2, 1, sieve_small),
                 lambda: count_bigomega(x, 1, sieve_small),
                 lambda: fit_counting_constants([100, x], [2], sieve_small),
                 *sum_calls(x, ftables_small)):
        with pytest.raises(ValueError, match=f"^x must be finite, got {x}$"):
            call()


@pytest.mark.parametrize("x", [0, -3, 0.0, -0.5])
def test_sums_reject_x_at_most_zero_and_name_it(ftables_small, x):
    for call in sum_calls(x, ftables_small):
        with pytest.raises(ValueError, match=f"^{re.escape(f'x={x} must be > 0')}$"):
            call()


def test_sums_below_one_are_empty(ftables_small):
    kalmar, sarnak_f, sarnak_fmu2, coffeeshop = (call() for call in sum_calls(0.5, ftables_small))
    assert (kalmar, coffeeshop) == (0.0, 0)
    assert (sarnak_f.numerator, sarnak_f.denominator, sarnak_fmu2.denominator) == (0, 0, 0)


@pytest.mark.parametrize("x", [3001, 10**400], ids=["3001", "10**400"])
def test_sums_name_the_table_x_is_beyond(ftables_small, x):
    for call in sum_calls(x, ftables_small):
        with pytest.raises(ValueError, match=f"^x={x} beyond table limit 3000$"):
            call()


@pytest.mark.parametrize("x", [1, 1.0, 0.5, 0, -3, math.nan, math.inf])
def test_counting_bound_rejects_x_at_most_one_or_not_finite(sieve_small, x):
    with pytest.raises(ValueError, match=f"x must be finite and > 1, got {x}"):
        counting.hr_free_rhs(x, 2, 1, 1.0, 0.1)
    with pytest.raises(ValueError, match=f"x must be finite and > 1, got {x}"):
        check_counting_bound(x, 2, 1, 1.0, 0.1, sieve_small)


@pytest.mark.parametrize("x", [1, 0.5, 0, math.nan, math.inf])
def test_growth_exponents_reject_x_at_most_one_or_not_finite(ftables_small, x):
    with pytest.raises(ValueError, match=f"^x must be finite and > 1, got {x}$"):
        growth_exponents([100, x], 2, 2, ftables_small)


def test_growth_exponent_of_a_zero_sum_names_x_and_c(ftables_small):
    assert coffeeshop_sum(2, -1, 2, ftables_small) == 0  # f(1) - f(2)
    with pytest.raises(ValueError, match=r"^the sum at x=2, c=-1 is 0 and has no growth exponent$"):
        growth_exponents([2], -1, 2, ftables_small)


def test_counting_bound_just_above_one_is_positive():
    assert counting.hr_free_rhs(1.5, 2, 1, 1.0, 0.1) > 0
    assert counting.hr_free_rhs(2, 3, 3, 1.0, 0.1) > 0
