"""The report's sums per prime signature against the per-n loops they replaced.

kalmar_ratio, sarnak_correlation and coffeeshop_sum sum over signatures: the
counts come from the f tables' census, one cached census_counts per cutoff,
and are weighted by f at each signature's smallest n (sum_by_signature) and by
the tables' per-signature mu and Omega columns; mu_parity_failures checks
per signature. The loops below visit every n, read mu and Omega per n from a
sieve, and are the reference. Equal means equal in value and in type.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factorbench import census, counting, reproduce, zeta
from factorbench.factorizations import build_factorisation_tables, mu_via_parity
from factorbench.sieve import build_sieve
from factorbench.verify import mu_parity_failures


def kalmar_ratio_reference(x, ftables):
    cutoff = int(math.floor(x))
    if cutoff > ftables.limit:
        raise ValueError(f"x={x} beyond table limit {ftables.limit}")
    total = sum(ftables.f[1 : cutoff + 1])
    b = zeta.kalmar_beta()
    return total / (x**b * zeta.kalmar_constant())


def sarnak_reference(x, selector, ftables, tables):
    if selector not in ("f", "fmu2"):
        raise ValueError(f"selector must be 'f' or 'fmu2', got {selector!r}")
    cutoff = int(math.floor(x))
    if cutoff > ftables.limit or cutoff > tables.limit:
        raise ValueError(f"x={x} beyond table limits")
    num = 0
    den = 0
    mu = tables.mu
    f = ftables.f
    for n in range(1, cutoff + 1):
        m = int(mu[n])
        if m or selector == "f":
            num += m * f[n]
            den += f[n]
    return zeta.CorrelationReport(x=x, selector=selector, numerator=num, denominator=den)


def coffeeshop_reference(x, c, kappa, ftables, tables):
    """The per-n loop. With Fraction(c) = p/q and K the largest Omega(n),
    c^Omega(n) f(n) = p^Omega q^(K - Omega) f(n) / q^K: the loop sums these
    integers, and a c that is not an int is rounded once, from one Fraction."""
    cutoff = int(math.floor(x))
    if cutoff > ftables.limit or cutoff > tables.limit:
        raise ValueError(f"x={x} beyond table limits")
    mask = tables.kappa_free_mask(kappa, cutoff).tolist()
    omega = tables.big_omega[: cutoff + 1].tolist()
    f = ftables.f
    p, q = Fraction(c).as_integer_ratio()
    K = max(omega)
    weight = [p**k * q ** (K - k) for k in range(K + 1)]
    total = 0
    for n in range(1, cutoff + 1):
        if mask[n]:
            total += weight[omega[n]] * f[n]
    return total if isinstance(c, int) else float(Fraction(total, q**K))


def mu_parity_reference(tables, ftables, limit):
    return [n for n in range(1, limit + 1) if mu_via_parity(n, ftables) != int(tables.mu[n])]


def assert_same(got, want):
    assert type(got) is type(want)
    if isinstance(want, zeta.CorrelationReport):
        assert type(got.numerator) is type(want.numerator) is int
        assert type(got.denominator) is type(want.denominator) is int
    assert got == want


def assert_sums_match(x, ftables, tables, kappas=(2, 3, 7), c=2):
    assert_same(zeta.kalmar_ratio(x, ftables), kalmar_ratio_reference(x, ftables))
    for sel in ("f", "fmu2"):
        assert_same(zeta.sarnak_correlation(x, sel, ftables),
                    sarnak_reference(x, sel, ftables, tables))
    for kappa in kappas:
        assert_same(counting.coffeeshop_sum(x, c, kappa, ftables),
                    coffeeshop_reference(x, c, kappa, ftables, tables))


@pytest.mark.parametrize("x", reproduce.CHECKPOINTS)
def test_sums_equal_the_loops_at_the_report_checkpoints(x, ftables_big, sieve_big):
    assert_sums_match(x, ftables_big, sieve_big)


@pytest.mark.parametrize("x", [2**16 - 1, 2**16, 2**16 + 1, 2**20 - 1, 2**20, 2**20 + 1, 2**21 + 5])
def test_sums_across_bincount_chunks(x, chunk_tables):
    tables, ft = chunk_tables
    # the census the sums read against one unchunked bincount of the ids
    want = np.bincount(ft.ids[1 : x + 1], minlength=len(ft.signatures)).tolist()
    assert list(ft.census(x)) == want
    assert_sums_match(x, ft, tables)


@pytest.mark.parametrize("x", [10**3, 10**5])
def test_sums_read_no_per_n_ids(x, ftables_parity, sieve_big):
    # the census counts the n <= x of each signature without the ids
    assert_sums_match(x, dataclasses.replace(ftables_parity, ids=None), sieve_big)


def test_one_census_per_cutoff(monkeypatch, ftables_small, sieve_big):
    # every caller shares the one cache of census_counts: each cutoff misses
    # once, and only a miss builds a pi table
    calls = []

    def counted(x, real=census._pi_table):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(census, "_pi_table", counted)
    census.census_counts.cache_clear()
    for x in (1000, 1000.5, 2000):
        zeta.kalmar_ratio(x, ftables_small)
        for sel in ("f", "fmu2"):
            zeta.sarnak_correlation(x, sel, ftables_small)
        counting.coffeeshop_sum(x, 2, 2, ftables_small)
    assert calls == [1000, 2000] and census.census_counts.cache_info().misses == 2
    # the report's sums and its profiles at 10^2, 10^3 and 10^4
    calls.clear()
    census.census_counts.cache_clear()
    reproduce.reproduce_report(10**4)
    assert sorted(calls) == [100, 1000, 10**4] and census.census_counts.cache_info().misses == 3
    # the counting workload's pattern: nine one-point profiles and a fit on their grid
    calls.clear()
    census.census_counts.cache_clear()
    xs = [10**3, 10**4, 10**5]
    for kappa in (2, 3, 4):
        for x in xs:
            counting.profile_N_kappa(x, kappa, sieve_big)
    counting.fit_counting_constants(xs, [2, 3, 4], sieve_big)
    assert calls == xs and census.census_counts.cache_info().misses == 3


def test_sarnak_reads_mu_from_the_sieve_it_is_given(ftables_small):
    # the f tables store the sieve's mu at each signature's smallest n; 30 is
    # that of (1, 1, 1), so a flip there moves every numerator from x = 30 on
    flipped = build_sieve(3000)
    flipped.mu[30] = -flipped.mu[30]
    ft = build_factorisation_tables(3000, flipped)
    for x in (29, 30, 31, 3000):
        real = zeta.sarnak_correlation(x, "f", ftables_small)
        got = zeta.sarnak_correlation(x, "f", ft)
        assert (got.numerator != real.numerator) == (x >= 30)
        assert got.denominator == real.denominator


def test_coffeeshop_reads_omega_from_the_sieve_it_is_given(ftables_small):
    # 6 is the smallest n of (1, 1): one more Omega there doubles c^Omega from x = 6 on
    wrong = build_sieve(3000)
    wrong.big_omega[6] += 1
    ft = build_factorisation_tables(3000, wrong)
    for x in (5, 6, 7, 3000):
        real = counting.coffeeshop_sum(x, 2, 2, ftables_small)
        assert (counting.coffeeshop_sum(x, 2, 2, ft) != real) == (x >= 6)


def test_coffeeshop_rejects_kappa_below_two(ftables_small):
    with pytest.raises(ValueError, match="kappa must be >= 2, got 1"):
        counting.coffeeshop_sum(10, 1, 1, ftables_small)


@settings(max_examples=25, deadline=None)
@given(
    x=st.one_of(st.integers(1, 10**5), st.floats(0.5, 10**5)),
    selector=st.sampled_from(["f", "fmu2"]),
    kappa=st.sampled_from([2, 3, 7]),
    c=st.one_of(st.integers(-3, 5), st.floats(-3, 3)),
)
@example(x=1, selector="f", kappa=2, c=1)
@example(x=10**5, selector="fmu2", kappa=3, c=1.5)
def test_sums_equal_the_loops_below_1e5(x, selector, kappa, c, ftables_parity, sieve_big):
    ft = ftables_parity
    assert_same(zeta.kalmar_ratio(x, ft), kalmar_ratio_reference(x, ft))
    assert_same(zeta.sarnak_correlation(x, selector, ft),
                sarnak_reference(x, selector, ft, sieve_big))
    assert_same(counting.coffeeshop_sum(x, c, kappa, ft),
                coffeeshop_reference(x, c, kappa, ft, sieve_big))


def test_coffeeshop_with_a_float_c_is_the_exact_sum_rounded_once(ftables_big, sieve_big):
    x = 10**5
    got = counting.coffeeshop_sum(x, 1.5, 2, ftables_big)
    assert_same(got, coffeeshop_reference(x, 1.5, 2, ftables_big, sieve_big))
    # a sum of floats in n order lands within rounding of it
    mask, omega, f = sieve_big.kappa_free_mask(2, x), sieve_big.big_omega, ftables_big.f
    floats = sum(1.5 ** int(omega[n]) * f[n] for n in range(1, x + 1) if mask[n])
    assert got == pytest.approx(floats, rel=1e-12)


def test_coffeeshop_rounds_a_sum_beyond_the_float_range_to_infinity(chunk_tables):
    _, ft = chunk_tables
    c = 2.0**52 - 0.5  # the largest float below 2^52 that is not an integer
    # n = 2^21 alone is past the range, and its c^21 outweighs every other term
    assert ft.f[2**21] * Fraction(c) ** 21 > 2**1024
    for sign in (1, -1):
        assert counting.coffeeshop_sum(2**21 + 5, sign * c, 22, ft) == sign * math.inf


@pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
def test_coffeeshop_rejects_a_non_finite_c(c, ftables_small):
    with pytest.raises(ValueError, match="c must be finite"):
        counting.coffeeshop_sum(10, c, 2, ftables_small)


def test_mu_parity_failures_equal_the_loop(ftables_parity, sieve_big):
    assert mu_parity_failures(sieve_big, ftables_parity, 10**5) == []
    assert mu_parity_reference(sieve_big, ftables_parity, 10**5) == []
    flipped = build_sieve(3000)
    flipped.mu[30] = -flipped.mu[30]
    ft = build_factorisation_tables(3000, flipped)
    assert mu_parity_failures(flipped, ft, 3000) == mu_parity_reference(flipped, ft, 3000) == [30]
    # a wrong difference far outside -1..1 on one signature fails every n with it
    sig = int(ft.ids[12])
    ft.f_even.values[sig] += 10**30
    bad = mu_parity_failures(flipped, ft, 3000)
    assert bad == mu_parity_reference(flipped, ft, 3000)
    assert 12 in bad and 30 in bad and all(ft.ids[n] == sig for n in bad if n != 30)
    with pytest.raises(ValueError, match="out of table range"):
        mu_parity_failures(flipped, ft, 3001)


def test_report_equals_the_report_with_the_loops(monkeypatch):
    real = reproduce.reproduce_report(20_000)
    tables = build_sieve(20_000)
    calls = []

    def counted(fn, *sieve):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args, *sieve)
        return wrapper

    monkeypatch.setattr(zeta, "kalmar_ratio", counted(kalmar_ratio_reference))
    monkeypatch.setattr(zeta, "sarnak_correlation", counted(sarnak_reference, tables))
    monkeypatch.setattr(counting, "coffeeshop_sum", counted(coffeeshop_reference, tables))
    monkeypatch.setattr(reproduce, "mu_parity_failures", counted(mu_parity_reference))
    looped = reproduce.reproduce_report(20_000)
    assert set(calls) == {"kalmar_ratio_reference", "sarnak_reference",
                          "coffeeshop_reference", "mu_parity_reference"}
    del real["elapsed_seconds"], looped["elapsed_seconds"]
    assert real == looped
    # fitted_constants reads the profiles it fits; check_counting_bound recounts each
    fc = real["fitted_constants"]
    assert fc["bound_holds_on_grid"] == all(
        counting.check_counting_bound(x, kappa, ell, fc["C1"], fc["C2"], tables).passes
        for x in real["config"]["checkpoints"] if x <= 20_000
        for kappa in reproduce.KAPPAS
        for ell in counting.profile_N_kappa(x, kappa, tables).per_ell
        if ell >= 1
    )
