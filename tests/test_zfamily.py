import cmath
import math
import random

import mpmath
import pytest

from factorbench import build_factorisation_tables, kalmar_beta
from factorbench.zfamily import (
    B_closed,
    B_sum,
    beta_for_z,
    binomial_identity_check,
    build_context,
    fk_prime_power_expansion,
    inverse_at_prime_power,
    non_multiplicativity_witness,
)


@pytest.fixture(scope="module")
def ftables64():
    return build_factorisation_tables(64)


def test_z_zero_collapses_to_unit(sieve_small):
    ctx = build_context(0, 100, sieve_small)
    unit = [0, 1] + [0] * 99
    assert ctx.fz_tilde.values == unit
    assert ctx.gz.values == unit
    assert ctx.beta_z == -math.inf


def test_z_minus_one_gives_mu_and_zeta(sieve_small):
    ctx = build_context(-1, 2000, sieve_small)
    assert all(ctx.fz.values[n] == 1 for n in range(1, 2001))
    assert all(ctx.fz_tilde.values[n] == int(sieve_small.mu[n]) for n in range(1, 2001))
    # G_{-1} inverts mu restricted to squarefree support, i.e. mu itself: all ones
    assert all(ctx.gz.values[n] == 1 for n in range(1, 2001))


def test_fz_tilde_is_power_series_in_fk(sieve_small, ftables_small):
    ctx = build_context(1, 3000, sieve_small)
    for n in range(2, 3001):
        total = sum(ftables_small.fk[k][n] for k in range(1, ftables_small.k_max + 1))
        assert ctx.fz_tilde.values[n] == total == ftables_small.f[n] - 0
    assert ctx.fz_tilde.values[12] == 8


def test_fz_tilde_power_series_random_z(sieve_small, ftables_small):
    rng = random.Random(17)
    for _ in range(20):
        z = cmath.rect(rng.uniform(0, 3), rng.uniform(0, 2 * math.pi))
        ctx = build_context(z, 1000, sieve_small)
        for n in range(2, 1001):
            expect = sum(
                z**k * ftables_small.fk[k][n]
                for k in range(1, int(sieve_small.big_omega[n]) + 1)
            )
            scale = max(1.0, abs(expect))
            assert abs(ctx.fz_tilde.values[n] - expect) <= 1e-9 * scale


def test_closed_form_pinned_42(sieve_small, ftables64):
    assert inverse_at_prime_power(2, 2, 3, 2, ftables64) == 42
    ctx = build_context(2, 20, sieve_small)
    assert ctx.fz_tilde.values[12] == 42


def test_closed_form_zero_factor_at_z_minus_one(ftables64):
    for n in (3, 5, 15):
        for alpha in (2, 3, 4):
            assert inverse_at_prime_power(-1, alpha, n, 2, ftables64) == 0


def test_closed_form_n1_route(ftables64):
    # F~_{-1}(p) = mu(p) = -1
    assert inverse_at_prime_power(-1, 1, 1, 7, ftables64) == -1
    # F~_z(p^alpha) = sum_k z^k C(alpha-1, k-1)
    assert inverse_at_prime_power(2, 3, 1, 2, ftables64) == 2 * 1 + 4 * 2 + 8 * 1


def test_closed_form_rejects_p_dividing_n(ftables64):
    with pytest.raises(ValueError):
        inverse_at_prime_power(1, 2, 6, 2, ftables64)


def test_closed_form_vs_direct_inversion(sieve_big, ftables64):
    rng = random.Random(99)
    zs = [-1, 1, 2, 1j, 2 - 3j] + [
        cmath.rect(rng.uniform(0, 2), rng.uniform(0, 2 * math.pi)) for _ in range(5)
    ]
    for z in zs:
        ctx = build_context(z, 4000, sieve_big)
        for p in (2, 3, 5):
            for alpha in (1, 2, 3):
                for n in (1, 3, 7, 9, 21, 49):
                    if n % p == 0 or p**alpha * n > ctx.limit:
                        continue
                    lhs = inverse_at_prime_power(z, alpha, n, p, ftables64)
                    rhs = ctx.fz_tilde.values[p**alpha * n]
                    if isinstance(z, int):
                        assert lhs == rhs
                    else:
                        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_B_sum_equals_closed_hand_case():
    # alpha=1, ell=1: 1 + 2z vs C(1,1)(z + (z+1))
    for z in (-2, 0, 1, 3):
        assert B_sum(z, 1, 1) == 2 * z + 1
        assert B_closed(z, 1, 1) == 2 * z + 1
    assert B_sum(1, 2, 1) == B_closed(1, 2, 1)


def test_B_sum_equals_closed_random():
    rng = random.Random(4)
    for _ in range(500):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        alpha = rng.randint(1, 6)
        ell = rng.randint(1, 6)
        s = B_sum(z, alpha, ell)
        c = B_closed(z, alpha, ell)
        assert abs(s - c) <= 1e-10 * max(1.0, abs(s))


def test_B_integer_z_exact():
    for z in range(-4, 5):
        for alpha in range(1, 7):
            for ell in range(1, 7):
                assert B_sum(z, alpha, ell) == B_closed(z, alpha, ell)


def test_binomial_identity_hand_cases():
    assert binomial_identity_check(2, 1, 1)
    assert binomial_identity_check(3, 0, 2)


def test_binomial_identity_exhaustive():
    for alpha in range(1, 13):
        for k in range(alpha + 1):
            for ell in range(1, 13):
                assert binomial_identity_check(alpha, k, ell)


def test_fk_prime_power_expansion(sieve_small, ftables_small, ftables64):
    assert fk_prime_power_expansion(2, 2, 3, 2, ftables64) == ftables_small.fk[2][12] == 4
    assert fk_prime_power_expansion(2, 1, 3, 1, ftables64) == 1  # f_1(6)
    for p, alpha, n in [(2, 2, 3), (3, 1, 10), (5, 2, 6), (2, 3, 9)]:
        m = p**alpha * n
        omega = int(sieve_small.big_omega[m])
        for k in range(1, omega + 3):
            expect = ftables_small.fk[k][m] if k <= ftables_small.k_max else 0
            assert fk_prime_power_expansion(p, alpha, n, k, ftables64) == expect


def test_beta_for_z_examples():
    assert beta_for_z(-1) == pytest.approx(kalmar_beta(), abs=1e-9)
    assert beta_for_z(1) == pytest.approx(beta_for_z(-1), abs=1e-12)  # |z| only
    assert beta_for_z(2) > beta_for_z(1) > beta_for_z(0.5)
    assert beta_for_z(0) == -math.inf
    assert beta_for_z(100) > 5


def _assert_beta_for_z_matches_mpmath(az):
    # zeta(beta) - (1 + 1/|z|) cancels; zeta(beta) - 1 = 1/|z| does not
    with mpmath.workdps(40):
        start = 1 + az if az < 0.5 else max(2.0, math.log2(az))
        ref = mpmath.findroot(lambda s: mpmath.log(mpmath.zeta(s) - 1) + mpmath.log(az), start)
        assert abs(beta_for_z(az) - ref) <= 4 * math.ulp(float(ref))
        assert beta_for_z(-az * 1j) == beta_for_z(az)  # |z| only


@pytest.mark.parametrize("az", [1e-5, 1e-3, 0.5, 1, 3])
def test_beta_for_z_against_mpmath(az):
    _assert_beta_for_z_matches_mpmath(az)


@pytest.mark.parametrize("az", [10**3, 10**9, 10**12, 2**50, 2**52])
def test_beta_for_z_against_mpmath_for_large_z(az):
    _assert_beta_for_z_matches_mpmath(az)


def test_beta_for_z_rejects_z_below_the_sigma_floor():
    # zeta(1 + 1e-6) - 1 is about 10^6, so 1/|z| = 10^7 has its root below the floor
    with pytest.raises(ValueError, match=r"\|z\|=1e-07 too small"):
        beta_for_z(1e-7)


def test_beta_for_z_rejects_z_where_the_target_rounds_to_one():
    # 1 + 1/|z| == 1.0 for |z| >= 2^53, so no root can be found
    for z in (2.0**53, 1e300, -1e300):
        with pytest.raises(ValueError, match=r"\|z\|=.* too large"):
            beta_for_z(z)


def test_context_of_huge_z_marks_beta_z_unknown(sieve_small):
    # the tables need no beta_z, so they are still built for such z
    ctx = build_context(1e300, 8, sieve_small)
    assert math.isnan(ctx.beta_z)
    assert ctx.fz_tilde.values[2] == int(1e300)  # the inverse of F_z at a prime is z


def test_witness_discrepancy(sieve_small):
    w = non_multiplicativity_witness(build_context(1, 10, sieve_small))
    assert (w.g2, w.g3, w.g6) == (-1, -1, -1)
    assert w.discrepancy == 2
    assert non_multiplicativity_witness(build_context(0, 10, sieve_small)).discrepancy == 0
    assert non_multiplicativity_witness(build_context(-1, 10, sieve_small)).discrepancy == 0


def test_gz_on_squarefree(sieve_small):
    # G_z(p) = G_z(q) = G_z(pq) = -z for distinct primes; and (footnote-level)
    # G_z(n) = -z for every squarefree n
    for z in (2, -3, 1 + 1j):
        ctx = build_context(z, 1000, sieve_small)
        primes = [int(p) for p in sieve_small.primes if p <= 100]
        for p in primes:
            assert _close(ctx.gz.values[p], -z)
            for q in primes:
                if q > p and p * q <= 1000:
                    assert _close(ctx.gz.values[p * q], -z)
        for n in range(2, 1001):
            if sieve_small.mu[n] != 0:
                assert _close(ctx.gz.values[n], -z)


def _close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def test_fz_tilde_growth_scan(ftables_parity):
    # |F~_z(n)| <= c n^(B+beta), B = max(0, log|z|/log 2); c fitted and reported
    beta = kalmar_beta()
    k_max = ftables_parity.k_max
    for z in (1, 2, -3):
        b = max(0.0, math.log(abs(z)) / math.log(2))
        worst = 0.0
        for n in range(2, 100_001):
            val = sum(z**k * ftables_parity.fk[k][n] for k in range(1, k_max + 1))
            worst = max(worst, abs(val) / n ** (b + beta))
        print(f"z={z}: fitted growth constant c = {worst:.6f}")
        assert math.isfinite(worst) and worst > 0


def test_reciprocal_series_identity_right_of_abscissa(sieve_small, ftables_small):
    # sum F~_z(n) n^-s ~ 1/(1 - z(zeta(s) - 1)) for sigma > B + beta + 1
    from factorbench import ArithFn, series_eval

    z = 2
    ctx = build_context(z, 3000, sieve_small)
    sigma = 6.0
    lhs = series_eval(ctx.fz_tilde, sigma)
    zeta_trunc = series_eval(ArithFn.ones(3000), sigma)
    rhs = 1 / (1 - z * (zeta_trunc - 1))
    assert abs(lhs - rhs) <= 1e-5
