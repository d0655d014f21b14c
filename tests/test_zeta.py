import math

import mpmath
import pytest

from factorbench import zeta
from factorbench.zeta import (
    SIGMA_FLOOR,
    kalmar_beta,
    kalmar_constant,
    kalmar_ratio,
    sarnak_correlation,
    zeta_minus_one_root,
    zeta_real,
)
from factorbench.zfamily import beta_for_z


def test_zeta_known_values():
    assert zeta_real(2.0).value == pytest.approx(math.pi**2 / 6, abs=1e-12)
    assert zeta_real(3.0).value == pytest.approx(1.2020569031595943, abs=1e-12)
    assert zeta_real(4.0).value == pytest.approx(math.pi**4 / 90, abs=1e-12)


def test_zeta_rejects_sigma_at_or_below_one():
    for sigma in (1.0, 0.5, -2.0, 1.0 + 1e-7, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            zeta_real(sigma)


def test_zeta_at_huge_sigma_is_one_with_finite_bounds():
    # N^-s underflows to 0 and the running products stay 0 (no inf * 0)
    for sigma in (1e40, 1e300, 1.7976931348623157e308):
        z = zeta_real(sigma)
        assert z.value == 1.0 and z.derivative == 0.0
        assert 0 < z.error_bound <= 1e-12 and 0 < z.derivative_bound <= 1e-12


def test_bernoulli_corrections_are_exact():
    sympy = pytest.importorskip("sympy")
    want = [sympy.bernoulli(2 * j) / sympy.factorial(2 * j) for j in range(1, zeta._K + 2)]
    assert zeta._BERNOULLI == [float(w) for w in want]


@pytest.mark.parametrize("sigma", [
    SIGMA_FLOOR, 1 + 1e-5, 1.0001, 1.001, 1.01, 1.1, 1.5, "beta",
    2.0, 3.7, 10.0, 40.0, 64.0, 800.0, 1e20, 1e300,
])
def test_zeta_bounds_hold_against_mpmath(sigma):
    # the stated bounds cover truncation and rounding: the float results sit
    # within them of mpmath's values at the same double sigma, and each bound
    # is at most 1e-12 relative; that of zeta - 1 relative to zeta - 1 itself
    # up to sigma = 800
    if sigma == "beta":
        sigma = kalmar_beta()
    z = zeta_real(sigma)
    with mpmath.workdps(40):
        ref = mpmath.zeta(sigma)
        dref = mpmath.zeta(sigma, derivative=1)
        assert abs(mpmath.mpf(z.value) - ref) <= z.error_bound
        assert abs(mpmath.mpf(z.derivative) - dref) <= z.derivative_bound
        ref1 = mpmath.zeta(sigma, 2)  # Hurwitz zeta from n = 2: zeta - 1 without cancelling
        assert abs(mpmath.mpf(z.minus_one) - ref1) <= z.minus_one_bound
        if sigma <= 800:
            assert z.minus_one_bound <= 1e-12 * ref1
    assert math.isfinite(z.error_bound) and math.isfinite(z.derivative_bound)
    assert z.error_bound <= 1e-12 * max(1.0, abs(z.value))
    assert z.derivative_bound <= 1e-12 * max(1.0, abs(z.derivative))


def test_zeta_against_mpmath_oracle():
    mpmath.mp.dps = 30
    for sigma in (1.001, 1.1, 1.5, 1.728647, 2.0, 3.7, 10.0):
        z = zeta_real(sigma)
        ref = float(mpmath.zeta(sigma))
        dref = float(mpmath.diff(mpmath.zeta, sigma))
        assert abs(z.value - ref) <= 1e-12 * max(1.0, abs(ref))
        assert abs(z.derivative - dref) <= 1e-10 * max(1.0, abs(dref))


def test_zeta_tail_stability(monkeypatch):
    # a 10x larger truncation moves the answer only at float-rounding level
    # (the analytic remainder bound is far below the rounding noise of the
    # longer sum, so compare at 1e-12 relative, the certified accuracy)
    for sigma in (1.01, 1.5, 2.5):
        coarse = zeta_real(sigma)
        with monkeypatch.context() as m:
            m.setattr(zeta, "_N", 10 * zeta._N)
            fine = zeta_real(sigma)
        assert abs(coarse.value - fine.value) <= 1e-12 * max(1.0, abs(coarse.value))
        assert coarse.error_bound <= 1e-12


def test_zeta_derivative_negative():
    for sigma in (1.5, 2.0, 3.0):
        assert zeta_real(sigma).derivative < 0


def test_kalmar_beta_six_digits():
    b = kalmar_beta()
    assert b == pytest.approx(1.728647, abs=5e-7)
    assert abs(zeta_real(b).value - 2.0) <= 1e-12


def test_kalmar_beta_matches_z_family_root():
    # the z = +-1 members have zeta(beta) = 1 + 1/|z| = 2, found by the same solver
    assert kalmar_beta() == beta_for_z(1) == beta_for_z(-1)


@pytest.mark.parametrize("t", [2.0**-52, 1e-12, 1e-3, 0.5, 1.0, 2.0, 1e3, 1e5, 999_999.0])
def test_zeta_minus_one_root_is_a_root_in_few_steps(monkeypatch, t):
    calls = []
    monkeypatch.setattr(zeta, "zeta_real", lambda s: calls.append(s) or zeta_real(s))
    s = zeta_minus_one_root(t)
    assert calls == sorted(calls) and len(calls) <= 14  # moves right only, no bracket
    z = zeta_real(s)  # s is within 4 ulps of the root, to first order
    assert abs(z.minus_one - t) <= 4 * math.ulp(s) * -z.derivative + z.minus_one_bound


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf, 1e7])
def test_zeta_minus_one_root_rejects_targets_without_a_root(t):
    with pytest.raises(ValueError, match="no root above"):
        zeta_minus_one_root(t)


def test_zeta_minus_one_root_stops_at_its_step_cap(monkeypatch):
    monkeypatch.setattr(zeta, "_NEWTON_STEPS", 3)
    with pytest.raises(ArithmeticError, match="3 Newton steps"):
        zeta_minus_one_root(1.0)


def test_kalmar_constant_positive():
    assert kalmar_constant() > 0


def test_kalmar_ratio_examples(ftables_small):
    r = kalmar_ratio(1000, ftables_small)
    assert 0.8 < r < 1.2


def test_kalmar_ratio_trend(ftables_big):
    ratios = [kalmar_ratio(10**e, ftables_big) for e in range(2, 7)]
    print(f"kalmar ratios at 10^2..10^6: {ratios}")
    assert all(0.9 <= r <= 1.1 for r in ratios[1:])
    # distance to 1 shrinks from the first checkpoint to the last
    assert abs(ratios[-1] - 1) < abs(ratios[0] - 1)


def test_kalmar_ratio_rejects_out_of_range(ftables_small):
    with pytest.raises(ValueError):
        kalmar_ratio(10**7, ftables_small)


def test_summatory_log_slope_approaches_beta(ftables_big):
    # divide out the leading constant first; otherwise log C / log x
    # (about -0.08 at 10^6) dominates the comparison
    x = 10**6
    total = sum(ftables_big.f[1 : x + 1])
    slope = math.log(total / kalmar_constant()) / math.log(x)
    assert abs(slope - kalmar_beta()) < 0.01


def test_sarnak_example_x10(ftables_small):
    # mu f at n <= 10: 1 -1 -1 0 -1 +3 -1 0 0 +3 -> numerator 3
    rep = sarnak_correlation(10, "f", ftables_small)
    assert rep.numerator == 3
    assert rep.denominator == sum(ftables_small.f[1:11])
    assert rep.ratio == pytest.approx(3 / rep.denominator)


def test_sarnak_selector_validation(ftables_small):
    with pytest.raises(ValueError):
        sarnak_correlation(10, "g", ftables_small)


def test_sarnak_ratio_decays(ftables_big):
    ratios = [
        abs(sarnak_correlation(10**e, "f", ftables_big).ratio)
        for e in range(3, 7)
    ]
    print(f"|mu-f correlation ratios| at 10^3..10^6: {ratios}")
    assert ratios == sorted(ratios, reverse=True)
    assert ratios[-1] < 1e-4


def test_sarnak_fmu2_reported(ftables_big):
    rep = sarnak_correlation(10**5, "fmu2", ftables_big)
    # squarefree restriction: denominator only sums over mu(n) != 0
    assert rep.denominator < sum(ftables_big.f[1 : 10**5 + 1])
    assert math.isfinite(rep.ratio)
    print(f"fmu2 correlation ratio at 10^5: {rep.ratio}")
