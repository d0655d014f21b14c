"""Real-axis zeta evaluation, the Kalmar growth constant, and correlation sums.

zeta(sigma) and zeta'(sigma) come from one fixed Euler-Maclaurin evaluation:
the first N = 10 terms, the tail integral and K = 10 Bernoulli corrections,
summed with math.fsum. Each result carries a bound that counts truncation and
floating-point rounding, and the evaluation raises unless both bounds are at
most 1e-12 * max(1, |quantity|); they are, for every finite sigma >= 1 + 1e-6.
zeta(sigma) - 1 is summed on its own, without the n = 1 term, so that it
keeps its relative accuracy where zeta(sigma) - 1 is tiny: its bound is at
most 1e-12 * (zeta(sigma) - 1) for sigma <= 800.
zeta_minus_one_root solves zeta(s) - 1 = t by Newton's method on log(zeta - 1),
for Kalmar's beta (t = 1) and the z-family's beta_z (t = 1/|z|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .factorizations import FactorisationTables, sum_by_signature

SIGMA_FLOOR = 1.0 + 1e-6
_N, _K = 10, 10  # terms summed directly, Bernoulli corrections
_EPS = 2.0**-53  # unit roundoff
# Underflow: N^-s leaves the normal range only for s > 307, and n^-s only for
# s > 322. Each summand then loses at most min(N^-s, 2^-1075) times
# ((s + 2K + 1)/N)^(2K+1), which peaks at 5e-292 near s = 323.6; all
# summands together lose less than 1e-289.
_UNDERFLOW = 2.0**-900
_NEWTON_STEPS = 60  # a cap: 14 sufficed on a 4,000-point log grid of t from 5e-324 to 1e6

_B = [Fraction(1)]  # B_m/m! exactly, from sum_{k<=m} (B_k/k!)/(m+1-k)! = [m == 0]
while len(_B) < 2 * _K + 3:
    _B.append(-sum(b / math.factorial(len(_B) + 1 - k) for k, b in enumerate(_B)))
_BERNOULLI = [float(b) for b in _B[2::2]]  # B_2j/(2j)!: K corrections, then the omitted one


@dataclass(frozen=True)
class ZetaReal:
    sigma: float
    value: float
    derivative: float
    method: str
    error_bound: float
    derivative_bound: float
    minus_one: float
    minus_one_bound: float


def zeta_real(sigma: float) -> ZetaReal:
    """zeta(s), zeta'(s) and zeta(s) - 1 for real s, each with a bound on its
    total error.

    zeta(s) = sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2 + sum_{j<=K} T_j + R,
    T_j = B_2j/(2j)! s(s+1)...(s+2j-2) N^(1-s-2j). The even x-derivatives of
    x^-s are positive, so R lies between 0 and T_{K+1}; let t = |T_{K+1}|.
    For zeta', R - T_{K+1} is the integral over [N, inf) of s(s+1)...(s+2K+1)
    x^(-s-2K-2), the (2K+2)-th x-derivative of x^-s, against a periodic
    Bernoulli function at most |B_{2K+2}|/(2K+2)!. With H = sum_{i<=2K} 1/(s+i),
    d/ds gives |dT_{K+1}/ds| = t |H - log N| and at most t (H + log N +
    2/(s+2K+1)) from the integral: |dR/ds| <= 2t (max(H, log N) + 1/(s+2K+1)).

    Rounding: +, -, *, / round correctly and log and pow are within one ulp
    (2 _EPS), so a summand made in m steps is off by m _EPS times its size to
    first order (counts below; 1.01 covers the rest and the bound's own
    rounding). T_j (h - log N) is weighed by |T_j| (h + log N), as h - log N
    may cancel. The n = 1 term, 1^-s = 1, is exact, so zeta and zeta - 1 share
    one rounding count; fsum adds half an ulp to each.
    """
    if not math.isfinite(sigma) or sigma < SIGMA_FLOOR:
        raise ValueError(f"sigma must be finite and >= {SIGMA_FLOOR}, got {sigma}")
    log_n = math.log(_N)
    u = _N**-sigma
    tail = u * _N / (sigma - 1)
    dtail = -tail * (log_n + 1 / (sigma - 1))
    vals = [n**-sigma for n in range(2, _N)]  # zeta - 1: the n = 1 term is left out
    ders = [-math.log(n) * v for n, v in enumerate(vals, start=2)]
    # first-order rounding in units of _EPS: n^-s 2, log n n^-s 5, tail 5, dtail 9
    vround = 2 * math.fsum(vals) + 5 * tail + 2 * (u / 2)
    dround = -5 * math.fsum(ders) - 9 * dtail + 5 * (log_n * u / 2)
    vals += [tail, u / 2]
    ders += [dtail, -log_n * u / 2]
    q, h = u, 0.0  # a running product from N^-s: a huge s gives 0, never inf * 0
    for i in range(2 * _K + 1):
        q *= (sigma + i) / _N  # N^-s s(s+1)...(s+i) / N^(i+1), 3(i+1) + 2 steps
        h += 1 / (sigma + i)  # sum_{l<=i} 1/(s+l), within (i+2) _EPS h
        j, odd = divmod(i, 2)
        if odd or j == _K:
            continue
        term = _BERNOULLI[j] * q  # T_{j+1}, (6j + 7) steps
        vals.append(term)
        ders.append(term * (h - log_n))
        vround += (6 * j + 7) * abs(term)
        dround += (8 * j + 11) * abs(term) * (h + log_n)
    minus_one, value, derivative = math.fsum(vals), math.fsum([1.0, *vals]), math.fsum(ders)
    t = abs(_BERNOULLI[_K] * q)
    dt = 2 * t * (max(h, log_n) + 1 / (sigma + 2 * _K + 1))
    bound = 1.01 * (t + _EPS * vround) + math.ulp(value) / 2 + _UNDERFLOW
    bound1 = 1.01 * (t + _EPS * vround) + math.ulp(minus_one) / 2 + _UNDERFLOW
    dbound = 1.01 * (dt + _EPS * dround) + math.ulp(derivative) / 2 + _UNDERFLOW
    for name, b, x in (("zeta", bound, value), ("zeta'", dbound, derivative)):
        if b > 1e-12 * max(1.0, abs(x)):
            raise ArithmeticError(f"{name}({sigma}) error bound {b:g} above 1e-12 relative")
    return ZetaReal(sigma, value, derivative, f"euler-maclaurin(N={_N}, K={_K})", bound, dbound,
                    minus_one, bound1)


def zeta_minus_one_root(t: float) -> float:
    """The s > 1 with zeta(s) - 1 = t, for 0 < t < zeta(SIGMA_FLOOR) - 1, by
    Newton's method on h(s) = log(zeta(s) - 1) - log t from SIGMA_FLOOR. As
    zeta - 1 = sum_{n>=2} n^-s is log-convex and decreasing, so is h: each
    step h (zeta - 1)/(-zeta') moves right and stops short of the root, and no
    bracket is needed. The iteration ends when a step no longer moves s right.
    """
    s, z = SIGMA_FLOOR, zeta_real(SIGMA_FLOOR)
    if not 0 < t < z.minus_one:
        raise ValueError(f"zeta(s) - 1 = {t} has no root above sigma={SIGMA_FLOOR}")
    log_t = math.log(t)
    for _ in range(_NEWTON_STEPS):
        step = (math.log(z.minus_one) - log_t) * z.minus_one / -z.derivative
        if not s + step > s:
            return s
        s += step
        z = zeta_real(s)
    raise ArithmeticError(f"zeta(s) - 1 = {t}: no convergence in {_NEWTON_STEPS} Newton steps")


@lru_cache(maxsize=None)
def kalmar_beta() -> float:
    """The unique root of zeta(beta) = 2 in (1, 3); 1.728647..."""
    root = zeta_minus_one_root(1.0)
    residual = zeta_real(root).value - 2.0
    if abs(residual) > 1e-12:
        raise ArithmeticError(f"root residual {residual:g} above 1e-12")
    return root


def kalmar_constant() -> float:
    """Leading constant -1/(beta zeta'(beta)) of the ordered-factorization sum."""
    b = kalmar_beta()
    return -1.0 / (b * zeta_real(b).derivative)


def kalmar_ratio(x: float, ftables: FactorisationTables) -> float:
    """(sum of f(n) for n <= x) / (x^beta * kalmar_constant); tends to 1."""
    total = sum_by_signature(ftables, ftables.census(x))
    return total / (x ** kalmar_beta() * kalmar_constant())


@dataclass(frozen=True)
class CorrelationReport:
    x: float
    selector: str
    numerator: float
    denominator: float

    @property
    def ratio(self) -> float:
        return self.numerator / self.denominator if self.denominator else math.nan


def sarnak_correlation(x: float, selector: str, ftables: FactorisationTables) -> CorrelationReport:
    """Correlation of mu against xi: sum mu(n) xi(n) vs sum |xi(n)|, n <= x.

    selector "f" uses xi = f; "fmu2" uses xi = f mu^2 (reported without a
    pass/fail verdict). Both sums run once per signature, with the
    signature's mu from ftables.mu, the sieve's mu at its smallest n.
    """
    if selector not in ("f", "fmu2"):
        raise ValueError(f"selector must be 'f' or 'fmu2', got {selector!r}")
    counts = ftables.census(x)
    mu_counts = [k * m for k, m in zip(counts, ftables.mu)]
    num = sum_by_signature(ftables, mu_counts)
    den = sum_by_signature(ftables, counts if selector == "f" else [abs(w) for w in mu_counts])
    return CorrelationReport(x=x, selector=selector, numerator=num, denominator=den)
