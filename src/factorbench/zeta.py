"""Real-axis zeta evaluation, the Kalmar growth constant, and correlation sums.

zeta(sigma) and zeta'(sigma) come from Euler-Maclaurin-corrected partial
sums with an explicit remainder bound (first omitted correction term), kept
below 1e-12 at the default truncation for every sigma > 1 + 1e-6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from scipy.optimize import brentq

from .factorizations import FactorisationTables
from .sieve import SieveTables

SIGMA_FLOOR = 1.0 + 1e-6
_DEFAULT_TERMS = 10_000

# B_{2k}/(2k)! for the four correction terms used, then the first omitted one.
_EM_COEFFS = [
    1.0 / 12,                     # B2/2!
    -1.0 / 720,                   # B4/4!
    1.0 / 30_240,                 # B6/6!
    -1.0 / 1_209_600,             # B8/8!
]
_EM_NEXT = 1.0 / 47_900_160       # |B10|/10!


@dataclass(frozen=True)
class ZetaReal:
    sigma: float
    value: float
    derivative: float
    method: str
    error_bound: float


def _rising_product(sigma: float, count: int) -> float:
    """sigma (sigma+1) ... (sigma+count-1)."""
    out = 1.0
    for j in range(count):
        out *= sigma + j
    return out


def _euler_maclaurin(sigma: float, terms: int) -> ZetaReal:
    n = terms
    log_n = math.log(n)
    val = sum(k ** (-sigma) for k in range(1, n))
    dval = -sum(math.log(k) * k ** (-sigma) for k in range(2, n))

    u = n ** (-sigma)
    # tail integral and half-term
    val += u * n / (sigma - 1) + u / 2
    dval += u * n * (-log_n / (sigma - 1) - 1 / (sigma - 1) ** 2) - log_n * u / 2

    for k, c in enumerate(_EM_COEFFS, start=1):
        nf = 2 * k - 1
        poly = _rising_product(sigma, nf)
        dpoly = poly * sum(1 / (sigma + j) for j in range(nf))
        scale = c * n ** (1 - sigma - 2 * k)
        val += scale * poly
        dval += scale * (dpoly - log_n * poly)

    nf = 2 * len(_EM_COEFFS) + 1
    omitted = _EM_NEXT * _rising_product(sigma, nf) * n ** (-sigma - nf)
    err = abs(omitted)
    derr = err * (log_n + sum(1 / (sigma + j) for j in range(nf)))
    return ZetaReal(
        sigma=sigma,
        value=val,
        derivative=dval,
        method=f"euler-maclaurin(N={n}, 4 corrections)",
        error_bound=max(err, derr),
    )


def zeta_real(sigma: float, terms: int = _DEFAULT_TERMS) -> ZetaReal:
    if sigma < SIGMA_FLOOR:
        raise ValueError(f"sigma must be > {SIGMA_FLOOR}, got {sigma}")
    z = _euler_maclaurin(sigma, terms)
    if z.error_bound > 1e-12:
        raise ArithmeticError(
            f"remainder bound {z.error_bound:g} above 1e-12; raise `terms`"
        )
    return z


def zeta_prime_real(sigma: float, terms: int = _DEFAULT_TERMS) -> float:
    return zeta_real(sigma, terms).derivative


@lru_cache(maxsize=None)
def kalmar_beta() -> float:
    """The unique root of zeta(beta) = 2 in (1, 3); 1.728647..."""
    root = brentq(lambda s: zeta_real(s).value - 2.0, 1.5, 2.0, xtol=1e-14)
    residual = zeta_real(root).value - 2.0
    if abs(residual) > 1e-12:
        raise ArithmeticError(f"root residual {residual:g} above 1e-12")
    return float(root)


def kalmar_constant() -> float:
    """Leading constant -1/(beta zeta'(beta)) of the ordered-factorization sum."""
    b = kalmar_beta()
    return -1.0 / (b * zeta_prime_real(b))


def kalmar_ratio(x: float, ftables: FactorisationTables) -> float:
    """(sum of f(n) for n <= x) / (x^beta * kalmar_constant); tends to 1."""
    cutoff = int(math.floor(x))
    if cutoff > ftables.limit:
        raise ValueError(f"x={x} beyond table limit {ftables.limit}")
    total = sum(ftables.f[1 : cutoff + 1])
    b = kalmar_beta()
    return total / (x**b * kalmar_constant())


@dataclass(frozen=True)
class CorrelationReport:
    x: float
    selector: str
    numerator: float
    denominator: float

    @property
    def ratio(self) -> float:
        return self.numerator / self.denominator if self.denominator else math.nan


def sarnak_correlation(
    x: float,
    selector: str,
    ftables: FactorisationTables,
    tables: SieveTables,
) -> CorrelationReport:
    """Correlation of mu against xi: sum mu(n) xi(n) vs sum |xi(n)|, n <= x.

    selector "f" uses xi = f; "fmu2" uses xi = f mu^2 (reported without a
    pass/fail verdict).
    """
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
    return CorrelationReport(x=x, selector=selector, numerator=num, denominator=den)
