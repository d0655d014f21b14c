"""The one-parameter family built from F_z (1 at n=1, -z elsewhere).

F_z's Dirichlet inverse satisfies Ft_z(n) = sum_k z^k f_k(n) for n >= 2; the
squarefree-restricted inverse G_z is the coefficient sequence of the
reciprocal series, multiplicative only at z = 0 and z = -1.  Integer z is
kept in exact integer arithmetic throughout (the alternating sums cancel
catastrophically in doubles for |z| > 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import zeta as zeta_mod
from .dirichlet import ArithFn, dirichlet_inverse, restrict_support
from .factorizations import FactorisationTables
from .sieve import SieveTables


@dataclass
class ZFamilyContext:
    """Cached truncations of F_z, its inverse, and G_z, plus the abscissa
    beta_z where the reciprocal series stops converging."""

    z: complex
    limit: int
    fz: ArithFn
    fz_tilde: ArithFn
    gz: ArithFn
    beta_z: float  # -inf marker at z = 0, nan where 1 + 1/|z| rounds to 1


def _as_scalar(z):
    """Keep exact types: int stays int, real complex collapses to float/int."""
    if isinstance(z, complex) and z.imag == 0:
        z = z.real
    if isinstance(z, float) and z.is_integer():
        z = int(z)
    return z


def build_context(z, limit: int, tables: SieveTables) -> ZFamilyContext:
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if limit > tables.limit:
        raise ValueError(f"limit {limit} beyond sieve limit {tables.limit}")
    z = _as_scalar(z)
    fz = ArithFn.constant_tail(limit, -z)
    fz_tilde = dirichlet_inverse(fz)
    gz = dirichlet_inverse(restrict_support(fz_tilde, tables.mu[: limit + 1] != 0))
    beta_z = beta_for_z(z) if z == 0 or 1.0 + 1.0 / abs(z) > 1.0 else math.nan
    return ZFamilyContext(z=z, limit=limit, fz=fz, fz_tilde=fz_tilde, gz=gz, beta_z=beta_z)


def beta_for_z(z) -> float:
    """Root of zeta(beta) = 1 + 1/|z| on (1, inf); -inf marker at z = 0.

    The root is found on zeta(beta) - 1 = 1/|z|, with zeta - 1 summed without
    its n = 1 term, as zeta(beta) - (1 + 1/|z|) cancels for large |z|.
    """
    az = abs(z)
    if az == 0:
        return -math.inf
    if 1.0 + 1.0 / az == 1.0:
        raise ValueError(f"|z|={az} too large: 1 + 1/|z| rounds to 1")
    try:
        return zeta_mod.zeta_minus_one_root(1.0 / az)
    except ValueError:
        raise ValueError(f"|z|={az} too small: root lies below sigma={zeta_mod.SIGMA_FLOOR}") from None


def inverse_at_prime_power(
    z, alpha: int, n: int, p: int, ftables: FactorisationTables
):
    """Closed form for the inverse of F_z at p^alpha * n, p not dividing n:

        (z+1)^(alpha-1) * sum_{ell>=0} z^ell (z + ell/alpha (z+1))
                          * C(alpha+ell-1, ell) * f_ell(n)

    f_0 is the unit, so at n = 1 this is z (z+1)^(alpha-1). With an int z the
    sum is exact (ell/alpha is a Fraction) and the result is an int; with a
    float or complex z, Fraction(ell, alpha) rounds as ell / alpha does.
    """
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    if n % p == 0:
        raise ValueError(f"p={p} divides n={n}")
    if n > ftables.limit:
        raise ValueError(f"f_k tables do not cover n={n}")
    z = _as_scalar(z)
    total = 0
    for ell in range(len(ftables.fk)):
        fl = ftables.fk[ell][n]
        if fl == 0:
            continue
        weight = z + Fraction(ell, alpha) * (z + 1)
        total += z**ell * weight * math.comb(alpha + ell - 1, ell) * fl
    return _finish(total * (z + 1) ** (alpha - 1))


def _finish(value):
    """A Fraction, which an int z gives, as the int it must be; else value."""
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise AssertionError(f"closed form produced non-integer {value}")
        return int(value)
    return value


def B_sum(z, alpha: int, ell: int):
    """Defining k-sum: sum_{k=0}^{alpha} z^k C(k+ell, ell) C(alpha+ell-1, k+ell-1).
    Pinned by test_B_sum_equals_closed_*; the package never calls it."""
    if alpha < 1 or ell < 1:
        raise ValueError("alpha and ell must be >= 1")
    return sum(
        z**k * math.comb(k + ell, ell) * math.comb(alpha + ell - 1, k + ell - 1)
        for k in range(alpha + 1)
    )


def B_closed(z, alpha: int, ell: int):
    """C(alpha+ell-1, ell) * (z (z+1)^(alpha-1) + ell/alpha (z+1)^alpha).
    Pinned by test_B_sum_equals_closed_*; the package never calls it."""
    if alpha < 1 or ell < 1:
        raise ValueError("alpha and ell must be >= 1")
    z = _as_scalar(z)
    value = z * (z + 1) ** (alpha - 1) + Fraction(ell, alpha) * (z + 1) ** alpha
    return _finish(math.comb(alpha + ell - 1, ell) * value)


def binomial_identity_check(alpha: int, k: int, ell: int) -> bool:
    """C(k+ell,ell) C(alpha+ell-1,k+ell-1)
    == C(alpha+ell-1,ell) (C(alpha-1,k-1) + ell/alpha C(alpha,k)), exactly."""
    if not 0 <= k <= alpha:
        raise ValueError(f"need 0 <= k <= alpha, got k={k}, alpha={alpha}")
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    lhs = Fraction(math.comb(k + ell, ell) * math.comb(alpha + ell - 1, k + ell - 1))
    low = math.comb(alpha - 1, k - 1) if k >= 1 else 0
    rhs = math.comb(alpha + ell - 1, ell) * (
        Fraction(low) + Fraction(ell, alpha) * math.comb(alpha, k)
    )
    return lhs == rhs


def fk_prime_power_expansion(
    p: int, alpha: int, n: int, k: int, ftables: FactorisationTables
) -> int:
    """f_k(p^alpha n) via sum_{ell=max(0,k-alpha)}^{k} C(k,ell) C(alpha+ell-1,k-1) f_ell(n);
    f_0 is the unit, so at n = 1 this is f_k(p^alpha) = C(alpha-1, k-1).
    Pinned by test_fk_prime_power_expansion; the package never calls it."""
    if n % p == 0:
        raise ValueError(f"p={p} divides n={n}")
    if alpha < 1 or k < 1:
        raise ValueError("alpha and k must be >= 1")
    total = 0
    for ell in range(max(0, k - alpha), min(k, ftables.k_max) + 1):
        total += math.comb(k, ell) * math.comb(alpha + ell - 1, k - 1) * ftables.fk[ell][n]
    return total


@dataclass(frozen=True)
class MultiplicativityWitness:
    z: complex
    g2: complex
    g3: complex
    g6: complex

    @property
    def discrepancy(self):
        """G(2) G(3) - G(6); nonzero exactly when z is not 0 or -1."""
        return self.g2 * self.g3 - self.g6


def non_multiplicativity_witness(ctx: ZFamilyContext) -> MultiplicativityWitness:
    """G_z at 2, 3 and 6, where G_z fails multiplicativity unless z is 0 or -1.
    Pinned by test_witness_discrepancy; the package never calls it."""
    if ctx.limit < 6:
        raise ValueError(f"context limit {ctx.limit} < 6")
    g = ctx.gz.values
    return MultiplicativityWitness(z=ctx.z, g2=g[2], g3=g[3], g6=g[6])
