"""One-shot reproduction report for the headline identities and trend tables.

Asserted identities and measured/fitted quantities are kept in separate
sections of the report; fitted constants are labeled "fitted" and are
outputs of the run, not inputs.
"""

from __future__ import annotations

import random
import time

from . import counting, zeta
from .factorizations import build_factorisation_tables
from .sieve import build_sieve
from .verify import closed_form_mismatches, cm_inverse_residual, mu_parity_failures
from .zfamily import build_context

KAPPAS = (2, 3)
CHECKPOINTS = (10**2, 10**3, 10**4, 10**5, 10**6)
PARITY_LIMIT = 100_000  # largest n of the mu = f_even - f_odd check
PSI_N = 4400  # the psi_4400 section factors this n


def reproduce_report(sieve_limit: int = 1_000_000, seed: int = 12345) -> dict:
    if sieve_limit < PSI_N:
        raise ValueError(
            f"reproduce needs a sieve limit of at least {PSI_N} for its psi_{PSI_N} "
            f"section, got {sieve_limit}"
        )
    rng = random.Random(seed)
    t0 = time.time()

    tables = build_sieve(sieve_limit)
    ftables = build_factorisation_tables(sieve_limit, tables)
    parity_limit = min(PARITY_LIMIT, sieve_limit)

    report: dict = {"config": {
        "sieve_limit": sieve_limit,
        "kappas": list(KAPPAS),
        "checkpoints": list(CHECKPOINTS),
        "seed": seed,
    }}

    # Psi(4400) with kappa=5 and its largest index
    tup, j = counting.psi_tuple(PSI_N, 5, tables)
    report["psi_4400"] = {"indices": list(tup), "J": j, "pass": tup == (1, 2, 3, 4, 9, 10, 17) and j == 17}

    beta = zeta.kalmar_beta()
    report["kalmar_beta"] = {
        "value": beta,
        "residual": zeta.zeta_real(beta).value - 2.0,
    }

    # squarefree support of the inverse of completely multiplicative F
    lim = min(3000, sieve_limit)
    _, worst = cm_inverse_residual(tables, lim, rng)
    report["cm_inverse_squarefree_support"] = {
        "samples": 20, "limit": lim, "worst_relative": worst, "pass": worst <= 1e-9,
    }

    # closed form for the inverse of F_z at prime powers times coprime n
    contexts = (build_context(z, min(4000, sieve_limit), tables) for z in (-1, 1, 2))
    cases, bad = closed_form_mismatches(contexts, ftables, (2, 3, 5), (1, 2, 3), (1, 2, 3, 6, 15))
    report["closed_form_vs_inversion"] = {"cases": cases, "mismatches": len(bad), "pass": not bad}

    # mu = f_even - f_odd
    bad = mu_parity_failures(tables, ftables, parity_limit)
    report["mu_parity_relation"] = {"limit": parity_limit, "failures": len(bad), "pass": not bad}

    checkpoints = [x for x in CHECKPOINTS if x <= sieve_limit]
    report["kalmar_ratio"] = {
        "rows": [{"x": x, "ratio": zeta.kalmar_ratio(x, ftables)} for x in checkpoints]
    }

    sarnak_rows = []
    for x in checkpoints:
        for sel in ("f", "fmu2"):
            rep = zeta.sarnak_correlation(x, sel, ftables)
            sarnak_rows.append(
                {"x": x, "xi": sel, "numerator": rep.numerator,
                 "denominator": rep.denominator, "ratio": rep.ratio}
            )
    report["sarnak_correlation"] = {"rows": sarnak_rows, "note": "xi=fmu2 is reported only"}

    report["coffeeshop_exponents"] = {
        "C": 2, "kappa": 2,
        "rows": [
            {"x": x, "exponent": e}
            for x, e in counting.growth_exponents(
                [x for x in checkpoints if x >= 1000], 2, 2, ftables
            )
        ],
    }

    profiles = counting.profile_grid(checkpoints, KAPPAS, tables)
    c1, c2 = counting.fit_counting_constants(checkpoints, KAPPAS, tables, profiles)
    holds = all(
        lhs <= counting.hr_free_rhs(p.x, p.kappa, ell, c1, c2)
        for p in profiles
        for ell, lhs in p.per_ell.items()
        if ell >= 1
    )
    report["fitted_constants"] = {
        "note": "fitted from this run's grid, not asserted values",
        "C1": c1, "C2": c2, "bound_holds_on_grid": holds,
    }

    report["elapsed_seconds"] = time.time() - t0
    return report
