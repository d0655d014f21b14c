"""Workbench for ordered-factorization counting, Dirichlet inversion without
Euler products, kappa-free counting bounds, and the F_z family of series."""

from .dirichlet import (
    ArithFn,
    ComplexPoint,
    convolve,
    dirichlet_inverse,
    f_k_F,
    inverse_via_alternating,
    restrict_support,
    series_eval,
)
from .factorizations import (
    FactorisationTables,
    PartitionMultiset,
    build_factorisation_tables,
    d_lambda,
    d_lambda_bound,
    enumerate_partitions,
    mu_via_parity,
)
from .sieve import (
    CapacityError,
    FactoredInt,
    SieveTables,
    build_sieve,
    factorize,
    is_kappa_free,
    iterated_log,
    mobius,
    unit_I,
)
from .zeta import kalmar_beta, kalmar_constant, kalmar_ratio, zeta_prime_real, zeta_real

__all__ = [
    "ArithFn",
    "CapacityError",
    "ComplexPoint",
    "FactoredInt",
    "FactorisationTables",
    "PartitionMultiset",
    "SieveTables",
    "build_factorisation_tables",
    "build_sieve",
    "convolve",
    "d_lambda",
    "d_lambda_bound",
    "dirichlet_inverse",
    "enumerate_partitions",
    "f_k_F",
    "factorize",
    "inverse_via_alternating",
    "is_kappa_free",
    "iterated_log",
    "kalmar_beta",
    "kalmar_constant",
    "kalmar_ratio",
    "mobius",
    "mu_via_parity",
    "restrict_support",
    "series_eval",
    "unit_I",
    "zeta_prime_real",
    "zeta_real",
]
