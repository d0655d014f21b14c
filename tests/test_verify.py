"""The checks that verify, reproduce and the acceptance gate share each pass
on the real kernels and fail when one kernel gives one wrong value.

The mu = f_even - f_odd check has its broken-table test in
tests/test_signature_sums.py::test_mu_parity_failures_equal_the_loop.
"""

import random

import pytest

from factorbench import factorizations, verify, zfamily
from factorbench.zfamily import build_context


def inverse_off_at_7(real):
    def broken(F):
        inv = real(F)
        inv.values[7] += 1
        return inv
    return broken


def closed_form_off_at_2_cubed_times_3(real):
    def broken(z, alpha, n, p, ftables):
        value = real(z, alpha, n, p, ftables)
        return value + 1 if (p, alpha, n) == (2, 3, 3) else value
    return broken


def closed_form_scaled_at_2_cubed_times_3(real):
    def broken(z, alpha, n, p, ftables):
        value = real(z, alpha, n, p, ftables)
        return value * (1 + 1e-6) if (p, alpha, n) == (2, 3, 3) else value
    return broken


def bound_plus_one(real):
    return lambda lam: real(lam) + 1  # d_lambda then falls short of it on squarefree n


def binomial_false_at_3_1_2(real):
    return lambda alpha, k, ell: (alpha, k, ell) != (3, 1, 2) and real(alpha, k, ell)


def closed_form_passes(z):
    def passes(tables):
        ft = factorizations.build_factorisation_tables(64, tables)
        _, bad = verify.closed_form_mismatches([build_context(z, 500, tables)], ft, (2, 3), (1, 2, 3), (1, 3, 5))
        return not bad
    return passes


# the check, as pass or fail on the tables, and the kernel broken under it
CASES = {
    "inverse-of-ones": (lambda t: verify._inverse_of_ones(t, 100, None)[1],
                        verify, "dirichlet_inverse", inverse_off_at_7),
    "cm-inverse-absolute": (lambda t: verify.cm_inverse_residual(t, 100, random.Random(1))[0] <= 1e-9,
                            verify, "dirichlet_inverse", inverse_off_at_7),
    "cm-inverse-relative": (lambda t: verify.cm_inverse_residual(t, 100, random.Random(1))[1] <= 1e-9,
                            verify, "dirichlet_inverse", inverse_off_at_7),
    "roundtrip": (lambda t: verify._roundtrip(t, 100, random.Random(1))[1],
                  verify, "dirichlet_inverse", inverse_off_at_7),
    "closed-form-int-z": (closed_form_passes(2),
                          zfamily, "inverse_at_prime_power", closed_form_off_at_2_cubed_times_3),
    "closed-form-complex-z": (closed_form_passes(0.6 + 0.8j),
                              zfamily, "inverse_at_prime_power", closed_form_off_at_2_cubed_times_3),
    "closed-form-complex-z-relative": (closed_form_passes(0.6 + 0.8j),
                                       zfamily, "inverse_at_prime_power", closed_form_scaled_at_2_cubed_times_3),
    "d-lambda-bound": (lambda t: verify._d_lambda_bound(t, 100, None)[1],
                       factorizations, "d_lambda_bound", bound_plus_one),
    "binomial-identity": (lambda t: verify._binomial_identity(t, None, None)[1],
                          zfamily, "binomial_identity_check", binomial_false_at_3_1_2),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_broken_kernel_fails_the_shared_check(case, monkeypatch, sieve_small):
    passes, module, name, breaker = CASES[case]
    assert passes(sieve_small)
    monkeypatch.setattr(module, name, breaker(getattr(module, name)))
    assert not passes(sieve_small)
