"""The checks that verify, reproduce and the acceptance gate share each pass
on the real kernels and fail when one kernel gives one wrong value.

The mu = f_even - f_odd check has its broken-table test in
tests/test_signature_sums.py::test_mu_parity_failures_equal_the_loop.
"""

import random

import numpy as np
import pytest

from factorbench import factorizations, verify, zfamily
from factorbench.sieve import _COUNT_CHUNK
from factorbench.zfamily import build_context


def inverse_off_at_7(real):
    def broken(F):
        inv = real(F)
        inv.values[7] += 1
        return inv
    return broken


def stack_inverse_off_at_7(real):
    def broken(stack):
        inv = real(stack)
        np.asarray(inv)[:, 7] += 1  # every row, on planes or objects
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
    # at limit 500 the 20 draws make one stack of 10020 values, which the
    # planes take
    "cm-inverse-absolute": (lambda t: verify.cm_inverse_residual(t, 500, random.Random(1))[0] <= 1e-9,
                            verify, "dirichlet_inverse_stack", stack_inverse_off_at_7),
    "cm-inverse-relative": (lambda t: verify.cm_inverse_residual(t, 500, random.Random(1))[1] <= 1e-9,
                            verify, "dirichlet_inverse_stack", stack_inverse_off_at_7),
    "roundtrip": (lambda t: verify._roundtrip(t, 500, random.Random(1))[1],
                  verify, "dirichlet_inverse_stack", stack_inverse_off_at_7),
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


# (limit, seed, residuals), to the bit: the residuals that inverting the 20
# draws one at a time with dirichlet_inverse gives.  At 32768, N + 1
# exceeds a stack's _COUNT_CHUNK // 2 values, so each stack holds one draw.
CM_PINS = [(3000, 12345, (8.847022632715592e-16, 8.847022632715592e-16)),
           (5000, 20240501, (5.83425055909089e-16, 5.83425055909089e-16)),
           (32768, 7, (1.213225204642199e-15, 1.213225204642199e-15))]
CM_PINS += [(limit, 1, (0.0, 0.0)) for limit in range(1, 5)]


@pytest.mark.parametrize("limit, seed, residuals", CM_PINS)
def test_cm_inverse_residual_equals_the_per_draw_inverses(limit, seed, residuals, sieve_big):
    assert verify.cm_inverse_residual(sieve_big, limit, random.Random(seed)) == residuals


def test_a_stack_past_the_budget_holds_one_draw(sieve_big, monkeypatch):
    heights = []

    def spy(tables, height):
        heights.append(height)
        return real(tables, height)

    real = verify.stack_tables
    monkeypatch.setattr(verify, "stack_tables", spy)
    verify.cm_inverse_residual(sieve_big, _COUNT_CHUNK // 2, random.Random(7))
    assert heights == [1] * 20
