"""The signature census past any sieve, and its errors.

The census takes x and the limit of the signature list alone, so these run
with build_sieve patched to raise. The constants past 10^7 are published:
pi(10^9) (OEIS A006880), Mertens M(10^9) (A084237) and the squarefree count
Q(10^9) (A071172). The census's per-n oracle, signature by signature, is
tests/test_factorizations.py::test_signature_census_equals_the_per_n_bincount.
"""

import math

import numpy as np
import pytest
import sympy

from factorbench import census, factorizations, sieve
from factorbench.factorizations import _fk_of_signature


@pytest.fixture(scope="module")
def census_1e9():
    def refuse(limit):
        raise AssertionError(f"a sieve to {limit} was built")

    x = 10**9
    with pytest.MonkeyPatch.context() as patch:
        for module in (sieve, factorizations):
            patch.setattr(module, "build_sieve", refuse)
        return census._signatures(x)[0], census.census_counts.__wrapped__(x, x)  # uncached: counted here


def test_census_at_10_9_gives_the_published_pi_mertens_and_squarefree_counts(census_1e9):
    signatures, counts = census_1e9
    squarefree = [(len(sig), n) for sig, n in zip(signatures, counts) if set(sig) <= {1}]
    assert counts[signatures.index((1,))] == 50847534  # A006880
    assert sum((-1) ** k * n for k, n in squarefree) == -222  # A084237
    assert sum(n for _, n in squarefree) == 607927124  # A071172
    assert sum(counts) == 10**9


def test_weighted_squarefree_sum_at_10_9(census_1e9):
    # the ACCEPT-10 sum S(x) = sum over squarefree n <= x of 2^omega(n) f(n), at c = 2, kappa = 2
    signatures, counts = census_1e9
    s = sum(n * 2 ** len(sig) * sum(_fk_of_signature(sig))
            for sig, n in zip(signatures, counts) if set(sig) <= {1})
    assert s == 13753395783921
    assert round(math.log(s) / math.log(10**9), 4) == 1.4598


@pytest.mark.parametrize("x", [2, 3, 4, 99, 100, 10**6 + 3])
def test_pi_table_is_sympys_primepi(x):
    pi, primes = census._pi_table(x)
    r = math.isqrt(x)
    vs = sorted({*range(1, r + 1), *(x // d for d in range(1, r + 1))})  # every x // m
    assert pi(np.array(vs)).tolist() == [int(sympy.primepi(v)) for v in vs]
    assert primes.tolist() == list(sympy.primerange(2, r + 1))


def test_census_past_its_signature_limit_is_a_value_error():
    with pytest.raises(ValueError) as err:
        census.census_counts(1001, 1000)
    assert str(err.value) == "x=1001 beyond signature limit 1000"


def test_signatures_fail_loudly_past_their_primes():
    # the product of the first ten primes has ten distinct primes: past 29
    signatures, reps, _ = census._signatures(6469693230)
    assert signatures[reps.index(6469693230)] == (1,) * 10
    top = math.prod(census._PRIMES)
    assert max(map(len, census._signatures(top - 1)[0])) == len(census._PRIMES) - 1
    with pytest.raises(ValueError) as err:
        census._signatures(top)
    assert str(err.value) == f"signature limit {top} needs primes past 41"
