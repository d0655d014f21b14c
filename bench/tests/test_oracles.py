"""The benchmark's independent computations against sympy brute force and
known values."""

import math
import random

import pytest

import oracles

sympy = pytest.importorskip("sympy")


def brute_inverse_fz(limit, z):
    """Dirichlet inverse of F_z (1 at n = 1, -z elsewhere) from sympy divisors:
    Ft(1) = 1 and Ft(n) = z * sum_{d | n, d < n} Ft(d)."""
    inv = [0] * (limit + 1)
    inv[1] = 1
    for n in range(2, limit + 1):
        inv[n] = z * sum(inv[d] for d in sympy.divisors(n)[:-1])
    return inv


@pytest.mark.parametrize("x", [1, 2, 3, 10, 97, 100, 1000, 12345])
def test_prime_pi_table_matches_sympy(x):
    table = oracles.prime_pi_table(x)
    assert table[x] == sympy.primepi(x)
    for v in random.Random(x).sample(sorted(table), min(40, len(table))):
        assert table[v] == sympy.primepi(v)


def test_prime_pi_known_value():
    assert oracles.prime_pi_table(10**7)[10**7] == 664579
    assert len(oracles.primes_upto(10**7)) == 664579


def test_primes_upto_matches_sympy():
    assert oracles.primes_upto(2000).tolist() == list(sympy.primerange(2, 2001))


def test_mobius_matches_sympy():
    mu = oracles.mobius_upto(3000)
    assert mu[1:] == [sympy.mobius(n) for n in range(1, 3001)]


@pytest.mark.parametrize("z", [-1, 1, 2, 3, complex(0.6, 1.3)])
def test_summatory_recursion_matches_brute_force(z):
    limit = 400
    inv = brute_inverse_fz(limit, z)
    memo = {}
    running = 0
    for x in range(1, limit + 1):
        running += inv[x]
        got = oracles.summatory_fz_inverse(x, z, memo)
        if isinstance(z, int):
            assert got == running
        else:
            assert abs(got - running) <= 1e-12 * max(1.0, abs(running))


def test_summatory_recursion_mertens_and_f():
    assert oracles.summatory_fz_inverse(10**6, -1) == 212  # M(10^6)
    mertens = 0
    for x in range(1, 2001):
        mertens += sympy.mobius(x)
        assert oracles.summatory_fz_inverse(x, -1) == mertens
    # z = 1 gives the ordered-factorization counts: f(12) = 8, sum_{n<=12} f = 1+1+1+2+1+3+1+4+2+3+1+8
    assert oracles.summatory_fz_inverse(12, 1) == 28


def brute_f(n):
    """Ordered factorizations of n into factors >= 2, from sympy divisors."""
    if n == 1:
        return 1
    return sum(brute_f(n // d) for d in sympy.divisors(n)[1:])


def test_fubini_is_f_on_squarefree():
    a = oracles.fubini(6)
    assert a == [1, 1, 3, 13, 75, 541, 4683]
    primorial = 1
    for k, p in enumerate(sympy.primerange(2, 15), start=1):
        primorial *= p
        assert brute_f(primorial) == a[k]


@pytest.mark.parametrize("x", [1, 2, 6, 30, 210, 1000, 2310, 4999])
def test_squarefree_counts_match_factorint(x):
    want = {}
    for n in range(1, x + 1):
        exps = sympy.factorint(n).values()
        if all(e == 1 for e in exps):
            want[len(exps)] = want.get(len(exps), 0) + 1
    got = oracles.squarefree_counts_by_omega(x)
    assert {k: c for k, c in enumerate(got) if c} == want


def test_fubini_times_counts_give_weighted_sums():
    # sum over squarefree n <= x of c^Omega(n) f(n) for c = 2, -1 and 1
    x = 3000
    a = oracles.fubini(12)
    counts = oracles.squarefree_counts_by_omega(x)
    for c in (2, -1, 1):
        want = sum(
            c ** len(sympy.factorint(n)) * a[len(sympy.factorint(n))]
            for n in range(1, x + 1)
            if sympy.mobius(n) != 0
        )
        assert sum(c**k * a[k] * m for k, m in enumerate(counts)) == want
    # the ACCEPT-10 value at 10^6
    big = oracles.squarefree_counts_by_omega(10**6)
    assert sum(2**k * a[k] * m for k, m in enumerate(big)) == 872646953
    assert sum(big) == 607926
    assert math.isclose(sum(big) / 10**6, 6 / math.pi**2, rel_tol=1e-5)
