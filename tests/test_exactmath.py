import math
import random

import pytest

from golden_data import BIG_TRIPLET_Q
from vfcr.exactmath import (
    FactorBudgetExceeded,
    det_adj_left,
    det_exact,
    factorize,
    is_primitive_root_2,
    is_probable_prime,
    multiplicative_order,
)


def cofactor_det(m):
    """Oracle: Laplace expansion along the first row."""
    d = len(m)
    if d == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * cofactor_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(d)
    )


def test_det_identity():
    for d in (1, 2, 5, 8):
        ident = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        assert det_exact(ident) == 1


def test_det_matches_cofactor_oracle():
    rng = random.Random(1)
    for _ in range(1000):
        d = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)]
        assert det_exact(m) == cofactor_det(m)


def test_det_i_minus_2t_is_odd():
    rng = random.Random(2)
    for _ in range(200):
        d = rng.randint(1, 5)
        t = [[rng.randint(0, 3) for _ in range(d)] for _ in range(d)]
        m = [[(1 if i == j else 0) - 2 * t[i][j] for j in range(d)] for i in range(d)]
        assert det_exact(m) % 2 == 1


def test_det_rejects_nonsquare():
    with pytest.raises(ValueError):
        det_exact([[1, 2]])
    with pytest.raises(ValueError):
        det_exact([])


def test_primality_basics():
    assert is_probable_prime(61)
    assert not is_probable_prime(1)
    assert not is_probable_prime(0)
    assert is_probable_prime(2)
    assert is_probable_prime(-13)  # primality on |n|
    small_primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_probable_prime(n) == (n in small_primes)


def test_primality_large():
    assert is_probable_prime(2**127 - 1)
    assert not is_probable_prime(2**128 + 1)
    assert is_probable_prime(BIG_TRIPLET_Q)


def test_factorize():
    assert factorize(1) == {}
    assert factorize(60) == {2: 2, 3: 1, 5: 1}
    assert factorize(10**9 + 7) == {10**9 + 7: 1}
    # rho must find a 33-bit factor of a 66-bit semiprime
    p, q = 5915587277, 5754853343
    assert factorize(p * q) == {p: 1, q: 1}
    with pytest.raises(FactorBudgetExceeded):
        # product of two ~100-bit primes: far beyond a 100-step rho budget
        factorize((2**89 - 1) * (2**107 - 1), rho_budget=100)


def test_multiplicative_order_examples():
    assert multiplicative_order(2, 11) == 10
    assert multiplicative_order(2, 61) == 60
    assert multiplicative_order(2, 3) == 2
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 121) == 5  # composite modulus path


def test_multiplicative_order_matches_powering_oracle():
    for q in range(3, 200, 2):
        for base in (2, 3, 5):
            if math.gcd(base, q) != 1:
                continue
            t = 1
            x = base % q
            while x != 1:
                x = x * base % q
                t += 1
            assert multiplicative_order(base, q) == t


def test_order_divides_q_minus_1_for_primes():
    for q in (3, 5, 7, 11, 13, 61, 101, 1259, 1164589):
        assert (q - 1) % multiplicative_order(2, q) == 0


def test_order_invalid_inputs():
    with pytest.raises(ValueError):
        multiplicative_order(2, 1)
    with pytest.raises(ValueError):
        multiplicative_order(2, 10)
    with pytest.raises(ValueError):
        multiplicative_order(3, 9)


def test_order_budget_error_propagates():
    with pytest.raises(FactorBudgetExceeded):
        multiplicative_order(2, BIG_TRIPLET_Q, rho_budget=100)


def test_primitive_root_2():
    assert is_primitive_root_2(11)
    assert is_primitive_root_2(61)
    assert not is_primitive_root_2(7)
    with pytest.raises(ValueError):
        is_primitive_root_2(9)


def test_det_adj_left_matches_cofactors():
    rng = random.Random(11)
    for _ in range(60):
        d = rng.randint(1, 5)
        a = [[(i == j) - 2 * rng.randint(-3, 3) for j in range(d)] for i in range(d)]
        v = [rng.randint(-20, 20) for _ in range(d)]
        det, p = det_adj_left(a, v)
        assert det == cofactor_det(a)
        # p = v adj(A), i.e. p A = det v
        assert [sum(p[i] * a[i][j] for i in range(d)) for j in range(d)] == [det * x for x in v]


def test_det_adj_left_needs_identity_mod_2():
    with pytest.raises(ValueError):
        det_adj_left([[2, 1], [1, 1]], [1, 0])
