import math
import random

import pytest

from golden_data import BIG_TRIPLET_Q
from vfcr import exactmath
from vfcr.exactmath import (
    TRIAL_DIVISION_BOUND,
    FactorBudgetExceeded,
    det_adj_left,
    det_exact,
    factorize,
    is_primitive_root_2,
    is_probable_prime,
    multiplicative_order,
)
from vfcr.search import _is_l_norm


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


@pytest.mark.parametrize("n, factors", [(1000220006771, {1000037: 1, 1000183: 1}),
                                        (1000033**2, {1000033: 2})])
def test_factorize_through_the_rho_backtrack(n, factors):
    # both factors lie past trial division, and rho's batched gcd reaches n itself
    assert factorize(n) == factors


@pytest.mark.parametrize("budget", [1, 2, 3])
def test_rho_backtrack_stops_at_the_budget(budget):
    # on 15 the batched gcd reaches n, and the backtrack runs out of budget
    f, steps = exactmath._pollard_rho(15, budget, random.Random(0xC0FFEE ^ 15))
    assert f is None
    assert budget <= steps < budget + 128


def test_multiplicative_order_examples():
    assert multiplicative_order(1) == 1
    assert multiplicative_order(11) == 10
    assert multiplicative_order(61) == 60
    assert multiplicative_order(3) == 2
    assert multiplicative_order(7) == 3
    assert multiplicative_order(121) == 110  # composite modulus path


def test_multiplicative_order_matches_powering_oracle():
    for q in range(3, 200, 2):
        t = 1
        x = 2
        while x != 1:
            x = x * 2 % q
            t += 1
        assert multiplicative_order(q) == t


def test_order_divides_q_minus_1_for_primes():
    for q in (3, 5, 7, 11, 13, 61, 101, 1259, 1164589):
        assert (q - 1) % multiplicative_order(q) == 0


def test_order_invalid_inputs():
    with pytest.raises(ValueError):
        multiplicative_order(0)
    with pytest.raises(ValueError):
        multiplicative_order(10)


def test_order_budget_error_propagates():
    with pytest.raises(FactorBudgetExceeded):
        multiplicative_order(BIG_TRIPLET_Q, rho_budget=100)


def test_primitive_root_2():
    assert is_primitive_root_2(11)
    assert is_primitive_root_2(61)
    assert not is_primitive_root_2(7)
    with pytest.raises(ValueError):
        is_primitive_root_2(9)


def test_det_adj_left_matches_cofactors():
    rng = random.Random(11)
    swapped = 0
    for _ in range(300):
        d = rng.randint(1, 5)
        # about half the entries zero, and a zero leading entry in half the
        # draws, so that the elimination has to swap rows
        a = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 5)) for _ in range(d)] for _ in range(d)]
        if d > 1 and rng.random() < 0.5:
            a[0][0] = 0
        det = cofactor_det(a)
        if det == 0:
            continue
        swapped += a[0][0] == 0
        v = [rng.randint(-20, 20) for _ in range(d)]
        got, p = det_adj_left(a, v)
        assert got == det
        # p = v adj(A), i.e. p A = det v
        assert [sum(p[i] * a[i][j] for i in range(d)) for j in range(d)] == [det * x for x in v]
    assert swapped >= 20


def test_det_adj_left_rejects_singular():
    for a in ([[0]], [[1, 2], [2, 4]], [[0, 1, 0], [0, 0, 1], [0, 1, 1]]):
        with pytest.raises(ValueError):
            det_adj_left(a, [1] * len(a))


def old_trial_division(n):
    """Reference: trial division to the bound with no primality test; (factors, cofactor)."""
    factors = []
    for p in (2, 3):
        while n % p == 0:
            factors.append(p)
            n //= p
    d = 5
    while d <= TRIAL_DIVISION_BOUND and d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                factors.append(p)
                n //= p
        d += 6
    return factors, n


def assert_trial_division_matches(n):
    # With no rho budget, factorize returns the stripped primes plus a prime
    # cofactor, or raises on the composite cofactor, which also seeds rho.
    factors, cofactor = old_trial_division(n)
    expected = {}
    for p in factors:
        expected[p] = expected.get(p, 0) + 1
    try:
        out = factorize(n, rho_budget=0)
    except FactorBudgetExceeded as exc:
        assert str(exc) == f"factorization budget exceeded on {cofactor}", n
        assert not is_probable_prime(cofactor)
        return
    if cofactor > 1:
        expected[cofactor] = 1
    assert out == expected, n


def test_trial_division_matches_the_old_loop_below_10_5():
    for n in range(1, 10**5):
        assert_trial_division_matches(n)


def _primes_from(start, count, step=1):
    out, p = [], start
    while len(out) < count:
        if is_probable_prime(p):
            out.append(p)
        p += step
    return out


def test_trial_division_matches_the_old_loop_on_large_inputs():
    below, above = _primes_from(10**6, 3, -1), _primes_from(10**6, 3)  # 999961 ... 1000037
    rng = random.Random(11)
    big_primes = [p for p in (rng.randrange(10**12, 10**18) for _ in range(300))
                  if is_probable_prime(p)] + [2**61 - 1, 2**89 - 1, 2**127 - 1]
    cases = [a * b for a in below for b in above] + [below[0]**2, above[0]**2]
    cases += [2**5 * 3 * below[0] * above[0], below[0] * above[0] * above[1]]
    cases += [rng.randrange(1, 10**4) * p for p in big_primes]
    # primes up to 9e6, where trial division could run to the square root
    mid = [1_000_003, 5_000_011] + _primes_from(9 * 10**6, 1, -1)  # 8999993
    cases += mid + [2**5 * 3 * p for p in mid] + [mid[0] * mid[1]]
    # above 3.3e24, with a factor just below 10^6: prime and composite cofactors
    cases += [below[0] * (2**89 - 1), below[1] * 12 * (2**127 - 1),
              below[0] * below[1] * (2**61 - 1) * (2**31 - 1), below[2] * above[2] * 10**30]
    for n in cases:
        assert_trial_division_matches(n)


def test_one_rho_budget_covers_the_whole_factorization(monkeypatch):
    # three primes past trial division take two rho runs: 3327 and 4223 steps
    primes = (10015351, 20004001, 30007267)
    n = math.prod(primes)
    budget = 4479
    with pytest.raises(FactorBudgetExceeded) as exc:
        factorize(n, rho_budget=budget)
    assert exc.value.limit == budget
    assert budget <= exc.value.steps < budget + 128  # rho checks its budget per batch
    runs = []
    rho = exactmath._pollard_rho

    def spy(m, limit, rng):
        f, steps = rho(m, limit, rng)
        runs.append(steps)
        return f, steps

    monkeypatch.setattr(exactmath, "_pollard_rho", spy)
    assert factorize(n) == dict.fromkeys(primes, 1)
    assert len(runs) == 2 and max(runs) + 128 < budget < sum(runs)


def order_is_q_minus_1(q):
    """Reference for an l-norm: q is an odd prime and 2 has order q - 1 mod q."""
    return q > 2 and is_probable_prime(q) and multiplicative_order(q) == q - 1


def test_primitive_root_2_matches_the_order_below_2_10_5():
    for q in range(2 * 10**5):
        expected = order_is_q_minus_1(q)
        assert _is_l_norm(q, exactmath.DEFAULT_RHO_BUDGET) == expected, q
        if q > 2 and is_probable_prime(q):
            assert is_primitive_root_2(q) == expected, q


def test_primitive_root_2_matches_the_order_on_large_primes():
    rng = random.Random(5)
    primes = [p for p in (rng.randrange(2**20, 2**64) | 1 for _ in range(1000))
              if is_probable_prime(p)]
    assert {p % 8 for p in primes} == {1, 3, 5, 7}
    answers = set()
    for q in primes:
        expected = order_is_q_minus_1(q)
        assert is_primitive_root_2(q) == _is_l_norm(q, exactmath.DEFAULT_RHO_BUDGET) == expected, q
        answers.add(expected)
    assert answers == {False, True}
