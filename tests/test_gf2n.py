import pytest
from itertools import product

from vfcr import gf2n
from vfcr.exactmath import FactorBudgetExceeded
from vfcr.gf2n import (
    BinaryPolynomial,
    PolynomialError,
    binary_modulus,
    gf_mul,
    mul_lifted,
    mult_matrix,
    norm,
    quadratic,
)

CUBIC = BinaryPolynomial.from_bits("1101")  # X^3 + X + 1, canonical lift
LIFTS = ("11", "111", "-1,-1,1", "1101", "-1,1,0,1")


def brute_gf_mul(a, b, P):
    """Oracle: schoolbook polynomial product mod 2, reduced by the F2 modulus."""
    n = P.n
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] ^= ai & bj
    pbits = [c & 1 for c in P.coeffs]
    for k in range(2 * n - 2, n - 1, -1):
        if prod[k]:
            for i in range(n + 1):
                prod[k - n + i] ^= pbits[i]
    return tuple(prod[:n])


def power_table_mul(a, b, P):
    """Reference: a*b summed over a table of Xbar^k, k = 0 .. 2n-2."""
    n = P.n
    table = []
    cur = [1] + [0] * (n - 1)
    for _ in range(2 * n - 1):
        table.append(cur)
        nxt = [0] + cur  # times X, degree n at the end
        top = nxt[n]
        cur = [nxt[i] - top * P.coeffs[i] for i in range(n)]
    out = [0] * n
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            for k in range(n):
                out[k] += ai * bj * table[i + j][k]
    return tuple(out)


@pytest.mark.parametrize("lift", LIFTS)
def test_lifted_product_matches_power_table(lift):
    P = BinaryPolynomial.parse(lift)
    n = P.n
    vecs = list(product(range(-2, 3), repeat=n))
    units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    for b in vecs:
        M = mult_matrix(b, P)
        assert M == tuple(power_table_mul(e, b, P) for e in units)
        for a in vecs:
            assert mul_lifted(a, b, P) == power_table_mul(a, b, P)


def test_identity_element():
    P = quadratic()
    one = (1, 0)
    for a in product((0, 1), repeat=2):
        assert gf_mul(one, a, P) == a


def test_xbar_squared_is_one_plus_xbar():
    P = quadratic()
    assert gf_mul((0, 1), (0, 1), P) == (1, 1)


@pytest.mark.parametrize("P", [binary_modulus(), quadratic(), CUBIC])
def test_commutativity_exhaustive(P):
    n = P.n
    for a in product((0, 1), repeat=n):
        for b in product((0, 1), repeat=n):
            assert gf_mul(a, b, P) == gf_mul(b, a, P)
            assert gf_mul(a, b, P) == brute_gf_mul(a, b, P)


def test_gf_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        gf_mul((1,), (1, 0), quadratic())


def test_mult_matrix_of_one_is_identity():
    for P in (quadratic(), CUBIC):
        n = P.n
        one = (1,) + (0,) * (n - 1)
        expect = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        assert mult_matrix(one, P) == expect


def test_mult_matrix_quadratic_blocks():
    P = quadratic()
    assert mult_matrix((0, 1), P) == ((0, 1), (1, 1))
    assert mult_matrix((1, 1), P) == ((1, 1), (1, 2))


def test_mult_matrix_additive():
    P = CUBIC
    q1 = (2, -1, 3)
    q2 = (0, 4, 1)
    m1 = mult_matrix(q1, P)
    m2 = mult_matrix(q2, P)
    msum = mult_matrix(tuple(x + y for x, y in zip(q1, q2)), P)
    assert msum == tuple(
        tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(m1, m2)
    )


def test_gf_mul_agrees_with_mult_matrix_mod_2():
    P = quadratic()
    for a in product((0, 1), repeat=2):
        for b in product((0, 1), repeat=2):
            M = mult_matrix(b, P)
            via_matrix = tuple(
                sum(a[i] * M[i][j] for i in range(2)) & 1 for j in range(2)
            )
            assert gf_mul(a, b, P) == via_matrix


def test_norm_examples():
    P = quadratic()
    assert norm((1, 0), P) == 1
    assert norm((3, 2), P) == 11
    assert norm((31, 50), P) == 11
    # the quadratic ring realizes the form u^2 + uv - v^2
    for u in range(-4, 5):
        for v in range(-4, 5):
            assert norm((u, v), P) == u * u + u * v - v * v


@pytest.mark.parametrize("P", [binary_modulus(), quadratic(), CUBIC])
def test_norm_multiplicative(P):
    n = P.n
    box = range(-2, 3)
    vecs = list(product(box, repeat=n))
    for q1 in vecs[:: max(1, len(vecs) // 20)]:
        for q2 in vecs[:: max(1, len(vecs) // 20)]:
            prod = mul_lifted(q1, q2, P)
            assert norm(prod, P) == norm(q1, P) * norm(q2, P)


def test_binary_modulus_is_plain_integers():
    P = binary_modulus()
    assert mult_matrix((7,), P) == ((7,),)
    assert norm((-5,), P) == -5


def test_rejects_reducible():
    with pytest.raises(PolynomialError):
        BinaryPolynomial.from_bits("101")  # X^2 + 1 = (X+1)^2


def test_rejects_reducible_past_the_frobenius_check():
    # (X^3+X+1)(X^3+X^2+1) satisfies X^(2^6) = X; only the gcd step refuses it
    with pytest.raises(PolynomialError):
        BinaryPolynomial.from_bits("1111111")


def test_rejects_even_constant_and_nonmonic():
    with pytest.raises(PolynomialError):
        BinaryPolynomial((0, 1, 1))
    with pytest.raises(PolynomialError):
        BinaryPolynomial((1, 1, 2))


def test_primitivity_flag():
    assert quadratic().primitive is True
    assert CUBIC.primitive is True
    # X^4+X^3+X^2+X+1 is irreducible but Xbar has order 5, not 15
    assert BinaryPolynomial.from_bits("11111").primitive is False


def test_primitivity_above_degree_20(monkeypatch):
    # 2^31 - 1 is prime, so every irreducible modulus of degree 31 is primitive
    assert BinaryPolynomial.from_bits("1001" + "0" * 27 + "1").primitive is True
    # X^21 + X^7 + 1 is irreducible, but Xbar has order 49, not 2^21 - 1
    P = BinaryPolynomial.from_bits("1" + "0" * 6 + "1" + "0" * 13 + "1")
    assert P.n == 21 and P.primitive is False

    def over_budget(n):
        raise FactorBudgetExceeded("budget")

    monkeypatch.setattr(gf2n, "factorize", over_budget)
    assert P.primitive is None


def test_parse_round_trip():
    P = BinaryPolynomial.parse("111")
    assert P.coeffs == (1, 1, 1)
    assert P.bits() == "111"
    Q = BinaryPolynomial.parse("-1,-1,1")
    assert Q == quadratic()
    assert BinaryPolynomial.parse(Q.lift_text()) == Q
    with pytest.raises(PolynomialError):
        BinaryPolynomial.parse("10a")


def test_signed_lift_changes_the_norm_form():
    # same field, different integer quotient: X^2+X+1 gives u^2 - uv + v^2
    P = BinaryPolynomial.from_bits("111")
    for u in range(-3, 4):
        for v in range(-3, 4):
            assert norm((u, v), P) == u * u - u * v + v * v
