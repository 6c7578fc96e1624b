"""Arithmetic in F2[X]/(P) and its integer lift Z[X]/(P).

Field elements are coordinate tuples in the power basis {1, Xbar, ...,
Xbar^(n-1)}, constant term first.  The lift of the modulus P keeps the
signed coefficients it was constructed with, so X^2 - X - 1 and
X^2 + X + 1 define the same field but different integer quotient rings
(and therefore different norms).
"""

from __future__ import annotations

from functools import lru_cache

from .exactmath import FactorBudgetExceeded, det_exact, factorize


class PolynomialError(ValueError):
    pass


def _int_poly(bits) -> int:
    """Pack F2 coefficients (constant first) into an int, bit k = coeff of X^k."""
    v = 0
    for k, b in enumerate(bits):
        if b & 1:
            v |= 1 << k
    return v


def _gf2_mod(a: int, m: int) -> int:
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def _gf2_mulmod(a: int, b: int, m: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a = _gf2_mod(a << 1, m)
    return r


def _gf2_powmod(a: int, e: int, m: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = _gf2_mulmod(r, a, m)
        e >>= 1
        a = _gf2_mulmod(a, a, m)
    return r


def _gf2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _gf2_mod(a, b)
    return a


def _is_irreducible(m: int) -> bool:
    """Rabin's irreducibility test for a polynomial over F2 (int-encoded)."""
    n = m.bit_length() - 1
    if n == 1:
        return True
    x = 0b10
    # X^(2^n) == X mod m
    t = x
    for _ in range(n):
        t = _gf2_mulmod(t, t, m)
    if t != x:
        return False
    for d in factorize(n):
        t = x
        for _ in range(n // d):
            t = _gf2_mulmod(t, t, m)
        if _gf2_gcd(t ^ x, m) != 1:
            return False
    return True


class BinaryPolynomial:
    """Monic modulus with signed integer coefficients, irreducible mod 2.

    ``coeffs`` is the lift in Z[X] (constant term first, length n+1).
    Reduction mod 2 must be irreducible with nonzero constant term.
    ``primitive`` is computed on access from the factorization of 2^n - 1.
    """

    __slots__ = ("coeffs", "n", "_f2")

    def __init__(self, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) < 2:
            raise PolynomialError("degree must be at least 1")
        if coeffs[-1] != 1:
            raise PolynomialError("modulus must be monic")
        if coeffs[0] % 2 == 0:
            raise PolynomialError("constant term must be odd")
        self.coeffs = coeffs
        self.n = len(coeffs) - 1
        self._f2 = _int_poly(coeffs)
        if not _is_irreducible(self._f2):
            raise PolynomialError("modulus is reducible over F2")

    @classmethod
    def from_bits(cls, bits: str) -> "BinaryPolynomial":
        """Parse a {0,1} lift from a bit string, constant term first ("111")."""
        if not bits or set(bits) - {"0", "1"}:
            raise PolynomialError("bit string must be nonempty over {0,1}")
        return cls(tuple(int(b) for b in bits))

    @classmethod
    def parse(cls, text: str) -> "BinaryPolynomial":
        """Parse "111" (bit string) or "-1,-1,1" (signed coefficients)."""
        text = text.strip()
        if "," in text:
            return cls(tuple(int(t) for t in text.split(",")))
        return cls.from_bits(text)

    def bits(self) -> str:
        """F2 reduction as a bit string, constant term first."""
        return "".join(str(c & 1) for c in self.coeffs)

    def lift_text(self) -> str:
        """Signed coefficients as comma-separated text (round-trips parse)."""
        return ",".join(str(c) for c in self.coeffs)

    @property
    def primitive(self):
        """True iff Xbar generates F2[X]/(P)*, i.e. has order 2^n - 1.

        None when 2^n - 1 cannot be factored within the default rho budget.
        """
        order = (1 << self.n) - 1
        try:
            primes = factorize(order)
        except FactorBudgetExceeded:
            return None
        return all(_gf2_powmod(0b10, order // p, self._f2) != 1 for p in primes)

    def __eq__(self, other):
        return isinstance(other, BinaryPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"BinaryPolynomial({self.coeffs})"


# The quadratic modulus used throughout: X^2 - X - 1, whose quotient ring
# Z[X]/(P) has norm form u^2 + uv - v^2.
@lru_cache(maxsize=1)
def quadratic() -> BinaryPolynomial:
    return BinaryPolynomial((-1, -1, 1))


# Degree-1 modulus X - 1, making Z[X]/(P) canonically Z; used to run the
# binary automata through the vectorial machinery.
@lru_cache(maxsize=1)
def binary_modulus() -> BinaryPolynomial:
    return BinaryPolynomial((-1, 1))


def _check_len(v, P: BinaryPolynomial):
    if len(v) != P.n:
        raise ValueError(f"expected {P.n} coordinates, got {len(v)}")


def mul_lifted(a, b, P: BinaryPolynomial) -> tuple:
    """Product of two integer vectors in Z[X]/(P): a times the matrix of b."""
    _check_len(a, P)
    rows = mult_matrix(b, P)
    return tuple(sum(ai * row[k] for ai, row in zip(a, rows)) for k in range(P.n))


def gf_mul(a, b, P: BinaryPolynomial) -> tuple:
    """Product in F2[X]/(P) of two bit-coordinate vectors."""
    return tuple(c & 1 for c in mul_lifted(a, b, P))


def mult_matrix(q, P: BinaryPolynomial):
    """Matrix of v -> v*q on Z[X]/(P), row-vector convention (image is v.M).

    Row i is Xbar^i q: row 0 is q, and row i+1 is row i times Xbar, whose
    top coordinate folds back through X^n = -(c_0 + ... + c_{n-1} X^(n-1)),
    the signed lift of P.
    """
    _check_len(q, P)
    row = tuple(q)
    rows = [row]
    for _ in range(P.n - 1):
        top = row[-1]
        row = tuple(x - top * c for x, c in zip((0,) + row[:-1], P.coeffs))
        rows.append(row)
    return tuple(rows)


def norm(q, P: BinaryPolynomial) -> int:
    """Field norm of a lifted vector: det of its multiplication matrix."""
    return det_exact(mult_matrix(q, P))


def elem_from_bits(bits: str, P: BinaryPolynomial) -> tuple:
    """Field element from a coordinate bit string, constant coordinate first."""
    if not isinstance(bits, str) or len(bits) != P.n or set(bits) - {"0", "1"}:
        raise ValueError(f"need {P.n} bits over {{0,1}}, got {bits!r}")
    return tuple(int(b) for b in bits)


def elem_to_bits(a) -> str:
    return "".join(str(b & 1) for b in a)
