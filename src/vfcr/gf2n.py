"""Arithmetic in F2[X]/(P) and its integer lift Z[X]/(P).

Field elements are coordinate tuples in the power basis {1, Xbar, ...,
Xbar^(n-1)}, constant term first.  The lift of the modulus P keeps the
signed coefficients it was constructed with, so X^2 - X - 1 and
X^2 + X + 1 define the same field but different integer quotient rings
(and therefore different norms).

Both rings have one product routine, ``mult_matrix``; ``gf_mul`` is its
product mod 2, and the irreducibility test on P multiplies through it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import mul

from .exactmath import det_exact, factorize


class PolynomialError(ValueError):
    pass


def _is_irreducible(P: BinaryPolynomial) -> bool:
    """Rabin's test: P mod 2 is irreducible iff Xbar^(2^n) = Xbar and, for
    each prime d | n, Xbar^(2^(n/d)) - Xbar is a unit of F2[X]/(P).

    N(e) mod 2 is the determinant of multiplication by e on F2[X]/(P), so
    gcd(e, P) = 1 iff N(e) is odd.
    """
    n = P.n
    if n == 1:
        return True
    x = (0, 1) + (0,) * (n - 2)
    frobenius = [x]  # Xbar^(2^k), k = 0 .. n
    for _ in range(n):
        frobenius.append(gf_mul(frobenius[-1], frobenius[-1], P))
    if frobenius[n] != x:
        return False
    return all(norm(tuple(a ^ b for a, b in zip(frobenius[n // d], x)), P) & 1
               for d in factorize(n))


class BinaryPolynomial(namedtuple("BinaryPolynomial", "coeffs n")):
    """Monic modulus with signed integer coefficients, irreducible mod 2.

    ``coeffs`` is the lift in Z[X] (constant term first, length n+1); n is
    derived from it, so a call takes ``coeffs`` alone.
    Reduction mod 2 must be irreducible with nonzero constant term, which is
    all the analysis asks of P; Rabin's test decides it through ``gf_mul``.
    """

    __slots__ = ()

    def __new__(cls, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) < 2:
            raise PolynomialError("degree must be at least 1")
        if coeffs[-1] != 1:
            raise PolynomialError("modulus must be monic")
        if coeffs[0] % 2 == 0:
            raise PolynomialError("constant term must be odd")
        self = super().__new__(cls, coeffs, len(coeffs) - 1)
        if not _is_irreducible(self):
            raise PolynomialError("modulus is reducible over F2")
        return self

    def __getnewargs__(self):  # pickle and copy call __new__ with these
        return (self.coeffs,)

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
        return elem_to_bits(self.coeffs)

    def lift_text(self) -> str:
        """Signed coefficients as comma-separated text (round-trips parse)."""
        return ",".join(str(c) for c in self.coeffs)


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
    return tuple(sum(map(mul, a, col)) for col in zip(*mult_matrix(b, P)))


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
