"""Exact big-integer linear algebra and elementary number theory.

Everything here works on plain Python ints; no floating point is used
anywhere in the package.
"""

from __future__ import annotations

import math
import random

DEFAULT_RHO_BUDGET = 10**6
TRIAL_DIVISION_BOUND = 10**6

# n below this bound is decided by Miller-Rabin with a fixed base set
_MR_DETERMINISTIC_LIMIT = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_RANDOM_ROUNDS = 64  # error < 4^-64 = 2^-128


class FactorBudgetExceeded(RuntimeError):
    """A factorization spent `steps` rho steps of its budget `limit` and did not complete."""

    def __init__(self, message: str, steps: int | None = None, limit: int | None = None):
        super().__init__(message)
        self.steps, self.limit = steps, limit


def _bareiss(rows, d: int) -> int:
    """Fraction-free (Bareiss) elimination of the first d columns, in place.

    Columns past d are carried along; entries below the diagonal are not
    cleared, as nothing reads them again.  Every division by the previous
    pivot is exact, and the last pivot rows[d-1][d-1] is the determinant of
    the row-permuted d x d block.  Returns the sign of the row permutation,
    0 when singular.
    """
    sign = 1
    prev = 1
    w = len(rows[0])
    for k in range(d - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, d):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for i in range(k + 1, d):
            row = rows[i]
            f = row[k]
            if not f and pivot == prev:
                continue  # the update would leave the row as it is
            for j in range(k + 1, w):
                row[j] = (row[j] * pivot - f * pivot_row[j]) // prev
        prev = pivot
    return sign if rows[d - 1][d - 1] else 0


def det_exact(matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in matrix]
    d = len(m)
    if d == 0 or any(len(row) != d for row in m):
        raise ValueError("matrix must be square and nonempty")
    return _bareiss(m, d) * m[d - 1][d - 1]


def det_adj_left(matrix, v) -> tuple:
    """(det A, v adj(A)) exactly, for a nonsingular square integer matrix A.

    x A = v is A^t x = v: Bareiss eliminates [A^t | v] to a triangle U x = c
    whose last pivot D is +-det A.  Then y = D x is integral, and back
    substitution y_i = (D c_i - sum_{j>i} U_ij y_j) / U_ii divides exactly.
    The cost is O(d^3) products of integers about as long as det A.
    """
    d = len(matrix)
    if d == 0 or any(len(row) != d for row in matrix) or len(v) != d:
        raise ValueError("matrix must be square and nonempty, v of matching length")
    rows = [[matrix[j][i] for j in range(d)] + [v[i]] for i in range(d)]
    sign = _bareiss(rows, d)
    if not sign:
        raise ValueError("matrix is singular")
    D = rows[d - 1][d - 1]
    y = [0] * d
    for i in range(d - 1, -1, -1):
        row = rows[i]
        y[i] = (D * row[d] - sum(row[j] * y[j] for j in range(i + 1, d))) // row[i]
    return sign * D, [sign * yi for yi in y]


def _miller_rabin(n: int, base: int) -> bool:
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int) -> bool:
    """Primality test: deterministic below 3.3e24, 64 random rounds above."""
    n = abs(n)
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _MR_DETERMINISTIC_LIMIT:
        return all(_miller_rabin(n, a) for a in _MR_BASES)
    rng = random.Random(n % (2**64) ^ 0x9E3779B97F4A7C15)
    return all(_miller_rabin(n, rng.randrange(2, n - 1)) for _ in range(_RANDOM_ROUNDS))


def _pollard_rho(n: int, budget: int, rng: random.Random) -> tuple:
    """One Brent-style rho run on odd n: (a nontrivial factor or None on budget, steps used).

    A step is one y -> y^2 + c of the batched product or of the backtrack.
    """
    steps = 0
    while steps < budget:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1 and steps < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1 and steps < budget:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                steps += min(m, r - k)
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                steps += 1
                if steps >= budget:
                    break
        if 1 < g < n:
            return g, steps
    return None, steps


def factorize(n: int, rho_budget: int = DEFAULT_RHO_BUDGET) -> dict:
    """Full prime factorization of n >= 1, or FactorBudgetExceeded.

    Trial division up to 10^6 ends early once the cofactor, which it would
    never strip, is prime (tested while a divisor is left to try).  Pollard
    rho splits the rest, all its runs sharing one budget of rho_budget steps.
    A budget overrun raises; it never returns a wrong answer.
    """
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out: dict[int, int] = {}
    d, strip = 5, (2, 3)
    while True:
        for p in strip:
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        stop = min(TRIAL_DIVISION_BOUND, math.isqrt(n))
        if d <= stop and is_probable_prime(n):
            return out | {n: 1}
        while d <= stop and n % d and n % (d + 2):
            d += 6
        if d > stop:
            break
        strip, d = (d, d + 2), d + 6
    rng = None  # seeded on first use: most calls need no rho
    stack = [n] if n > 1 else []
    budget = rho_budget
    while stack:
        m = stack.pop()
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        rng = rng or random.Random(0xC0FFEE ^ (n % (2**64)))
        f, steps = _pollard_rho(m, budget, rng)
        budget -= steps
        if f is None:
            raise FactorBudgetExceeded(f"factorization budget exceeded on {m}",
                                       rho_budget - budget, rho_budget)
        stack.append(f)
        stack.append(m // f)
    return out


def multiplicative_order(q: int, rho_budget: int = DEFAULT_RHO_BUDGET) -> int:
    """Least t > 0 with 2^t = 1 mod q, for odd q >= 1.

    The order divides Carmichael's lambda(q), the lcm of p^(e-1) (p - 1) over
    the prime powers p^e of q: start from lambda(q) and strip its prime
    factors while 2^(t/p) = 1 (Cohen, A Course in Computational Algebraic
    Number Theory, 1.4).  Each factorization gets a budget of rho_budget.
    """
    if q < 1 or q % 2 == 0:
        raise ValueError("modulus must be odd and positive")
    lam = {}  # prime -> exponent in lambda(q)
    for p, e in factorize(q, rho_budget).items():
        for f, k in factorize(p - 1, rho_budget).items():
            lam[f] = max(lam.get(f, 0), k)
        if e > 1:
            lam[p] = max(lam.get(p, 0), e - 1)
    t = math.prod(f**k for f, k in lam.items())
    for f in lam:
        while t % f == 0 and pow(2, t // f, q) == 1:
            t //= f
    return t


def is_primitive_root_2(q: int, rho_budget: int = DEFAULT_RHO_BUDGET) -> bool:
    """True iff 2 generates the multiplicative group mod the odd prime q.

    That is 2^((q-1)/f) != 1 for every prime f | q - 1 (Cohen, 1.4).  For f = 2, Euler's
    criterion makes it q = 3 or 5 mod 8, so no other q needs q - 1 factored.
    """
    if not is_probable_prime(q) or q == 2:
        raise ValueError("modulus must be an odd prime")
    return q % 8 in (3, 5) and all(pow(2, (q - 1) // f, q) != 1
                                   for f in factorize(q - 1, rho_budget))
