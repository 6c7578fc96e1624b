"""Independent arithmetic for checking vfcr outputs.

Nothing here imports vfcr: a check that reused the program's own code could
not catch the program's mistakes.  The register outputs are checked through
the 2-adic closed form: with B the expanded integer transition matrix and
(a0, m0) the initial state, the vector alpha of cell outputs read as 2-adic
integers satisfies alpha (I - 2B) = a0 + 2 m0 (Klapper & Goresky 1997;
Arnault et al. 2009), so each cell outputs p_i / det(I - 2B).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# --- the integer lift Z[X]/(P) -------------------------------------------


def parse_poly(text):
    """Signed lift coefficients, constant first: "111" or "-1,-1,1"."""
    if "," in text:
        return tuple(int(t) for t in text.split(","))
    return tuple(int(b) for b in text)


BINARY_POLY = (-1, 1)  # X - 1: the degree-1 modulus of binary registers


def spec_poly(spec):
    return BINARY_POLY if spec["base"] == "binary" else parse_poly(spec["poly"])


def lifted_mul(a, b, poly):
    """Product of coordinate vectors in Z[X]/(P), P monic with lift poly."""
    n = len(poly) - 1
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(2 * n - 2, n - 1, -1):  # X^k = -sum c_i X^(k-n+i)
        top = prod[k]
        if top:
            for i in range(n):
                prod[k - n + i] -= top * poly[i]
    return tuple(prod[:n])


def elem(bits):
    return tuple(int(b) for b in bits)


def field_matrix(spec):
    """r x r matrix of field elements, row-vector convention sigma = a.T + m."""
    r, n = spec["r"], len(spec_poly(spec)) - 1
    if spec["mode"] == "ring":
        return [[elem(e) for e in row] for row in spec["T"]]
    zero, one = (0,) * n, (1,) + (0,) * (n - 1)
    q = [elem(e) for e in spec["q"]]
    rows = [[zero] * r for _ in range(r)]
    for i in range(1, r):
        rows[i][i - 1] = one
    if spec["mode"] == "galois":
        rows[0] = list(q)  # a0 feeds every cell
    else:  # fibonacci: the last cell takes sum q_i a_{r-i}
        for i in range(r):
            rows[i][r - 1] = q[r - 1 - i]
    return rows


def expanded(spec):
    """The rn x rn integer matrix B of the register."""
    poly = spec_poly(spec)
    n = len(poly) - 1
    fm = field_matrix(spec)
    r = len(fm)
    unit = [tuple(int(i == k) for k in range(n)) for i in range(n)]
    big = [[0] * (r * n) for _ in range(r * n)]
    for i in range(r):
        for j in range(r):
            for bi in range(n):
                big[i * n + bi][j * n : j * n + n] = lifted_mul(unit[bi], fm[i][j], poly)
    return big


def embed_carries(spec, m):
    """Carries in ring layout: Fibonacci's single carry vector sits in the last cell."""
    rn = spec["r"] * (len(spec_poly(spec)) - 1)
    return [0] * (rn - len(m)) + list(m) if spec["mode"] == "fibonacci" else list(m)


# --- exact linear algebra and number theory ------------------------------


def solve_left(A, v):
    """(det A, x) with x A = v, by Gaussian elimination over the rationals."""
    d = len(A)
    # x A = v  <=>  A^t x^t = v^t
    M = [[Fraction(A[j][i]) for j in range(d)] + [Fraction(v[i])] for i in range(d)]
    det = Fraction(1)
    for k in range(d):
        piv = next((i for i in range(k, d) if M[i][k] != 0), None)
        if piv is None:
            return 0, None
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            det = -det
        det *= M[k][k]
        inv = 1 / M[k][k]
        for i in range(k + 1, d):
            f = M[i][k] * inv
            if f:
                row_i, row_k = M[i], M[k]
                for j in range(k, d + 1):
                    row_i[j] -= f * row_k[j]
    x = [Fraction(0)] * d
    for i in range(d - 1, -1, -1):
        s = M[i][d] - sum(M[i][j] * x[j] for j in range(i + 1, d))
        x[i] = s / M[i][i]
    return int(det), x


def det(A):
    """Exact determinant over the rationals."""
    d = len(A)
    return solve_left(A, [0] * d)[0]


def i_minus_2b(big):
    d = len(big)
    return [[int(i == j) - 2 * big[i][j] for j in range(d)] for i in range(d)]


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def is_prime(n):
    """Miller-Rabin over the first 20 primes (deterministic below 3.3e24)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n, budget, rng):
    """Floyd-cycle Pollard rho; a nontrivial factor of composite n, or None."""
    if n % 2 == 0:
        return 2
    while budget > 0:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        g = 1
        while g == 1 and budget > 0:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(abs(x - y), n)
            budget -= 1
        if 1 < g < n:
            return g
    return None


def factor(n, budget=200_000):
    """{prime: exponent} of n >= 1, or None if rho runs out of budget."""
    out = {}
    for p in range(2, 1000):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    rng = random.Random(n)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f = _rho(m, budget, rng)
        if f is None:
            return None
        stack += [f, m // f]
    return out


def order2(q):
    """Multiplicative order of 2 modulo odd q > 1, or None if q - 1 resists factoring."""
    if q == 1:
        return 1
    phi_f = {}
    for p, e in (factor(q) or {}).items():  # phi(q) from the factors of q
        phi_f[p] = phi_f.get(p, 0) + e - 1
        for pp, ee in (factor(p - 1) or {}).items():
            phi_f[pp] = phi_f.get(pp, 0) + ee
    t = 1
    for p, e in phi_f.items():
        t *= p**e
    if pow(2, t, q) != 1:
        return None
    for p in phi_f:
        while t % p == 0 and pow(2, t // p, q) == 1:
            t //= p
    return t


def is_l_norm(q):
    """q prime with 2 a primitive root: the norms of maximal-period registers."""
    return q > 2 and is_prime(q) and order2(q) == q - 1


# --- register outputs from the closed form -------------------------------


def closed_form(spec, a0, m0):
    """(det(I - 2B), [p_i]) with cell i outputting p_i / det as a 2-adic integer."""
    big = expanded(spec)
    A = i_minus_2b(big)
    v = [a + 2 * m for a, m in zip(a0, embed_carries(spec, m0))]
    D, x = solve_left(A, v)
    return D, [int(xi * D) for xi in x]


def output_rows(spec, a0, m0, steps):
    """Bit rows a_i(0 .. steps-1) of every coordinate, from the closed form."""
    D, p = closed_form(spec, a0, m0)
    mod = 1 << steps
    inv = pow(D, -1, mod)
    rows = []
    for pi in p:
        val = pi * inv % mod
        rows.append([int(c) for c in bin(val)[2:].zfill(steps)[::-1]] if steps else [])
    return rows


def carry_rows(spec, a0, m0, rows):
    """Carry trace implied by verified bit rows: m(t+1) = (a(t) B + m(t) - a(t+1)) / 2.

    Returns None if some division is inexact, i.e. the bits are inconsistent.
    """
    big = expanded(spec)
    d = len(big)
    steps = len(rows[0]) if rows else 0
    m = embed_carries(spec, m0)
    trace = [[x] for x in m]
    for t in range(steps - 1):
        a = [rows[i][t] for i in range(d)]
        for j in range(d):
            s = m[j] + sum(a[i] * big[i][j] for i in range(d) if a[i]) - rows[j][t + 1]
            if s & 1:
                return None
            m[j] = s >> 1
            trace[j].append(m[j])
    return trace


def cell_cycle(p, q):
    """(preperiod, period) of the 2-adic expansion of p/q, q odd and positive."""
    g = math.gcd(p, q)
    p, q = p // g, q // g
    pre = 0
    while not -q <= p <= 0:  # the expansion is purely periodic exactly here
        p = (p - (p & 1) * q) >> 1  # p/q = b + 2 (p'/q) with b = p mod 2
        pre += 1
    return pre, order2(q) if q > 1 else 1


def reduced(p, q):
    if q < 0:
        p, q = -p, -q
    g = math.gcd(p, q)
    return p // g, q // g
