"""The six carry-register automata as exact state machines.

Covers binary and vectorial registers in Fibonacci, Galois and Ring mode.
State vectors follow cell-major, coordinate-minor ordering:
a = (a_0^0, ..., a_{n-1}^0, ..., a_0^{r-1}, ..., a_{n-1}^{r-1}) and the
carries likewise (Fibonacci keeps a single n-coordinate carry vector).
All step functions are pure: state in, state out.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import namedtuple
from itertools import compress

from . import gf2n
from .exactmath import det_adj_left
from .gf2n import BinaryPolynomial

FIBONACCI = "fibonacci"
GALOIS = "galois"
RING = "ring"
MODES = (FIBONACCI, GALOIS, RING)


class SpecError(ValueError):
    pass


class StepBudgetExceeded(RuntimeError):
    """A trajectory's preperiod + period exceeds the step budget."""


# detect_cycle's default step budget; analyze(reconstruct=True) caps preperiod + period at it
CYCLE_BUDGET = 10**6


class RegisterState(namedtuple("RegisterState", "a m")):
    """Main register bits and integer carries, flattened per the cell-major order."""

    __slots__ = ()

    def __new__(cls, a, m):
        a, m = tuple(a), tuple(m)
        if any(type(x) is not int for x in a + m):  # 1.0, 1e300, "1" and true would run as ints
            raise SpecError("state entries must be integers")
        if any(b not in (0, 1) for b in a):
            raise SpecError("main register entries must be bits")
        return super().__new__(cls, a, m)


class RegisterSpec(namedtuple("RegisterSpec", "base mode r poly coeffs matrix")):
    """A register family member: base field, mode, length and connection data.

    Fibonacci/Galois take connection coefficients q_1..q_r (q_r nonzero);
    Ring takes an r x r transition matrix over the field, of any shape: one
    without ones on the subdiagonal is a general register (`search
    --ring-only` keeps only matrices with them).
    """

    __slots__ = ()

    def __new__(cls, base, mode, r, poly, coeffs=None, matrix=None):
        if base not in ("binary", "vectorial"):
            raise SpecError(f"unknown base {base!r}")
        if mode not in MODES:
            raise SpecError(f"unknown mode {mode!r}")
        if type(r) is not int or r < 1:  # "2" or true would run as 2 or 1
            raise SpecError(f"length must be an integer >= 1, got {r!r}")
        if base == "binary" and poly.n != 1:
            raise SpecError("binary registers use the degree-1 modulus")
        n, seen = poly.n, {}  # id(entry): (entry, its bits); by id, as (True,) == (1,)

        def elem(e):  # each entry object is checked once
            return (seen.get(id(e)) or seen.setdefault(id(e), (e, _elem(e, n))))[1]

        if mode == RING:
            if coeffs is not None or matrix is None:
                raise SpecError("ring mode takes a transition matrix")
            matrix = tuple(tuple(map(elem, row)) for row in matrix)
            if len(matrix) != r or any(len(row) != r for row in matrix):
                raise SpecError("transition matrix must be r x r")
        else:
            if matrix is not None or coeffs is None:
                raise SpecError(f"{mode} mode takes connection coefficients")
            coeffs = tuple(map(elem, coeffs))
            if len(coeffs) != r:
                raise SpecError("need r connection coefficients")
            if not any(coeffs[-1]):
                raise SpecError("q_r must be nonzero")
        return super().__new__(cls, base, mode, r, poly, coeffs, matrix)

    @property
    def n(self) -> int:
        return self.poly.n

    @property
    def carry_count(self) -> int:
        """Carries in a state: n for Fibonacci's single carry vector, rn otherwise."""
        return self.n if self.mode == FIBONACCI else self.r * self.n

    def field_matrix(self):
        """The r x r transition matrix over the field (F/G for Fibonacci/Galois).

        Galois G has q_1 .. q_r in its first row over a subdiagonal identity;
        Fibonacci F is G turned over its antidiagonal, F[i][j] = G[r-1-j][r-1-i].
        """
        if self.mode == RING:
            return self.matrix
        r, n = self.r, self.n
        zero, one = (0,) * n, (1,) + (0,) * (n - 1)
        g = (self.coeffs,) + tuple(tuple(one if j == i - 1 else zero for j in range(r))
                                   for i in range(1, r))
        if self.mode == GALOIS:
            return g
        return tuple(tuple(g[r - 1 - j][r - 1 - i] for j in range(r)) for i in range(r))

    def big_matrix(self):
        return expand(self.field_matrix(), self.poly)

    def zero_state(self) -> RegisterState:
        return RegisterState((0,) * (self.r * self.n), (0,) * self.carry_count)

    def state(self, a, m) -> RegisterState:
        s = RegisterState(tuple(a), tuple(m))
        self._check_state(s)
        return s

    def _check_state(self, s: RegisterState):
        rn, mlen = self.r * self.n, self.carry_count
        if len(s.a) != rn or len(s.m) != mlen:
            raise SpecError(
                f"state needs {rn} bits and {mlen} carries, got {len(s.a)}/{len(s.m)}"
            )

    # --- serialization (bit-exact, decimal integers) ---

    def to_dict(self):
        d = {"base": self.base, "mode": self.mode, "r": self.r}
        d["poly"] = self.poly.bits() if set(self.poly.coeffs) <= {0, 1} else self.poly.lift_text()
        if self.mode == RING:
            d["T"] = [[gf2n.elem_to_bits(e) for e in row] for row in self.matrix]
        else:
            d["q"] = [gf2n.elem_to_bits(e) for e in self.coeffs]
        return d

    @classmethod
    def from_dict(cls, d) -> "RegisterSpec":
        try:
            base = d["base"]
            mode = d["mode"]
            r = d["r"]
        except (KeyError, TypeError) as exc:
            raise SpecError(f"malformed spec: {exc}") from exc
        if base == "binary":
            # degree-1 lift X - 1 so that Xbar = 1 and cells are plain bits
            if d.get("poly") not in (None, "11", "-1,1"):
                raise SpecError("binary specs use the degree-1 modulus")
            poly = gf2n.binary_modulus()
        else:
            try:
                poly = BinaryPolynomial.parse(d["poly"])
            except KeyError as exc:
                raise SpecError("vectorial spec needs a poly field") from exc
            except (gf2n.PolynomialError, AttributeError) as exc:
                raise SpecError(f"bad modulus: {exc}") from exc

        def listed(x):  # "1" in place of ["1"] would otherwise run as a list
            if not isinstance(x, list):
                raise SpecError(f"malformed spec: {x!r} is not a list")
            return x

        decoded = {}  # each distinct bit string decodes once; elem_from_bits refuses all else

        def elem(e):
            bits = decoded.get(e) if isinstance(e, str) else None
            return bits or decoded.setdefault(e, gf2n.elem_from_bits(e, poly))

        if "T" in d:
            rows = listed(d["T"])
            mat = tuple(tuple(map(elem, listed(row))) for row in rows)
            return cls(base=base, mode=mode, r=r, poly=poly, matrix=mat)
        if "q" in d:
            coeffs = tuple(map(elem, listed(d["q"])))
            return cls(base=base, mode=mode, r=r, poly=poly, coeffs=coeffs)
        raise SpecError("spec needs either 'q' or 'T'")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RegisterSpec":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"malformed spec: {exc}") from exc
        return cls.from_dict(d)


def _elem(e, n: int) -> tuple:
    """A field element as n bits; SpecError on any other length or entry."""
    e = tuple(e)
    if len(e) != n or any(b not in (0, 1) or isinstance(b, bool) for b in e):
        raise SpecError(f"field elements need {n} entries over {{0, 1}}, got {e!r}")
    return tuple(map(int, e))


def binary_spec(mode: str, taps) -> RegisterSpec:
    """Binary FCSR/FCR shorthand: taps are bits q_1..q_r or a 0/1 matrix."""
    P = gf2n.binary_modulus()
    if mode == RING:
        mat = tuple(tuple((b,) for b in row) for row in taps)
        return RegisterSpec(base="binary", mode=mode, r=len(mat), poly=P, matrix=mat)
    coeffs = tuple((b,) for b in taps)
    return RegisterSpec(base="binary", mode=mode, r=len(coeffs), poly=P, coeffs=coeffs)


def expand(field_matrix, P: BinaryPolynomial):
    """Block expansion T -> big rn x rn integer matrix of multiplication blocks.

    Each distinct entry's block is built once: there are at most 2^n of them.
    """
    r = len(field_matrix)
    n = P.n
    big = [[0] * (r * n) for _ in range(r * n)]
    blocks = {}
    for i in range(r):
        row = field_matrix[i]
        if len(row) != r:
            raise ValueError("field matrix must be square")
        for j in range(r):
            e = tuple(row[j])
            block = blocks.get(e)
            if block is None:
                block = blocks[e] = gf2n.mult_matrix(e, P)
            for bi in range(n):
                big[i * n + bi][j * n : j * n + n] = block[bi]
    return tuple(tuple(x) for x in big)


def step_vfcr(state: RegisterState, big) -> RegisterState:
    """One clock of a (vectorial) carry register with expanded matrix big.

    a.B + m: the bits of a select the rows of B added to the carries.
    """
    sigma = [sum(col) for col in zip(state.m, *compress(big, state.a))]
    a = tuple(s & 1 for s in sigma)
    m = tuple(s >> 1 for s in sigma)
    return RegisterState(a, m)


def step_fibonacci(state: RegisterState, spec: RegisterSpec) -> RegisterState:
    """Fibonacci clock: shift one cell, feedback into the last, single carry."""
    n, r, P = spec.n, spec.r, spec.poly
    sigma = list(state.m)
    for i in range(1, r + 1):
        cell = state.a[(r - i) * n : (r - i + 1) * n]
        prod = gf2n.mul_lifted(spec.coeffs[i - 1], cell, P)
        for j in range(n):
            sigma[j] += prod[j]
    new_cell = tuple(s & 1 for s in sigma)
    m = tuple(s >> 1 for s in sigma)
    return RegisterState(state.a[n:] + new_cell, m)


def step_galois(state: RegisterState, spec: RegisterSpec) -> RegisterState:
    """Galois clock: all cells updated at once, per-cell carries."""
    n, r, P = spec.n, spec.r, spec.poly
    a0 = state.a[:n]
    new_a = []
    new_m = []
    for i in range(r):
        prod = gf2n.mul_lifted(spec.coeffs[i], a0, P)
        sigma = list(prod)
        if i < r - 1:
            nxt = state.a[(i + 1) * n : (i + 2) * n]
            for j in range(n):
                sigma[j] += nxt[j]
        for j in range(n):
            sigma[j] += state.m[i * n + j]
        new_a.extend(s & 1 for s in sigma)
        new_m.extend(s >> 1 for s in sigma)
    return RegisterState(tuple(new_a), tuple(new_m))


def step(spec: RegisterSpec, state: RegisterState) -> RegisterState:
    spec._check_state(state)
    return _stepper(spec)(state)


def run(spec: RegisterSpec, init: RegisterState, count: int):
    """The first count states as row-major traces: bits[rn][count], mems[...][count].

    Column t is the state after t clocks, as in output_rows(spec, init, count).
    A bit row is bytes, one byte of value 0 or 1 per column; a carry row is an
    array of the signed w-bit type ('b', 'h', 'i' or 'q'), or a list of ints
    when w > 64 or the host is big-endian.  list(row) gives the ints.
    All three modes clock a(t+1) + 2m(t+1) = a(t).B + m(t) on the expanded
    matrix B, count - 1 times; Fibonacci carries run in the ring layout and are
    projected back onto the last cell.  A state is two ints of one w-bit field
    per coordinate: the bits, and the carries plus 2^(w-1).  As |m(t)| <= M =
    max(|m(0)|, the largest column sum of |B|) and |sigma| <= 2M, w = 8 wb with
    M < 2^(w-2) never overflows a field.  A clock adds the rows of B that the
    bits select, 4 at a time, from tables of their 16 row sums: about 4 wb d^2
    bytes for d coordinates.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    spec._check_state(init)
    big = spec.big_matrix()
    d = len(big)
    m0 = _ring_carries(spec, init.m)
    bound = max(max(map(abs, m0)), max(sum(map(abs, col)) for col in zip(*big)))
    wb = (bound.bit_length() + 9) // 8
    wb = 1 << (wb - 1).bit_length() if wb <= 8 else wb  # 1, 2, 4 or 8: a memoryview format
    w, nb = 8 * wb, d * wb

    def pack(xs):  # entry j in the field at bit w*j
        return sum(x << w * j for j, x in enumerate(xs))

    low, key = pack([1] * d), pack([1] * 4)
    half, top = low << w - 2, low << w - 1
    a, m = pack(init.a), pack(m0) + top
    tables = []  # (shift, {bits of 4 coordinates: sum of their rows of B})
    for c in range(0, d, 4):
        table = {0: 0}
        for i, row in enumerate(map(pack, big[c : c + 4])):
            table.update([(k | 1 << w * i, v + row) for k, v in table.items()])
        tables.append((w * c, table))
    a_trace, m_trace = bytearray(), bytearray()
    # one table lookup per 4 bits adds the rows of B they select; each
    # field of s - a is even and non-negative, so halving borrows nothing.  The
    # carries go to the trace in two's complement.
    for t in range(count):
        if t:
            s = m
            for shift, table in tables:
                s += table[a >> shift & key]
            a = s & low
            m = (s - a >> 1) + half
        a_trace += a.to_bytes(nb, "little")
        m_trace += (m ^ top).to_bytes(nb, "little")
    bits = [bytes(a_trace[wb * i :: nb]) for i in range(d)]
    rows = range(d - len(init.m), d)
    if wb <= 8 and sys.byteorder == "little":  # the cast reads native order
        code = {1: "b", 2: "h", 4: "i", 8: "q"}[wb]
        view = memoryview(m_trace).cast(code)
        return bits, [array(code, view[i::d].tobytes()) for i in rows]
    return bits, [[int.from_bytes(m_trace[k : k + wb], "little", signed=True)
                   for k in range(wb * i, len(m_trace), nb)] for i in rows]


def _ring_carries(spec: RegisterSpec, m) -> list:
    """Carries in the ring layout: Fibonacci's carry vector fills the last cell."""
    return [0] * (spec.r * spec.n - len(m)) + list(m)


def identity_minus_2t(big):
    """I - 2B, the matrix of the linear system that the 2-adic outputs satisfy."""
    rows = [[-2 * x for x in row] for row in big]
    for i, row in enumerate(rows):
        row[i] += 1
    return tuple(map(tuple, rows))


def closed_form(spec: RegisterSpec, init: RegisterState, big=None) -> tuple:
    """(q, p): coordinate i outputs the 2-adic rational p_i / q, q = det(I - 2B).

    A clock maps a + 2m to a.B + m, so the output vector alpha, read as
    2-adic integers, satisfies alpha (I - 2B) = a_0 + 2 m_0 (Klapper and
    Goresky 1997; Arnault et al. 2009).  Hence alpha = p / det(I - 2B) with
    p = (a_0 + 2 m_0) adj(I - 2B), from one Bareiss elimination
    (exactmath.det_adj_left) and no stepping.  q is signed (odd, so never 0);
    callers that need q > 0 negate both.  big, when given, is spec.big_matrix().
    """
    spec._check_state(init)
    v = [a + 2 * m for a, m in zip(init.a, _ring_carries(spec, init.m))]
    return det_adj_left(identity_minus_2t(spec.big_matrix() if big is None else big), v)


def output_rows(spec: RegisterSpec, init: RegisterState, count: int) -> list:
    """The first count output bits of every coordinate, bit t of row i = a_i(t).

    Row i is p_i q^-1 mod 2^count (see closed_form; the sign of q cancels):
    one modular inverse and rn products.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    q, p = closed_form(spec, init)
    mask = (1 << count) - 1
    q_inv = pow(q, -1, mask + 1)
    return [pi * q_inv & mask for pi in p]


def _stepper(spec: RegisterSpec):
    if spec.mode == FIBONACCI:
        return lambda s: step_fibonacci(s, spec)
    if spec.mode == GALOIS:
        return lambda s: step_galois(s, spec)
    big = spec.big_matrix()
    return lambda s: step_vfcr(s, big)


def detect_cycle(spec: RegisterSpec, init: RegisterState, max_steps: int = CYCLE_BUDGET):
    """Least (preperiod s, period T) of the full-state trajectory, via Brent.

    Termination is guaranteed for nonnegative carries (the carry vector is
    absorbed into a finite box); otherwise the step budget applies.
    """
    spec._check_state(init)
    f = _stepper(spec)
    power = lam = 1
    steps = 0
    tortoise = init
    hare = f(init)
    steps += 1
    while tortoise != hare:
        if power == lam:
            tortoise = hare
            power *= 2
            lam = 0
        hare = f(hare)
        lam += 1
        steps += 1
        if steps > max_steps:
            raise StepBudgetExceeded(f"no cycle within {max_steps} steps")
    # the loop met at index steps - lam >= mu, so mu + lam <= steps <= max_steps
    tortoise = hare = init
    for _ in range(lam):
        hare = f(hare)
    mu = 0
    while tortoise != hare:
        tortoise = f(tortoise)
        hare = f(hare)
        mu += 1
    return mu, lam


def as_ring(spec: RegisterSpec):
    """Equivalent Ring-mode spec (F/G matrix) and the carry embedding map."""
    ring = spec if spec.mode == RING else RegisterSpec(
        base=spec.base, mode=RING, r=spec.r, poly=spec.poly, matrix=spec.field_matrix()
    )
    return ring, lambda s: RegisterState(s.a, tuple(_ring_carries(spec, s.m)))
