"""2-adic analysis of carry registers.

Connection integers, vectors and norms, connection matrices, the per-cell
rationals p_i/q with their exact preperiod and period (from the closed form
in registers, without clocking the register), and carry-range bounds.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import gf2n, registers
from .exactmath import DEFAULT_RHO_BUDGET, FactorBudgetExceeded, det_exact, multiplicative_order
from .registers import (
    CYCLE_BUDGET,
    FIBONACCI,
    GALOIS,
    RING,
    RegisterSpec,
    RegisterState,
    StepBudgetExceeded,
    identity_minus_2t,
)


class Rational2Adic(namedtuple("Rational2Adic", "p q")):
    """A 2-adic rational p/q with odd positive denominator."""

    __slots__ = ()

    def __new__(cls, p, q):
        if q <= 0 or q % 2 == 0:
            raise ValueError("denominator must be odd and positive")
        return super().__new__(cls, p, q)

    def reduce(self) -> "Rational2Adic":
        g = math.gcd(self.p, self.q)
        return Rational2Adic(self.p // g, self.q // g)


def connection_integer(spec: RegisterSpec) -> tuple:
    """q = sum_i lift(q_i) 2^i - 1 as a coordinate vector in Z[X]/(P)."""
    if spec.mode == RING:
        raise ValueError("ring specs have no coefficient connection integer")
    return connection_integer_of(spec.coeffs)


def connection_integer_of(coeffs) -> tuple:
    """sum_i lift(q_i) 2^i - 1 for coefficients q_1..q_r of n coordinates each."""
    out = [0] * len(coeffs[0])
    for i, coeff in enumerate(coeffs, start=1):
        for j, c in enumerate(coeff):
            out[j] += c << i
    out[0] -= 1
    return tuple(out)


def connection_vector(spec: RegisterSpec) -> tuple:
    """(q~_0, ..., q~_{n-1}) with q~_j = sum_i q_j^i 2^i (no -1 on coordinate 0)."""
    q = connection_integer(spec)
    return (q[0] + 1,) + q[1:]


def connection_norm(spec: RegisterSpec) -> int:
    """q~ = |N(q)|, the absolute field norm of the connection integer."""
    return abs(gf2n.norm(connection_integer(spec), spec.poly))


def connection_matrix(spec: RegisterSpec, big=None):
    """Integer matrix of the linear system satisfied by the 2-adic outputs.

    Fibonacci: n x n matrix of multiplication by -q.  Galois: I - 2 G^t with
    G the expanded transition matrix (big, when given).  Ring mode has no
    separate form; use identity_minus_2t directly.
    """
    if spec.mode == FIBONACCI:
        q = connection_integer(spec)
        return gf2n.mult_matrix(tuple(-c for c in q), spec.poly)
    if spec.mode == GALOIS:
        return tuple(zip(*identity_minus_2t(spec.big_matrix() if big is None else big)))
    raise ValueError("ring specs: use identity_minus_2t / ring_connection_norm")


def ring_connection_norm(big):
    """(signed det(I - 2 big), its absolute value q~)."""
    det = det_exact(identity_minus_2t(big))
    return det, abs(det)


def closed_form_numerator(spec: RegisterSpec, init: RegisterState) -> Rational2Adic:
    """Closed-form numerator of the output 2-adic value for binary modes.

    Returns the unreduced p over q = |connection integer|; the output
    sequence (cell 0 over time) is the 2-adic expansion of p/q.
    """
    if spec.n != 1 or spec.mode == RING:
        raise ValueError("closed-form numerator covers binary Fibonacci/Galois only")
    q, p = registers.closed_form(spec, init)
    sign = 1 if q > 0 else -1
    return Rational2Adic(sign * p[0], sign * q)


def _preperiod(p: int, q: int) -> int:
    """Steps until the expansion of p/q (q odd, positive) is purely periodic.

    The expansion of p/q is purely periodic exactly when -q <= p <= 0; one
    step drops the low bit b = p mod 2, leaving (p - b q) / 2 over q.
    """
    steps = 0
    while not -q <= p <= 0:
        p = (p - (p & 1) * q) >> 1
        steps += 1
    return steps


def expand_2adic(p: int, q: int, count: int):
    """First count bits of the 2-adic expansion of p/q (q odd)."""
    if q % 2 == 0:
        raise ValueError("denominator must be odd")
    bits = []
    for _ in range(count):
        b = (p * q) & 1  # p * q^{-1} mod 2 == p*q mod 2 for odd q
        bits.append(b)
        p = (p - b * q) >> 1
    return bits


def sequence_to_rational(bits, preperiod: int, period: int) -> Rational2Adic:
    """Exact rational value of an eventually periodic 2-adic bit sequence."""
    if period < 1:
        raise ValueError("period must be >= 1")
    if len(bits) < preperiod + period:
        raise ValueError("need at least preperiod + period bits")
    pre = sum(bits[i] << i for i in range(preperiod))
    b = sum(bits[preperiod + i] << i for i in range(period))
    # value = pre + 2^s * B / (1 - 2^T), cleared to an odd positive denominator
    den = (1 << period) - 1
    num = pre * den - (b << preperiod)
    return Rational2Adic(num, den).reduce()


def memory_bounds(big) -> tuple:
    """Carry weight vector: column sums of the expanded transition matrix."""
    d = len(big)
    return tuple(sum(big[i][j] for i in range(d)) for j in range(d))


def check_containment(mem_rows, w):
    """Per-coordinate stability report for a carry trace against weights w.

    For each coordinate: entry step (first time from which the whole shown
    trace stays in [0, w_j), treating w_j = 0 as the single value 0) and
    whether it stays contained from there on.
    """
    report = []
    for row, wj in zip(mem_rows, w):
        hi = wj if wj > 0 else 1
        entry = len(row)
        while entry and 0 <= row[entry - 1] < hi:
            entry -= 1
        report.append(
            {
                "weight": wj,
                "entry_step": entry if entry < len(row) else None,
                "contained": entry < len(row),
            }
        )
    return report


class AnalysisReport(namedtuple("AnalysisReport", "spec q_tilde det_i_minus_2t weights "
                                                  "connection_integer connection_vector "
                                                  "connection_matrix order order_unavailable "
                                                  "feedback_corner rationals preperiod period",
                                 defaults=(None,) * 9)):
    """Everything the 2-adic analysis can say about one register spec.

    The optional fields are None where they do not apply; feedback_corner is
    t_{1,r} of a ring spec.
    """

    __slots__ = ()

    def to_dict(self):
        """Every set field, its integers as decimal strings; order "unavailable" when unset."""
        d = {k: _decimal(v) for k, v in self._asdict().items()
             if v is not None and k not in ("spec", "feedback_corner", "rationals")}
        d["spec"] = self.spec.to_dict()
        d.setdefault("order", "unavailable")
        if self.feedback_corner is not None:
            d["feedback_corner"] = gf2n.elem_to_bits(self.feedback_corner)
        if self.rationals is not None:
            d["rationals"] = [{"p": str(x.p), "q": str(x.q)} for x in self.rationals]
        return d


def _decimal(x):
    """An int as a decimal string, through nested tuples and lists."""
    if isinstance(x, int):
        return str(x)
    return [_decimal(y) for y in x] if isinstance(x, (tuple, list)) else x


def analyze(
    spec: RegisterSpec,
    init: RegisterState,
    reconstruct: bool = False,
    rho_budget: int = DEFAULT_RHO_BUDGET,
) -> AnalysisReport:
    """Full analysis: norms, determinant, period bound, weights, rationals.

    B is expanded once.  det(I - 2B) and the numerators p of the cells
    started at init come from one closed_form call.  With reconstruct, the
    rationals, preperiod and period come from them; StepBudgetExceeded when
    preperiod + period exceeds CYCLE_BUDGET.
    """
    big = spec.big_matrix()
    det, p = registers.closed_form(spec, init, big)
    q_tilde = abs(det)
    fields = {}
    if spec.mode != RING:
        fields.update(connection_integer=connection_integer(spec),
                      connection_vector=connection_vector(spec),
                      connection_matrix=connection_matrix(spec, big))
        norm_abs = connection_norm(spec)
        if norm_abs != q_tilde:
            raise AssertionError(
                f"norm/determinant mismatch: |N(q)|={norm_abs}, |det|={q_tilde}"
            )
    else:
        fields["feedback_corner"] = spec.matrix[0][spec.r - 1]
    try:
        fields["order"] = multiplicative_order(q_tilde, rho_budget)
    except FactorBudgetExceeded as exc:
        fields["order_unavailable"] = str(exc)
    if reconstruct:
        if det < 0:
            p = [-x for x in p]
        rationals = [Rational2Adic(x, q_tilde).reduce() for x in p]
        preperiod = max(_preperiod(x, q_tilde) for x in p)
        period = multiplicative_order(math.lcm(*(x.q for x in rationals)), rho_budget)
        if preperiod + period > CYCLE_BUDGET:
            raise StepBudgetExceeded(
                f"preperiod {preperiod} + period {period} exceeds the {CYCLE_BUDGET}-step budget"
            )
        fields.update(rationals=rationals, preperiod=preperiod, period=period)
    return AnalysisReport(spec, q_tilde, det, memory_bounds(big), **fields)
