"""Design-space search: family enumeration, l-sequence hunting, triplet checks.

A register reaches the maximal period q~ - 1 (an l-sequence) exactly when
its connection norm q~ is prime and 2 is a primitive root modulo q~.  The
family enumerators report the achieved connection norms and verify every
claimed maximal period on a witness register, exactly and without stepping:
a cell outputs p_i/q with q = det(I - 2B), and has period q~ - 1 exactly
when p_i is nonzero modulo q~.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from itertools import product

from . import gf2n, registers
from .analysis import ring_connection_norm
from .exactmath import FactorBudgetExceeded, is_probable_prime, is_primitive_root_2
from .registers import GALOIS, RING, RegisterSpec

FAMILIES = ("binary-fcr", "vfcsr-q-fib", "vfcsr-q-galois", "vfcr-q")


class SearchBudgetExceeded(RuntimeError):
    """The search space was exhausted (or the draw budget spent) without a hit."""


@dataclass(frozen=True)
class FamilyReport:
    family: str
    r: int
    n: int
    model_count: int
    q_values: tuple
    max_periods: tuple
    witnesses: dict  # q~ -> RegisterSpec, for every maximal-period q~

    def csv_rows(self):
        """Rows family,r,n,q_tilde,max_period,witness_spec (deterministic order)."""
        rows = []
        for q in self.q_values:
            if q in self.witnesses:
                rows.append(
                    (self.family, self.r, self.n, q, q - 1, self.witnesses[q].to_json())
                )
            else:
                rows.append((self.family, self.r, self.n, q, "", ""))
        return rows


@dataclass(frozen=True)
class TripletReport:
    q_tilde: int
    u: int
    v: int
    form_value: int
    form_ok: bool
    prime: bool
    primitive_root: bool | None
    skip_reason: str | None
    l_q: int
    l_uv: int

    @property
    def valid(self) -> bool:
        return self.form_ok and self.prime and self.primitive_root is True

    def to_dict(self):
        return {
            "q_tilde": str(self.q_tilde),
            "u": str(self.u),
            "v": str(self.v),
            "form_value": str(self.form_value),
            "form_ok": self.form_ok,
            "prime": self.prime,
            "primitive_root": self.primitive_root,
            "skip_reason": self.skip_reason,
            "l_q": self.l_q,
            "l_uv": self.l_uv,
        }


def adic_length(x: int) -> int:
    """2-adic length: exponent of the leading power of 2 (floor log2 for x >= 1)."""
    if x < 0:
        raise ValueError("length is defined for nonnegative integers")
    return max(x.bit_length() - 1, 0)


def _field_elements(n: int):
    return list(product((0, 1), repeat=n))


def _is_l_norm(q: int, rho_budget: int) -> bool:
    return q > 2 and is_probable_prime(q) and is_primitive_root_2(q, rho_budget)


def _witness_achieves(spec: RegisterSpec, target: int) -> bool:
    """True iff an initial state with zero carries has a cell of period target.

    For target = q~ - 1 with q~ an l-norm, cell i outputs p_i / q~ with
    p = +-a_0 adj(I - 2B) (registers.closed_form); its period is q~ - 1
    unless p_i = 0 mod q~, and then 1.  As p is linear in a_0, some bit state
    is a witness iff some unit vector e_k is.
    """
    q_tilde = target + 1
    rn = spec.r * spec.n
    m = spec.zero_state().m
    for k in range(rn):
        _, p = registers.closed_form(spec, spec.state([int(i == k) for i in range(rn)], m))
        if any(x % q_tilde for x in p):
            return True
    return False


def _models(family: str, r: int, poly):
    """Yield (q_tilde, spec_factory) over every model of the family."""
    if family == "binary-fcr":
        for code in range(1 << (r * r)):
            bits = [[(code >> (i * r + j)) & 1 for j in range(r)] for i in range(r)]
            yield ring_connection_norm(bits)[1], partial(registers.binary_spec, RING, bits)
    elif family in ("vfcsr-q-fib", "vfcsr-q-galois"):
        P = poly or gf2n.quadratic()
        mode = registers.FIBONACCI if family.endswith("fib") else GALOIS
        elems = _field_elements(P.n)
        for coeffs in product(elems, repeat=r):
            # connection integer q = sum lift(q_i) 2^i - 1, norm via its matrix
            qvec = [0] * P.n
            for i, c in enumerate(coeffs, start=1):
                for j in range(P.n):
                    qvec[j] += c[j] << i
            qvec[0] -= 1
            q_tilde = abs(gf2n.norm(tuple(qvec), P))

            def make(coeffs=coeffs, mode=mode, P=P):
                if not any(coeffs[-1]):
                    return None  # degenerate model: q_r = 0
                return RegisterSpec(base="vectorial", mode=mode, r=r, poly=P, coeffs=coeffs)

            yield q_tilde, make
    elif family == "vfcr-q":
        P = poly or gf2n.quadratic()
        elems = _field_elements(P.n)
        for flat in product(elems, repeat=r * r):
            mat = tuple(tuple(flat[i * r + j] for j in range(r)) for i in range(r))
            big = registers.expand(mat, P)
            _, q_tilde = ring_connection_norm(big)
            yield q_tilde, lambda mat=mat, P=P: RegisterSpec(
                base="vectorial", mode=RING, r=r, poly=P, matrix=mat
            )
    else:
        raise ValueError(f"unsupported family {family!r}")


def enumerate_family(family: str, r: int, poly=None, rho_budget: int = 10**6) -> FamilyReport:
    """Enumerate every model of a family; report norms and verified max periods."""
    if r < 1:
        raise ValueError("r must be >= 1")
    n = (poly or gf2n.quadratic()).n if family.startswith("v") else 1
    q_values = set()
    l_candidates = set()  # l-norms; each enters l_norms once a live model reaches it
    count = 0
    l_norms = {}  # q~ -> witness spec, None while no live model has achieved q~ - 1
    for q_tilde, make in _models(family, r, poly):
        count += 1
        if q_tilde not in q_values:
            q_values.add(q_tilde)
            if _is_l_norm(q_tilde, rho_budget):
                l_candidates.add(q_tilde)
        if q_tilde in l_candidates and l_norms.get(q_tilde) is None:
            spec = make()
            if spec is None:  # degenerate model (q_r = 0): no register
                continue
            l_norms[q_tilde] = spec if _witness_achieves(spec, q_tilde - 1) else None
    missing = [q for q, w in l_norms.items() if w is None]
    if missing:
        raise AssertionError(f"no witness of period q~ - 1 (p_i != 0 mod q~) for norms {missing}")
    return FamilyReport(
        family=family,
        r=r,
        n=n,
        model_count=count,
        q_values=tuple(sorted(q_values)),
        max_periods=tuple(sorted(q - 1 for q in l_norms)),
        witnesses=dict(sorted(l_norms.items())),
    )


def find_l_sequence_matrices(
    r: int,
    poly=None,
    count: int = 1,
    seed: int = 0,
    rho_budget: int = 10**6,
    ring_only: bool = False,
    max_draws: int = 10**4,
):
    """Transition matrices whose connection norm is prime with 2 a primitive root.

    Deterministic for a fixed seed.  Small spaces are scanned exhaustively in
    a seed-shuffled order; larger ones are sampled up to max_draws.  Raises
    SearchBudgetExceeded if the budget is spent without a single hit.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    P = poly or gf2n.binary_modulus()
    n = P.n
    cells = r * r
    space = 1 << (n * cells)
    rng = random.Random(seed)
    elems = _field_elements(n)

    def decode(code):
        flat = []
        for k in range(cells):
            flat.append(elems[(code >> (k * n)) & ((1 << n) - 1)])
        return tuple(tuple(flat[i * r + j] for j in range(r)) for i in range(r))

    if space <= 1 << 16:
        codes = list(range(space))
        rng.shuffle(codes)
    else:
        codes = (rng.randrange(space) for _ in range(max_draws))

    hits = []
    seen = set()
    for code in codes:
        if code in seen:
            continue
        seen.add(code)
        mat = decode(code)
        if ring_only and not registers.has_subdiagonal_ones(mat, n):
            continue
        big = registers.expand(mat, P)
        _, q_tilde = ring_connection_norm(big)
        if not _is_l_norm(q_tilde, rho_budget):
            continue
        spec = RegisterSpec(
            base="binary" if n == 1 else "vectorial", mode=RING, r=r, poly=P, matrix=mat
        )
        hits.append(
            {"spec": spec, "q_tilde": q_tilde, "order": q_tilde - 1}
        )
        if len(hits) >= count:
            return hits
    if not hits:
        raise SearchBudgetExceeded("no qualifying matrix within the search budget")
    return hits


def check_triplet(q_tilde: int, u: int, v: int, rho_budget: int = 10**6) -> TripletReport:
    """Validate a (q~, u, v) candidate against the quadratic norm form."""
    if min(q_tilde, u, v) < 0:
        raise ValueError("triplet entries must be nonnegative")
    form_value = u * u + u * v - v * v
    form_ok = form_value == q_tilde
    prime = is_probable_prime(q_tilde)
    primitive = None
    skip = None
    if prime and q_tilde > 2:
        try:
            primitive = is_primitive_root_2(q_tilde, rho_budget)
        except FactorBudgetExceeded:
            skip = "skipped: factorization budget"
    elif not prime:
        skip = "skipped: q~ not prime"
    return TripletReport(
        q_tilde=q_tilde,
        u=u,
        v=v,
        form_value=form_value,
        form_ok=form_ok,
        prime=prime,
        primitive_root=primitive,
        skip_reason=skip,
        l_q=adic_length(q_tilde),
        l_uv=max(adic_length(u), adic_length(v)),
    )
