"""Design-space search: family enumeration, l-sequence hunting, triplet checks.

A register reaches the maximal period q~ - 1 (an l-sequence) exactly when
its connection norm q~ is prime and 2 is a primitive root modulo q~.  The
family enumerators report the achieved connection norms and certify every
claimed maximal period on a witness register, exactly and without stepping:
the witness's own |det(I - 2B)| must equal q~ (see _witness_achieves).  The
matrix families are walked by cofactors over Z[X]/(P), skipping every row
prefix whose minors repeat an earlier prefix's (see _matrix_norms).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import chain, combinations, product
from operator import add

from . import gf2n, registers
from .analysis import connection_integer_of, ring_connection_norm
from .exactmath import DEFAULT_RHO_BUDGET, FactorBudgetExceeded, is_primitive_root_2
from .registers import GALOIS, RING, RegisterSpec

FAMILIES = ("binary-fcr", "vfcsr-q-fib", "vfcsr-q-galois", "vfcr-q")

# enumerate_family refuses families of over 2^24 models (vfcr-q at r = 3 has 2^18),
# and families whose models times n^3 (the cost of an n x n norm) exceed 2^27
MODEL_CAP_BITS = 24
NORM_WORK_CAP_BITS = 27
# find_l_sequence_matrices samples at most this many matrices of a large space
MAX_DRAWS = 10**4


class SearchBudgetExceeded(RuntimeError):
    """A budget ran out: a family over the model cap, or a search without a hit."""


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
            w = self.witnesses.get(q)
            tail = (q - 1, w.to_json()) if w is not None else ("", "")
            rows.append((self.family, self.r, self.n, q) + tail)
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

    def to_dict(self):
        d = asdict(self)
        for k in ("q_tilde", "u", "v", "form_value"):
            d[k] = str(d[k])
        return d


def adic_length(x: int) -> int:
    """2-adic length: exponent of the leading power of 2 (floor log2 for x >= 1)."""
    if x < 0:
        raise ValueError("length is defined for nonnegative integers")
    return max(x.bit_length() - 1, 0)


def _field_elements(n: int):
    return list(product((0, 1), repeat=n))


def _is_l_norm(q: int, rho_budget: int) -> bool:
    try:  # Euler's criterion: 2 is a square mod a prime q = +-1 mod 8
        return q % 8 in (3, 5) and is_primitive_root_2(q, rho_budget)
    except ValueError:  # q is not an odd prime
        return False


def _det_mod8(elem, P):
    """residue(cells) = det(I - 2B) mod 8 for B = expand(T, P), T_ij = elem(cells[i][j]).

    Mod 8, det(I - 2B) = 1 - 2 e_1 + 4 e_2 over the elementary symmetric functions of
    B's eigenvalues, with e_1 = tr B and 2 e_2 = tr(B)^2 - tr(B^2) (Newton).  tr B sums
    tr M(T_ii) and tr(B^2) sums tr(M(T_ij) M(T_ji)), each kept per pair of element codes.
    """
    one = 1 << (P.n - 1)  # the code of 1; M(1) = I, so tr M(c) = trace(c, one)
    block = lru_cache(maxsize=None)(lambda c: gf2n.mult_matrix(elem(c), P))

    @lru_cache(maxsize=None)
    def trace(a, b):  # tr(M(a) M(b))
        return sum(x * y for row, col in zip(block(a), zip(*block(b))) for x, y in zip(row, col))

    def residue(cells):
        idx = range(len(cells))
        t1 = sum(trace(cells[i][i], one) for i in idx)
        t2 = sum(trace(cells[i][j], cells[j][i]) for i in idx for j in idx)
        return (1 - 2 * t1 + 2 * (t1 * t1 - t2)) % 8

    return residue


def _witness_achieves(spec: RegisterSpec, target: int) -> bool:
    """True iff |det(I - 2B)| = target + 1, which certifies a period-target cell.

    Cell i outputs p_i / q with q = det(I - 2B) and p = a_0 adj(I - 2B)
    (registers.closed_form), of period q~ - 1 unless p_i = 0 mod q~.  For an
    l-norm q~ = target + 1 = |q|, I - 2B has Smith form diag(1, ..., 1, q~),
    so adj(I - 2B) is nonzero mod q~ and some unit bit state e_k with zero
    carries has such a cell.  A register of another norm is refused.
    """
    return ring_connection_norm(spec.big_matrix())[1] == target + 1


def _matrix_norms(r: int, P):
    """Yield (q~, T) for the first r x r matrix T over F2[X]/(P) of each distinct q.

    Matrices come row 0 slowest.  q~ = |N(q)| with q = det_R(I - 2T) over
    R = Z[X]/(P), as the blocks of B commute (Kovacs, Silver and Williams, Amer.
    Math. Monthly 106, 1999).  Depth-first over the rows, the minors over R of
    the top k rows on each k-subset of columns extend by Laplace expansion along
    the next row.  A last row sums r cofactor products, and each distinct q costs
    one norm.  By Laplace expansion along the rows below, every completion's q
    depends on the top rows only through their minors, so a prefix whose minors
    repeat an earlier prefix's is skipped: the earlier one reaches each of its
    q first, with the same completion.
    """
    n = P.n
    rows = list(product(_field_elements(n), repeat=r))  # the choices of one row
    norms = set()  # q already yielded, for this call only
    seen = set()  # (k, minors of the top k + 1 rows) already walked, for this call only

    @lru_cache(maxsize=None)  # for this call only: few distinct minors recur
    def products(v, sign, diag):
        """sign (diag - 2 T_kj) v for each field element T_kj, in row order."""
        sums = [(0,) * n]
        for x in gf2n.mult_matrix(v, P):  # row i is Xbar^i v
            sums = [s for t in sums for s in (t, tuple(map(add, t, x)))]
        return tuple(tuple(sign * (a * diag - 2 * b) for a, b in zip(v, p)) for p in sums)

    def walk(k, top, minors):
        # minor on columns S = sum over t of (-1)^(k+t) (I - 2T)_{k,S[t]} minor(S - S[t])
        terms = {S: [products(minors[S[:t] + S[t + 1:]], (-1) ** (k + t), j == k)
                     for t, j in enumerate(S)] for S in combinations(range(r), k + 1)}
        if k == r - 1:
            for row, parts in zip(rows, product(*terms[tuple(range(r))])):
                q = tuple(map(sum, zip(*parts)))
                if q not in norms:
                    norms.add(q)
                    yield abs(gf2n.norm(q, P)), top + (row,)
            return
        for row, idx in zip(rows, product(range(1 << n), repeat=r)):
            below = {S: tuple(map(sum, zip(*(p[idx[j]] for p, j in zip(ps, S)))))
                     for S, ps in terms.items()}
            key = (k, *chain.from_iterable(below.values()))
            if key not in seen:
                seen.add(key)
                yield from walk(k + 1, top + (row,), below)

    return walk(0, (), {(): (1,) + (0,) * (n - 1)})


def _models(family: str, r: int, P):
    """Iterator of (q~, model) in model order: every model of a vfcsr family, and
    the first model of each distinct q = det_R(I - 2T) of a matrix family."""
    if family.startswith("vfcsr"):
        cs = product(_field_elements(P.n), repeat=r)
        return ((abs(gf2n.norm(connection_integer_of(c), P)), c) for c in cs)
    return _matrix_norms(r, P)


def _spec(family: str, r: int, P, model):
    """The register of a model, or None for a degenerate one (q_r = 0)."""
    if family == "binary-fcr":
        # T turned 180 degrees keeps det(I - 2T): model order is code order, (0, 0) fastest
        return registers.binary_spec(RING, [[e[0] for e in row[::-1]] for row in model[::-1]])
    if family == "vfcr-q":
        return RegisterSpec(base="vectorial", mode=RING, r=r, poly=P, matrix=model)
    if not any(model[-1]):
        return None
    mode = registers.FIBONACCI if family.endswith("fib") else GALOIS
    return RegisterSpec(base="vectorial", mode=mode, r=r, poly=P, coeffs=model)


def enumerate_family(family: str, r: int, poly=None) -> FamilyReport:
    """Enumerate every model of a family; report norms and verified max periods.

    binary-fcr runs over X - 1 and refuses a modulus (ValueError).
    Raises SearchBudgetExceeded up front for more than 2^MODEL_CAP_BITS models,
    or when 2^bits models times n^3 exceeds 2^NORM_WORK_CAP_BITS.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if family not in FAMILIES:
        raise ValueError(f"unsupported family {family!r}")
    if family == "binary-fcr" and poly is not None:
        raise ValueError("binary-fcr runs over X - 1 and takes no modulus")
    P = gf2n.binary_modulus() if family == "binary-fcr" else poly or gf2n.quadratic()
    bits = P.n * (r if family.startswith("vfcsr") else r * r)  # log2 of the model count
    if bits > MODEL_CAP_BITS:
        raise SearchBudgetExceeded(f"{family} with r = {r}, n = {P.n} has 2^{bits} models,"
                                   f" over the cap of 2^{MODEL_CAP_BITS}")
    if P.n**3 << bits > 1 << NORM_WORK_CAP_BITS:
        raise SearchBudgetExceeded(f"{family} with r = {r}, n = {P.n} has 2^{bits} models times"
                                   f" n^3 = {P.n**3}, over the cap of 2^{NORM_WORK_CAP_BITS}")
    verdicts = {}  # q~ -> is it an l-norm; each l-norm enters l_norms with its first live model
    l_norms = {}  # q~ -> witness spec
    for q_tilde, model in _models(family, r, P):
        if q_tilde not in verdicts:
            verdicts[q_tilde] = _is_l_norm(q_tilde, DEFAULT_RHO_BUDGET)
        if verdicts[q_tilde] and q_tilde not in l_norms:
            spec = _spec(family, r, P, model)
            if spec is not None:  # a degenerate model (q_r = 0) has no register
                l_norms[q_tilde] = spec
    missing = [q for q, w in l_norms.items() if not _witness_achieves(w, q - 1)]
    if missing:
        raise AssertionError(f"no witness with |det(I - 2B)| = q~ for norms {missing}")
    return FamilyReport(
        family=family,
        r=r,
        n=P.n,
        model_count=1 << bits,
        q_values=tuple(sorted(verdicts)),
        max_periods=tuple(sorted(q - 1 for q in l_norms)),
        witnesses=dict(sorted(l_norms.items())),
    )


def find_l_sequence_matrices(
    r: int,
    poly=None,
    count: int = 1,
    seed: int = 0,
    rho_budget: int = DEFAULT_RHO_BUDGET,
    ring_only: bool = False,
):
    """Transition matrices whose connection norm is prime with 2 a primitive root.

    Deterministic for a fixed seed.  Small spaces are scanned exhaustively in
    a seed-shuffled order; larger ones are sampled up to MAX_DRAWS times.  Raises
    SearchBudgetExceeded if the budget is spent without a single hit.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    P = poly or gf2n.binary_modulus()
    n = P.n
    space = 1 << (n * r * r)
    rng = random.Random(seed)
    # a code's element in _field_elements order, decoded when a draw reaches it
    elem = lru_cache(maxsize=None)(lambda c: tuple(c >> k & 1 for k in range(n - 1, -1, -1)))
    residue = _det_mod8(elem, P)
    if space <= 1 << 16:
        codes = list(range(space))
        rng.shuffle(codes)
    else:
        codes = (rng.randrange(space) for _ in range(MAX_DRAWS))

    hits = []
    seen = set()
    for code in codes:
        if code in seen:
            continue
        seen.add(code)
        cells = [[(code >> ((i * r + j) * n)) & ((1 << n) - 1) for j in range(r)] for i in range(r)]
        mat = tuple(tuple(elem(c) for c in row) for row in cells)
        if ring_only and not registers.has_subdiagonal_ones(mat, n):
            continue
        if residue(cells) not in (3, 5):  # q~ = +-1 mod 8 is no l-norm (_is_l_norm)
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


def check_triplet(q_tilde: int, u: int, v: int,
                  rho_budget: int = DEFAULT_RHO_BUDGET) -> TripletReport:
    """Validate a (q~, u, v) candidate against the quadratic norm form."""
    if min(q_tilde, u, v) < 0:
        raise ValueError("triplet entries must be nonnegative")
    form_value = u * u + u * v - v * v
    form_ok = form_value == q_tilde
    primitive = skip = None
    try:  # tests q~ for primality first: ValueError unless q~ is an odd prime
        primitive = is_primitive_root_2(q_tilde, rho_budget)
        prime = True
    except FactorBudgetExceeded:
        prime, skip = True, "skipped: factorization budget"
    except ValueError:
        prime = q_tilde == 2
        skip = None if prime else "skipped: q~ not prime"
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
