"""The mod-8 refutation of `search` draws against the full determinant.

`find_l_sequence_matrices` skips a draw whose det(I - 2B) is +-1 mod 8
before assembling B or eliminating I - 2B, and tests --ring-only on the
draw's code before decoding it.  `unfiltered_search` below is the loop
without either shortcut; the search must return exactly its hits.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vfcr import gf2n
from vfcr.analysis import ring_connection_norm
from vfcr.exactmath import det_exact, is_primitive_root_2, is_probable_prime
from vfcr.registers import RING, RegisterSpec, expand, identity_minus_2t
from vfcr.search import (
    MAX_DRAWS,
    SearchBudgetExceeded,
    _det_mod8,
    _field_elements,
    _subdiagonal_code,
    find_l_sequence_matrices,
)

LIFTS = ("11", "-1,-1,1", "1101", "-1,1,0,1")


def has_subdiagonal_ones(field_matrix, n):
    """True when every subdiagonal entry of the field matrix is 1."""
    one = (1,) + (0,) * (n - 1)
    return all(field_matrix[i + 1][i] == one for i in range(len(field_matrix) - 1))


def unfiltered_search(r, P, count, seed, ring_only=False):
    """find_l_sequence_matrices with every draw expanded and eliminated."""
    n = P.n
    space = 1 << (n * r * r)
    rng = random.Random(seed)
    elems = _field_elements(n)
    if space <= 1 << 16:
        codes = list(range(space))
        rng.shuffle(codes)
    else:
        codes = (rng.randrange(space) for _ in range(MAX_DRAWS))
    hits, seen = [], set()
    for code in codes:
        if code in seen:
            continue
        seen.add(code)
        mat = tuple(tuple(elems[(code >> ((i * r + j) * n)) & ((1 << n) - 1)] for j in range(r))
                    for i in range(r))
        if ring_only and not has_subdiagonal_ones(mat, n):
            continue
        _, q_tilde = ring_connection_norm(expand(mat, P))
        if not (q_tilde > 2 and is_probable_prime(q_tilde) and is_primitive_root_2(q_tilde)):
            continue
        spec = RegisterSpec(base="binary" if n == 1 else "vectorial", mode=RING, r=r, poly=P,
                            matrix=mat)
        hits.append((spec.to_json(), q_tilde, q_tilde - 1))
        if len(hits) >= count:
            break
    return hits


@st.composite
def field_matrices(draw):
    P = gf2n.BinaryPolynomial.parse(draw(st.sampled_from(LIFTS)))
    r = draw(st.integers(1, 4))
    cells = draw(st.lists(st.lists(st.integers(0, (1 << P.n) - 1), min_size=r, max_size=r),
                          min_size=r, max_size=r))
    return P, cells


@settings(max_examples=300, deadline=None)
@given(field_matrices())
def test_residue_matches_the_determinant(case):
    P, cells = case
    elems = _field_elements(P.n)
    mat = [[elems[c] for c in row] for row in cells]
    residue = _det_mod8(lambda c: gf2n.mult_matrix(elems[c], P), P)
    assert residue(cells) == det_exact(identity_minus_2t(expand(mat, P))) % 8


@st.composite
def subdiagonal_codes(draw):
    n, r = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    one = 1 << (n - 1)  # the code of 1; drawn often, so that many matrices pass
    cells = draw(st.lists(st.one_of(st.just(one), st.integers(0, (1 << n) - 1)),
                          min_size=r * r, max_size=r * r))
    return n, r, cells


@settings(max_examples=300, deadline=None)
@given(subdiagonal_codes())
def test_ring_only_bit_test_matches_the_decoded_matrix(case):
    n, r, cells = case
    elems = _field_elements(n)
    code = sum(c << (k * n) for k, c in enumerate(cells))
    mat = [[elems[c] for c in cells[i * r:i * r + r]] for i in range(r)]
    mask, ones = _subdiagonal_code(r, n)
    assert (code & mask == ones) == has_subdiagonal_ones(mat, n)


@pytest.mark.parametrize(
    "r, lift, ring_only, seeds, counts",
    [
        # exhaustive: at most 2^16 codes; None is the binary modulus X - 1
        (2, None, False, (0, 1, 5), (1, 3, 20)),
        (3, None, True, (0, 2, 3), (1, 4)),
        (3, None, False, (1, 4), (2, 50)),
        (3, "11", False, (0,), (5,)),
        (2, "-1,-1,1", False, (0, 3), (1, 10)),
        (2, "-7,5,1", False, (0, 1, 2), (1, 3)),
        (2, "1101", False, (0, 1), (1, 2)),
        # sampled: over 2^16 codes
        (5, None, True, (0, 1, 2), (1, 2)),
        (6, None, True, (0, 1), (1, 3)),
        (5, None, False, (3, 4), (1, 3)),
        (4, "1101", False, (0, 1, 2), (1, 2)),
        (3, "-1,-1,1", False, (0, 1), (1, 3, MAX_DRAWS + 1)),  # the last spends every draw
        # vectorial --ring-only: exhaustive, then sampled
        (2, "-1,-1,1", True, (0, 1, 4), (1, 3)),
        (2, "1101", True, (0, 1, 2), (1, 3)),
        (3, "-1,-1,1", True, (0, 1, 2), (1, 3)),
        (3, "1101", True, (0, 1), (1, 2, MAX_DRAWS + 1)),
    ],
)
def test_search_returns_the_unfiltered_hits(r, lift, ring_only, seeds, counts):
    P = gf2n.binary_modulus() if lift is None else gf2n.BinaryPolynomial.parse(lift)
    for seed in seeds:
        for count in counts:
            hits = find_l_sequence_matrices(r, poly=P, count=count, seed=seed, ring_only=ring_only)
            got = [(h["spec"].to_json(), h["q_tilde"], h["order"]) for h in hits]
            assert got == unfiltered_search(r, P, count, seed, ring_only)


@pytest.mark.parametrize("ring_only", [False, True])
def test_budget_exhausted_like_the_unfiltered_loop(ring_only):
    # a 1 x 1 binary matrix has q~ = |1 - 2t| = 1
    P = gf2n.binary_modulus()
    assert unfiltered_search(1, P, 1, 0, ring_only) == []
    with pytest.raises(SearchBudgetExceeded, match="^no qualifying matrix within the search budget$"):
        find_l_sequence_matrices(1, poly=P, count=1, seed=0, ring_only=ring_only)
