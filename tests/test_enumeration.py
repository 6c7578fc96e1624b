"""Family enumeration by cofactors over Z[X]/(P) against the path it replaced.

`search._models` takes q~ = |N(det_R(I - 2T))| with R = Z[X]/(P), from the
cofactors of the rows above the last.  The reference here is the old
enumeration: expand each model to the rn x rn integer matrix B and take
det(I - 2B) by Bareiss (`ring_connection_norm`); for binary FCRs, one
r x r determinant per code; for VFCSRs, the connection integer summed in
place.  Both must give the same q~ model for model, the same report and the
same witness specs.
"""

from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vfcr import search
from vfcr.analysis import ring_connection_norm
from vfcr.exactmath import det_exact
from vfcr.gf2n import BinaryPolynomial, binary_modulus, mul_lifted, norm, quadratic
from vfcr.registers import (
    FIBONACCI,
    GALOIS,
    RING,
    RegisterSpec,
    binary_spec,
    expand,
    identity_minus_2t,
)

LIFTS = ("11", "-1,1", "111", "-1,-1,1", "1101", "-1,1,0,1", "11001")


def ring_det_leibniz(T, P):
    """det_R(I - 2T) over Z[X]/(P) by the Leibniz sum, with mul_lifted products."""
    r, n = len(T), P.n
    one = (1,) + (0,) * (n - 1)
    entry = [
        [tuple((i == j) * u - 2 * x for u, x in zip(one, T[i][j])) for j in range(r)]
        for i in range(r)
    ]
    total = [0] * n
    for perm in permutations(range(r)):
        sign = 1
        for i in range(r):
            for j in range(i + 1, r):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = one
        for i in range(r):
            prod = mul_lifted(prod, entry[i][perm[i]], P)
        total = [t + sign * x for t, x in zip(total, prod)]
    return tuple(total)


@st.composite
def ring_matrices(draw):
    P = BinaryPolynomial.parse(draw(st.sampled_from(LIFTS)))
    r = draw(st.integers(1, 3))
    elem = st.tuples(*[st.integers(0, 1)] * P.n)
    T = draw(st.lists(st.lists(elem, min_size=r, max_size=r), min_size=r, max_size=r))
    return T, P


@settings(max_examples=150, deadline=None)
@given(ring_matrices())
def test_det_of_expanded_matrix_is_norm_of_ring_det(case):
    # commuting blocks: det(I - 2B) = N(det_R(I - 2T)), sign included
    T, P = case
    assert det_exact(identity_minus_2t(expand(T, P))) == norm(ring_det_leibniz(T, P), P)


def reference_models(family, r, P):
    """(q~, model, its register or None) in model order, as enumerated before."""
    elems = list(product((0, 1), repeat=P.n))
    if family.startswith("vfcsr"):
        mode = FIBONACCI if family.endswith("fib") else GALOIS
        for coeffs in product(elems, repeat=r):
            qvec = [0] * P.n
            for i, c in enumerate(coeffs, start=1):
                for j in range(P.n):
                    qvec[j] += c[j] << i
            qvec[0] -= 1
            spec = None
            if any(coeffs[-1]):
                spec = RegisterSpec(base="vectorial", mode=mode, r=r, poly=P, coeffs=coeffs)
            yield abs(norm(tuple(qvec), P)), coeffs, spec
    elif family == "binary-fcr":
        # code order: bit i r + j is cell (i, j); the model is T turned by 180 degrees
        for code in range(1 << (r * r)):
            bits = [[(code >> (i * r + j)) & 1 for j in range(r)] for i in range(r)]
            model = tuple(tuple((b,) for b in row[::-1]) for row in bits[::-1])
            yield ring_connection_norm(bits)[1], model, binary_spec(RING, bits)
    else:
        for flat in product(elems, repeat=r * r):
            mat = tuple(tuple(flat[i * r : (i + 1) * r]) for i in range(r))
            spec = RegisterSpec(base="vectorial", mode=RING, r=r, poly=P, matrix=mat)
            yield ring_connection_norm(expand(mat, P))[1], mat, spec


CASES = (
    [("binary-fcr", r, None) for r in (1, 2, 3)]
    + [("vfcr-q", r, lift) for r in (1, 2) for lift in (None,) + LIFTS[:6]]
    + [
        ("vfcr-q", 1, "11001"),
        ("vfcr-q", 3, "11"),
        ("vfcr-q", 2, "-7,5,1"),
        ("vfcsr-q-fib", 2, None),
        ("vfcsr-q-galois", 3, None),
        ("vfcsr-q-fib", 2, "1101"),
        ("vfcsr-q-galois", 2, "111"),
    ]
)


@pytest.mark.parametrize("family, r, lift", CASES)
def test_enumeration_matches_expand_reference(monkeypatch, family, r, lift):
    poly = BinaryPolynomial.parse(lift) if lift else None
    P = binary_modulus() if family == "binary-fcr" else poly or quadratic()
    new, old = list(search._models(family, r, P)), list(reference_models(family, r, P))
    assert new == [(q, model) for q, model, _ in old]
    for (_, model), (_, _, ref) in zip(new, old):
        spec = search._spec(family, r, P, model)
        assert (spec and spec.to_json()) == (ref and ref.to_json())

    report = search.enumerate_family(family, r, poly=poly)
    monkeypatch.setattr(
        search, "_models", lambda *a: ((q, m) for q, m, _ in reference_models(*a))
    )
    ref_report = search.enumerate_family(family, r, poly=poly)
    assert report.model_count == ref_report.model_count == len(old)
    assert report.q_values == ref_report.q_values
    assert report.max_periods == ref_report.max_periods
    assert {q: w.to_json() for q, w in report.witnesses.items()} == {
        q: w.to_json() for q, w in ref_report.witnesses.items()
    }


@pytest.mark.parametrize(
    "family, r, poly, bits",
    [
        ("binary-fcr", 5, None, 25),
        ("binary-fcr", 6, None, 36),
        ("vfcr-q", 4, None, 32),
        ("vfcr-q", 2, "11000001", 28),
        ("vfcsr-q-fib", 13, None, 26),
        ("vfcsr-q-galois", 9, "1101", 27),
    ],
)
def test_enumerate_refuses_families_over_the_model_cap(family, r, poly, bits):
    P = BinaryPolynomial.parse(poly) if poly else None
    with pytest.raises(search.SearchBudgetExceeded, match=rf"2\^{bits} models"):
        search.enumerate_family(family, r, poly=P)
