import random
import tracemalloc

import pytest

from golden_data import BIG_TRIPLET_Q, FAMILY_EXPECTED, Q61_FIELD_MATRIX
from test_search_filter import has_subdiagonal_ones
from vfcr import exactmath
from vfcr.analysis import connection_norm
from vfcr.exactmath import FactorBudgetExceeded, is_primitive_root_2, is_probable_prime
from vfcr.gf2n import BinaryPolynomial, quadratic
from vfcr.registers import RegisterSpec
from vfcr.search import (
    MAX_DRAWS,
    SearchBudgetExceeded,
    adic_length,
    check_triplet,
    enumerate_family,
    _witness_achieves,
    find_l_sequence_matrices,
)


def test_adic_length():
    assert adic_length(0) == 0
    assert adic_length(1) == 0
    assert adic_length(2) == 1
    assert adic_length(3) == 1
    assert adic_length(11) == 3
    assert adic_length(1164589) == 20
    with pytest.raises(ValueError):
        adic_length(-1)


def test_check_triplet_valid():
    rep = check_triplet(11, 3, 2)
    assert rep.form_ok and rep.prime and rep.primitive_root is True
    assert (rep.l_q, rep.l_uv) == (3, 1)


def test_check_triplet_bad_form():
    rep = check_triplet(121421, 351, 332)
    assert rep.form_value == 129509
    assert not rep.form_ok
    # the unique repair keeping u fixed
    fixed = check_triplet(121421, 351, 356)
    assert fixed.form_ok and fixed.prime and fixed.primitive_root is True


def test_check_triplet_composite():
    rep = check_triplet(9, 4, 5)  # 16 + 20 - 25 = 11 != 9, and 9 = 3^2
    assert not rep.prime
    assert rep.primitive_root is None
    assert rep.skip_reason == "skipped: q~ not prime"


def test_check_triplet_non_primitive():
    rep = check_triplet(31, 5, 2)  # prime, but ord_31(2) = 5
    assert rep.form_ok and rep.prime
    assert rep.primitive_root is False


def triplet_verdict_before(q_tilde, rho_budget):
    """(prime, primitive_root, skip_reason) as check_triplet gave them with two primality tests."""
    if not is_probable_prime(q_tilde):
        return False, None, "skipped: q~ not prime"
    if q_tilde == 2:
        return True, None, None
    try:
        return True, is_primitive_root_2(q_tilde, rho_budget), None
    except FactorBudgetExceeded:
        return True, None, "skipped: factorization budget"


@pytest.mark.parametrize("q_tilde", [0, 1, 2, 7, 11, 9, BIG_TRIPLET_Q])
def test_check_triplet_tests_primality_once(monkeypatch, q_tilde):
    expected = triplet_verdict_before(q_tilde, 10**5)
    calls = []
    monkeypatch.setattr(exactmath, "is_probable_prime",
                        lambda n: calls.append(n) or is_probable_prime(n))
    rep = check_triplet(q_tilde, 3, 2, rho_budget=10**5)
    assert calls.count(q_tilde) == 1  # factorize may test its cofactors, never q~ again
    assert (rep.prime, rep.primitive_root, rep.skip_reason) == expected


def test_check_triplet_rejects_negative():
    with pytest.raises(ValueError):
        check_triplet(-1, 0, 0)


def test_enumerate_binary_fcr_2():
    rep = enumerate_family("binary-fcr", 2)
    exp = FAMILY_EXPECTED[("binary-fcr", 2)]
    assert rep.model_count == exp["models"]
    assert rep.q_values == exp["q_values"]
    assert rep.max_periods == exp["max_periods"]
    assert set(rep.witnesses) == {q for q in rep.q_values if q - 1 in rep.max_periods}


def test_enumerate_vfcsr_fib_2():
    rep = enumerate_family("vfcsr-q-fib", 2)
    exp = FAMILY_EXPECTED[("vfcsr-q-fib", 2)]
    assert rep.model_count == exp["models"]
    assert rep.q_values == exp["q_values"]
    assert rep.max_periods == exp["max_periods"]


def test_enumerate_rejects_unknown_family():
    with pytest.raises(ValueError):
        enumerate_family("nope", 2)


def test_witness_is_certified_for_its_own_norm_only():
    spec = RegisterSpec(base="vectorial", mode="ring", r=2, poly=quadratic(), matrix=Q61_FIELD_MATRIX)
    assert _witness_achieves(spec, 61)
    # 59 is an l-norm too, but no cell of the q~ = 61 register has period 58
    assert not _witness_achieves(spec, 59)


def test_csv_rows_shape():
    rep = enumerate_family("binary-fcr", 2)
    rows = rep.csv_rows()
    assert len(rows) == len(rep.q_values)
    for row in rows:
        assert row[0] == "binary-fcr" and row[1] == 2 and row[2] == 1
        if row[4] != "":
            assert row[4] == row[3] - 1
            assert RegisterSpec.from_json(row[5])


def test_find_matrices_binary():
    hits = find_l_sequence_matrices(2, count=3, seed=1)
    assert len(hits) == 3
    for h in hits:
        assert is_probable_prime(h["q_tilde"])
        assert is_primitive_root_2(h["q_tilde"])
        assert h["order"] == h["q_tilde"] - 1
    # deterministic for a fixed seed
    again = find_l_sequence_matrices(2, count=3, seed=1)
    assert [h["q_tilde"] for h in hits] == [h["q_tilde"] for h in again]


def test_find_matrices_quadratic_includes_reference():
    hits = find_l_sequence_matrices(2, poly=quadratic(), count=300, seed=0)
    mats = {h["spec"].matrix for h in hits}
    assert Q61_FIELD_MATRIX in mats


def test_find_matrices_ring_only():
    hits = find_l_sequence_matrices(3, count=5, seed=2, ring_only=True)
    for h in hits:
        assert has_subdiagonal_ones(h["spec"].matrix, h["spec"].n)
        assert is_probable_prime(h["q_tilde"])


def test_find_matrices_budget_exhausted():
    # the only admissible 1x1 binary ring matrix gives q~ = 1: never a hit
    with pytest.raises(SearchBudgetExceeded):
        find_l_sequence_matrices(1, count=1, seed=0, ring_only=True)


def test_sampled_search_skips_repeated_draws():
    # r = 3 over X^2 - X - 1 has 2^18 codes, so the search samples; with a count
    # it cannot reach, all MAX_DRAWS draws run, and some of them repeat
    rng = random.Random(0)
    draws = [rng.randrange(1 << 18) for _ in range(MAX_DRAWS)]
    assert len(set(draws)) < MAX_DRAWS
    hits = find_l_sequence_matrices(3, poly=quadratic(), count=MAX_DRAWS + 1, seed=0)
    assert 0 < len(hits) <= len(set(draws))
    assert len({h["spec"].matrix for h in hits}) == len(hits)


def test_search_decodes_only_the_drawn_field_elements():
    # X^20 + X^3 + 1 has 2^20 field elements: a table of them all peaks over 200 MB
    P = BinaryPolynomial.parse("100100000000000000001")
    tracemalloc.start()
    try:
        hits = find_l_sequence_matrices(1, poly=P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert [(h["spec"].to_dict()["T"], h["q_tilde"], h["order"]) for h in hits] == [
        ([["10100110100000010010"]], 4605416932637, 4605416932636)]


def test_find_matrices_rejects_bad_count():
    with pytest.raises(ValueError):
        find_l_sequence_matrices(2, count=0)


@pytest.mark.parametrize(
    "family, r, poly, degenerate_only",
    [
        ("vfcsr-q-fib", 3, None, {5, 29}),
        ("vfcsr-q-galois", 3, None, {5, 29}),
        ("vfcsr-q-fib", 2, "1101", {3}),
    ],
)
def test_enumerate_vfcsr_skips_norms_of_degenerate_models(family, r, poly, degenerate_only):
    P = BinaryPolynomial.parse(poly) if poly else quadratic()
    rep = enumerate_family(family, r, poly=P if poly else None)
    assert rep.model_count == (1 << P.n) ** r
    # norms that only q_r = 0 models reach stay listed, with no max period
    assert degenerate_only <= set(rep.q_values)
    assert not {q - 1 for q in degenerate_only} & set(rep.max_periods)
    for q, spec in rep.witnesses.items():
        assert any(spec.coeffs[-1])
        assert connection_norm(spec) == q
        assert rep.max_periods.count(q - 1) == 1
    assert len(rep.witnesses) == len(rep.max_periods)
