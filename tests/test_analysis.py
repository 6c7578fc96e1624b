import random

import pytest

from golden_data import (
    Q61_BIG_MATRIX,
    Q61_FIELD_MATRIX,
    Q61_INIT_A,
    Q61_INIT_M,
    Q61_MEMORY_ROWS,
    Q61_WEIGHTS,
)
from vfcr import analysis, gf2n, registers
from vfcr.analysis import (
    Rational2Adic,
    analyze,
    check_containment,
    connection_integer,
    connection_matrix,
    connection_norm,
    connection_vector,
    expand_2adic,
    identity_minus_2t,
    memory_bounds,
    ring_connection_norm,
    sequence_to_rational,
    closed_form_numerator,
)
from vfcr.exactmath import det_exact
from vfcr.gf2n import quadratic
from vfcr.registers import RegisterSpec, binary_spec, run


def q61_spec():
    return RegisterSpec(
        base="vectorial", mode="ring", r=2, poly=quadratic(), matrix=Q61_FIELD_MATRIX
    )


def test_rational_validation():
    with pytest.raises(ValueError):
        Rational2Adic(1, 2)
    with pytest.raises(ValueError):
        Rational2Adic(1, -3)
    assert str(Rational2Adic(6, 9).reduce()) == "2/3"


def test_connection_integer_binary():
    spec = binary_spec("fibonacci", [1, 1])
    assert connection_integer(spec) == (5,)
    assert connection_vector(spec) == (6,)
    assert connection_norm(spec) == 5


def test_connection_integer_vectorial():
    P = quadratic()
    spec = RegisterSpec(
        base="vectorial", mode="fibonacci", r=2, poly=P, coeffs=((1, 1), (0, 1))
    )
    # q = 2*(1 + Xbar) + 4*Xbar - 1 = 1 + 6 Xbar
    assert connection_integer(spec) == (1, 6)
    assert connection_vector(spec) == (2, 6)
    assert connection_norm(spec) == abs(1 + 1 * 6 - 36)


def test_connection_integer_rejects_ring():
    with pytest.raises(ValueError):
        connection_integer(q61_spec())
    with pytest.raises(ValueError):
        connection_matrix(q61_spec())


def test_ring_connection_norm_reference():
    det, q_tilde = ring_connection_norm(Q61_BIG_MATRIX)
    assert (det, q_tilde) == (-61, 61)


def test_identity_minus_2t():
    m = identity_minus_2t(((1, 2), (3, 4)))
    assert m == ((-1, -4), (-6, -7))


def test_fibonacci_connection_matrix_det():
    # |det M| equals the connection norm and |det(I - 2F)| for every
    # quadratic Fibonacci spec of length <= 2
    P = quadratic()
    from itertools import product

    for r in (1, 2):
        for coeffs in product(list(product((0, 1), repeat=2)), repeat=r):
            if not any(coeffs[-1]):
                continue
            spec = RegisterSpec(
                base="vectorial", mode="fibonacci", r=r, poly=P, coeffs=coeffs
            )
            M = connection_matrix(spec)
            assert abs(det_exact(M)) == connection_norm(spec)
            assert abs(det_exact(identity_minus_2t(spec.big_matrix()))) == connection_norm(spec)


def test_galois_connection_matrix_det():
    from itertools import product

    P = quadratic()
    for coeffs in product(list(product((0, 1), repeat=2)), repeat=2):
        if not any(coeffs[-1]):
            continue
        spec = RegisterSpec(
            base="vectorial", mode="galois", r=2, poly=P, coeffs=coeffs
        )
        M = connection_matrix(spec)
        assert abs(det_exact(M)) == connection_norm(spec)


def test_expand_2adic_known_value():
    assert expand_2adic(-1, 3, 6) == [1, 0, 1, 0, 1, 0]
    assert expand_2adic(1, 1, 4) == [1, 0, 0, 0]
    assert expand_2adic(-1, 1, 4) == [1, 1, 1, 1]
    with pytest.raises(ValueError):
        expand_2adic(1, 2, 4)


def test_sequence_to_rational_round_trip():
    rng = random.Random(7)
    for _ in range(300):
        s = rng.randint(0, 6)
        t = rng.randint(1, 10)
        pre = [rng.randint(0, 1) for _ in range(s)]
        cyc = [rng.randint(0, 1) for _ in range(t)]
        bits = pre + cyc * 8
        rat = sequence_to_rational(bits, s, t)
        assert rat.q % 2 == 1 and rat.q > 0
        from math import gcd

        assert gcd(rat.p, rat.q) == 1
        assert expand_2adic(rat.p, rat.q, len(bits)) == bits


def test_sequence_to_rational_validation():
    with pytest.raises(ValueError):
        sequence_to_rational([1, 0], 0, 0)
    with pytest.raises(ValueError):
        sequence_to_rational([1, 0], 2, 2)


def test_closed_form_numerator_requires_binary_nonring():
    with pytest.raises(ValueError):
        closed_form_numerator(q61_spec(), q61_spec().zero_state())
    P = quadratic()
    spec = RegisterSpec(
        base="vectorial", mode="fibonacci", r=1, poly=P, coeffs=((0, 1),)
    )
    with pytest.raises(ValueError):
        closed_form_numerator(spec, spec.zero_state())


def test_closed_form_numerator_matches_simulation():
    rng = random.Random(11)
    for mode in ("fibonacci", "galois"):
        for _ in range(60):
            r = rng.randint(1, 5)
            taps = [rng.randint(0, 1) for _ in range(r - 1)] + [1]
            spec = binary_spec(mode, taps)
            mlen = 1 if mode == "fibonacci" else r
            init = spec.state(
                tuple(rng.randint(0, 1) for _ in range(r)),
                tuple(rng.randint(0, 3) for _ in range(mlen)),
            )
            rat = closed_form_numerator(spec, init)
            bits, _ = run(spec, init, 4 * r + 40)
            assert expand_2adic(rat.p, rat.q, 4 * r + 41) == bits[0]


def test_memory_bounds_reference():
    assert memory_bounds(Q61_BIG_MATRIX) == Q61_WEIGHTS


def test_check_containment_reference():
    report = check_containment(Q61_MEMORY_ROWS, Q61_WEIGHTS)
    assert all(c["contained"] and c["entry_step"] == 0 for c in report)


def test_check_containment_negative_carry_never_enters():
    report = check_containment([[-1, -1, -1]], (2,))
    assert report[0]["contained"] is False
    assert report[0]["entry_step"] is None


def test_half_open_box_is_not_absorbing():
    # the one-step theorem makes [0, w_j) invariant, but it is not globally
    # absorbing: with T = ((Xbar,)) the weights are (1, 2) and the state
    # a = (0, 1), m = (1, 0) is a fixed point with m_0 = w_0 exactly
    spec = RegisterSpec(
        base="vectorial", mode="ring", r=1, poly=quadratic(), matrix=(((0, 1),),)
    )
    assert memory_bounds(spec.big_matrix()) == (1, 2)
    fixed = spec.state((0, 1), (1, 0))
    assert registers.step(spec, fixed) == fixed


def test_check_containment_late_entry():
    report = check_containment([[7, 3, 1, 0, 1]], (2,))
    assert report[0] == {"weight": 2, "entry_step": 2, "contained": True}


def test_analyze_reference_register():
    spec = q61_spec()
    rep = analyze(spec, init=spec.state(Q61_INIT_A, Q61_INIT_M), reconstruct=True)
    assert rep.q_tilde == 61
    assert rep.det_i_minus_2t == -61
    assert rep.weights == Q61_WEIGHTS
    assert rep.order == 60
    assert rep.feedback_corner == (0, 1)
    assert rep.period == 60
    assert all(r.q in (1, 61) for r in rep.rationals)
    d = rep.to_dict()
    assert d["q_tilde"] == "61"
    assert d["order"] == "60"
    assert d["feedback_corner"] == "01"


def test_analyze_fibonacci_cross_checks_norm():
    spec = binary_spec("fibonacci", [1, 0, 1])  # q = 2 + 8 - 1 = 9
    rep = analyze(spec)
    assert rep.q_tilde == 9
    assert rep.connection_integer == (9,)
    assert rep.order == 6  # ord_9(2)
    assert rep.connection_matrix == ((-9,),)


def test_analyze_reconstruction_matches_closed_form():
    spec = binary_spec("galois", [1, 1, 1])
    init = spec.state((1, 0, 1), (0, 1, 0))
    rep = analyze(spec, init=init, reconstruct=True)
    rat = closed_form_numerator(spec, init).reduce()
    assert (rep.rationals[0].p, rep.rationals[0].q) == (rat.p, rat.q)


def test_analyze_galois_vectorial_order():
    spec = RegisterSpec(
        base="vectorial", mode="galois", r=2, poly=quadratic(), coeffs=((1, 1), (0, 1))
    )
    rep = analyze(spec)
    assert rep.q_tilde == 29
    assert rep.order == 28


def test_analyze_requires_init_for_reconstruction():
    with pytest.raises(ValueError):
        analyze(q61_spec(), reconstruct=True)
