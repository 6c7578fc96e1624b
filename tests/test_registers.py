import random
from itertools import product

import pytest

from golden_data import (
    Q61_BIG_MATRIX,
    Q61_FIELD_MATRIX,
    Q61_INIT_A,
    Q61_INIT_M,
)
from vfcr import gf2n
from vfcr.analysis import analyze
from vfcr.exactmath import det_adj_left, factorize
from vfcr.gf2n import quadratic
from vfcr.registers import (
    RegisterSpec,
    RegisterState,
    SpecError,
    StepBudgetExceeded,
    as_ring,
    binary_spec,
    detect_cycle,
    expand,
    has_subdiagonal_ones,
    output_rows,
    run,
    step,
    step_vfcr,
)


def q61_spec():
    return RegisterSpec(
        base="vectorial", mode="ring", r=2, poly=quadratic(), matrix=Q61_FIELD_MATRIX
    )


def test_expand_reference_matrix():
    assert expand(Q61_FIELD_MATRIX, quadratic()) == Q61_BIG_MATRIX


def test_expand_zero():
    P = quadratic()
    zero = ((0, 0), (0, 0))
    big = expand((zero, zero), P)
    assert all(all(x == 0 for x in row) for row in big)


def test_expand_repeated_entries_match_per_entry_blocks():
    P = gf2n.BinaryPolynomial.parse("-1,1,0,1")
    x, y = (1, 1, 0), (0, 1, 1)
    mat = ((x, y, x), (y, x, x), (x, x, y))
    big = expand(mat, P)
    for i, j in product(range(3), repeat=2):
        block = tuple(row[3 * j : 3 * j + 3] for row in big[3 * i : 3 * i + 3])
        assert block == gf2n.mult_matrix(mat[i][j], P)


def test_expand_companion_matches_fibonacci_form():
    P = quadratic()
    coeffs = ((0, 1), (1, 0))  # q_1 = Xbar, q_2 = 1
    spec = RegisterSpec(base="vectorial", mode="fibonacci", r=2, poly=P, coeffs=coeffs)
    big = spec.big_matrix()
    # block column r-1 stacks M_{q_r} ... M_{q_1}; subdiagonal identity blocks
    assert tuple(row[2:] for row in big[:2]) == gf2n.mult_matrix((1, 0), P)
    assert tuple(row[2:] for row in big[2:]) == gf2n.mult_matrix((0, 1), P)
    assert tuple(row[:2] for row in big[2:]) == ((1, 0), (0, 1))


def test_step_vfcr_reference_columns():
    s0 = RegisterState(Q61_INIT_A, Q61_INIT_M)
    s1 = step_vfcr(s0, Q61_BIG_MATRIX)
    assert (s1.a, s1.m) == ((0, 1, 1, 1), (1, 1, 0, 1))
    s2 = step_vfcr(s1, Q61_BIG_MATRIX)
    assert (s2.a, s2.m) == ((0, 1, 1, 0), (2, 2, 0, 1))


def test_zero_state_is_fixed_point():
    for spec in (q61_spec(), binary_spec("fibonacci", [1, 1]), binary_spec("galois", [1, 1])):
        z = spec.zero_state()
        assert step(spec, z) == z


def test_binary_fcr_step():
    spec = binary_spec("ring", [[0, 1], [1, 1]])
    s = step(spec, spec.state((1, 0), (0, 0)))
    assert (s.a, s.m) == ((0, 1), (0, 0))


def test_binary_fcr_zero_matrix_absorbs():
    spec = binary_spec("ring", [[0, 0], [0, 1]])
    s = spec.state((1, 1), (0, 0))
    # with no taps into a cell and zero carry, the cell dies next step
    s = step(spec, s)
    assert s.a[0] == 0


def test_fibonacci_binary_step():
    spec = binary_spec("fibonacci", [1, 1])  # connection integer 5
    s = step(spec, spec.state((1, 0), (0,)))
    assert (s.a, s.m) == ((0, 1), (0,))


def test_fibonacci_vectorial_single_cell():
    P = quadratic()
    spec = RegisterSpec(
        base="vectorial", mode="fibonacci", r=1, poly=P, coeffs=((0, 1),)
    )
    s = step(spec, spec.state((1, 0), (0, 0)))
    assert (s.a, s.m) == ((0, 1), (0, 0))  # 1 * Xbar = Xbar


def test_galois_binary_step():
    spec = binary_spec("galois", [1, 1])
    s = step(spec, spec.state((1, 0), (0, 0)))
    assert (s.a, s.m) == ((1, 1), (0, 0))


def test_galois_equals_ring_under_companion_matrix():
    rng = random.Random(3)
    spec = binary_spec("galois", [1, 0, 1])
    ring, embed = as_ring(spec)
    for _ in range(100):
        a = tuple(rng.randint(0, 1) for _ in range(3))
        m = tuple(rng.randint(0, 2) for _ in range(3))
        init = spec.state(a, m)
        assert step(spec, init) == step(ring, embed(init))


def test_fibonacci_embeds_into_ring():
    rng = random.Random(4)
    P = quadratic()
    spec = RegisterSpec(
        base="vectorial", mode="fibonacci", r=2, poly=P, coeffs=((1, 1), (0, 1))
    )
    ring, embed = as_ring(spec)
    for _ in range(100):
        a = tuple(rng.randint(0, 1) for _ in range(4))
        m = tuple(rng.randint(0, 2) for _ in range(2))
        init = spec.state(a, m)
        b1, _ = run(spec, init, 30)
        b2, _ = run(ring, embed(init), 30)
        assert b1 == b2


def test_run_zero_steps():
    spec = q61_spec()
    init = spec.state(Q61_INIT_A, Q61_INIT_M)
    bits, mems = run(spec, init, 0)
    assert [row[0] for row in bits] == list(Q61_INIT_A)
    assert [row[0] for row in mems] == list(Q61_INIT_M)
    assert all(len(row) == 1 for row in bits)


def test_run_is_deterministic():
    spec = q61_spec()
    init = spec.state(Q61_INIT_A, Q61_INIT_M)
    assert run(spec, init, 50) == run(spec, init, 50)


def test_negative_carries_use_floor_semantics():
    spec = binary_spec("ring", [[0]])
    s = step(spec, spec.state((0,), (-1,)))
    assert (s.a, s.m) == ((1,), (-1,))  # -1 = 1 - 2: bit 1, carry -1
    s = step(spec, spec.state((0,), (-5,)))
    assert (s.a, s.m) == ((1,), (-3,))


def test_detect_cycle_zero_state():
    assert detect_cycle(q61_spec(), q61_spec().zero_state()) == (0, 1)


def test_detect_cycle_reference_period_60():
    spec = q61_spec()
    s, t = detect_cycle(spec, spec.state(Q61_INIT_A, Q61_INIT_M))
    assert t == 60
    report = analyze(spec, spec.state(Q61_INIT_A, Q61_INIT_M), reconstruct=True)
    assert report.period == 60
    assert all(x.q == 61 for x in report.rationals)


def test_detect_cycle_alternating_sequence():
    spec = binary_spec("fibonacci", [0, 1])  # connection integer 3
    init = spec.state((1, 0), (0,))
    s, t = detect_cycle(spec, init)
    assert (s, t) == (0, 2)
    bits, _ = run(spec, init, 5)
    assert bits[0] == [1, 0, 1, 0, 1, 0]


def test_detect_cycle_budget():
    spec = q61_spec()
    with pytest.raises(StepBudgetExceeded):
        detect_cycle(spec, spec.state(Q61_INIT_A, Q61_INIT_M), max_steps=5)


def test_spec_validation():
    P = quadratic()
    with pytest.raises(SpecError):
        binary_spec("fibonacci", [1, 0])  # q_r = 0
    with pytest.raises(SpecError):
        RegisterSpec(base="vectorial", mode="ring", r=2, poly=P, matrix=(((0, 1),),))
    with pytest.raises(SpecError):
        RegisterSpec(base="vectorial", mode="bogus", r=1, poly=P, coeffs=((1, 0),))
    with pytest.raises(SpecError):
        RegisterSpec(base="binary", mode="fibonacci", r=1, poly=P, coeffs=((1, 0),))
    spec = q61_spec()
    with pytest.raises(SpecError):
        spec.state((1, 0), (0, 0, 0, 0))
    with pytest.raises(SpecError):
        spec.state((1, 0, 2, 0), (0, 0, 0, 0))


def test_ring_shape_flag():
    # reference matrix has 1+Xbar below the diagonal: a general register
    assert has_subdiagonal_ones(q61_spec().matrix, 2) is False
    P = quadratic()
    ring = RegisterSpec(
        base="vectorial",
        mode="ring",
        r=2,
        poly=P,
        matrix=(((0, 1), (1, 1)), ((1, 0), (0, 0))),
    )
    assert has_subdiagonal_ones(ring.matrix, 2) is True


def test_spec_serialization_round_trip():
    specs = [
        q61_spec(),
        binary_spec("fibonacci", [1, 0, 1]),
        binary_spec("galois", [0, 1]),
        binary_spec("ring", [[1, 0], [1, 1]]),
        RegisterSpec(
            base="vectorial",
            mode="galois",
            r=2,
            poly=quadratic(),
            coeffs=((1, 1), (0, 1)),
        ),
    ]
    for spec in specs:
        assert RegisterSpec.from_json(spec.to_json()) == spec


def test_malformed_spec_errors():
    with pytest.raises(SpecError):
        RegisterSpec.from_json("not json")
    with pytest.raises(SpecError):
        RegisterSpec.from_json('{"base": "binary", "mode": "ring", "r": 1}')
    with pytest.raises(SpecError):
        RegisterSpec.from_json(
            '{"base": "vectorial", "mode": "ring", "r": 1, "T": [["10"]]}'
        )
    # a string in place of a list of elements, or a list in place of a bit string
    with pytest.raises(SpecError):
        RegisterSpec.from_json('{"base": "binary", "mode": "galois", "r": 3, "q": "101"}')
    with pytest.raises(ValueError):
        RegisterSpec.from_json(
            '{"base": "vectorial", "mode": "galois", "r": 1, "poly": "111", "q": [["0", "1"]]}'
        )
    # entries outside {0, 1} are refused, not reduced mod 2
    with pytest.raises(SpecError):
        RegisterSpec(base="binary", mode="ring", r=1, poly=gf2n.binary_modulus(), matrix=(((3,),),))
    with pytest.raises(SpecError):
        RegisterSpec(base="vectorial", mode="ring", r=1, poly=quadratic(), matrix=(((3, 2),),))
    with pytest.raises(SpecError):
        RegisterSpec(base="vectorial", mode="fibonacci", r=1, poly=quadratic(), coeffs=((1, -1),))
    with pytest.raises(SpecError):
        binary_spec("galois", [1, 2, 3])
    with pytest.raises(SpecError):
        binary_spec("ring", [[1, 0], [1, 2]])


B = gf2n.binary_modulus()


@pytest.mark.parametrize("call, message", [
    (lambda: RegisterSpec(base="binary", mode="ring", r=1, poly=B, coeffs=((1,),)),
     "ring mode takes a transition matrix"),
    (lambda: RegisterSpec(base="binary", mode="fibonacci", r=1, poly=B, matrix=(((1,),),)),
     "fibonacci mode takes connection coefficients"),
    (lambda: RegisterSpec(base="binary", mode="galois", r=3, poly=B, coeffs=((1,), (1,))),
     "need r connection coefficients"),
    (lambda: RegisterSpec.from_dict({"base": "binary", "mode": "galois", "r": 1, "poly": "111",
                                     "q": ["1"]}),
     "binary specs use the degree-1 modulus"),
    (lambda: gf2n.BinaryPolynomial((1,)), "degree must be at least 1"),
    (lambda: factorize(0), "factorize needs n >= 1"),
    (lambda: expand((((1,), (0,)),), B), "field matrix must be square"),
    (lambda: run(q61_spec(), q61_spec().zero_state(), -1), "steps must be >= 0"),
    (lambda: output_rows(q61_spec(), q61_spec().zero_state(), -1), "count must be >= 0"),
    (lambda: det_adj_left([[1, 0], [0, 1]], [1]), "v of matching length"),
])
def test_malformed_arguments_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_exhaustive_mode_embedding_small():
    # every Fibonacci/Galois spec with r <= 2 over the binary and quadratic
    # moduli agrees with its companion-matrix register
    rng = random.Random(5)
    for P in (gf2n.binary_modulus(), quadratic()):
        elems = list(product((0, 1), repeat=P.n))
        for mode in ("fibonacci", "galois"):
            for r in (1, 2):
                for coeffs in product(elems, repeat=r):
                    if not any(coeffs[-1]):
                        continue
                    spec = RegisterSpec(
                        base="binary" if P.n == 1 else "vectorial",
                        mode=mode,
                        r=r,
                        poly=P,
                        coeffs=coeffs,
                    )
                    ring, embed = as_ring(spec)
                    mlen = P.n if mode == "fibonacci" else r * P.n
                    a = tuple(rng.randint(0, 1) for _ in range(r * P.n))
                    m = tuple(rng.randint(0, 2) for _ in range(mlen))
                    init = spec.state(a, m)
                    b1, _ = run(spec, init, 25)
                    b2, _ = run(ring, embed(init), 25)
                    assert b1 == b2
