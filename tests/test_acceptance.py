"""End-to-end acceptance suite: nine numbered criteria, one line printed each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.  All checks are exact (no tolerances); the golden data and
family tables live in golden_data.py with provenance notes there.
"""

import functools
import random
import sys
import time
from itertools import product

from golden_data import (
    BIG_TRIPLET_Q,
    BIG_TRIPLET_U,
    BIG_TRIPLET_V,
    FAMILY_EXPECTED,
    PUBLISHED_VFCR_Q_VALUES,
    Q61_BIG_MATRIX,
    Q61_FIELD_MATRIX,
    Q61_INIT_A,
    Q61_INIT_M,
    Q61_MEMORY_ROWS,
    Q61_OUTPUT_ROWS,
    Q61_WEIGHTS,
    QUADRATIC_TRIPLETS,
    TRIPLET_ERRATA,
)
from traces import listed
from vfcr import analysis, gf2n, registers, search
from vfcr.analysis import (
    check_containment,
    connection_matrix,
    connection_norm,
    expand_2adic,
    identity_minus_2t,
    memory_bounds,
    ring_connection_norm,
    sequence_to_rational,
    closed_form_numerator,
)
from vfcr.exactmath import det_exact, multiplicative_order
from vfcr.gf2n import quadratic
from vfcr.registers import RegisterSpec, as_ring, binary_spec, detect_cycle, run


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({name}): FAIL", file=sys.stderr)
                raise
            print(f"criterion {num} ({name}): PASS", file=sys.stderr)

        return wrapper

    return deco


def q61_spec():
    return RegisterSpec(
        base="vectorial", mode="ring", r=2, poly=quadratic(), matrix=Q61_FIELD_MATRIX
    )


@criterion(1, "golden q~=61 register reproduction")
def test_criterion_1_golden_example():
    start = time.monotonic()
    spec = q61_spec()
    assert spec.big_matrix() == Q61_BIG_MATRIX
    det, q_tilde = ring_connection_norm(Q61_BIG_MATRIX)
    assert (det, q_tilde) == (-61, 61)
    init = spec.state(Q61_INIT_A, Q61_INIT_M)
    bits, mems = listed(run(spec, init, 92))
    assert bits == Q61_OUTPUT_ROWS
    assert [row[:45] for row in mems] == Q61_MEMORY_ROWS
    _, period = detect_cycle(spec, init)
    assert period == 60 == multiplicative_order(61)
    assert time.monotonic() - start < 1.0


@criterion(2, "family tables: q~ sets and maximal periods")
def test_criterion_2_family_tables():
    start = time.monotonic()
    for (family, r), exp in FAMILY_EXPECTED.items():
        rep = search.enumerate_family(family, r)
        assert rep.model_count == exp["models"], (family, r)
        assert rep.q_values == exp["q_values"], (family, r)
        assert rep.max_periods == exp["max_periods"], (family, r)
        # every maximal period is backed by a simulated witness
        assert set(rep.witnesses) == {p + 1 for p in rep.max_periods}
    # the published r=2 row differs from the exhaustive set in exactly one
    # value (71, achievable and oracle-verified); see golden_data.py
    computed = set(FAMILY_EXPECTED[("vfcr-q", 2)]["q_values"])
    assert computed - set(PUBLISHED_VFCR_Q_VALUES) == {71}
    assert set(PUBLISHED_VFCR_Q_VALUES) - computed == set()
    assert time.monotonic() - start < 300.0


@criterion(3, "quadratic triplet catalog validation")
def test_criterion_3_triplet_catalog():
    start = time.monotonic()
    assert len(QUADRATIC_TRIPLETS) == 29
    for printed_lq, q_tilde, printed_luv, u, v in QUADRATIC_TRIPLETS:
        errata = TRIPLET_ERRATA.get((q_tilde, u, v), {})
        rep = search.check_triplet(q_tilde, u, v)
        if "corrected_v" in errata:
            # one catalog row fails the form identity as printed; the unique
            # repair keeping u is frozen in golden_data
            assert rep.form_value == errata["form_value"]
            assert not rep.form_ok
            rep = search.check_triplet(q_tilde, u, errata["corrected_v"])
        assert rep.form_ok, (q_tilde, u, v)
        assert rep.prime, (q_tilde, u, v)
        assert rep.primitive_root is True, (q_tilde, u, v)
        assert rep.l_q == errata.get("l_q", printed_lq), (q_tilde, u, v)
        assert rep.l_uv == errata.get("l_uv", printed_luv), (q_tilde, u, v)
    assert time.monotonic() - start < 10.0


@criterion(4, "97-digit connection norm validation")
def test_criterion_4_big_triplet():
    start = time.monotonic()
    u, v = BIG_TRIPLET_U, BIG_TRIPLET_V
    assert u * u + u * v - v * v == BIG_TRIPLET_Q
    rep = search.check_triplet(BIG_TRIPLET_Q, u, v, rho_budget=10**5)
    assert rep.form_ok
    assert rep.prime  # Miller-Rabin, error < 2^-128
    assert rep.primitive_root is None
    assert rep.skip_reason == "skipped: factorization budget"
    assert time.monotonic() - start < 10.0


@criterion(5, "closed-form numerators match simulation (binary, r <= 5)")
def test_criterion_5_numerator_oracle():
    start = time.monotonic()
    rng = random.Random(2024)
    for mode in ("fibonacci", "galois"):
        for r in range(1, 6):
            for code in range(1 << (r - 1)):
                taps = [(code >> i) & 1 for i in range(r - 1)] + [1]
                spec = binary_spec(mode, taps)
                wt = sum(taps)
                mlen = 1 if mode == "fibonacci" else r
                for _ in range(16):
                    a = tuple(rng.randint(0, 1) for _ in range(r))
                    m = tuple(rng.randint(0, wt) for _ in range(mlen))
                    init = spec.state(a, m)
                    rat = closed_form_numerator(spec, init)
                    s, t = detect_cycle(spec, init)
                    count = 4 * (s + t)
                    bits, _ = listed(run(spec, init, count))
                    assert expand_2adic(rat.p, rat.q, count) == bits[0], (spec, init)
    assert time.monotonic() - start < 120.0


@criterion(6, "determinant identities (quadratic, r <= 3)")
def test_criterion_6_determinant_identities():
    start = time.monotonic()
    P = quadratic()
    elems = list(product((0, 1), repeat=2))
    for r in (1, 2, 3):
        for coeffs in product(elems, repeat=r):
            if not any(coeffs[-1]):
                continue
            fib = RegisterSpec(base="vectorial", mode="fibonacci", r=r, poly=P, coeffs=coeffs)
            gal = RegisterSpec(base="vectorial", mode="galois", r=r, poly=P, coeffs=coeffs)
            q = analysis.connection_integer(fib)
            nq = gf2n.norm(q, P)
            # det of the multiplication-by-(-q) matrix is (-1)^n N(q)
            assert det_exact(connection_matrix(fib)) == nq  # n = 2: (-1)^2 N(q)
            assert abs(det_exact(identity_minus_2t(fib.big_matrix()))) == abs(nq)
            G = gal.big_matrix()
            Gt = tuple(tuple(G[j][i] for j in range(len(G))) for i in range(len(G)))
            det_g = det_exact(identity_minus_2t(G))
            det_gt = det_exact(identity_minus_2t(Gt))
            assert det_g == det_gt == det_exact(connection_matrix(gal))
            assert abs(det_g) == connection_norm(gal)
    assert time.monotonic() - start < 60.0


@criterion(7, "reconstructed denominators divide |det(I - 2T)|")
def test_criterion_7_denominator_divisibility():
    start = time.monotonic()
    rng = random.Random(77)
    P = quadratic()
    elems = list(product((0, 1), repeat=2))
    for _ in range(100):
        r = rng.randint(1, 3)
        mat = tuple(tuple(rng.choice(elems) for _ in range(r)) for _ in range(r))
        spec = RegisterSpec(base="vectorial", mode="ring", r=r, poly=P, matrix=mat)
        big = spec.big_matrix()
        det, q_tilde = ring_connection_norm(big)
        assert det % 2 == 1  # |det(I - 2T)| is odd
        rn = 2 * r
        init = spec.state(
            tuple(rng.randint(0, 1) for _ in range(rn)),
            tuple(rng.randint(0, 3) for _ in range(rn)),
        )
        s, t = detect_cycle(spec, init)
        bits, _ = listed(run(spec, init, s + t))
        for row in bits:
            rat = sequence_to_rational(row, s, t)
            assert q_tilde % rat.q == 0, (spec, init, rat)
    assert time.monotonic() - start < 120.0


@criterion(8, "carry box containment and absorption")
def test_criterion_8_memory_bounds():
    start = time.monotonic()
    rng = random.Random(88)
    P = quadratic()
    elems = list(product((0, 1), repeat=2))
    for _ in range(100):
        r = rng.randint(1, 3)
        mat = tuple(tuple(rng.choice(elems) for _ in range(r)) for _ in range(r))
        spec = RegisterSpec(base="vectorial", mode="ring", r=r, poly=P, matrix=mat)
        big = spec.big_matrix()
        w = memory_bounds(big)
        rn = 2 * r
        box = [max(wj, 1) for wj in w]
        # one-step containment: states inside the box stay inside
        for _ in range(10):
            a = tuple(rng.randint(0, 1) for _ in range(rn))
            m = tuple(rng.randrange(box[j]) for j in range(rn))
            nxt = registers.step(spec, spec.state(a, m))
            assert all(0 <= nxt.m[j] < box[j] for j in range(rn)), (spec, a, m)
        # absorption: memory up to 10 * max(w) is pulled into the closed box
        # [0, w_j] and stays there (the half-open box is invariant but not
        # globally absorbing: m_j can stabilize at exactly w_j, see
        # test_analysis.test_half_open_box_is_not_absorbing)
        top = 10 * max(max(w), 1)
        a = tuple(rng.randint(0, 1) for _ in range(rn))
        m = tuple(rng.randint(0, top) for _ in range(rn))
        _, mems = listed(run(spec, spec.state(a, m), 65))
        report = check_containment(mems, [wj + 1 for wj in w])
        assert all(c["contained"] for c in report), (spec, a, m)
    # the golden register: weights (3, 5, 1, 2), displayed traces contained
    assert memory_bounds(Q61_BIG_MATRIX) == Q61_WEIGHTS
    report = check_containment(Q61_MEMORY_ROWS, Q61_WEIGHTS)
    assert all(c["contained"] for c in report)
    assert time.monotonic() - start < 120.0


@criterion(9, "Fibonacci/Galois outputs equal their matrix-mode register")
def test_criterion_9_mode_embedding():
    start = time.monotonic()
    rng = random.Random(99)
    checks = 0
    for P in (gf2n.binary_modulus(), quadratic()):
        elems = list(product((0, 1), repeat=P.n))
        base = "binary" if P.n == 1 else "vectorial"
        for mode in ("fibonacci", "galois"):
            for r in (1, 2, 3):
                for coeffs in product(elems, repeat=r):
                    if not any(coeffs[-1]):
                        continue
                    spec = RegisterSpec(base=base, mode=mode, r=r, poly=P, coeffs=coeffs)
                    ring, embed = as_ring(spec)
                    rn = r * P.n
                    mlen = P.n if mode == "fibonacci" else rn
                    for _ in range(8):
                        init = spec.state(
                            tuple(rng.randint(0, 1) for _ in range(rn)),
                            tuple(rng.randint(0, 3) for _ in range(mlen)),
                        )
                        b1, _ = listed(run(spec, init, 41))
                        b2, _ = listed(run(ring, embed(init), 41))
                        assert b1 == b2, (spec, init)
                        checks += 1
    assert checks >= 1000
    assert time.monotonic() - start < 120.0
