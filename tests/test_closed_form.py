"""The 2-adic closed form and the single ring stepper against the slow paths.

`step` (with its per-mode steppers) is the reference: `output_rows`, `run`
and the `simulate` command must reproduce a plain loop over it, bit for bit
and byte for byte.  Brent's cycle walk (`detect_cycle`) is the reference for
`analyze --reconstruct` and for the family witness check, and powering is
the reference for `multiplicative_order`.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import tracemalloc
from array import array
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vfcr import gf2n
from vfcr.analysis import Rational2Adic, analyze, ring_connection_norm, sequence_to_rational
from vfcr.cli import main
from vfcr.exactmath import det_exact, is_primitive_root_2, is_probable_prime, multiplicative_order
from vfcr.registers import (
    FIBONACCI,
    GALOIS,
    MODES,
    RING,
    RegisterSpec,
    StepBudgetExceeded,
    closed_form,
    detect_cycle,
    identity_minus_2t,
    output_rows,
    run,
    step,
)
from vfcr.search import _witness_achieves

from traces import listed

# None is the binary modulus; the rest are lifts of degree 2 and 3
LIFTS = (None, "111", "-1,-1,1", "1101", "-1,1,0,1")
STEPS = st.sampled_from((0, 1, 2, 257, 300))


@st.composite
def registers(draw, min_rn=1, max_rn=9):
    lift = draw(st.sampled_from(LIFTS))
    P = gf2n.binary_modulus() if lift is None else gf2n.BinaryPolynomial.parse(lift)
    n = P.n
    mode = draw(st.sampled_from(MODES))
    r = draw(st.integers(-(-min_rn // n), min(3, max_rn // n)))
    elem = st.tuples(*[st.integers(0, 1)] * n)
    base = "binary" if n == 1 else "vectorial"
    if mode == RING:
        matrix = draw(st.lists(st.lists(elem, min_size=r, max_size=r), min_size=r, max_size=r))
        spec = RegisterSpec(base=base, mode=mode, r=r, poly=P, matrix=matrix)
    else:
        coeffs = draw(st.lists(elem, min_size=r - 1, max_size=r - 1))
        coeffs.append(draw(elem.filter(any)))
        spec = RegisterSpec(base=base, mode=mode, r=r, poly=P, coeffs=coeffs)
    mlen = n if mode == FIBONACCI else r * n
    a = draw(st.lists(st.integers(0, 1), min_size=r * n, max_size=r * n))
    m = draw(st.lists(st.integers(-8, 8), min_size=mlen, max_size=mlen))
    return spec, spec.state(a, m)


def stepped(spec, init, count):
    """(bits, mems) row-major traces of the first count states of the reference step()."""
    states = [init]
    for _ in range(count - 1):
        states.append(step(spec, states[-1]))
    states = states[:count]
    bits = [[s.a[i] for s in states] for i in range(len(init.a))]
    mems = [[s.m[i] for s in states] for i in range(len(init.m))]
    return bits, mems


def stepped_stdout(spec, init, steps, fmt) -> bytes:
    """What `simulate` printed when it clocked the register step by step."""
    bits, mems = stepped(spec, init, steps)
    if fmt == "bits":
        return "".join(
            f"a{i % spec.n}^{i // spec.n} " + "".join(str(b) for b in row) + "\n"
            for i, row in enumerate(bits)
        ).encode()
    if fmt == "csv":
        return "".join(",".join(str(b) for b in row) + "\n" for row in bits).encode()
    if fmt == "bytes":
        flat = [bits[j][t] for t in range(steps) for j in range(spec.n)]
        return bytes(
            sum(b << k for k, b in enumerate(flat[i : i + 8])) for i in range(0, len(flat), 8)
        )
    doc = {
        "spec": spec.to_dict(),
        "steps": steps,
        "bits": bits,
        "memory": [[str(x) for x in row] for row in mems],
    }
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


def simulate_stdout(spec, init, steps, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(spec.to_json())
        buf = io.BytesIO()
        out = io.TextIOWrapper(buf, encoding="utf-8")
        init_arg = json.dumps({"a": list(init.a), "m": list(init.m)})
        argv = ["simulate", "--spec", path, "--init", init_arg,
                "--steps", str(steps), "--format", fmt]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
        out.flush()
        return rc, buf.getvalue()


@settings(max_examples=150, deadline=None)
@given(registers(), STEPS)
def test_output_rows_match_stepper(reg, count):
    spec, init = reg
    bits, _ = stepped(spec, init, count)
    rows = output_rows(spec, init, count)
    assert rows == [sum(b << t for t, b in enumerate(row)) for row in bits]


@settings(max_examples=150, deadline=None)
@given(registers(), STEPS)
def test_run_matches_stepper(reg, count):
    spec, init = reg
    assert listed(run(spec, init, count)) == stepped(spec, init, count)


def wide_specs(lift):
    """One register per mode over lift (None: binary), r = 2, every field element all ones."""
    P = gf2n.binary_modulus() if lift is None else gf2n.BinaryPolynomial.parse(lift)
    ones, base = (1,) * P.n, "binary" if lift is None else "vectorial"
    yield RegisterSpec(base=base, mode=RING, r=2, poly=P, matrix=((ones, ones), (ones, ones)))
    for mode in (FIBONACCI, GALOIS):
        yield RegisterSpec(base=base, mode=mode, r=2, poly=P, coeffs=(ones, ones))


# run packs each carry into a field of 1, 2, 4, 8 or more bytes, by the largest
# of |carry| and B's column sums.  Carries of +-2^k with k = 5 take 1-byte fields,
# 6 and 7 2-byte, 14 and 15 4-byte, 30 and 31 8-byte; 62, 63 and 70 are wider
# and come back as lists of ints.
FIELD_BYTES = {5: 1, 6: 2, 7: 2, 14: 4, 15: 4, 30: 8, 31: 8, 62: None, 63: None, 70: None}


def wide_init(spec, k, sign):
    """Alternating bits and carries of sign * +-2^k."""
    a = [j % 2 for j in range(spec.r * spec.n)]
    return spec.state(a, [sign * (-1) ** j << k for j in range(spec.carry_count)])


# Over "65,1,1" (X^2 = -65 - X) a column sum of 67 meets a carry of -64: sigma = -129.
@pytest.mark.parametrize("lift", (None, "-1,-1,1", "-7,5,1", "250001,-1,1", "65,1,1"))
@pytest.mark.parametrize("k", (6, 7, 14, 15, 30, 31, 62, 63, 70))
def test_run_matches_stepper_on_wide_carries(lift, k):
    for spec in wide_specs(lift):
        for sign in (1, -1):
            init = wide_init(spec, k, sign)
            for count in (0, 1, 2, 90):
                assert listed(run(spec, init, count)) == stepped(spec, init, count)


def test_run_tables_stay_small_on_wide_fields():
    # r = 256 with a 2^70 carry packs 10-byte fields.  Row sums of every subset
    # of 8 rows peaked at 23 MB, of 4 rows at 3.6 MB; a list of B's taps, 1.6 MB.
    r = 256
    coeffs = tuple((int(i % 3 == 0 or i == r - 1),) for i in range(r))
    spec = RegisterSpec(base="binary", mode=FIBONACCI, r=r, poly=gf2n.binary_modulus(), coeffs=coeffs)
    init = spec.state([i % 2 for i in range(r)], [1 << 70])
    tracemalloc.start()
    try:
        traces = run(spec, init, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20
    assert listed(traces) == stepped(spec, init, 100)


def test_simulate_prints_wide_carries_as_the_stepper():
    spec = next(wide_specs("-7,5,1"))
    init = spec.state((1, 0, 1, 1), (1 << 70, -(1 << 63), 5, -(1 << 62)))
    assert simulate_stdout(spec, init, 90, "structured") == (
        0, stepped_stdout(spec, init, 90, "structured"))


@pytest.mark.parametrize("k", FIELD_BYTES)
def test_run_rows_are_packed(k):
    for spec in wide_specs("-7,5,1"):
        bits, mems = run(spec, wide_init(spec, k, -1), 3)
        assert {type(row) for row in bits} == {bytes}
        if FIELD_BYTES[k] is None or sys.byteorder == "big":
            assert {type(row) for row in mems} == {list}
        else:
            assert {(type(row), row.itemsize) for row in mems} == {(array, FIELD_BYTES[k])}


@pytest.mark.parametrize("k", FIELD_BYTES)
def test_simulate_prints_every_field_width_as_the_stepper(k):
    for spec in wide_specs("-7,5,1"):
        for sign in (1, -1):
            init = wide_init(spec, k, sign)
            for count in (0, 1, 2, 90):
                assert simulate_stdout(spec, init, count, "structured") == (
                    0, stepped_stdout(spec, init, count, "structured"))


@settings(max_examples=60, deadline=None)
@given(registers(), STEPS, st.sampled_from(("bits", "csv", "bytes", "structured")))
def test_simulate_stdout_matches_stepping_formatter(reg, steps, fmt):
    spec, init = reg
    assert simulate_stdout(spec, init, steps, fmt) == (0, stepped_stdout(spec, init, steps, fmt))


def test_simulate_bytes_rejects_wide_cells():
    P = gf2n.BinaryPolynomial.from_bits("1000000011")  # degree 9
    spec = RegisterSpec(base="vectorial", mode=RING, r=1, poly=P, matrix=(((1,) + (0,) * 8,),))
    for steps in (0, 16):
        assert simulate_stdout(spec, spec.zero_state(), steps, "bytes") == (2, b"")


# Brent's walk on the per-mode steppers costs about 20 us a step; a few
# registers of the strategy need more steps than this and are skipped
CYCLE_WALK_BUDGET = 5000


@settings(max_examples=200, deadline=None)
@given(registers())
def test_analyze_reconstruct_matches_cycle_walk(reg):
    spec, init = reg
    try:
        s, t = detect_cycle(spec, init, max_steps=CYCLE_WALK_BUDGET)
    except StepBudgetExceeded:
        assume(False)
    # Brent walks at least preperiod + period steps, so CYCLE_BUDGET holds too
    report = analyze(spec, init, reconstruct=True)
    assert (report.preperiod, report.period) == (s, t)
    bits, _ = listed(run(spec, init, s + t))
    assert report.rationals == [sequence_to_rational(row, s, t) for row in bits]


@settings(max_examples=200, deadline=None)
@given(registers(), st.integers(1, 200))
def test_detect_cycle_returns_within_its_budget(reg, max_steps):
    # Brent's first loop ends with the tortoise at step index steps - period,
    # at or past the preperiod, so preperiod + period <= steps <= max_steps
    spec, init = reg
    try:
        s, t = detect_cycle(spec, init, max_steps=max_steps)
    except StepBudgetExceeded:
        return
    assert s + t <= max_steps
    report = analyze(spec, init, reconstruct=True)
    assert (report.preperiod, report.period) == (s, t)


@settings(max_examples=150, deadline=None)
@given(registers())
def test_analyze_determinant_matches_bareiss(reg):
    # analyze takes det(I - 2B) from the signed closed form, not from det_exact
    spec, init = reg
    det, p = closed_form(spec, init)
    zero = analyze(spec, spec.zero_state())
    assert zero.det_i_minus_2t == ring_connection_norm(spec.big_matrix())[0] == det
    sign = 1 if det > 0 else -1
    report = analyze(spec, init, reconstruct=True)
    assert report.det_i_minus_2t == det
    assert report.rationals == [Rational2Adic(sign * x, abs(det)).reduce() for x in p]


def minimal_period(seq, preperiod, period):
    """Least divisor of period that the tail of seq repeats with."""
    tail = seq[preperiod : preperiod + period]
    return next(d for d in range(1, period + 1)
                if period % d == 0 and all(tail[i] == tail[i % d] for i in range(period)))


def brute_force_witness(spec, target):
    """Some nonzero bit state with zero carries has a cell of period target."""
    m = spec.zero_state().m
    for a in product((0, 1), repeat=spec.r * spec.n):
        if any(a):
            init = spec.state(a, m)
            s, t = detect_cycle(spec, init)
            bits, _ = listed(run(spec, init, s + t))
            if max(minimal_period(row, s, t) for row in bits) == target:
                return True
    return False


def is_small_l_norm(q_tilde):
    return 2 < q_tilde < 2000 and is_probable_prime(q_tilde) and is_primitive_root_2(q_tilde)


@st.composite
def small_l_norm_registers(draw, tries=10):
    """registers(min_rn=2, max_rn=6), redrawn up to `tries` times until q~ is a small l-norm.

    About one register in nine meets it, too few for the filter health check.
    """
    for _ in range(tries):
        spec, init = draw(registers(min_rn=2, max_rn=6))  # one binary cell has q~ <= 1
        if is_small_l_norm(abs(det_exact(identity_minus_2t(spec.big_matrix())))):
            break
    return spec, init


@settings(max_examples=60, deadline=None)
@given(small_l_norm_registers())
def test_witness_check_matches_brute_force(reg):
    spec, _ = reg
    q_tilde = abs(det_exact(identity_minus_2t(spec.big_matrix())))
    assume(is_small_l_norm(q_tilde))
    assert _witness_achieves(spec, q_tilde) == brute_force_witness(spec, q_tilde - 1)


def powering_order(q):
    """The order of 2 modulo an odd q > 1, by stepping through the powers of 2."""
    t, x = 1, 2 % q
    while x != 1:
        x = x * 2 % q
        t += 1
    return t


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2**11 - 1))
def test_multiplicative_order_matches_powering(k):
    q = 2 * k + 1
    assert multiplicative_order(q) == powering_order(q)


def test_multiplicative_order_of_large_composite():
    # the orders of 2 modulo the two Mersenne primes are 61 and 31
    assert multiplicative_order((2**61 - 1) * (2**31 - 1)) == 1891
