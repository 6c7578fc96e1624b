"""The closed-form output rows and the single ring stepper against step().

`step` (with its per-mode steppers) is the reference: `output_rows`, `run`
and the `simulate` command must reproduce a plain loop over it, bit for bit
and byte for byte.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from vfcr import gf2n
from vfcr.cli import main
from vfcr.registers import FIBONACCI, MODES, RING, RegisterSpec, output_rows, run, step

# None is the binary modulus; the rest are lifts of degree 2 and 3
LIFTS = (None, "111", "-1,-1,1", "1101", "-1,1,0,1")
STEPS = st.sampled_from((0, 1, 2, 257, 300))


@st.composite
def registers(draw):
    lift = draw(st.sampled_from(LIFTS))
    P = gf2n.binary_modulus() if lift is None else gf2n.BinaryPolynomial.parse(lift)
    n = P.n
    mode = draw(st.sampled_from(MODES))
    r = draw(st.integers(1, 3))
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


def stepped(spec, init, steps):
    """(bits, mems) row-major traces of steps clocks of the reference step()."""
    states = [init]
    for _ in range(steps):
        states.append(step(spec, states[-1]))
    bits = [list(row) for row in zip(*(s.a for s in states))]
    mems = [list(row) for row in zip(*(s.m for s in states))]
    return bits, mems


def stepped_stdout(spec, init, steps, fmt) -> bytes:
    """What `simulate` printed when it clocked the register step by step."""
    if steps == 0:
        bits = [[] for _ in range(spec.r * spec.n)]
        mems = []
    else:
        bits, mems = stepped(spec, init, steps - 1)
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
        argv = ["simulate", "--spec", path, "--init", json.dumps(init.to_dict()),
                "--steps", str(steps), "--format", fmt]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
        out.flush()
        return rc, buf.getvalue()


@settings(max_examples=150, deadline=None)
@given(registers(), STEPS)
def test_output_rows_match_stepper(reg, steps):
    spec, init = reg
    bits, _ = stepped(spec, init, steps)
    rows = output_rows(spec, init, steps + 1)
    assert rows == [sum(b << t for t, b in enumerate(row)) for row in bits]


@settings(max_examples=150, deadline=None)
@given(registers(), STEPS)
def test_run_matches_stepper(reg, steps):
    spec, init = reg
    assert run(spec, init, steps) == stepped(spec, init, steps)


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
