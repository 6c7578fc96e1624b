"""The seven value types: constructor calls, pickling, copying, hashing, immutability
and argument checks."""

import copy
import pickle

import pytest

from vfcr.analysis import AnalysisReport, Rational2Adic, analyze
from vfcr.gf2n import BinaryPolynomial, PolynomialError, binary_modulus, quadratic
from vfcr.registers import RegisterSpec, RegisterState, SpecError, binary_spec
from vfcr.search import FamilyReport, TripletReport, check_triplet, enumerate_family

B = binary_modulus()


def ring_spec():
    return RegisterSpec(base="vectorial", mode="ring", r=2, poly=quadratic(),
                        matrix=[[(0, 1), (0, 1)], [(1, 1), (0, 0)]])


RING = ring_spec()
GALOIS = binary_spec("galois", [1, 0, 1])
REPORT_FIELDS = ("spec", "q_tilde", "det_i_minus_2t", "weights", "connection_integer",
                 "connection_vector", "connection_matrix", "order", "order_unavailable",
                 "feedback_corner", "rationals", "preperiod", "period")

# (make a value, its constructor's fields, its other read-only fields)
RECORDS = {
    "polynomial": (lambda: BinaryPolynomial.parse("-1,-1,1"), ("coeffs",), ("n",)),
    "polynomial-deg4": (lambda: BinaryPolynomial.parse("11001"), ("coeffs",), ("n",)),
    "state": (lambda: RegisterState((1, 0, 1), (0, -3, 2**70)), ("a", "m"), ()),
    "spec-ring": (ring_spec, ("base", "mode", "r", "poly", "coeffs", "matrix"), ()),
    "spec-galois": (lambda: binary_spec("galois", [1, 0, 1]),
                    ("base", "mode", "r", "poly", "coeffs", "matrix"), ()),
    "rational": (lambda: Rational2Adic(-5, 3), ("p", "q"), ()),
    "triplet": (lambda: check_triplet(11, 3, 2),
                ("q_tilde", "u", "v", "form_value", "form_ok", "prime", "primitive_root",
                 "skip_reason", "l_q", "l_uv"), ()),
    "triplet-skipped": (lambda: check_triplet(9, 4, 5),
                        ("q_tilde", "u", "v", "form_value", "form_ok", "prime",
                         "primitive_root", "skip_reason", "l_q", "l_uv"), ()),
    "family": (lambda: enumerate_family("binary-fcr", 2),
               ("family", "r", "n", "model_count", "q_values", "max_periods", "witnesses"), ()),
    # without reconstruct, so that no field is a list and every report hashes
    "analysis-ring": (lambda: analyze(RING, RING.zero_state()), REPORT_FIELDS, ()),
    "analysis-galois": (lambda: analyze(GALOIS, GALOIS.state((1, 0, 1), (0, 1, 0))),
                        REPORT_FIELDS, ()),
}


@pytest.mark.parametrize("name", RECORDS)
def test_positional_and_keyword_calls_give_the_same_value(name):
    make, fields, _ = RECORDS[name]
    x = make()
    values = [getattr(x, f) for f in fields]
    assert type(x)(*values) == x
    assert type(x)(**dict(zip(fields, values))) == x


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_and_deepcopy_give_an_equal_value(name):
    x = RECORDS[name][0]()
    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert type(y) is type(x) and y == x


@pytest.mark.parametrize("name", RECORDS)
def test_equal_values_hash_equal(name):
    x, y = RECORDS[name][0](), RECORDS[name][0]()
    assert x == y and x is not y
    if name == "family":  # witnesses is a dict
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y) and len({x, y}) == 1


@pytest.mark.parametrize("name", RECORDS)
def test_fields_are_read_only(name):
    make, fields, derived = RECORDS[name]
    x = make()
    for f in fields + derived:
        before = getattr(x, f)
        with pytest.raises(AttributeError):
            setattr(x, f, before)
        assert getattr(x, f) is before
    with pytest.raises(AttributeError):
        x.extra = 1


@pytest.mark.parametrize("call, error, message", [
    (lambda: RegisterState((1,), (1.0,)), SpecError, "state entries must be integers"),
    (lambda: RegisterState(a=(True,), m=(0,)), SpecError, "state entries must be integers"),
    (lambda: RegisterState((2,), (0,)), SpecError, "main register entries must be bits"),
    (lambda: RegisterState((1,)), TypeError, "m"),
    (lambda: BinaryPolynomial((1, 1, 0)), PolynomialError, "modulus must be monic"),
    (lambda: BinaryPolynomial(coeffs=(0, 1)), PolynomialError, "constant term must be odd"),
    (lambda: BinaryPolynomial((1, 0, 1)), PolynomialError, "modulus is reducible over F2"),
    (lambda: BinaryPolynomial((1, 1), 1), TypeError, None),
    (lambda: RegisterSpec("ternary", "ring", 1, B, matrix=(((1,),),)), SpecError,
     "unknown base 'ternary'"),
    (lambda: RegisterSpec(base="binary", mode="ring", r="1", poly=B, matrix=(((1,),),)),
     SpecError, "length must be an integer >= 1, got '1'"),
    (lambda: RegisterSpec(base="binary", mode="galois", r=1, poly=B, coeffs=((0,),)),
     SpecError, "q_r must be nonzero"),
    (lambda: RegisterSpec(base="binary", mode="galois", r=1), TypeError, "poly"),
    (lambda: Rational2Adic(1, 2), ValueError, "denominator must be odd and positive"),
    (lambda: Rational2Adic(p=1, q=-3), ValueError, "denominator must be odd and positive"),
    (lambda: Rational2Adic(1, 3, 5), TypeError, None),
    (lambda: TripletReport(11, 3, 2), TypeError, "form_value"),
    (lambda: FamilyReport("binary-fcr", r=2), TypeError, "n"),
    (lambda: AnalysisReport(GALOIS, 9, -9), TypeError, "weights"),
])
def test_bad_arguments_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()
