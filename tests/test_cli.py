import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_data import (
    Q61_INIT_A,
    Q61_INIT_M,
    Q61_MEMORY_ROWS,
    Q61_OUTPUT_ROWS,
)
from vfcr import analysis, cli, registers, search
from vfcr.cli import main
from vfcr.registers import RegisterSpec, binary_spec


Q61_SPEC = {
    "base": "vectorial",
    "mode": "ring",
    "r": 2,
    "poly": "-1,-1,1",
    "T": [["01", "01"], ["11", "00"]],
}


@pytest.fixture
def q61_spec_file(tmp_path):
    path = tmp_path / "q61.json"
    path.write_text(json.dumps(Q61_SPEC))
    return str(path)


def q61_init():
    return json.dumps({"a": list(Q61_INIT_A), "m": list(Q61_INIT_M)})


def test_simulate_bits(q61_spec_file, capsys):
    rc = main(
        ["simulate", "--spec", q61_spec_file, "--init", q61_init(),
         "--steps", "92", "--format", "bits"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    for line, row in zip(lines, Q61_OUTPUT_ROWS):
        label, bits = line.split()
        assert bits == "".join(str(b) for b in row)
    assert lines[0].startswith("a0^0 ")
    assert lines[3].startswith("a1^1 ")


def test_simulate_csv(q61_spec_file, capsys):
    rc = main(
        ["simulate", "--spec", q61_spec_file, "--init", q61_init(),
         "--steps", "10", "--format", "csv"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",".join(str(b) for b in Q61_OUTPUT_ROWS[0][:10])


def test_simulate_structured(q61_spec_file, capsys):
    rc = main(
        ["simulate", "--spec", q61_spec_file, "--init", q61_init(),
         "--steps", "45", "--format", "structured"]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bits"] == [row[:45] for row in Q61_OUTPUT_ROWS]
    assert doc["memory"] == [[str(x) for x in row] for row in Q61_MEMORY_ROWS]


def test_simulate_bytes(tmp_path, capsysbinary):
    path = tmp_path / "fib.json"
    path.write_text(binary_spec("fibonacci", [0, 1]).to_json())
    init = json.dumps({"a": [1, 0], "m": [0]})
    rc = main(["simulate", "--spec", str(path), "--init", init,
               "--steps", "16", "--format", "bytes"])
    assert rc == 0
    out = capsysbinary.readouterr().out
    # cell 0 emits 1,0,1,0,...: bits packed little-endian = 0b01010101
    assert out == bytes([0b01010101, 0b01010101])


def test_simulate_zero_steps(q61_spec_file, capsys):
    rc = main(["simulate", "--spec", q61_spec_file, "--steps", "0"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(line.split()[-1].endswith("^") is False for line in lines)
    assert [line.split()[0] for line in lines] == ["a0^0", "a1^0", "a0^1", "a1^1"]


def test_simulate_zero_steps_structured(q61_spec_file, capsys):
    # rn empty bit rows and one empty memory row per carry
    rc = main(["simulate", "--spec", q61_spec_file, "--steps", "0", "--format", "structured"])
    assert rc == 0
    assert capsys.readouterr().out == (
        '{"bits": [[], [], [], []], "memory": [[], [], [], []],'
        ' "spec": {"T": [["01", "01"], ["11", "00"]],'
        ' "base": "vectorial", "mode": "ring", "poly": "-1,-1,1", "r": 2}, "steps": 0}\n'
    )


QUADRATIC_SPECS = [
    {"base": "vectorial", "mode": "fibonacci", "r": 2, "poly": "-1,-1,1", "q": ["11", "01"]},
    {"base": "vectorial", "mode": "galois", "r": 2, "poly": "-1,-1,1", "q": ["11", "01"]},
    Q61_SPEC,
]
BINARY_SPECS = [
    binary_spec("fibonacci", [1, 1]).to_dict(),
    binary_spec("galois", [1, 1]).to_dict(),
    binary_spec("ring", [[1, 1], [1, 0]]).to_dict(),
]


@pytest.mark.parametrize("steps", [0, 1, 2])
@pytest.mark.parametrize("spec_dict", BINARY_SPECS + QUADRATIC_SPECS,
                         ids=lambda d: f"{d['base']}-{d['mode']}")
def test_simulate_structured_shape(tmp_path, capsys, spec_dict, steps):
    # rn bit rows and one memory row per carry, each with one entry per step
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_dict))
    spec = RegisterSpec.from_dict(spec_dict)
    rc = main(["simulate", "--spec", str(path), "--steps", str(steps), "--format", "structured"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["bits"]) == spec.r * spec.n
    assert len(doc["memory"]) == spec.carry_count
    assert all(len(row) == steps for row in doc["bits"] + doc["memory"])


def test_simulate_negative_steps(q61_spec_file, capsys):
    assert main(["simulate", "--spec", q61_spec_file, "--steps", "-1"]) == 2


def test_analyze(q61_spec_file, capsys):
    rc = main(["analyze", "--spec", q61_spec_file, "--init", q61_init(),
               "--reconstruct"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["q_tilde"] == "61"
    assert doc["det_i_minus_2t"] == "-61"
    assert doc["order"] == "60"
    assert doc["weights"] == ["3", "5", "1", "2"]
    assert doc["period"] == "60"
    assert all(int(r["q"]) in (1, 61) for r in doc["rationals"])


def _digit_limit():
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0


def test_analyze_prints_rationals_past_the_digit_limit(q61_spec_file, capsys):
    # a 4300-digit carry is within the int-to-str digit limit, its rationals are not
    m = [10**4299, 0, 0, 0]
    init = '{"a": [1, 0, 1, 0], "m": [1%s, 0, 0, 0]}' % ("0" * 4299)
    limit = _digit_limit()
    assert main(["analyze", "--spec", q61_spec_file, "--init", init, "--reconstruct"]) == 0
    cell = json.loads(capsys.readouterr().out)["rationals"][0]
    spec = RegisterSpec.from_json(json.dumps(Q61_SPEC))
    det, p = registers.closed_form(spec, spec.state([1, 0, 1, 0], m))
    g = math.gcd(p[0], det)
    expected = (p[0] // g * (1 if det > 0 else -1), abs(det) // g)
    assert len(cell["p"]) > 4300
    if limit:
        assert sys.get_int_max_str_digits() == limit  # main restored it
        sys.set_int_max_str_digits(0)
    try:
        assert (int(cell["p"]), int(cell["q"])) == expected
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_check_triplet_prints_a_form_value_past_the_digit_limit(capsys):
    # u = v = 10^2200 are within the digit limit; u^2 + uv - v^2 = 10^4400 is not
    u = "1" + "0" * 2200
    limit = _digit_limit()
    assert main(["check-triplet", "11", u, u]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["form_value"] == "1" + "0" * 4400 and doc["form_ok"] is False
    assert _digit_limit() == limit


@pytest.mark.skipif(_digit_limit() != 4300, reason="needs the default int-to-str digit limit")
def test_inputs_past_the_digit_limit_are_usage_errors(q61_spec_file, capsys):
    big = "1" + "0" * 4300
    init = '{"a": [1, 0, 1, 0], "m": [%s, 0, 0, 0]}' % big
    for argv in (["analyze", "--spec", q61_spec_file, "--init", init, "--reconstruct"],
                 ["check-triplet", big, "3", "2"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err
        assert _digit_limit() == 4300


def test_analyze_binary(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(binary_spec("galois", [1, 0, 1]).to_json())
    rc = main(["analyze", "--spec", str(path)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["q_tilde"] == "9"
    assert doc["connection_integer"] == ["9"]


def test_enumerate_csv(capsys):
    rc = main(["enumerate", "--family", "binary-fcr", "--r", "2", "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "family,r,n,q_tilde,max_period,witness_spec"
    assert len(lines) == 4  # header + q~ in {1, 3, 5}
    assert lines[1].startswith("binary-fcr,2,1,1,")


def test_enumerate_structured(capsys):
    rc = main(["enumerate", "--family", "vfcsr-q-galois", "--r", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_periods"] == ["4", "10", "18", "28"]
    for q, spec in doc["witnesses"].items():
        assert RegisterSpec.from_dict(spec)


def test_search_command(capsys):
    rc = main(["search", "--r", "2", "--count", "2", "--seed", "3"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 2
    for hit in doc:
        assert int(hit["order"]) == int(hit["q_tilde"]) - 1


def test_search_budget_exit_code(capsys):
    rc = main(["search", "--r", "1", "--ring-only"])
    assert rc == 3


def test_check_triplet_exit_codes(capsys):
    assert main(["check-triplet", "11", "3", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["primitive_root"] is True
    assert main(["check-triplet", "121421", "351", "332"]) == 1
    assert main(["check-triplet", "31", "5", "2"]) == 1  # 2 not primitive mod 31


def test_check_triplet_refutes_a_residue_without_factoring(capsys):
    # q = 1 mod 8, so 2 is a square mod q; q - 1 = 2^4 * 5 * 2476307 * 58555069
    # cannot be split by one rho step
    q, u, v = 11600026180014641, 100000110, 20000033
    assert main(["check-triplet", str(q), str(u), str(v), "--budget", "1"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["form_ok"] and doc["prime"]
    assert doc["primitive_root"] is False and doc["skip_reason"] is None


@pytest.mark.parametrize("command", [
    ["check-triplet", "11", "3", "2", "--budget", "-5"],
    ["search", "--r", "3", "--budget", "-1"],
    ["analyze", "--spec", "{spec}", "--budget", "-1"],
])
def test_negative_budget_exits_2(q61_spec_file, capsys, command):
    argv = [q61_spec_file if a == "{spec}" else a for a in command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget must be an integer >= 0" in captured.err
    argv[-1] = "0"  # a zero budget stays legal
    assert main(argv) == 0


def test_usage_errors(q61_spec_file, capsys):
    assert main([]) == 2
    assert main(["simulate"]) == 2
    assert main(["simulate", "--spec", "/nonexistent.json"]) == 2
    assert main(["enumerate", "--family", "bogus", "--r", "2"]) == 2


WHOLE_PARSER_ARGVS = [
    ["simulate", "--spec", "{spec}", "--steps", "12", "--format", "csv"],
    ["analyze", "--spec", "{spec}", "--init", q61_init(), "--reconstruct"],
    ["enumerate", "--family", "vfcsr-q-fib", "--r", "2"],
    ["search", "--r", "2", "--count", "1", "--ring-only"],
    ["check-triplet", "11", "3", "2"],
    ["-h"], ["--help"], ["-h", "simulate"],
    *([command, "-h"] for command in cli.COMMANDS),
    [], [""], ["bogus"], ["simul"], ["--spec", "{spec}"],
    ["simulate"], ["enumerate", "--r", "2"], ["check-triplet", "11", "3"],
    ["check-triplet", "11", "3", "2", "--budget", "x"], ["search", "--r", "2", "--budget", "x"],
    ["analyze", "--spec", "{spec}", "--reco"], ["analyze", "--spec", "{spec}", "--re"],
    ["simulate", "--spec", "{spec}", "extra"], ["simulate", "--spec", "{spec}", "analyze"],
    ["simulate", "--spec", "{spec}", "--budget", "1"], ["simulate", "--spec", "{spec}", "--format", "x"],
    ["analyze", "simulate"], ["analyze", "--spec"], ["search", "--", "x"],
    ["check-triplet", "11", "3", "2", "extra"],
]


@pytest.mark.parametrize("argv", WHOLE_PARSER_ARGVS)
def test_main_matches_the_whole_parser(q61_spec_file, capsys, monkeypatch, argv):
    """main builds only its subcommand's arguments; the whole parser is the oracle."""
    argv = [q61_spec_file if a == "{spec}" else a for a in argv]
    results = []
    for build in (cli.build_parser, lambda command=None, whole=cli.build_parser: whole()):
        monkeypatch.setattr(cli, "build_parser", build)
        results.append((cli.main(list(argv)), capsys.readouterr()))
    assert results[0] == results[1]


def test_build_parser_builds_only_the_invoked_subparser(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser("analyze")
    assert built == ["vfcr", "vfcr analyze"]
    built.clear()
    cli.build_parser()
    assert built == ["vfcr", *(f"vfcr {name}" for name in cli.COMMANDS)]


def test_main_reads_sys_argv(monkeypatch, capsys):
    argv = ["check-triplet", "11", "3", "2"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["vfcr", *argv])
    assert main() == 0
    assert capsys.readouterr().out == expected


def test_malformed_spec_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["simulate", "--spec", str(path)]) == 2
    path.write_text('{"base": "vectorial", "mode": "ring", "r": 1}')
    assert main(["simulate", "--spec", str(path)]) == 2


def test_reconstruct_over_cycle_budget_exits_3(tmp_path, capsys):
    # one cell over X^2 - X + 250001: det(I - 2T) = 1000003, a prime with 2
    # as primitive root, so preperiod + period = 1000002 > 10^6 steps
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        {"base": "vectorial", "mode": "ring", "r": 1, "poly": "250001,-1,1", "T": [["01"]]}
    ))
    init = json.dumps({"a": [1, 0], "m": [0, 0]})
    rc = main(["analyze", "--spec", str(path), "--init", init, "--reconstruct"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_factorization_budget_exits_3(capsys):
    rc = main(["search", "--r", "12", "--budget", "1", "--poly=1101"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: factorization budget exceeded")


def test_norm_determinant_mismatch_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(analysis, "connection_norm", lambda spec: 0)
    path = tmp_path / "g.json"
    path.write_text(binary_spec("galois", [1, 0, 1]).to_json())
    assert main(["analyze", "--spec", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: norm/determinant mismatch")


def test_missing_witness_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(search, "_witness_achieves", lambda spec, target: False)
    assert main(["enumerate", "--family", "binary-fcr", "--r", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no witness")


def test_misreported_norm_exits_1(capsys, monkeypatch):
    # a cofactor walk that reports the l-norm 61 as the l-norm 59 leaves 59 without a witness
    walk = search._matrix_norms
    monkeypatch.setattr(search, "_matrix_norms",
                        lambda r, P: ((59 if q == 61 else q, T) for q, T in walk(r, P)))
    assert main(["enumerate", "--family", "vfcr-q", "--r", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no witness")


@pytest.mark.parametrize("budget, order", [(["--budget", "1"], "unavailable"),
                                           ([], "252297405756")])
def test_analyze_order_over_the_factor_budget_is_unavailable(tmp_path, capsys, budget, order):
    path = tmp_path / "g.json"
    taps = [int(b) for b in "10000111100001010101011100001111101010111"]
    path.write_text(binary_spec("galois", taps).to_json())
    assert main(["analyze", "--spec", str(path)] + budget) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["q_tilde"] == "4036763141057"
    assert doc["order"] == order
    if order == "unavailable":
        assert doc["order_unavailable"].startswith("factorization budget exceeded")
    else:
        assert "order_unavailable" not in doc


# analyze's whole document, frozen: every field, its key and its decimal form
ANALYZE_DOCUMENTS = [
    pytest.param(
        Q61_SPEC, [],
        (
            '{"det_i_minus_2t": "-61", "feedback_corner": "01", "order": "60", "q_tilde": "61", '
            '"spec": {"T": [["01", "01"], ["11", "00"]], "base": "vectorial", "mode": "ring", '
            '"poly": "-1,-1,1", "r": 2}, "weights": ["3", "5", "1", "2"]}'
        ),
        id="q61",
    ),
    pytest.param(
        Q61_SPEC, ["--init", q61_init(), "--reconstruct"],
        (
            '{"det_i_minus_2t": "-61", "feedback_corner": "01", "order": "60", "period": "60", '
            '"preperiod": "2", "q_tilde": "61", "rationals": [{"p": "-19", "q": "61"}, '
            '{"p": "-37", "q": "61"}, {"p": "-13", "q": "61"}, {"p": "10", "q": "61"}], '
            '"spec": {"T": [["01", "01"], ["11", "00"]], "base": "vectorial", "mode": "ring", '
            '"poly": "-1,-1,1", "r": 2}, "weights": ["3", "5", "1", "2"]}'
        ),
        id="q61-reconstruct",
    ),
    pytest.param(
        {"base": "vectorial", "mode": "fibonacci", "r": 2, "poly": "111", "q": ["10", "11"]},
        ["--init", '{"a": [1, 0, 0, 1], "m": [1, 0]}', "--reconstruct"],
        (
            '{"connection_integer": ["5", "4"], "connection_matrix": [["-5", "-4"], ["4", "-1"]], '
            '"connection_vector": ["6", "4"], "det_i_minus_2t": "21", "order": "6", "period": "6", '
            '"preperiod": "2", "q_tilde": "21", "rationals": [{"p": "-11", "q": "21"}, {"p": "2", '
            '"q": "21"}, {"p": "-16", "q": "21"}, {"p": "1", "q": "21"}], '
            '"spec": {"base": "vectorial", "mode": "fibonacci", "poly": "111", "q": ["10", "11"], '
            '"r": 2}, "weights": ["1", "1", "1", "2"]}'
        ),
        id="fibonacci-reconstruct",
    ),
    pytest.param(
        {"base": "vectorial", "mode": "galois", "r": 3, "poly": "1101", "q": ["010", "001", "101"]},
        ["--init", '{"a": [1, 0, 1, 0, 0, 1, 1, 1, 0], "m": [0, 1, 0, 0, 0, 0, 2, 0, 1]}',
         "--reconstruct"],
        (
            '{"connection_integer": ["7", "2", "12"], "connection_matrix": [["1", "0", "2", "-2", '
            '"0", "0", "0", "0", "0"], ["-2", "1", "2", "0", "-2", "0", "0", "0", "0"], ["0", '
            '"-2", "1", "0", "0", "-2", "0", "0", "0"], ["0", "2", "0", "1", "0", "0", "-2", "0", '
            '"0"], ["0", "2", "2", "0", "1", "0", "0", "-2", "0"], ["-2", "0", "2", "0", "0", "1", '
            '"0", "0", "-2"], ["-2", "2", "0", "0", "0", "0", "1", "0", "0"], ["0", "0", "2", "0", '
            '"0", "0", "0", "1", "0"], ["-2", "0", "0", "0", "0", "0", "0", "0", "1"]], '
            '"connection_vector": ["8", "2", "12"], "det_i_minus_2t": "-2139", "order": "110", '
            '"period": "110", "preperiod": "4", "q_tilde": "2139", "rationals": [{"p": "-2467", '
            '"q": "2139"}, {"p": "2350", "q": "2139"}, {"p": "-275", "q": "2139"}, {"p": "-2578", '
            '"q": "2139"}, {"p": "1228", "q": "2139"}, {"p": "-3557", "q": "2139"}, {"p": "1061", '
            '"q": "2139"}, {"p": "2689", "q": "2139"}, {"p": "-656", "q": "2139"}], '
            '"spec": {"base": "vectorial", "mode": "galois", "poly": "1101", "q": ["010", "001", '
            '"101"], "r": 3}, "weights": ["0", "1", "2", "0", "-1", "1", "0", "-1", "1"]}'
        ),
        id="galois-reconstruct",
    ),
    pytest.param(
        binary_spec("galois", [1, 0, 1]).to_dict(), [],
        (
            '{"connection_integer": ["9"], "connection_matrix": [["-1", "-2", "0"], ["0", "1", '
            '"-2"], ["-2", "0", "1"]], "connection_vector": ["10"], "det_i_minus_2t": "-9", '
            '"order": "6", "q_tilde": "9", "spec": {"base": "binary", "mode": "galois", '
            '"poly": "-1,1", "q": ["1", "0", "1"], "r": 3}, "weights": ["2", "1", "1"]}'
        ),
        id="binary",
    ),
    pytest.param(
        {"base": "vectorial", "mode": "fibonacci", "r": 5, "poly": "110110001",
         "q": ["11001111", "11111111", "01110001", "11010111", "00010000"]},
        ["--budget", "1"],
        (
            '{"connection_integer": ["21", "30", "12", "60", "6", "22", "22", "30"], '
            '"connection_matrix": [["-21", "-30", "-12", "-60", "-6", "-22", "-22", "-30"], ["30", '
            '"9", "-30", "18", "-30", "-6", "-22", "-22"], ["22", "52", "9", "-8", "40", "-30", '
            '"-6", "-22"], ["22", "44", "52", "31", "14", "40", "-30", "-6"], ["6", "28", "44", '
            '"58", "37", "14", "40", "-30"], ["30", "36", "28", "74", "88", "37", "14", "40"], '
            '["-40", "-10", "36", "-12", "34", "88", "37", "14"], ["-14", "-54", "-10", "22", '
            '"-26", "34", "88", "37"]], "connection_vector": ["22", "30", "12", "60", "6", "22", '
            '"22", "30"], "det_i_minus_2t": "175821365464573", "order": "unavailable", '
            '"order_unavailable": "factorization budget exceeded on 175821365464573", '
            '"q_tilde": "175821365464573", "spec": {"base": "vectorial", "mode": "fibonacci", '
            '"poly": "110110001", "q": ["11001111", "11111111", "01110001", "11010111", '
            '"00010000"], "r": 5}, "weights": ["1", "1", "1", "1", "1", "1", "1", "1", "1", "1", '
            '"1", "1", "1", "1", "1", "1", "1", "1", "1", "1", "1", "1", "1", "1", "1", "1", "1", '
            '"1", "1", "1", "1", "1", "-2", "-5", "-10", "-16", "-19", "-18", "-14", "-1"]}'
        ),
        id="order-unavailable",
    ),
]


@pytest.mark.parametrize("spec, args, expected", ANALYZE_DOCUMENTS)
def test_analyze_prints_the_frozen_document(tmp_path, capsys, spec, args, expected):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["analyze", "--spec", str(path)] + args) == 0
    assert capsys.readouterr().out == expected + "\n"


# vfcsr enumerations whose stdout no benchmark digest covers: sha256, frozen
@pytest.mark.parametrize("args, digest", [
    (["vfcsr-q-fib", "--r", "3"],
     "2bb7fac5282d75c6a24d3f9f68db274967df604376538d6d45ae0783fdae0d76"),
    (["vfcsr-q-galois", "--r", "3"],
     "6ec889ae9a52a03e565678c64c1758598931988cbe12da9622e045767e8f9fca"),
    (["vfcsr-q-fib", "--r", "2", "--poly", "1101"],
     "e46be58f748a42135d0feff1c8f2f900a447bf7882791722c48be4efbbb11fd4"),
    (["vfcsr-q-galois", "--r", "2", "--poly", "1101"],
     "d90b080d44b3e3d621fd630d5cf6472754f1f276111d486d7a90ca5e8bd80711"),
])
def test_enumerate_vfcsr_prints_the_frozen_digest(capsys, args, digest):
    assert main(["enumerate", "--family"] + args) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
    assert captured.err == ""


# matrix-family enumerations whose stdout no benchmark digest covers (the csv
# prints every witness spec): sha256, frozen before the cofactor walk was pruned
@pytest.mark.parametrize("args, digest", [
    (["vfcr-q", "--r", "3"],
     "08de8d5d5ad84b2688e39e1967a9eec2a3987f82a4ab774398a68808d8f5b1a7"),
    (["binary-fcr", "--r", "4", "--format", "csv"],
     "b0a71c9d602a3c307f1a4c582ee80d61bc8cace04892b451c62625d2c26d6b54"),
])
def test_enumerate_matrix_family_prints_the_frozen_digest(capsys, args, digest):
    assert main(["enumerate", "--family"] + args) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
    assert captured.err == ""


# search over at most 2^16 matrices scans them all in a seed-shuffled order;
# --r 4 over F2 is 2^16 codes, the largest space scanned this way
@pytest.mark.parametrize("args, expected", [
    (["--r", "2", "--count", "3", "--seed", "1"],
     '[{"order": "4", "q_tilde": "5", "spec": {"T": [["0", "1"], ["1", "1"]], "base": "binary", '
     '"mode": "ring", "poly": "-1,1", "r": 2}}, {"order": "2", "q_tilde": "3", "spec": {"T": '
     '[["0", "1"], ["1", "0"]], "base": "binary", "mode": "ring", "poly": "-1,1", "r": 2}}, '
     '{"order": "4", "q_tilde": "5", "spec": {"T": [["1", "1"], ["1", "0"]], "base": "binary", '
     '"mode": "ring", "poly": "-1,1", "r": 2}}]'),
    (["--r", "2", "--poly=-1,-1,1", "--count", "2", "--seed", "3"],
     '[{"order": "10", "q_tilde": "11", "spec": {"T": [["11", "01"], ["11", "01"]], "base": '
     '"vectorial", "mode": "ring", "poly": "-1,-1,1", "r": 2}}, {"order": "10", "q_tilde": "11", '
     '"spec": {"T": [["10", "11"], ["11", "10"]], "base": "vectorial", "mode": "ring", "poly": '
     '"-1,-1,1", "r": 2}}]'),
    (["--r", "3", "--ring-only", "--count", "2", "--seed", "2"],
     '[{"order": "2", "q_tilde": "3", "spec": {"T": [["1", "0", "0"], ["1", "1", "1"], ["0", "1", '
     '"1"]], "base": "binary", "mode": "ring", "poly": "-1,1", "r": 3}}, {"order": "4", '
     '"q_tilde": "5", "spec": {"T": [["1", "0", "1"], ["1", "1", "0"], ["1", "1", "1"]], "base": '
     '"binary", "mode": "ring", "poly": "-1,1", "r": 3}}]'),
    (["--r", "4", "--count", "1", "--seed", "0"],
     '[{"order": "2", "q_tilde": "3", "spec": {"T": [["0", "0", "0", "0"], ["0", "1", "1", "0"], '
     '["1", "0", "1", "1"], ["0", "1", "1", "0"]], "base": "binary", "mode": "ring", "poly": '
     '"-1,1", "r": 4}}]'),
])
def test_exhaustive_search_prints_the_frozen_hits(capsys, args, expected):
    assert main(["search"] + args) == 0
    assert capsys.readouterr() == (expected + "\n", "")


@pytest.mark.parametrize(
    "spec_change, init",
    [
        ({}, '{"a": [1, 1, 1, 0]}'),  # no "m"
        ({}, "[]"),
        ({}, '{"a": 5, "m": [0, 0, 0, 1]}'),
        ({"T": 5}, None),  # "T" not a list
        ({"T": [5, 5]}, None),
        ({"T": [[5, 5], [5, 5]]}, None),
        ({"poly": 5}, None),
        ({}, '{"a": [1.5, 0, 0, 0], "m": [0, 0, 0, 0]}'),  # not truncated to 1
        ({}, '{"a": [1, 0, 0, 0], "m": [0.7, 0, 0, 0]}'),
        ({}, '{"a": [1, 0, 0, 0], "m": [Infinity, 0, 0, 0]}'),  # a float with no int value
        ({}, '{"a": [true, 0, 0, 0], "m": [0, 0, 0, 0]}'),  # not run as 1
        ({"base": "binary", "r": 1, "poly": "11", "T": ["1"]}, None),  # a row as a string
        ({"r": "2"}, None),
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, spec_change, init):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**Q61_SPEC, **spec_change}))
    argv = ["simulate", "--spec", str(path)] + (["--init", init] if init else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command", ["simulate", "analyze"])
@pytest.mark.parametrize("init", [
    '{"a": [1, 0, 1, 0], "m": [0, 0, 1e300, 0]}',  # ran with the float's binary value, not 10^300
    '{"a": [1, 0, 1, 0], "m": [0, 0, 1.0, 0]}',
    '{"a": [1.0, 0, 1, 0], "m": [0, 0, 0, 0]}',
])
def test_float_state_entries_exit_2(q61_spec_file, capsys, command, init):
    assert main([command, "--spec", q61_spec_file, "--init", init]) == 2
    assert capsys.readouterr() == ("", "error: state entries must be integers\n")


@pytest.mark.parametrize("r", ["0", "-1"])
@pytest.mark.parametrize("command", [["enumerate", "--family", f] for f in search.FAMILIES] + [["search"]])
def test_r_below_1_exits_2(capsys, command, r):
    assert main(command + ["--r", r]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: r must be >= 1\n"


@pytest.mark.parametrize(
    "family, r",
    [("binary-fcr", "6"), ("vfcr-q", "4"), ("vfcsr-q-fib", "13"), ("vfcsr-q-galois", "13")],
)
def test_enumerate_over_the_model_cap_exits_3(capsys, family, r):
    # refused up front: the family has more than 2^24 models
    assert main(["enumerate", "--family", family, "--r", r]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "over the cap of 2^24" in captured.err


@pytest.mark.parametrize("args", [["--r", "10000000"], ["--r", "257"], ["--r", "148", "--poly", "1101"]])
def test_search_over_the_code_cap_exits_3(capsys, args):
    # refused up front: codes of n r^2 > 2^16 bits; 1 << (n r^2) alone is 12 TB at r = 10^7
    assert main(["search"] + args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "over the cap of 65536" in captured.err


@pytest.mark.parametrize(
    "command, message",
    [
        (["enumerate", "--family", "vfcr-q", "--r", "1", "--poly", ""],
         "bit string must be nonempty over {0,1}"),
        (["search", "--r", "2", "--poly", ""], "bit string must be nonempty over {0,1}"),
        (["enumerate", "--family", "binary-fcr", "--r", "1", "--poly", "111"],
         "binary-fcr runs over X - 1 and takes no modulus"),
    ],
)
def test_refused_poly_exits_2(capsys, command, message):
    # an empty --poly is no modulus rather than the default one, and
    # binary-fcr always runs over X - 1
    assert main(command) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_enumerate_over_the_norm_work_cap_exits_3(capsys):
    # X^18 + X^7 + 1 at r = 1: 2^18 models, each with its own 18 x 18 norm
    t0 = time.perf_counter()
    assert main(["enumerate", "--family", "vfcr-q", "--r", "1", "--poly", "1000000100000000001"]) == 3
    assert time.perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "over the cap of 2^27" in captured.err


JSON_LEAVES = (st.none() | st.booleans() | st.integers(-3, 300) | st.floats(-2, 2)
               | st.sampled_from(["", "1", "01", "11", "-1,1", "1101", "-1,-1,1", "binary",
                                  "vectorial", "ring", "galois", "fibonacci", "x"]))
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.lists(inner, max_size=4)
                           | st.dictionaries(st.sampled_from(["a", "m", "x"]), inner, max_size=3),
                           max_leaves=12)


@st.composite
def malformed_specs(draw):
    """Q61_SPEC as it is or with fields dropped or replaced, or any JSON value."""
    kind = draw(st.sampled_from(("valid", "part", "json")))
    if kind == "json":
        return json.dumps(draw(JSON_VALUES))
    spec = dict(Q61_SPEC)
    keys = st.sampled_from(["base", "mode", "r", "poly", "T", "q"])
    for key in draw(st.sets(keys, min_size=1)) if kind == "part" else ():
        if draw(st.booleans()):
            spec.pop(key, None)
        else:
            spec[key] = draw(JSON_VALUES)
    return json.dumps(spec)


@st.composite
def malformed_inits(draw):
    """None, a Q61 state with a part replaced, any JSON value, or text that is no JSON."""
    kind = draw(st.sampled_from(("none", "part", "json", "text")))
    if kind == "none":
        return None
    if kind == "part":
        init = {"a": list(Q61_INIT_A), "m": list(Q61_INIT_M)}
        init[draw(st.sampled_from(["a", "m"]))] = draw(JSON_VALUES)
        return json.dumps(init)
    if kind == "json":
        return json.dumps(draw(JSON_VALUES))
    return draw(st.text(max_size=12))


@settings(max_examples=150, deadline=None)
@given(malformed_specs(), malformed_inits(),
       st.sampled_from([["simulate", "--steps", "5"], ["simulate", "--format", "bytes"],
                        ["simulate", "--format", "structured", "--steps", "3"],
                        ["analyze"], ["analyze", "--reconstruct"]]))
def test_malformed_input_maps_to_an_exit_code(spec_text, init, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(spec_text)
        argv = command + ["--spec", path] + (["--init", init] if init is not None else [])
        buf = io.BytesIO()
        out = io.TextIOWrapper(buf, encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)  # an exception escaping main fails the test
        out.flush()
    assert rc in (0, 1, 2, 3)
    if rc == 2:
        assert buf.getvalue() == b""
