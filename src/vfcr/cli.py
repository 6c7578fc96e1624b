"""Command-line front end: simulate, analyze, enumerate, search, check-triplet.

Exit codes: 0 success, 1 property-check failure, 2 usage error,
3 search, factorization or cycle (--reconstruct) budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import analysis, gf2n, registers, search
from .exactmath import DEFAULT_RHO_BUDGET, FactorBudgetExceeded
from .registers import RegisterSpec, RegisterState, SpecError, StepBudgetExceeded
from .search import SearchBudgetExceeded

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _load_spec(args) -> RegisterSpec:
    with open(args.spec, "r", encoding="utf-8") as fh:
        return RegisterSpec.from_json(fh.read())


def _load_init(args, spec: RegisterSpec) -> RegisterState:
    if args.init is None:
        return spec.zero_state()
    d = json.loads(args.init)
    try:
        return spec.state(d["a"], d["m"])
    except (KeyError, TypeError) as exc:
        raise SpecError(f'--init needs a JSON object with "a" and "m" lists ({exc!r})') from exc


def _print_json(build):
    # an exact answer may outgrow the int-to-str digit limit (Python >= 3.10.7) that its
    # input kept to: build the document with the limit lifted, restore it, then write it
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        doc = build()
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")  # dumps: the C encoder


def _bit_string(x: int, count: int) -> str:
    """Bits 0 .. count-1 of x, bit 0 first."""
    return bin(x | 1 << count)[:2:-1]


def _pack_bytes(rows, count: int) -> bytes:
    """Bit t of rows[j] at bit t*len(rows) + j, packed little-endian."""
    if not count:
        return b""
    strings = [_bit_string(x, count) for x in rows]
    flat = "".join(map("".join, zip(*strings)))
    return int(flat[::-1], 2).to_bytes((len(flat) + 7) // 8, "little")


_BIT_TEXT = bytes.maketrans(b"\x00\x01", b"01")
_CARRY_TEXT = ['"%d", ' % (b - (b >> 7 << 8)) for b in range(256)]  # byte b: its signed value


def _bit_row(row: bytes) -> str:
    """A row of 0/1 bytes as a JSON list of ints."""
    text = bytearray(b"0, " * len(row))
    text[::3] = row.translate(_BIT_TEXT)
    return "[" + text[:-2].decode() + "]"


def _carry_row(row) -> str:
    """A carry row as a JSON list of decimal strings."""
    if getattr(row, "itemsize", 0) == 1:  # one table entry per byte: no int or str is made
        return "[" + "".join([_CARRY_TEXT[b] for b in row.tobytes()])[:-2] + "]"
    return '["' + '", "'.join(map(str, row)) + '"]' if row else "[]"


def cmd_simulate(args) -> int:
    spec = _load_spec(args)
    init = _load_init(args, spec)
    steps = args.steps
    if steps < 0:
        raise SpecError("--steps must be >= 0")
    out = sys.stdout
    if args.format == "structured":  # json.dumps(doc, sort_keys=True), from run's packed rows
        bits, mems = registers.run(spec, init, steps)
        out.write('{"bits": [%s], "memory": [%s], "spec": %s, "steps": %d}\n' % (
            ", ".join(map(_bit_row, bits)), ", ".join(map(_carry_row, mems)), spec.to_json(), steps))
        return EXIT_OK
    if args.format == "bytes" and spec.n > 8:
        raise SpecError("bytes format needs n <= 8")
    rows = registers.output_rows(spec, init, steps)
    if args.format == "bytes":  # cell 0 coordinates
        sys.stdout.buffer.write(_pack_bytes(rows[: spec.n], steps))
    elif args.format == "bits":
        for i, x in enumerate(rows):
            cell, coord = divmod(i, spec.n)
            out.write(f"a{coord}^{cell} {_bit_string(x, steps)}\n")
    else:  # csv
        for x in rows:
            out.write(",".join(_bit_string(x, steps)) + "\n")
    return EXIT_OK


def cmd_analyze(args) -> int:
    spec = _load_spec(args)
    report = analysis.analyze(spec, _load_init(args, spec), args.reconstruct, args.budget)
    _print_json(report.to_dict)
    return EXIT_OK


def _family_poly(args):
    return gf2n.BinaryPolynomial.parse(args.poly) if args.poly is not None else None


def cmd_enumerate(args) -> int:
    report = search.enumerate_family(args.family, args.r, poly=_family_poly(args))
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("family", "r", "n", "q_tilde", "max_period", "witness_spec"))
        writer.writerows(report.csv_rows())
    else:
        _print_json(lambda: {
            "family": report.family,
            "r": report.r,
            "n": report.n,
            "model_count": report.model_count,
            "q_values": [str(q) for q in report.q_values],
            "max_periods": [str(p) for p in report.max_periods],
            "witnesses": {str(q): w.to_dict() for q, w in report.witnesses.items()},
        })
    return EXIT_OK


def cmd_search(args) -> int:
    hits = search.find_l_sequence_matrices(
        args.r,
        poly=_family_poly(args),
        count=args.count,
        seed=args.seed,
        rho_budget=args.budget,
        ring_only=args.ring_only,
    )
    _print_json(lambda: [
        {"spec": h["spec"].to_dict(), "q_tilde": str(h["q_tilde"]), "order": str(h["order"])}
        for h in hits
    ])
    return EXIT_OK


def cmd_check_triplet(args) -> int:
    report = search.check_triplet(args.q_tilde, args.u, args.v, rho_budget=args.budget)
    _print_json(report.to_dict)
    if report.form_ok and report.prime and report.primitive_root is not False:
        return EXIT_OK
    return EXIT_CHECK_FAILED


def budget(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"budget must be an integer >= 0, got {text}")
    return int(text)


COMMANDS = {  # name: (help, handler, arguments as (name or flag, add_argument keywords))
    "simulate": ("clock a register and emit its output rows", cmd_simulate, (
        ("--spec", dict(required=True, help="spec file (JSON)")),
        ("--init", dict(help='initial state, e.g. \'{"a":[1,0],"m":[0,0]}\'')),
        ("--steps", dict(type=int, default=64, help="number of emitted columns")),
        ("--format", dict(choices=("bits", "bytes", "csv", "structured"), default="bits")),
    )),
    "analyze": ("connection data, determinant, period bound", cmd_analyze, (
        ("--spec", dict(required=True)),
        ("--init", {}),
        ("--reconstruct", dict(action="store_true", help="per-cell rationals")),
        ("--budget", dict(type=budget, default=DEFAULT_RHO_BUDGET, help="Pollard rho step budget")),
    )),
    "enumerate": ("enumerate a register family", cmd_enumerate, (
        ("--family", dict(required=True, choices=search.FAMILIES)),
        ("--r", dict(type=int, required=True)),
        ("--poly", dict(help="modulus override (bit string or signed coeffs)")),
        ("--format", dict(choices=("csv", "structured"), default="structured")),
    )),
    "search": ("find matrices generating l-sequences", cmd_search, (
        ("--r", dict(type=int, required=True)),
        ("--poly", dict(help="modulus (default: binary)")),
        ("--count", dict(type=int, default=1)), ("--seed", dict(type=int, default=0)),
        ("--budget", dict(type=budget, default=DEFAULT_RHO_BUDGET)),
        ("--ring-only", dict(action="store_true", help="require subdiagonal ones")),
    )),
    "check-triplet": ("validate a (q~, u, v) candidate", cmd_check_triplet, (
        ("q_tilde", dict(type=int)), ("u", dict(type=int)), ("v", dict(type=int)),
        ("--budget", dict(type=budget, default=DEFAULT_RHO_BUDGET)),
    )),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of `command`'s subcommand; the other four are names only.

    argparse looks up only the invoked name in the subparsers' choices, and
    the usage line lists their keys, so a name needs no parser behind it.
    Without `command`, or when it names no subcommand (empty, `-h`, unknown),
    all five are built: the top-level usage, help and errors are those of the
    whole parser."""
    parser = argparse.ArgumentParser(
        prog="vfcr",
        description="Feedback-with-carry registers over F2 and F2^n with 2-adic analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, func, arguments) in COMMANDS.items():
        if name != command and command in COMMANDS:
            sub.choices[name] = None
            continue
        cmd = sub.add_parser(name, help=text)
        for flag, keywords in arguments:
            cmd.add_argument(flag, **keywords)
        cmd.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (SearchBudgetExceeded, StepBudgetExceeded, FactorBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:  # SpecError, PolynomialError, JSONDecodeError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
