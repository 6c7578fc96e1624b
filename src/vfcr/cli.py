"""Command-line front end: simulate, analyze, enumerate, search, check-triplet.

Exit codes: 0 success, 1 property-check failure, 2 usage error,
3 search/factorization budget exceeded.
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


def _print_json(doc):
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


def cmd_simulate(args) -> int:
    spec = _load_spec(args)
    init = _load_init(args, spec)
    steps = args.steps
    if steps < 0:
        raise SpecError("--steps must be >= 0")
    out = sys.stdout
    if args.format == "structured":
        if steps == 0:
            bits = [[] for _ in range(spec.r * spec.n)]
            mems = []
        else:
            bits, mems = registers.run(spec, init, steps - 1)
        doc = {
            "spec": spec.to_dict(),
            "steps": steps,
            "bits": bits,
            "memory": [[str(x) for x in row] for row in mems],
        }
        _print_json(doc)
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
    _print_json(report.to_dict())
    return EXIT_OK


def _family_poly(args):
    return gf2n.BinaryPolynomial.parse(args.poly) if args.poly else None


def cmd_enumerate(args) -> int:
    report = search.enumerate_family(args.family, args.r, poly=_family_poly(args))
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("family", "r", "n", "q_tilde", "max_period", "witness_spec"))
        writer.writerows(report.csv_rows())
    else:
        doc = {
            "family": report.family,
            "r": report.r,
            "n": report.n,
            "model_count": report.model_count,
            "q_values": [str(q) for q in report.q_values],
            "max_periods": [str(p) for p in report.max_periods],
            "witnesses": {str(q): w.to_dict() for q, w in report.witnesses.items()},
        }
        _print_json(doc)
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
    doc = [
        {"spec": h["spec"].to_dict(), "q_tilde": str(h["q_tilde"]), "order": str(h["order"])}
        for h in hits
    ]
    _print_json(doc)
    return EXIT_OK


def cmd_check_triplet(args) -> int:
    report = search.check_triplet(args.q_tilde, args.u, args.v, rho_budget=args.budget)
    _print_json(report.to_dict())
    if report.form_ok and report.prime and report.primitive_root is not False:
        return EXIT_OK
    return EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vfcr",
        description="Feedback-with-carry registers over F2 and F2^n with 2-adic analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="clock a register and emit its output rows")
    sim.add_argument("--spec", required=True, help="spec file (JSON)")
    sim.add_argument("--init", help='initial state, e.g. \'{"a":[1,0],"m":[0,0]}\'')
    sim.add_argument("--steps", type=int, default=64, help="number of emitted columns")
    sim.add_argument("--format", choices=("bits", "bytes", "csv", "structured"), default="bits")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="connection data, determinant, period bound")
    ana.add_argument("--spec", required=True)
    ana.add_argument("--init")
    ana.add_argument("--reconstruct", action="store_true", help="per-cell rationals")
    ana.add_argument("--budget", type=int, default=DEFAULT_RHO_BUDGET, help="Pollard rho step budget")
    ana.set_defaults(func=cmd_analyze)

    enu = sub.add_parser("enumerate", help="enumerate a register family")
    enu.add_argument("--family", required=True, choices=search.FAMILIES)
    enu.add_argument("--r", type=int, required=True)
    enu.add_argument("--poly", help="modulus override (bit string or signed coeffs)")
    enu.add_argument("--format", choices=("csv", "structured"), default="structured")
    enu.set_defaults(func=cmd_enumerate)

    sea = sub.add_parser("search", help="find matrices generating l-sequences")
    sea.add_argument("--r", type=int, required=True)
    sea.add_argument("--poly", help="modulus (default: binary)")
    sea.add_argument("--count", type=int, default=1)
    sea.add_argument("--seed", type=int, default=0)
    sea.add_argument("--budget", type=int, default=DEFAULT_RHO_BUDGET)
    sea.add_argument("--ring-only", action="store_true", help="require subdiagonal ones")
    sea.set_defaults(func=cmd_search)

    chk = sub.add_parser("check-triplet", help="validate a (q~, u, v) candidate")
    chk.add_argument("q_tilde", type=int)
    chk.add_argument("u", type=int)
    chk.add_argument("v", type=int)
    chk.add_argument("--budget", type=int, default=DEFAULT_RHO_BUDGET)
    chk.set_defaults(func=cmd_check_triplet)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (SearchBudgetExceeded, StepBudgetExceeded, FactorBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SpecError, gf2n.PolynomialError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
