"""Output checks: each takes an op's check descriptor and its stdout bytes.

A check returns (problem, work): problem is None when the output is right,
else a one-line reason; work is the op's unit count for `work_per_s`
(register steps, enumerated models, reconstructed steps) or 0.
"""

from __future__ import annotations

import csv
import io
import json
import math
from itertools import product

import oracle


def check(desc, out):
    try:
        return CHECKS[desc["type"]](desc, out)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"unparsable output ({type(exc).__name__}: {exc})", 0


# --- simulate -------------------------------------------------------------


def _format_rows(rows, n, fmt, steps):
    if fmt == "bits":
        text = "".join(f"a{i % n}^{i // n} " + "".join(map(str, row)) + "\n" for i, row in enumerate(rows))
        return text.encode()
    if fmt == "csv":
        return "".join(",".join(map(str, row)) + "\n" for row in rows).encode()
    if fmt == "bytes":  # cell-0 coordinates, packed little-endian
        flat = [rows[j][t] for t in range(steps) for j in range(n)]
        return bytes(sum(b << k for k, b in enumerate(flat[i : i + 8])) for i in range(0, len(flat), 8))
    raise ValueError(fmt)


def _same_spec(got, want):
    return (all(got[k] == want[k] for k in ("base", "mode", "r"))
            and got.get("T") == want.get("T") and got.get("q") == want.get("q")
            and oracle.parse_poly(got["poly"]) == oracle.spec_poly(want))


def check_simulate(d, out):
    spec, steps, fmt = d["spec"], d["steps"], d["format"]
    n = len(oracle.spec_poly(spec)) - 1
    rows = oracle.output_rows(spec, d["a"], d["m"], steps)
    if fmt != "structured":
        if out != _format_rows(rows, n, fmt, steps):
            return f"{fmt} output differs from the closed form", steps
        return None, steps
    doc = json.loads(out)
    if doc["steps"] != steps or not _same_spec(doc["spec"], spec):
        return "structured header differs", steps
    if doc["bits"] != rows:
        return "bit rows differ from the closed form", steps
    carries = oracle.carry_rows(spec, d["a"], d["m"], rows)
    if carries is None:
        return "bit rows admit no integer carry trace", steps
    if spec["mode"] == "fibonacci":  # only the last cell's carries are the register's
        if any(x for row in carries[: len(carries) - n] for x in row):
            return "fibonacci carries leak into other cells", steps
        carries = carries[len(carries) - n :]
    if doc["memory"] != [[str(x) for x in row] for row in carries]:
        return "carry rows differ from the recurrence", steps
    return None, steps


def check_golden_q61(d, out):
    golden, period = d["rows"], d["period"]
    width = len(golden[0])
    pre = next(s for s in range(width) if all(row[t] == row[t + period]
                                              for row in golden for t in range(s, width - period)))
    lines = out.decode().splitlines()
    steps = len(lines[0].split()[1]) if lines else 0
    for i, (line, row) in enumerate(zip(lines, golden)):
        want = "".join(str(row[t] if t < width else row[pre + (t - pre) % period]) for t in range(steps))
        if line != f"a{i % 2}^{i // 2} {want}":
            return f"row {i} differs from the period-{period} extension of the golden rows", steps
    if len(lines) != len(golden) or steps != 100000:
        return "wrong row count or length", steps
    return None, steps


# --- enumerate --------------------------------------------------------------


def _parse_family(out, fmt):
    if fmt == "structured":
        doc = json.loads(out)
        witnesses = {int(q): w for q, w in doc["witnesses"].items()}
        return (doc["family"], doc["r"], doc["n"], doc["model_count"],
                [int(q) for q in doc["q_values"]], [int(p) for p in doc["max_periods"]], witnesses)
    rows = list(csv.reader(io.StringIO(out.decode())))
    if rows[0] != ["family", "r", "n", "q_tilde", "max_period", "witness_spec"]:
        raise ValueError("csv header")
    rows = rows[1:]
    family, r, n = rows[0][0], int(rows[0][1]), int(rows[0][2])
    q_values = [int(row[3]) for row in rows]
    witnesses = {int(row[3]): json.loads(row[5]) for row in rows if row[4]}
    if any(int(row[4]) != int(row[3]) - 1 for row in rows if row[4]):
        raise ValueError("max_period is not q~ - 1")
    return family, r, n, None, q_values, sorted(q - 1 for q in witnesses), witnesses


def _connection_norm(coeffs, poly):
    """|N(q)| of the connection integer q = sum lift(q_i) 2^i - 1."""
    n = len(poly) - 1
    qvec = [sum(c[j] << i for i, c in enumerate(coeffs, start=1)) for j in range(n)]
    qvec[0] -= 1
    unit = [tuple(int(i == k) for k in range(n)) for i in range(n)]
    return abs(oracle.det([oracle.lifted_mul(u, qvec, poly) for u in unit]))


def own_family(family, r, poly_text):
    """(model count, norms of all models, norms of models with q_r != 0)."""
    poly = oracle.parse_poly(poly_text or "-1,-1,1")
    n = len(poly) - 1
    elems = list(product((0, 1), repeat=n))
    allq, live = set(), set()
    count = 0
    if family == "vfcr-q":
        for flat in product(elems, repeat=r * r):
            T = [["".join(map(str, flat[i * r + j])) for j in range(r)] for i in range(r)]
            spec = {"base": "vectorial", "mode": "ring", "r": r, "poly": poly_text, "T": T}
            allq.add(abs(oracle.det(oracle.i_minus_2b(oracle.expanded(spec)))))
            count += 1
        return count, allq, allq
    for coeffs in product(elems, repeat=r):
        q = _connection_norm(coeffs, poly)
        allq.add(q)
        if any(coeffs[-1]):
            live.add(q)
        count += 1
    return count, allq, live


def check_family(d, out):
    family, r, n, models, q_values, max_periods, witnesses = _parse_family(out, d["format"])
    exp = d["expected"]
    if exp is None:
        count, allq, live = own_family(d["family"], d["r"], d["poly"])
        # either convention for norms only degenerate (q_r = 0) models reach
        if sorted(allq) == q_values:
            ok_q = allq
        elif sorted(live) == q_values:
            ok_q = live
        else:
            return "q~ values differ from the benchmark's own enumeration", 0
        exp = {"family": d["family"], "r": d["r"], "models": count, "q_values": q_values,
               "max_periods": sorted(q - 1 for q in ok_q if q in live and oracle.is_l_norm(q))}
    if (family, r) != (exp["family"], exp["r"]) or (models is not None and models != exp["models"]):
        return "family header or model count differs", 0
    if q_values != list(exp["q_values"]) or max_periods != list(exp["max_periods"]):
        return "q~ values or maximal periods differ from the expected table", 0
    if sorted(witnesses) != [p + 1 for p in max_periods]:
        return "witness set differs from the maximal periods", 0
    for q, w in witnesses.items():
        if w["mode"] == "ring":
            got = abs(oracle.det(oracle.i_minus_2b(oracle.expanded(w))))
        else:
            if "1" not in w["q"][-1]:
                return f"witness for {q} has q_r = 0", 0
            got = _connection_norm([oracle.elem(e) for e in w["q"]], oracle.spec_poly(w))
        if got != q:
            return f"witness for {q} has norm {got}", 0
    return None, exp["models"]


# --- search -----------------------------------------------------------------


def check_search(d, out):
    hits = json.loads(out)
    if not 1 <= len(hits) <= d["count"]:
        return f"{len(hits)} hits for --count {d['count']}", 0
    poly = oracle.parse_poly(d["poly"]) if d["poly"] else oracle.BINARY_POLY
    n = len(poly) - 1
    seen = set()
    for h in hits:
        spec = h["spec"]
        if spec["r"] != d["r"] or spec["mode"] != "ring" or oracle.spec_poly(spec) != poly:
            return "hit has the wrong shape", 0
        key = json.dumps(spec["T"])
        if key in seen:
            return "duplicate hit", 0
        seen.add(key)
        if d["ring_only"] and any(spec["T"][i + 1][i] != "1" + "0" * (n - 1) for i in range(d["r"] - 1)):
            return "--ring-only hit lacks the subdiagonal ones", 0
        q = abs(oracle.det(oracle.i_minus_2b(oracle.expanded(spec))))
        if str(q) != h["q_tilde"] or h["order"] != str(q - 1):
            return f"hit reports q~ {h['q_tilde']}, own determinant gives {q}", 0
        if not oracle.is_l_norm(q):
            return f"hit q~ {q} is not prime with 2 as primitive root", 0
    return None, 0


# --- check-triplet ------------------------------------------------------------


def check_triplet(d, out):
    doc = json.loads(out)
    q, u, v = d["q"], d["u"], d["v"]
    form = u * u + u * v - v * v
    if d["form_value"] is not None and form != d["form_value"]:
        return "catalog erratum no longer reproduces", 0
    prime = oracle.is_prime(q)
    want = {"q_tilde": str(q), "u": str(u), "v": str(v), "form_value": str(form),
            "form_ok": form == q, "prime": prime, "l_q": d["l_q"], "l_uv": d["l_uv"]}
    for k, val in want.items():
        if doc[k] != val:
            return f"{k} is {doc[k]!r}, expected {val!r}", 0
    root = doc["primitive_root"]
    if not prime:
        ok = root is None and doc["skip_reason"] == "skipped: q~ not prime"
    elif root is None:  # allowed only when the factorization budget ran out
        ok = doc["skip_reason"] == "skipped: factorization budget"
    else:
        own = oracle.order2(q)
        ok = own is None or root == (own == q - 1)
    return (None if ok else "primitive_root / skip_reason wrong"), 0


# --- analyze ----------------------------------------------------------------


def _check_order(doc, q):
    if q <= 1:
        return doc["order"] == "1"
    if doc["order"] == "unavailable":
        return bool(doc.get("order_unavailable"))
    t = int(doc["order"])
    if pow(2, t, q) != 1:
        return False
    own = oracle.order2(q)
    return own is None or own == t


def check_analyze(d, out):
    spec = d["spec"]
    doc = json.loads(out)
    big = oracle.expanded(spec)
    D = oracle.det(oracle.i_minus_2b(big))
    q = abs(D)
    if not _same_spec(doc["spec"], spec):
        return "spec echo differs", 0
    if doc["det_i_minus_2t"] != str(D) or doc["q_tilde"] != str(q):
        return f"det(I - 2T) is {doc['det_i_minus_2t']}, own determinant gives {D}", 0
    if doc["weights"] != [str(sum(row[j] for row in big)) for j in range(len(big))]:
        return "carry weights differ from the column sums", 0
    if spec["mode"] == "ring":
        if doc["feedback_corner"] != spec["T"][0][spec["r"] - 1]:
            return "feedback corner differs", 0
    else:
        problem = _check_connection(doc, spec, big)
        if problem:
            return problem, 0
    if not _check_order(doc, q):
        return f"order {doc['order']} is not the order of 2 mod {q}", 0
    if not d["reconstruct"]:
        return None, 0
    D, p = oracle.closed_form(spec, d["a"], d["m"])
    cells = [oracle.reduced(pi, D) for pi in p]
    if [(int(x["p"]), int(x["q"])) for x in doc["rationals"]] != cells:
        return "rationals differ from the closed form", 0
    cycles = [oracle.cell_cycle(pi, qi) for pi, qi in cells]
    pre = max(c[0] for c in cycles)
    period = math.lcm(*(c[1] for c in cycles))
    if (int(doc["preperiod"]), int(doc["period"])) != (pre, period):
        return f"(preperiod, period) differs from own ({pre}, {period})", 0
    return None, pre + period


def _check_connection(doc, spec, big):
    poly = oracle.spec_poly(spec)
    n = len(poly) - 1
    coeffs = [oracle.elem(e) for e in spec["q"]]
    qvec = [sum(c[j] << i for i, c in enumerate(coeffs, start=1)) for j in range(n)]
    qvec[0] -= 1
    if doc["connection_integer"] != [str(x) for x in qvec]:
        return "connection integer differs"
    if doc["connection_vector"] != [str(qvec[0] + 1)] + [str(x) for x in qvec[1:]]:
        return "connection vector differs"
    if spec["mode"] == "fibonacci":
        neg = [-x for x in qvec]
        unit = [tuple(int(i == k) for k in range(n)) for i in range(n)]
        cm = [oracle.lifted_mul(u, neg, poly) for u in unit]
    else:
        d = len(big)
        cm = [[int(i == j) - 2 * big[j][i] for j in range(d)] for i in range(d)]
    if doc["connection_matrix"] != [[str(x) for x in row] for row in cm]:
        return "connection matrix differs"
    return None


CHECKS = {
    "simulate": check_simulate,
    "golden_q61": check_golden_q61,
    "family": check_family,
    "search": check_search,
    "triplet": check_triplet,
    "analyze": check_analyze,
}
