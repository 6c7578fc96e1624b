"""Seeded op lists for the three workloads.

Each op is one `vfcr` command line plus what the benchmark expects of it: the
exit code, a check of its stdout that does not trust the program, and the
labels its per-op row carries.  In `simulate` and `analyze` the seed decides
the specs and initial states; `design` is the same list for every seed (see
design_ops).  How many ops of each kind a list holds is fixed, so the cost
of a list varies little from seed to seed.  Draws are never filtered on what
the program does with them.
"""

from __future__ import annotations

import random

import oracle

FORMATS = ("bits", "csv", "bytes", "structured")
MODES = ("ring", "galois", "fibonacci")
LIFTS = {1: (None,), 2: ("111", "-1,-1,1"), 3: ("1101", "1011", "-1,1,0,1")}

# q~ = 61: the worked example whose rows tests/golden_data.py freezes
Q61_SPEC = {"base": "vectorial", "mode": "ring", "r": 2, "poly": "-1,-1,1",
            "T": [["01", "01"], ["11", "00"]]}

# One cell over X^2 - X + 250001 (lift "250001,-1,1"): det(I - 2T) = 1000003,
# a prime with 2 as primitive root, so the period 1000002 exceeds the
# 10^6-step cycle budget of `analyze --reconstruct`.  With d = 2 it is the
# cheapest register found whose period does.
OVER_BUDGET_SPEC = {"base": "vectorial", "mode": "ring", "r": 1, "poly": "250001,-1,1",
                    "T": [["01"]]}

# Binary ring, r = 16, q~ = 36253429 = a composite below 2^32 whose order
# (5901714) `multiplicative_order` finds by stepping through the powers of 2.
UNBUDGETED_ORDER_ROWS = (
    "0110001110110100", "1011011110010001", "1001011100001101", "1000000011111101",
    "0011010011101111", "0011100001101111", "1111111011111101", "1111010100001110",
    "0010110100110010", "0000110000011100", "0111111011110011", "1111100000011000",
    "1100010110001000", "0101000101001011", "1010011000010000", "1000100010101000",
)


def _op(id_, argv, kind, check, rc=0, spec=None, fixed=False):
    """fixed: the op does not depend on the seed, so its stdout digest is frozen too."""
    return {"id": id_, "argv": argv, "kind": kind, "check": check, "rc": rc, "spec": spec,
            "fixed": fixed}


def _kind(cmd, variant="", r="", n="", lift="", fmt=""):
    return {"cmd": cmd, "variant": variant, "r": r, "n": n, "lift": lift, "format": fmt}


def _rand_elem(rng, n, nonzero=False):
    while True:
        e = "".join(str(rng.randrange(2)) for _ in range(n))
        if not nonzero or "1" in e:
            return e


def _rand_spec(rng, mode, r, n, lift):
    spec = {"base": "binary" if n == 1 else "vectorial", "mode": mode, "r": r}
    if n > 1:
        spec["poly"] = lift
    if mode == "ring":
        spec["T"] = [[_rand_elem(rng, n) for _ in range(r)] for _ in range(r)]
    else:
        spec["q"] = [_rand_elem(rng, n) for _ in range(r - 1)] + [_rand_elem(rng, n, nonzero=True)]
    return spec


def _rand_init(rng, spec, n, negative):
    r = spec["r"]
    mlen = n if spec["mode"] == "fibonacci" else r * n
    a = [rng.randrange(2) for _ in range(r * n)]
    m = [rng.randint(-6, 2) if negative else rng.randint(0, 3) for _ in range(mlen)]
    if negative and min(m) >= 0:
        m[rng.randrange(mlen)] = -rng.randint(1, 6)
    return a, m


def _init_arg(a, m):
    return '{"a":%s,"m":%s}' % (list(a), list(m))


# --- simulate ---------------------------------------------------------------

R_BINS = ((2, 3), (4, 6), (7, 10), (11, 16))


def _steps_for(r, n):
    # about 40 ms of stepping at ~(6 + 2.5 r n) us per step, whatever r and n
    return max(64, int(0.04 / (6e-6 + 2.5e-6 * r * n)))


def simulate_ops(rng, golden):
    init = _init_arg(golden.Q61_INIT_A, golden.Q61_INIT_M)
    ops = [_op("q61-100k", ["simulate", "--spec", "{spec}", "--init", init, "--steps", "100000"],
               _kind("simulate", "ring", 2, 2, "-1,-1,1", "bits"),
               {"type": "golden_q61", "rows": golden.Q61_OUTPUT_ROWS, "period": 60},
               spec=Q61_SPEC, fixed=True)]
    i = 0
    for rep in range(3):
        for lo, hi in R_BINS:
            for n in (1, 2, 3):
                for mode in MODES:
                    r = rng.randint(lo, hi)
                    lift = LIFTS[n][(rep + lo) % len(LIFTS[n])]
                    fmt = FORMATS[i % 4]
                    spec = _rand_spec(rng, mode, r, n, lift)
                    a, m = _rand_init(rng, spec, n, negative=rng.random() < 0.5)
                    steps = _steps_for(r, n)
                    ops.append(_op(
                        f"sim-{i}",
                        ["simulate", "--spec", "{spec}", "--init", _init_arg(a, m),
                         "--steps", str(steps), "--format", fmt],
                        _kind("simulate", mode, r, n, lift or "", fmt),
                        {"type": "simulate", "spec": spec, "a": a, "m": m, "steps": steps, "format": fmt},
                        spec=spec))
                    i += 1
    return ops


# --- design -----------------------------------------------------------------


SEARCH_SEEDS = (101, 202, 303)


def design_ops(rng, golden):
    fam = golden.FAMILY_EXPECTED

    def expected(key, family=None, n=1):
        e = fam[key]
        return {"family": family or key[0], "r": key[1], "n": n, "models": e["models"],
                "q_values": list(e["q_values"]), "max_periods": list(e["max_periods"])}

    enum = [
        # (argv tail, kind, expected or None for the benchmark's own enumeration)
        (["--family", "binary-fcr", "--r", "4"], ("binary-fcr", 4, 1, ""), expected(("binary-fcr", 4))),
        (["--family", "binary-fcr", "--r", "2"], ("binary-fcr", 2, 1, ""), expected(("binary-fcr", 2))),
        # n = 1 through expand: the binary-fcr r = 4 family on the vfcr-q code path
        (["--family", "vfcr-q", "--poly", "11", "--r", "4"], ("vfcr-q", 4, 1, "11"),
         expected(("binary-fcr", 4), family="vfcr-q")),
        (["--family", "vfcr-q", "--r", "2", "--poly=-1,-1,1", "--format", "csv"],
         ("vfcr-q", 2, 2, "-1,-1,1"), expected(("vfcr-q", 2), n=2)),
        (["--family", "vfcr-q", "--r", "2", "--poly", "111"], ("vfcr-q", 2, 2, "111"), None),
        (["--family", "vfcr-q", "--r", "2", "--poly", "1101"], ("vfcr-q", 2, 3, "1101"), None),
        # lifts of X^2 + X + 1 with larger coefficients, so larger norms:
        # -7,5,1 is the costliest r = 2 enumeration, and the other four cost
        # about what the four vfcsr-q ops below cost.  Those eight ops take
        # ranks 8 to 15 of this list's op times, so op_s_tail, the 11th
        # largest, is the middle of a block of ops of one cost rather than
        # the edge between two costs.
        (["--family", "vfcr-q", "--r", "2", "--poly=-7,5,1"], ("vfcr-q", 2, 2, "-7,5,1"), None),
        (["--family", "vfcr-q", "--r", "2", "--poly=-3,5,1"], ("vfcr-q", 2, 2, "-3,5,1"), None),
        (["--family", "vfcr-q", "--r", "2", "--poly=-5,-3,1"], ("vfcr-q", 2, 2, "-5,-3,1"), None),
        (["--family", "vfcr-q", "--r", "2", "--poly=-7,1,1"], ("vfcr-q", 2, 2, "-7,1,1"), None),
        (["--family", "vfcr-q", "--r", "2", "--poly=3,7,1"], ("vfcr-q", 2, 2, "3,7,1"), None),
        (["--family", "vfcsr-q-fib", "--r", "2"], ("vfcsr-q-fib", 2, 2, "-1,-1,1"),
         expected(("vfcsr-q-fib", 2), n=2)),
        (["--family", "vfcsr-q-galois", "--r", "2", "--format", "csv"], ("vfcsr-q-galois", 2, 2, "-1,-1,1"),
         expected(("vfcsr-q-galois", 2), n=2)),
        # known defect at the seed: AssertionError for norms only q_r = 0 models reach
        (["--family", "vfcsr-q-fib", "--r", "3"], ("vfcsr-q-fib", 3, 2, "-1,-1,1"), None),
        (["--family", "vfcsr-q-galois", "--r", "3"], ("vfcsr-q-galois", 3, 2, "-1,-1,1"), None),
        (["--family", "vfcsr-q-fib", "--r", "2", "--poly", "1101"], ("vfcsr-q-fib", 2, 3, "1101"), None),
        (["--family", "vfcsr-q-galois", "--r", "2", "--poly", "1101"], ("vfcsr-q-galois", 2, 3, "1101"), None),
    ]
    ops = []
    for tail, (family, r, n, lift), exp in enum:
        fmt = "csv" if "csv" in tail else "structured"
        check = {"type": "family", "family": family, "r": r, "poly": lift or None, "format": fmt,
                 "expected": exp}
        ops.append(_op("enum " + " ".join(tail), ["enumerate"] + tail,
                       _kind("enumerate", family, r, n, lift, fmt), check, fixed=True))
    # Search seeds and counts are fixed rather than drawn from the workload
    # seed: a search costs the draws until --count hits, which is geometric
    # in its seed, and drawn seeds made the per-op quantiles of this list
    # follow the seed more than the program.  So `design` is the same list
    # whatever --seed is.
    i = 0
    for rep, search_seed in enumerate(SEARCH_SEEDS):
        for r in (5, 6, 7, 8):
            for n in (1, 2, 3):
                lift = LIFTS[n][(rep + r) % len(LIFTS[n])]
                count = 1 + (rep + r + n) % 3
                # random draws meet --ring-only's subdiagonal ones with odds
                # 2^(-n(r-1)), so only small binary searches can ask for it
                ring_only = n == 1 and r <= 6 and rep != 1
                argv = ["search", "--r", str(r), "--count", str(count), "--seed", str(search_seed)]
                if lift:
                    argv.append("--poly=" + lift)  # "--poly -1,-1,1" would parse as an option
                if ring_only:
                    argv.append("--ring-only")
                ops.append(_op(f"search-{i}", argv,
                               _kind("search", "ring-only" if ring_only else "any", r, n, lift or "",
                                     "structured"),
                               {"type": "search", "r": r, "poly": lift, "count": count,
                                "ring_only": ring_only}, fixed=True))
                i += 1
    return ops


# --- analyze ----------------------------------------------------------------


def _l_prime_near(rng, lo, hi, residues):
    """A prime q in [lo, ~hi] with 2 a primitive root and q mod 8 in residues."""
    q = rng.randint(lo, hi) | 1
    while not (q % 8 in residues and oracle.is_l_norm(q)):
        q += 2
    return q


def _galois_taps(q):
    """Binary Galois taps q_1..q_r with connection integer sum q_i 2^i - 1 = q."""
    r = (q + 1).bit_length() - 1
    return ["%d" % (((q + 1) >> i) & 1) for i in range(1, r + 1)]


def _period_spec(rng, k):
    """A spec whose state period is q - 1 for a prime q near 1.25 * 2^k.

    Periods stay clear of powers of two, where the step count of Brent's
    cycle detection jumps.  Small k use binary registers in all three modes;
    large k use one degree-2 cell with lift X^2 - X + c, where
    det(I - 2T) = 4c - 1, so that a period of 10^4 costs no more steps
    than it must.
    """
    lo, hi = int(1.2 * 2**k), int(1.3 * 2**k)
    if k <= 11:
        q = _l_prime_near(rng, lo, hi, (3, 5))
        taps = _galois_taps(q)
        r = len(taps)
        mode = MODES[k % 3]
        if mode == "ring":
            T = [taps] + [["1" if j == i - 1 else "0" for j in range(r)] for i in range(1, r)]
            spec = {"base": "binary", "mode": "ring", "r": r, "T": T}
        else:
            spec = {"base": "binary", "mode": mode, "r": r, "q": taps}
        n = 1
    else:
        q = _l_prime_near(rng, lo, hi, (3,))
        spec = {"base": "vectorial", "mode": "ring", "r": 1, "poly": "%d,-1,1" % ((q + 1) // 4),
                "T": [["01"]]}
        n = 2
    a, m = _rand_init(rng, spec, n, negative=False)
    if not any(a):
        a[0] = 1
    return spec, a, m


# Periods near 1.25 * 2^k.  Seven ops of this list cost 0.2 s or more, and
# eight share k = 9, at about 45 ms, so that op_s_tail, the 11th largest op
# time, is the middle of eight ops of one cost rather than the edge between
# two costs, and those ops are cheap enough to be timed several times a run.
PERIOD_EXPONENTS = (7, 8) + (9,) * 8 + (11, 13, 15)


def analyze_ops(rng, golden):
    ops = []
    errata = golden.TRIPLET_ERRATA
    rows = [(q, u, v, lq, luv) for lq, q, luv, u, v in golden.QUADRATIC_TRIPLETS]
    for q, u, v, lq, luv in list(rows):
        e = errata.get((q, u, v), {})
        if "corrected_v" in e:
            rows.append((q, u, e["corrected_v"], lq, luv))
    for q, u, v, lq, luv in rows:
        e = errata.get((q, u, v), {})
        # the printed row (121421, 351, 332) fails the form identity: exit 1 is right
        rc = 1 if "corrected_v" in e else 0
        ops.append(_op(f"triplet {q} {u} {v}", ["check-triplet", str(q), str(u), str(v)],
                       _kind("check-triplet", "catalog", "", 2, "-1,-1,1"),
                       {"type": "triplet", "q": q, "u": u, "v": v, "l_q": e.get("l_q", lq),
                        "l_uv": e.get("l_uv", luv), "form_value": e.get("form_value")},
                       rc=rc, fixed=True))
    big = (golden.BIG_TRIPLET_Q, golden.BIG_TRIPLET_U, golden.BIG_TRIPLET_V)
    for budget in ("100000", None):
        tail = ["--budget", budget] if budget else []
        ops.append(_op("triplet-97-digit" + (" budget " + budget if budget else ""),
                       ["check-triplet"] + [str(x) for x in big] + tail,
                       _kind("check-triplet", "97-digit", "", 2, "-1,-1,1", budget or "default"),
                       {"type": "triplet", "q": big[0], "u": big[1], "v": big[2],
                        "l_q": big[0].bit_length() - 1,
                        "l_uv": max(big[1], big[2]).bit_length() - 1, "form_value": None},
                       fixed=True))
    a = [1, 0]
    ops.append(_op("reconstruct-over-budget",
                   ["analyze", "--spec", "{spec}", "--init", _init_arg(a, [0, 0]), "--reconstruct"],
                   _kind("analyze", "reconstruct", 1, 2, OVER_BUDGET_SPEC["poly"]),
                   {"type": "analyze", "spec": OVER_BUDGET_SPEC, "a": a, "m": [0, 0], "reconstruct": True},
                   rc=3, spec=OVER_BUDGET_SPEC, fixed=True))
    anchor = {"base": "binary", "mode": "ring", "r": 16, "T": [list(row) for row in UNBUDGETED_ORDER_ROWS]}
    ops.append(_op("analyze-composite-order", ["analyze", "--spec", "{spec}"],
                   _kind("analyze", "ring", 16, 1),
                   {"type": "analyze", "spec": anchor, "reconstruct": False}, spec=anchor, fixed=True))
    # r = 13..23 is left to the anchor above: there q~ straddles 2^32 and the
    # unbudgeted order loop would make the cost of a list depend on the seed
    for r in (2, 3, 4, 5, 6, 8, 10, 12, 24, 28, 32):
        spec = _rand_spec(rng, "ring", r, 1, None)
        ops.append(_op(f"analyze-ring-{r}", ["analyze", "--spec", "{spec}"],
                       _kind("analyze", "ring", r, 1),
                       {"type": "analyze", "spec": spec, "reconstruct": False}, spec=spec))
    for j, k in enumerate(PERIOD_EXPONENTS):
        spec, a, m = _period_spec(rng, k)
        n = 1 if spec["base"] == "binary" else 2
        ops.append(_op(f"reconstruct-{j}-2^{k}",
                       ["analyze", "--spec", "{spec}", "--init", _init_arg(a, m), "--reconstruct"],
                       _kind("analyze", "reconstruct-" + spec["mode"], spec["r"], n, spec.get("poly", "")),
                       {"type": "analyze", "spec": spec, "a": a, "m": m, "reconstruct": True}, spec=spec))
    for i, (mode, r, n) in enumerate((("ring", 2, 2), ("galois", 2, 2), ("fibonacci", 3, 2),
                                      ("ring", 1, 3), ("galois", 2, 3), ("ring", 3, 1))):
        lift = LIFTS[n][i % len(LIFTS[n])]
        spec = _rand_spec(rng, mode, r, n, lift)
        a, m = _rand_init(rng, spec, n, negative=i % 2 == 1)
        ops.append(_op(f"reconstruct-random-{i}",
                       ["analyze", "--spec", "{spec}", "--init", _init_arg(a, m), "--reconstruct"],
                       _kind("analyze", "reconstruct-" + mode, r, n, lift or ""),
                       {"type": "analyze", "spec": spec, "a": a, "m": m, "reconstruct": True}, spec=spec))
    return ops


OP_LISTS = {"simulate": simulate_ops, "design": design_ops, "analyze": analyze_ops}


def build(workload, seed, golden):
    return OP_LISTS[workload](random.Random(f"{workload}:{seed}"), golden)
