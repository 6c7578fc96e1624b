"""Layer tracing for the traced run, from outside the program.

`Tracer.install` rebinds each traced vfcr function to a timing wrapper in
every vfcr module that holds it: `search` and `analysis` import exactmath
and analysis functions by name, and `registers._stepper` finds the steppers
through module globals, so patching only the defining module would miss
calls.  `Tracer.remove` puts the originals back.

Calls are added up per function (calls, inclusive seconds, self seconds) in
place, with no record per call: `design` makes over 10^6 calls to the
leaves.  Self time is inclusive time minus the inclusive time of traced
callees.
"""

from __future__ import annotations

import sys
import time

LAYERS = ("cli", "registers", "gf2n", "exactmath", "analysis", "search")

# (module, function, calls out to other traced functions)
TRACED = (
    ("cli", "main", True),
    ("registers", "step_vfcr", True),
    ("registers", "step_fibonacci", True),
    ("registers", "step_galois", True),
    ("registers", "run", True),
    ("registers", "detect_cycle", True),
    ("registers", "expand", True),
    ("gf2n", "mul_lifted", False),
    ("gf2n", "mult_matrix", True),
    ("gf2n", "norm", True),
    ("exactmath", "det_exact", False),
    ("exactmath", "is_probable_prime", False),
    ("exactmath", "factorize", True),
    ("exactmath", "multiplicative_order", True),
    ("exactmath", "is_primitive_root_2", True),
    ("analysis", "analyze", True),
    ("analysis", "ring_connection_norm", True),
    ("analysis", "identity_minus_2t", False),
    ("analysis", "sequence_to_rational", False),
    ("search", "enumerate_family", True),
    ("search", "find_l_sequence_matrices", True),
    ("search", "check_triplet", True),
)


class Tracer:
    def __init__(self):
        self.stack = [0.0]  # inclusive seconds of traced callees, per open call
        self.stats = {}  # "layer.function" -> [calls, inclusive s, self s]
        self.patches = []
        self.enumerating = 0
        self.searching = 0
        self.mult_args = set()
        self.c = dict.fromkeys((
            "det_dim_max", "factor_budget_exceeded", "detect_cycle_in_enumerate",
            "norms_in_search", "models_scanned", "distinct_norms", "l_norms", "witnesses",
            "search_hits"), 0)
        self._last_budget_exc = None

    # --- wrappers -------------------------------------------------------

    def _nested(self, name, fn, before=None, after=None):
        stack, rec, perf = self.stack, self.stats.setdefault(name, [0, 0.0, 0.0]), time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                stack[-1] += dt
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _leaf(self, name, fn, before=None):
        stack, rec, perf = self.stack, self.stats.setdefault(name, [0, 0.0, 0.0]), time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt
                stack[-1] += dt

        return wrapper

    # --- hooks for the counters ----------------------------------------

    def _scoped(self, attr, wrapper):
        def scoped(*args, **kwargs):
            setattr(self, attr, getattr(self, attr) + 1)
            try:
                return wrapper(*args, **kwargs)
            finally:
                setattr(self, attr, getattr(self, attr) - 1)

        return scoped

    def _budget_guard(self, wrapper, exc_type):
        def guarded(*args, **kwargs):
            try:
                return wrapper(*args, **kwargs)
            except exc_type as exc:
                if exc is not self._last_budget_exc:  # count each overrun once
                    self._last_budget_exc = exc
                    self.c["factor_budget_exceeded"] += 1
                raise

        return guarded

    def _make(self, mod, fname, nested, fn, exactmath):
        name = f"{mod}.{fname}"
        c = self.c
        if fname == "mult_matrix":
            args_seen = self.mult_args
            return self._nested(name, fn, before=lambda a: args_seen.add((tuple(a[0]), a[1].coeffs)))
        if fname == "det_exact":
            def dim(a):
                if len(a[0]) > c["det_dim_max"]:
                    c["det_dim_max"] = len(a[0])
            return self._leaf(name, fn, before=dim)
        if fname in ("factorize", "multiplicative_order"):
            return self._budget_guard(self._nested(name, fn), exactmath.FactorBudgetExceeded)
        if fname == "detect_cycle":
            def in_enum(a):
                if self.enumerating:
                    c["detect_cycle_in_enumerate"] += 1
            return self._nested(name, fn, before=in_enum)
        if fname == "ring_connection_norm":
            def in_search(a):
                if self.searching:
                    c["norms_in_search"] += 1
            return self._nested(name, fn, before=in_search)
        if fname == "enumerate_family":
            def family(a, rep):
                c["models_scanned"] += rep.model_count
                c["distinct_norms"] += len(rep.q_values)
                c["l_norms"] += len(rep.max_periods)
                c["witnesses"] += len(rep.witnesses)
            return self._scoped("enumerating", self._nested(name, fn, after=family))
        if fname == "find_l_sequence_matrices":
            def hits(a, result):
                c["search_hits"] += len(result)
            return self._scoped("searching", self._nested(name, fn, after=hits))
        return self._nested(name, fn) if nested else self._leaf(name, fn)

    # --- install / remove ----------------------------------------------

    def install(self):
        mods = {m: sys.modules[f"vfcr.{m}"] for m in LAYERS}
        holders = [sys.modules["vfcr"]] + list(mods.values())
        for mod, fname, nested in TRACED:
            fn = getattr(mods[mod], fname)
            wrapper = self._make(mod, fname, nested, fn, mods["exactmath"])
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, attr, wrapper)
                        self.patches.append((holder, attr, fn))

    def remove(self):
        for holder, attr, fn in reversed(self.patches):
            setattr(holder, attr, fn)
        self.patches.clear()

    # --- results ---------------------------------------------------------

    def layer_self(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".")[0]] += self_s
        return out

    def metrics(self, passes, output_bytes):
        """Per-pass layer metrics, keyed by their BENCHMARK.json names."""
        s, c = self.stats, self.c

        def calls(n):
            return s[n][0] / passes

        def total(*names):
            return sum(s[n][1] for n in names) / passes

        def self_s(n):
            return s[n][2] / passes

        def ratio(a, b):
            return a / b if b else 0.0

        steps = ("registers.step_vfcr", "registers.step_fibonacci", "registers.step_galois")
        m = {
            "registers.step_calls": sum(s[n][0] for n in steps) / passes,
            "registers.step_s": total(*steps),
            "registers.run_self_s": self_s("registers.run"),
            "registers.detect_cycle_calls": calls("registers.detect_cycle"),
            "registers.detect_cycle_self_s": self_s("registers.detect_cycle"),
            "registers.expand_calls": calls("registers.expand"),
            "registers.expand_self_s": self_s("registers.expand"),
            "gf2n.mult_matrix_calls": calls("gf2n.mult_matrix"),
            "gf2n.mult_matrix_self_s": self_s("gf2n.mult_matrix"),
            "gf2n.mult_matrix_reuse": ratio(len(self.mult_args), s["gf2n.mult_matrix"][0]),
            "gf2n.mul_lifted_calls": calls("gf2n.mul_lifted"),
            "gf2n.mul_lifted_s": total("gf2n.mul_lifted"),
            "gf2n.norm_calls": calls("gf2n.norm"),
            "exactmath.det_exact_calls": calls("exactmath.det_exact"),
            "exactmath.det_exact_s": total("exactmath.det_exact"),
            "exactmath.det_dim_max": c["det_dim_max"],
            "exactmath.is_probable_prime_calls": calls("exactmath.is_probable_prime"),
            "exactmath.is_probable_prime_s": total("exactmath.is_probable_prime"),
            "exactmath.factorize_calls": calls("exactmath.factorize"),
            "exactmath.factorize_s": total("exactmath.factorize"),
            "exactmath.factor_budget_exceeded": c["factor_budget_exceeded"] / passes,
            "exactmath.multiplicative_order_s": total("exactmath.multiplicative_order"),
            "analysis.analyze_calls": calls("analysis.analyze"),
            "analysis.analyze_self_s": self_s("analysis.analyze"),
            "analysis.ring_connection_norm_calls": calls("analysis.ring_connection_norm"),
            "analysis.sequence_to_rational_s": total("analysis.sequence_to_rational"),
            "search.models_scanned": (c["models_scanned"] + c["norms_in_search"]) / passes,
            "search.distinct_norms": c["distinct_norms"] / passes,
            "search.l_norms": c["l_norms"] / passes,
            "search.witness_yield": ratio(c["witnesses"], c["detect_cycle_in_enumerate"]),
            "search.draw_hit_ratio": ratio(c["search_hits"], c["norms_in_search"]),
            "search.enumerate_family_self_s": self_s("search.enumerate_family"),
            "search.check_triplet_self_s": self_s("search.check_triplet"),
            "cli.self_s": self_s("cli.main"),
            "cli.output_bytes": output_bytes / passes,
        }
        for layer, secs in self.layer_self().items():
            m[f"{layer}.layer_self_s"] = secs / passes
        return m
