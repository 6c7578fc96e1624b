"""Runs one workload's op list in-process through `vfcr.cli.main(argv)`.

A closed loop with one client: each op starts when the previous one has
ended.  A first pass runs every op once, judges its output and prices a
visit to it.  Further visits then fill the time left, spread over the whole
run (see Runner.fill).  With --trace 1 the first pass is untraced and the
following whole passes are traced, so the overhead of tracing can be given
against the same inputs.

Usage: python3 child.py OPS_JSON OUT_JSON ROWS_CSV SECONDS TRACE
(run.py starts it with src/ on PYTHONPATH).  Each run's row goes to ROWS_CSV
as it ends, so the child's memory does not grow with the number of runs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import resource
import statistics
import sys
import time

import checks
from layertrace import LAYERS, Tracer

from vfcr import cli

WARM_UP = (["check-triplet", "11", "3", "2"], ["enumerate", "--family", "vfcsr-q-fib", "--r", "2"],
           ["search", "--r", "2", "--count", "1"])


def run_op(argv):
    """(seconds, exit code or None, exception type or None, stdout bytes)."""
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", newline="\n")  # `--format bytes` needs .buffer
    err = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    rc = exc_type = None
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception as exc:  # a failed op is recorded with its type, not fatal
        exc_type = type(exc).__name__
    finally:
        dt = time.perf_counter() - t0
        sys.stdout, sys.stderr = saved
    out.flush()
    return dt, rc, exc_type, buf.getvalue()


# A visit to an op shorter than MIN_SAMPLE_S runs it up to MAX_REPS times in a
# row, so that its median rests on enough samples to outweigh the noise of
# single short runs.
MIN_SAMPLE_S = 0.05
MAX_REPS = 20
# Runner.fill: visits costlier than this get extra weight
HEAVY_S = 1.0

KIND_FIELDS = ("cmd", "variant", "r", "n", "lift", "format")  # workloads._kind
ROW_FIELDS = (("run", "op", "id") + KIND_FIELDS
              + ("traced", "seconds", "rc", "status", "exception", "problem", "out_bytes")
              + tuple(f"{k}_self_s" for k in LAYERS))


class Runner:
    def __init__(self, ops, rows):
        self.ops = ops
        self.rows = rows  # csv.DictWriter over ROW_FIELDS
        self.runs = 0
        self.reps = [1] * len(ops)  # runs per visit, set from the first run
        self.first = [None] * len(ops)  # per op: (status, problem, work, outcome)
        self.samples = [[] for _ in ops]  # untraced seconds
        self.traced = [[] for _ in ops]
        self.visit_s = [[] for _ in ops]  # untraced seconds per visit
        self.output_bytes = 0

    def visit(self, i):
        """Run op i as many times in a row as its first run asked for."""
        t0 = time.perf_counter()
        self.execute(i)  # the first run of all sets self.reps[i]
        for _ in range(self.reps[i] - 1):
            self.execute(i)
        self.visit_s[i].append(time.perf_counter() - t0)

    def fill(self, deadline):
        """Visit ops until the deadline, spreading each op's visits over the run.

        The machine's speed drifts within a run, so an op timed in one burst
        would carry the speed of that moment alone.  Weighted fair queueing
        interleaves the visits instead: the next visit goes to the op with
        the least time spent on it per unit of weight, among the ops whose
        visit still fits before the deadline.  A visit costing c seconds
        weighs sqrt(c) up to HEAVY_S and c / sqrt(HEAVY_S) above.  So cheap
        ops get many visits, spread over the run, and the costly ops all get
        about the same few visits: no single op of several seconds takes the
        time that the samples of the ops behind op_s_tail and work_per_s need.
        """
        weight = [c ** 0.5 * max(1.0, c / HEAVY_S) ** 0.5
                  for c in (statistics.median(v) for v in self.visit_s)]
        while True:
            cost = [statistics.median(v) for v in self.visit_s]
            left = deadline - time.perf_counter()
            due = [i for i in range(len(self.ops)) if cost[i] <= left]
            if not due:
                return
            self.visit(min(due, key=lambda i: (sum(self.visit_s[i]) / weight[i], i)))

    def execute(self, i, tracer=None):
        op = self.ops[i]
        before = tracer.layer_self() if tracer else None
        dt, rc, exc_type, out = run_op(op["argv"])
        outcome = (rc, exc_type, hashlib.sha256(out).hexdigest())
        if self.first[i] is None:
            self.first[i] = self._judge(op, outcome, out)
            self.reps[i] = max(1, min(MAX_REPS, int(MIN_SAMPLE_S / dt)))
        elif outcome != self.first[i][3]:
            self.first[i] = ("incorrect", "outcome differs between runs", 0, outcome)
        status, problem, work, _ = self.first[i]
        (self.traced if tracer else self.samples)[i].append(dt)
        row = {"run": self.runs, "op": i, "id": op["id"], **op["kind"], "traced": int(bool(tracer)),
               "seconds": dt, "rc": rc, "status": status, "exception": exc_type or "",
               "problem": problem or "", "out_bytes": len(out)}
        if tracer:
            self.output_bytes += len(out)
            after = tracer.layer_self()
            row.update({f"{k}_self_s": after[k] - before[k] for k in LAYERS})
        self.rows.writerow(row)
        self.runs += 1

    @staticmethod
    def _judge(op, outcome, out):
        """(status, problem, work units, outcome) of an op's first run."""
        rc, exc_type, digest = outcome
        if exc_type is not None:
            return "failed", f"raised {exc_type}", 0, outcome
        if rc != op["rc"]:
            return "failed", f"exit code {rc}, expected {op['rc']}", 0, outcome
        if not out and op["rc"] != 0:
            return "ok", None, 0, outcome
        problem, work = checks.check(op["check"], out)
        if problem is None and op.get("digest") and op["digest"] != digest:
            problem = "stdout differs from the digest frozen at the seed commit"
        return ("incorrect" if problem else "ok"), problem, work, outcome


def main(argv):
    ops_path, out_path, rows_path, seconds, trace = argv[0], argv[1], argv[2], float(argv[3]), argv[4] == "1"
    with open(ops_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    for warm in WARM_UP:  # first calls pay for lazy imports and regex compiles
        run_op(warm)
    rows_file = open(rows_path, "w", newline="", encoding="utf-8")
    rows = csv.DictWriter(rows_file, fieldnames=ROW_FIELDS, restval="")
    rows.writeheader()
    runner = Runner(ops, rows)
    deadline = time.perf_counter() + seconds
    for i in range(len(ops)):  # the first pass always completes
        runner.visit(i)
    traced_passes = 0
    layer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            pass_s = 0.0  # the first traced pass always runs; a further one only if it fits
            while traced_passes == 0 or time.perf_counter() + pass_s <= deadline:
                t0 = time.perf_counter()
                for i in range(len(ops)):
                    runner.execute(i, tracer)  # once: counts stay exact
                pass_s = time.perf_counter() - t0
                traced_passes += 1
        finally:
            tracer.remove()
        layer = tracer.metrics(traced_passes, runner.output_bytes)
    else:
        runner.fill(deadline)
    rows_file.close()
    result = {
        "ops": [{"id": op["id"], "kind": op["kind"], "status": f[0], "problem": f[1], "work": f[2],
                 "digest": f[3][2], "exception": f[3][1], "seconds": s, "traced_seconds": t,
                 "visits": len(v)}
                for op, f, s, t, v in zip(ops, runner.first, runner.samples, runner.traced, runner.visit_s)],
        "runs": runner.runs,
        "traced_passes": traced_passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layer": layer,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
