"""vfcr benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 38 --trace 0

Builds the workload's op list from the seed, writes its spec files under
.perfbench/, then runs the list in a child process (child.py) for --seconds.
The set-up of a fresh interpreter is timed before and after the list.  The last line of stdout is one
JSON object: correct, attempted, failed and the metrics (end-to-end ones
with --trace 0, per-layer ones with --trace 1).  The full record, with one
row per op, goes to .perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_RUNS = 8  # per half: one half before the op list runs, one after
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import vfcr.cli\n"
    "from vfcr import gf2n\n"
    "gf2n.quadratic(); gf2n.binary_modulus()\n"
    "print(time.perf_counter() - t0)\n"
)
RUN_LIMIT_S = 175  # the whole run, set-up included, must end within 180 s


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def load_golden():
    path = ROOT / "tests" / "golden_data.py"
    spec = importlib.util.spec_from_file_location("golden_data", path)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    return golden


def prepare(workload, seed, workdir):
    """Write the op list and its spec files; return the ops file path and ops."""
    ops = workloads.build(workload, seed, load_golden())
    digests = json.loads((HERE / "digests.json").read_text()).get(workload, {})
    for i, op in enumerate(ops):
        if op["spec"] is not None:
            path = workdir / f"spec-{i}.json"
            path.write_text(json.dumps(op["spec"]))
            op["argv"] = [str(path) if a == "{spec}" else a for a in op["argv"]]
        if op["fixed"]:
            op["digest"] = digests.get(op["id"])
    ops_path = workdir / "ops.json"
    ops_path.write_text(json.dumps(ops))
    return ops_path, ops


def run_child(ops_path, out_path, rows_path, seconds, trace, timeout):
    cmd = [sys.executable, str(HERE / "child.py"), str(ops_path), str(out_path), str(rows_path),
           str(seconds), str(trace)]
    subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True, timeout=timeout)
    return json.loads(out_path.read_text())


def measure_setup(runs):
    """Seconds, in fresh interpreters, to import vfcr.cli and build the default moduli."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    for _ in range(runs):
        out = subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True, capture_output=True,
                             text=True, timeout=60).stdout
        times.append(float(out))
    return times


def tail(values):
    """(percentile, value): the highest percentile with 10 samples beyond it.

    That is the 11th largest value, the nearest-rank percentile
    100 (N - 10) / N of N values.
    """
    xs = sorted(values)
    if len(xs) <= 20:
        return 50.0, statistics.median(xs)
    return 100 * (len(xs) - 10) / len(xs), xs[-11]


def end_to_end(res, setup_s):
    med = [statistics.median(op["seconds"]) for op in res["ops"]]
    pct, tail_s = tail(med)
    work = sum(op["work"] for op in res["ops"])
    work_time = sum(m for m, op in zip(med, res["ops"]) if op["work"])
    metrics = {
        "run_s": (sum(med), "s"),
        "op_s_p50": (statistics.median(med), "s"),
        "op_s_tail": (tail_s, "s"),
        "work_per_s": (work / work_time if work_time else 0.0, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    return metrics, {"op_s_tail_percentile": pct, "op_s_samples": len(med)}


def per_layer(res):
    untraced = sum(statistics.median(op["seconds"]) for op in res["ops"])
    traced = sum(statistics.median(op["traced_seconds"]) for op in res["ops"])
    m = {k: (v, "s" if k.endswith("_s") else "count") for k, v in res["layer"].items()}
    for k in ("gf2n.mult_matrix_reuse", "search.witness_yield", "search.draw_hit_ratio"):
        m[k] = (m[k][0], "ratio")
    m["cli.output_bytes"] = (m["cli.output_bytes"][0], "bytes")
    m["trace.overhead"] = (traced / untraced, "ratio")
    return m


def provenance(args):
    try:
        top, rev = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10, check=True).stdout.split()
        rev = rev if Path(top).resolve() == ROOT else None
    except (OSError, ValueError, subprocess.SubprocessError):
        rev = None  # not a git checkout
    src = hashlib.sha256()
    for path in sorted((SRC / "vfcr").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_rev": rev, "src_sha256": src.hexdigest(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.OP_LISTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "vfcr" / "cli.py").is_file() or not (ROOT / "tests" / "golden_data.py").is_file():
        print(f"error: no vfcr source tree (src/vfcr, tests/golden_data.py) under {ROOT}", file=sys.stderr)
        return 2
    base = ROOT / ".perfbench"
    workdir = base / f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    results = base / "results"
    workdir.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    try:
        ops_path, ops = prepare(args.workload, args.seed, workdir)
        measure_setup(1)  # writes the byte-code cache
        # Half the set-up runs come before the op list and half after, so
        # that their median spans the run rather than one moment of it.
        setup = measure_setup(SETUP_RUNS)
        timeout = RUN_LIMIT_S - (time.monotonic() - started)
        res = run_child(ops_path, workdir / "out.json", results / f"{stem}-ops.csv", args.seconds,
                        args.trace, timeout)
        setup_s = statistics.median(setup + measure_setup(SETUP_RUNS))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # An operation is one op of the list, judged on its first run; its
    # further runs are timing samples that must repeat its outcome.  So
    # `attempted` and `failed` depend on the op list alone, not on how many
    # runs fitted into --seconds.
    failed_ops = [op for op in res["ops"] if op["status"] != "ok"]
    attempted = len(res["ops"])
    failed = len(failed_ops)
    correct = all(op["status"] != "incorrect" for op in res["ops"])
    e2e, tail_info = end_to_end(res, setup_s)
    if args.trace:
        metrics = per_layer(res)
        metrics["ops_failed"] = (failed / attempted, "ratio")
    else:
        metrics = e2e
    record = {
        "provenance": provenance(args),
        "correct": correct, "attempted": attempted, "failed": failed,
        "end_to_end": {k: v for k, (v, _) in e2e.items()}, **tail_info,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "runs": res["runs"], "traced_passes": res["traced_passes"],
        "failed_ops": [{"id": op["id"], "status": op["status"], "problem": op["problem"],
                        "exception": op["exception"]} for op in failed_ops],
        "ops": [{k: op[k] for k in ("id", "kind", "status", "work", "digest", "visits", "seconds",
                                    "traced_seconds")}
                for op in res["ops"]],
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    for op in failed_ops:
        print(f"{op['status']}: {op['id']}: {op['problem']}")
    print(f"{len(ops)} ops, {res['runs']} runs ({res['traced_passes']} traced passes); op_s_tail is "
          f"p{tail_info['op_s_tail_percentile']:.4g} of {tail_info['op_s_samples']} per-op medians; "
          f"record in {results / stem}.json")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
