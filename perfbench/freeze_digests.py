"""Rewrite digests.json: the sha256 of the stdout of every seed-independent op.

    python3 perfbench/freeze_digests.py

Runs one pass of each workload and keeps the digest of each fixed op whose
output passed its own check; run it only on a commit whose outputs are
known good (the digests in the repository were taken at the seed commit).
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main():
    frozen = {}
    work = run.ROOT / ".perfbench" / "freeze"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in sorted(workloads.OP_LISTS):
            ops_path, ops = run.prepare(name, 0, work)
            for op in ops:
                op["digest"] = None  # take the digests afresh
            ops_path.write_text(json.dumps(ops))
            res = run.run_child(ops_path, work / "out.json", work / "rows.csv", 0, 0, timeout=600)
            frozen[name] = {op["id"]: r["digest"] for op, r in zip(ops, res["ops"])
                            if op["fixed"] and r["status"] == "ok"}
            bad = [r["id"] for op, r in zip(ops, res["ops"]) if op["fixed"] and r["status"] == "incorrect"]
            if bad:
                print(f"error: {name}: outputs fail their checks: {bad}", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.HERE / "digests.json").write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    print({k: len(v) for k, v in frozen.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
