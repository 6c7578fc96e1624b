"""The benchmark's expectations of the program, checked in the test suite.

perfbench/layertrace.py looks each traced function up by name, so renaming
or deleting one would break the traced benchmark runs.  The file is read and
run in memory, so no bytecode cache is written next to it.  Every fixed op
of the three workloads must print, byte for byte, what its digest in
perfbench/digests.json was frozen from; the ops are built by perfbench's own
run.prepare, and nothing is written under perfbench/.
"""

import hashlib
import importlib
import json
import runpy
import sys
from pathlib import Path

import pytest

from vfcr.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERTRACE = PERFBENCH / "layertrace.py"


def test_layertrace_names_resolve():
    ns = runpy.run_path(str(LAYERTRACE))
    mods = {m: importlib.import_module(f"vfcr.{m}") for m in ns["LAYERS"]}
    missing = [
        f"{mod}.{fname}"
        for mod, fname, _ in ns["TRACED"]
        if not callable(getattr(mods[mod], fname, None))
    ]
    assert not missing


# (workload, op id) for every op with the sha256 of its stdout frozen in digests.json
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())
FIXED_OPS = sorted((workload, op) for workload, ops in DIGESTS.items() for op in ops)


@pytest.fixture(scope="module")
def prepared_ops(tmp_path_factory):
    """{workload: {op id: op}}, with each op's spec files written to a temporary directory."""
    saved = sys.path[:], sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # run.py imports workloads and oracle from perfbench/
    try:
        run = runpy.run_path(str(PERFBENCH / "run.py"))
        return {w: {op["id"]: op for op in run["prepare"](w, 0, tmp_path_factory.mktemp(w))[1]}
                for w in DIGESTS}
    finally:
        sys.path[:], sys.dont_write_bytecode = saved


@pytest.mark.parametrize("workload, op_id", FIXED_OPS)
def test_fixed_op_stdout_matches_frozen_digest(capsysbinary, prepared_ops, workload, op_id):
    op = prepared_ops[workload][op_id]
    assert op["fixed"]
    assert main(op["argv"]) == op["rc"]
    out = capsysbinary.readouterr().out
    assert hashlib.sha256(out).hexdigest() == DIGESTS[workload][op_id]
