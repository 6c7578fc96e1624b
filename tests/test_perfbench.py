"""The benchmark's expectations of the program, checked in the test suite.

perfbench/layertrace.py looks each traced function up by name, so renaming
or deleting one would break the traced benchmark runs.  The file is read and
run in memory, so no bytecode cache is written next to it.  The fixed
enumerate ops of the `design` workload must print, byte for byte, what their
digests in perfbench/digests.json were frozen from.
"""

import hashlib
import importlib
import json
import runpy
from pathlib import Path

import pytest

from vfcr.cli import main

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def test_layertrace_names_resolve():
    ns = runpy.run_path(str(LAYERTRACE))
    mods = {m: importlib.import_module(f"vfcr.{m}") for m in ns["LAYERS"]}
    missing = [
        f"{mod}.{fname}"
        for mod, fname, _ in ns["TRACED"]
        if not callable(getattr(mods[mod], fname, None))
    ]
    assert not missing


# The enumerate ops of the `design` workload, each with the sha256 of its
# stdout frozen in perfbench/digests.json; an op's id is "enum " + its argv tail.
DESIGN_DIGESTS = json.loads((LAYERTRACE.parent / "digests.json").read_text())["design"]
ENUMERATE_OPS = sorted(op for op in DESIGN_DIGESTS if op.startswith("enum "))


@pytest.mark.parametrize("op", ENUMERATE_OPS)
def test_design_enumerate_stdout_matches_frozen_digest(capsys, op):
    assert main(["enumerate"] + op.split()[1:]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == DESIGN_DIGESTS[op]
