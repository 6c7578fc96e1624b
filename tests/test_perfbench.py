"""The benchmark's layer tracer finds every function it times.

perfbench/layertrace.py looks each traced function up by name, so renaming
or deleting one would break the traced benchmark runs; this catches it in
the test suite.  The file is read and run in memory, so no bytecode cache
is written next to it.
"""

import importlib
import runpy
from pathlib import Path

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
