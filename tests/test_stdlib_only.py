"""The package imports nothing outside the standard library, and the CLI little of it.

numpy and other packages may be installed next to it, so an accidental
import would pass every other test.
"""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vfcr"


def test_package_imports_only_the_standard_library():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    foreign = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {m}" for m in modules
                        if m.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # each one-shot CLI call pays for its imports; dataclasses alone brings inspect, ast and dis
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import vfcr.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out == "[]\n"
