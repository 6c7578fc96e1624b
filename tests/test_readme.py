"""README's library quick start runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_prints_q_tilde_order_and_weights():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    blocks = re.findall(r"^```python\n(.*?)^```", section.split("\n## ", 1)[0],
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert out.getvalue() == "61 60 (3, 5, 1, 2)\n"
