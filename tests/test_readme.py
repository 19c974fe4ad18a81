"""The README's code snippets run as printed."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _snippet_after(marker: str) -> str:
    """The first ```python block after ``marker`` in the README."""
    text = README.read_text()
    match = re.search(re.escape(marker) + r".*?```python\n(.*?)```", text, re.DOTALL)
    assert match is not None, marker
    return match.group(1)


def test_single_detection_snippet_detects_the_watermark(capsys):
    namespace: dict = {}
    exec(_snippet_after("Single detection, as in the paper:"), namespace)
    assert namespace["result"].detected
    assert capsys.readouterr().out.strip()
