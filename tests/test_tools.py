"""The stdlib scripts under tools/."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_line_kinds_add_up_to_each_file(src_lines, capsys):
    assert src_lines.main(["src_lines.py"]) == 0
    report = json.loads(capsys.readouterr().out)
    sources = sorted((ROOT / "src").rglob("*.py"))
    assert sorted(report["modules"]) == [str(p.relative_to(ROOT / "src")) for p in sources]
    total = 0
    for source in sources:
        lines = len(source.read_text(encoding="utf-8").splitlines())
        counts = report["modules"][str(source.relative_to(ROOT / "src"))]
        assert sum(counts[kind] for kind in src_lines.KINDS) == lines
        total += lines
    assert report["total"]["lines"] == total


def test_line_kinds_of_a_sample(src_lines):
    text = (
        '"""Module doc.\n\nmore."""\n\n'
        "import os  # not a comment line\n\n# a comment\n"
        'def f():\n    """Doc."""\n    return os\n'
    )
    assert src_lines.count_lines(text) == {"code": 3, "docstring": 4, "comment": 1, "blank": 2}
