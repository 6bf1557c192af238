"""The public surface as documented: ``udfgrid.__all__`` and the README."""

import re
from pathlib import Path

import udfgrid

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    """The first ```python block under the "Library quick start" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README quick start has no python block"
    return match.group(1)


def test_every_exported_name_resolves():
    missing = [name for name in udfgrid.__all__ if not hasattr(udfgrid, name)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from udfgrid import *", namespace)
    assert set(udfgrid.__all__) <= set(namespace)


def test_readme_quick_start_runs(capsys):
    exec(compile(_quick_start(), str(README), "exec"), {"__name__": "__readme__"})
    assert re.fullmatch(r"roundtrip CD: \d+\.\d{6} m\n", capsys.readouterr().out)
