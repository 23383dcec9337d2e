import importlib
import re
from pathlib import Path

import pytest

import psp4nse

README = Path(__file__).resolve().parents[1] / "README.md"

MODULES = (
    "psp4nse",
    "psp4nse.arith",
    "psp4nse.characterize",
    "psp4nse.cli",
    "psp4nse.families",
    "psp4nse.gf2",
    "psp4nse.oracle",
    "psp4nse.primegraph",
    "psp4nse.sympl",
)


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(sp44):
    # sp44 enumerates Sp4(4) into the per-process cache that sp4_group reuses
    code = _library_example()
    exec(compile(code, str(README), "exec"), {})
    imported = re.search(r"^from psp4nse import (.+)$", code, re.M).group(1)
    assert sorted(psp4nse.__all__) == sorted(n.strip() for n in imported.split(","))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
