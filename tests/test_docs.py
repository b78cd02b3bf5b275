"""The README's module table matches the package."""

import re
from pathlib import Path

import minface

README = Path(__file__).parents[1] / "README.md"


def test_module_table_lists_exactly_the_modules():
    text = README.read_text(encoding="utf-8")
    listed = re.findall(r"^\| `minface\.(\w+)` ", text, re.M)
    modules = {p.stem for p in Path(minface.__file__).parent.glob("*.py")
               if p.stem != "__init__"}
    assert sorted(listed) == sorted(modules)


def test_every_public_name_resolves():
    missing = [name for name in minface.__all__ if not hasattr(minface, name)]
    assert not missing
