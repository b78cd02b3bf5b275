"""The package imports nothing beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

import minface

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "minface"}


def _imported_roots(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_import_is_stdlib_numpy_or_the_package():
    sources = sorted(Path(minface.__file__).parent.glob("*.py"))
    assert sources
    foreign = {(p.name, root) for p in sources for root in _imported_roots(p)
               if root not in ALLOWED}
    assert not foreign
