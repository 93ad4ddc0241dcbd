"""Every name a module's top-level imports bind is used in that module, in
`src/`, `bench/` and `perfbench/` (which this only reads)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    str(p.relative_to(ROOT)) for d in ("src", "bench", "perfbench") for p in (ROOT / d).rglob("*.py")
)


def unused_imports(tree: ast.Module) -> list[str]:
    """The names `tree`'s top-level imports bind that nothing in it refers to;
    `from __future__` imports are exempt."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_every_top_level_import_is_used(module):
    assert unused_imports(ast.parse((ROOT / module).read_text())) == []


def test_the_unused_import_check_finds_each_kind():
    source = (
        "from __future__ import annotations\nimport os, sys\nimport os.path\n"
        "import json as j\nfrom math import pi, tau as t\nfrom re import *\n"
        "print(sys.argv, os.sep, tau)\ndef f():\n    import random\n"
    )
    assert unused_imports(ast.parse(source)) == ["j", "pi", "t"]
