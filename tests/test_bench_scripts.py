"""The bench scripts leave what they share to bench/benchstats.py: none of
them parses options, writes the result file, times a pass or alternates
sides on its own."""

import ast
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SHARED_MODULES = {"argparse", "platform", "json"}
SHARED_DEFS = {"per_call_us", "summary"}


def scaffolding(tree: ast.AST) -> list[str]:
    """What in `tree` belongs in benchstats.py, one line each."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names if a.name in SHARED_MODULES]
        elif isinstance(node, ast.ImportFrom):
            if node.module in SHARED_MODULES:
                found.append(f"from {node.module} import")
            if node.module == "time" and any(a.name == "perf_counter" for a in node.names):
                found.append("from time import perf_counter")
        elif isinstance(node, ast.Attribute) and node.attr == "perf_counter":
            found.append("time.perf_counter")
        elif isinstance(node, ast.FunctionDef) and node.name in SHARED_DEFS:
            found.append(f"def {node.name}")
        elif (
            isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
            and isinstance(node.right, ast.Constant) and node.right.value == 2
        ):
            found.append(f"% 2 on line {node.lineno}")
    return found


@pytest.mark.parametrize(
    "script", sorted(p.name for p in BENCH.glob("*.py") if p.name != "benchstats.py")
)
def test_bench_script_leaves_the_shared_scaffolding_to_benchstats(script):
    assert scaffolding(ast.parse((BENCH / script).read_text())) == []


def test_the_scaffolding_check_finds_each_kind():
    source = (
        "import argparse, os\nimport json\nfrom platform import machine\n"
        "from time import perf_counter\nimport time\nt = time.perf_counter()\n"
        "def per_call_us(): pass\ndef summary(): pass\nodd = run % 2\n"
    )
    assert sorted(scaffolding(ast.parse(source))) == sorted([
        "import argparse", "import json", "from platform import", "from time import perf_counter",
        "time.perf_counter", "def per_call_us", "def summary", "% 2 on line 9",
    ])
