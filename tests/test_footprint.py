"""What a pipeline process holds: no numpy, and no thread but its own."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# a fresh interpreter: the CLI's imports, then a run whose encode stage splits
# its records over a forked worker
RUN = """
import json, os, sys, tempfile
import anonpipe.cli
from anonpipe import parallel
from anonpipe.harness import ScenarioConfig, run_scenario

parallel.usable_cpus = lambda: 2  # a worker is forked on a 1-CPU host too
config = ScenarioConfig(
    name="tiny", vocab_size=20, n_samples=64, seed=3, crowd_mode="hashed", threshold_t=2,
)
with tempfile.TemporaryDirectory() as workspace:
    run_scenario(config, workspace)
tasks = "/proc/self/task"
print(json.dumps({
    "workers": len(parallel._pool.workers),
    "numpy": "numpy" in sys.modules,
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
}))
"""


def test_a_pipeline_process_loads_no_numpy_and_runs_one_thread():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", RUN], env=env, capture_output=True, text=True, timeout=120,
        check=True,
    )
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen["workers"] == 1  # map_records forked
    assert not seen["numpy"]
    if seen["threads"] is not None:
        assert seen["threads"] == 1


def test_no_module_of_the_program_imports_numpy():
    found = []
    for path in sorted((SRC / "anonpipe").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "numpy"]
    assert found == []
