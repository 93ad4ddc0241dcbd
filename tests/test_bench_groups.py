"""bench/groups.py at tiny counts: its output's shape, and that it leaves
the process's power function as it found it."""

import importlib.util
import json
from pathlib import Path

from anonpipe.crypto import modexp
from anonpipe.crypto.group import GROUPS

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "groups.py"


def test_group_bench_writes_medians_and_quartiles_per_path(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_groups", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    loaded = modexp._power
    out = tmp_path / "BENCH_groups.json"
    bench.main(["--runs", "2", "--calls", "2", "--out", str(out)])
    assert modexp._power == loaded
    result = json.loads(out.read_text())
    assert result["runs"] == 2 and result["calls"] == 2 and result["native"]
    assert set(result["groups"]) == set(GROUPS)
    for ops in result["groups"].values():
        assert set(ops) == {"is_element", "exp", "blind", "unblind_decrypt"}
        for sides in ops.values():
            for path in ("openssl", "fallback"):
                side = sides[path]
                assert len(side["runs_us"]) == 2 and all(t > 0 for t in side["runs_us"])
                assert side["q1_us"] <= side["median_us"] <= side["q3_us"]
            assert sides["fallback_over_openssl"] > 0
