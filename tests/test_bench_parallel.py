"""bench/parallel.py at tiny counts: its output's shape, and that it leaves
the map's CPU count and split rule as it found them."""

import importlib.util
import json
import sys
from pathlib import Path

from anonpipe import parallel

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "parallel.py"


def test_parallel_bench_writes_the_cost_over_the_loop_per_case(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_parallel", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # its no-op is sent by name
    spec.loader.exec_module(bench)
    saved = parallel.usable_cpus, parallel.MIN_PER_WORKER
    out = tmp_path / "BENCH_parallel.json"
    bench.main(["--runs", "2", "--pass-items", "1", "--out", str(out)])
    assert (parallel.usable_cpus, parallel.MIN_PER_WORKER) == saved
    result = json.loads(out.read_text())
    assert result["runs"] == 2 and result["sizes"] == list(bench.SIZES)
    assert set(result["cases"]) == set(result["break_even_records_at_2_cpus"])
    assert set(result["cases"]) == {"noop", "open_envelope"}
    for by_size in result["cases"].values():
        assert set(by_size) == {str(n) for n in bench.SIZES}
        for by_cpus in by_size.values():
            assert set(by_cpus) == {"cpus1", "cpus2"}
            for case in by_cpus.values():
                for side in ("map", "loop"):
                    assert len(case[side]["runs_us"]) == 2
                    assert all(t > 0 for t in case[side]["runs_us"])
                over = case["over_loop"]
                assert over["runs_us"] == [
                    m - loop for m, loop in zip(case["map"]["runs_us"], case["loop"]["runs_us"])
                ]
                assert over["q1_us"] <= over["median_us"] <= over["q3_us"]
