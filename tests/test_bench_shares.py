"""bench/shares.py at tiny counts: its output's shape."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "shares.py"


def test_share_bench_writes_medians_and_quartiles_per_case(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_shares", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    out = tmp_path / "BENCH_shares.json"
    bench.main(["--runs", "2", "--calls", "2", "--payloads", "60", "--out", str(out)])
    result = json.loads(out.read_text())
    assert (result["runs"], result["calls"], result["payloads"]) == (2, 2, 60)
    assert set(result["encode"]) == set(result["reconstruct"]) == {"t5", "t20", "t50"}
    decode = result["decode"]["t20"]
    timings = [
        *result["encode"].values(), *result["reconstruct"].values(), decode["per_payload"]
    ]
    for side in timings:
        assert len(side["runs_us"]) == 2 and all(t > 0 for t in side["runs_us"])
        assert side["q1_us"] <= side["median_us"] <= side["q3_us"]
    assert decode["decoded_records"] <= 60
    assert decode["decoded_groups"] <= decode["decoded_records"] // 20
    assert decode["undecoded_groups"] >= 1
