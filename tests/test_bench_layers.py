"""bench/layers.py at tiny counts: its output's shape."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def test_layer_bench_writes_medians_and_quartiles_per_envelope_call(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    out = tmp_path / "BENCH_layers.json"
    bench.main(["--runs", "2", "--calls", "2", "--out", str(out)])
    result = json.loads(out.read_text())
    assert (result["runs"], result["calls"], result["plaintext_len"]) == (2, 2, 140)
    assert set(result["envelope"]) == {"seal", "open_envelope"}
    for side in result["envelope"].values():
        assert len(side["runs_us"]) == 2 and all(t > 0 for t in side["runs_us"])
        assert side["q1_us"] <= side["median_us"] <= side["q3_us"]
