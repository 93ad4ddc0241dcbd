"""bench/layers.py at tiny counts: its output's shape."""

import importlib.util
import json
import resource
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


def test_layer_bench_writes_the_threshold_per_record_on_a_hashed_batch(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    out = tmp_path / "BENCH_layers.json"
    result = bench.main(["--runs", "2", "--calls", "2", "--out", str(out)])
    assert json.loads(out.read_text()) == result
    assert list(result) == ["machine", "runs", "calls", "plaintext_len", "seed", "envelope",
                            "threshold", "stash", "import"]
    threshold = result["threshold"]
    assert list(threshold) == ["apply_threshold", "count_crowds", "records", "kept"]
    for case in ("apply_threshold", "count_crowds"):
        side = threshold[case]
        assert len(side["runs_us"]) == 2 and all(t > 0 for t in side["runs_us"])
        assert side["q1_us"] <= side["median_us"] <= side["q3_us"]
    # a Zipf(1.1) batch as large as its vocabulary keeps about half its records at T = 20
    assert threshold["records"] == bench.THRESHOLD_RECORDS == 4000
    assert 0 < threshold["kept"] < threshold["records"]


def test_layer_bench_writes_each_stash_shuffle_phase_per_item_at_two_sizes(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    result = bench.main(["--runs", "2", "--calls", "2", "--out", str(tmp_path / "out.json")])
    stash = result["stash"]
    assert list(stash) == ["perfbench", "params_for_100000"]
    # the `stash` benchmark workload's parameters, and the pipeline's at 10^5
    perfbench, large = stash["perfbench"], stash["params_for_100000"]
    assert [perfbench[k] for k in ("n_items", "num_buckets", "chunk_cap", "stash_cap", "window",
                                   "item_len", "calls")] == [4000, 20, 30, 1200, 4, 150, 25]
    assert (large["n_items"], large["item_len"], large["calls"]) == (100_000, 150, 1)
    for rows in stash.values():
        for row in ("distribution", "drain", "compression", "stash_shuffle"):
            side = rows[row]
            assert len(side["runs_us"]) == 2 and all(t > 0 for t in side["runs_us"])
            assert side["q1_us"] <= side["median_us"] <= side["q3_us"]
        # the phases are parts of the whole call
        for run in range(2):
            phases = sum(rows[row]["runs_us"][run] for row in bench.STASH_PHASES)
            assert phases < rows["stash_shuffle"]["runs_us"][run]
    # the store is swapped back once the timed calls are done
    from anonpipe import stash_shuffle
    assert stash_shuffle.Trace.__name__ == "Trace"


def test_layer_bench_writes_the_wall_time_and_peak_memory_of_importing_the_cli(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    row = bench.main(["--runs", "2", "--calls", "2", "--out", str(tmp_path / "out.json")])["import"]
    assert list(row) == ["code", "wall", "max_rss"]
    assert row["code"] == "import anonpipe.cli"
    for side, unit in ((row["wall"], "us"), (row["max_rss"], "mib")):
        assert len(side[f"runs_{unit}"]) == 2 and all(v > 0 for v in side[f"runs_{unit}"])
        assert side[f"q1_{unit}"] <= side[f"median_{unit}"] <= side[f"q3_{unit}"]
    # the child's own peak, not the peak of this process, which holds the shuffles' inputs
    own_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert all(mib < own_mib for mib in row["max_rss"]["runs_mib"])
