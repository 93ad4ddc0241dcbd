import dataclasses
import json
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from anonpipe import formats
from anonpipe.cli import main as cli_main
from anonpipe.harness import (
    DEFAULT_GROUP,
    BaselineReport,
    PipelineKeys,
    RngTape,
    ScenarioConfig,
    client_rating_tuples,
    derive_keys,
    derived_pad_to,
    encode_corpus,
    encode_words,
    generate_zipf_corpus,
    item_word,
    load_corpus,
    local_dp_baseline,
    partitioned_baseline,
    run_perms_demo,
    run_scenario,
    save_corpus,
    shuffle_stage,
)


# ---------------------------------------------------------------------------
# corpora


def test_zipf_corpus_is_deterministic():
    a = generate_zipf_corpus(1000, 1.1, 5000, seed=7)
    b = generate_zipf_corpus(1000, 1.1, 5000, seed=7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, generate_zipf_corpus(1000, 1.1, 5000, seed=8))


def test_zipf_corpus_range_and_skew():
    corpus = generate_zipf_corpus(500, 1.2, 50_000, seed=0)
    assert corpus.min() >= 1 and corpus.max() <= 500
    counts = Counter(corpus.tolist())
    # item 1 should be drawn roughly 10^1.2 times as often as item 10
    ratio = counts[1] / counts[10]
    assert 0.6 * 10**1.2 < ratio < 1.5 * 10**1.2


def test_corpus_file_roundtrip(tmp_path):
    corpus = generate_zipf_corpus(50, 1.0, 200, seed=1)
    path = tmp_path / "corpus.txt"
    save_corpus(path, corpus)
    assert np.array_equal(load_corpus(path), corpus)


def test_rng_tape_streams_are_stable_and_independent():
    tape = RngTape(42)
    assert tape.stream("a").random() == RngTape(42).stream("a").random()
    assert tape.stream("a").random() != tape.stream("b").random()


# ---------------------------------------------------------------------------
# configuration


def test_config_text_roundtrip():
    cfg = ScenarioConfig(
        name="x", vocab_size=5000, zipf_exponent=1.3, n_samples=777, seed=5,
        crowd_mode="blinded", secret_share_t=20, threshold_t=25, drop_mean=10,
        sigma=2, policy_mode="both", pad_to=0, group_id="test-256",
    )
    assert ScenarioConfig.from_text(cfg.to_text()) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        ScenarioConfig.from_text("budget = 12\n")


@pytest.mark.parametrize(
    "key, value, allowed",
    [
        ("group_id", "modp-3072", "modp-2048, test-256"),
        ("crowd_mode", "hashd", "plain, hashed, fixed, blinded"),
        ("policy_mode", "strict", "naive, randomized_threshold, noisy_drop, both"),
    ],
)
def test_config_rejects_unknown_values(key, value, allowed):
    with pytest.raises(ValueError, match=allowed):
        ScenarioConfig.from_text(f"{key} = {value}\n")


def test_blinded_mode_implies_two_shufflers():
    assert ScenarioConfig(crowd_mode="blinded").two_shufflers
    assert not ScenarioConfig(crowd_mode="hashed").two_shufflers


# ---------------------------------------------------------------------------
# scenarios


def _small_config(**kw):
    base = dict(
        name="small", vocab_size=300, zipf_exponent=1.1, n_samples=2000,
        seed=11, crowd_mode="hashed", threshold_t=10, group_id="test-256",
    )
    base.update(kw)
    return ScenarioConfig(**base)


def test_naive_scenario_recovers_exactly_above_threshold(tmp_path):
    cfg = _small_config()
    report = run_scenario(cfg, tmp_path)
    corpus = load_corpus(tmp_path / "corpus.txt")
    counts = Counter(corpus.tolist())
    expected = {item_word(k) for k, c in counts.items() if c > cfg.threshold_t}
    assert report.recovered_values == expected
    assert (tmp_path / "selectivity.json").exists()


def test_recovery_shrinks_as_threshold_rises(tmp_path):
    sizes = []
    for t in (1, 5, 20, 100):
        report = run_scenario(_small_config(threshold_t=t), tmp_path / f"t{t}")
        sizes.append(report.recovered_unique)
    assert sizes == sorted(sizes, reverse=True)
    assert sizes[0] > sizes[-1]


def test_scenario_artifacts_are_reproducible(tmp_path):
    cfg = _small_config(secret_share_t=5, drop_mean=3, sigma=1, policy_mode="both")
    run_scenario(cfg, tmp_path / "a")
    run_scenario(cfg, tmp_path / "b")
    for name in ("corpus.txt", "reports.bin", "shuffled.bin", "histogram.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_blinded_scenario_matches_hashed_scenario(tmp_path):
    cfg_plain = _small_config(secret_share_t=5, drop_mean=3, sigma=1, policy_mode="both")
    cfg_blind = _small_config(
        secret_share_t=5, drop_mean=3, sigma=1, policy_mode="both", crowd_mode="blinded"
    )
    r1 = run_scenario(cfg_plain, tmp_path / "plain")
    r2 = run_scenario(cfg_blind, tmp_path / "blind")
    assert r1.recovered_values == r2.recovered_values


def test_secret_share_scenario_hides_below_t(tmp_path):
    # threshold passes everything; only share groups of >= t decode
    cfg = _small_config(secret_share_t=8, threshold_t=1)
    report = run_scenario(cfg, tmp_path)
    corpus = load_corpus(tmp_path / "corpus.txt")
    counts = Counter(corpus.tolist())
    expected = {item_word(k) for k, c in counts.items() if c >= 8 and c > 1}
    assert report.recovered_values == expected


def test_blinded_scenario_in_modp_2048_matches_test_group(tmp_path):
    cfg = _small_config(
        vocab_size=3, n_samples=12, threshold_t=2, crowd_mode="blinded", group_id="modp-2048"
    )
    run_scenario(cfg, tmp_path / "modp")
    run_scenario(dataclasses.replace(cfg, group_id="test-256"), tmp_path / "test")
    hist = (tmp_path / "modp" / "histogram.csv").read_text()
    assert hist == (tmp_path / "test" / "histogram.csv").read_text()
    assert hist.count("\n") > 1  # a header and at least one released value


def _hostile_reports(cfg, keys):
    """An honest hashed batch and one validly sealed report, in the crowd
    of the most common word, whose inner envelope has another length: it
    was padded 16 bytes longer, and it is just as long as the honest
    reports but its clear crowd-ID kind says plain."""
    tape = RngTape(cfg.seed)
    corpus = generate_zipf_corpus(cfg.vocab_size, cfg.zipf_exponent, cfg.n_samples, cfg.seed)
    blobs = encode_corpus(cfg, corpus, tape, keys.analyzer.public_bytes, keys.shuffler.public_bytes)

    def one(pad_to):
        return encode_words(
            dataclasses.replace(cfg, pad_to=pad_to), [item_word(1)], tape,
            keys.analyzer.public_bytes, keys.shuffler.public_bytes,
        )[0]

    pad_to = derived_pad_to(cfg)
    longer = one(pad_to + 16)
    relabelled = formats.WireReport(
        formats.KIND_PLAIN, formats.encode_plain_crowd(b"w1"),
        formats.parse_report(one(pad_to - 16)).outer,
    ).to_bytes()
    assert len(relabelled) == len(blobs[0]) != len(longer)
    return blobs, {"longer": longer, "relabelled": relabelled}


@pytest.mark.parametrize("which", ["longer", "relabelled"])
def test_report_of_another_length_is_counted_not_fatal(which):
    cfg = _small_config(n_samples=200, vocab_size=40, threshold_t=5, pad_to=32)
    keys = derive_keys(cfg.group_id, RngTape(cfg.seed))
    blobs, hostile = _hostile_reports(cfg, keys)
    honest = shuffle_stage(cfg, blobs, RngTape(cfg.seed), keys.shuffler, keys.shuffler2)
    mixed = blobs[:100] + [hostile[which]] + blobs[100:]
    out = shuffle_stage(cfg, mixed, RngTape(cfg.seed), keys.shuffler, keys.shuffler2)
    # the one report the intake rejected is the only one missing from its count
    assert len(mixed) - out.stats["input_count"] == 1
    assert out.records == honest.records


def test_cli_shuffle_counts_report_of_another_inner_length(tmp_path):
    cfg = _small_config(n_samples=200, vocab_size=40, threshold_t=5, pad_to=32)
    keys = derive_keys(cfg.group_id, RngTape(cfg.seed))
    blobs, hostile = _hostile_reports(cfg, keys)
    (tmp_path / "scenario.cfg").write_text(cfg.to_text())
    (tmp_path / "keys.json").write_text(keys.to_json())
    outputs = []
    for name, batch in (("honest", blobs), ("mixed", [hostile["relabelled"]] + blobs)):
        formats.write_batch(tmp_path / f"{name}.bin", batch)
        res = _cli_ok(["shuffle", "--config", str(tmp_path / "scenario.cfg"),
                       "--keys", str(tmp_path / "keys.json"), "--in", str(tmp_path / f"{name}.bin"),
                       "--out", str(tmp_path / f"{name}-out.bin")])
        outputs.append((res.output, (tmp_path / f"{name}-out.bin").read_bytes()))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[1][0].splitlines()[-1])["input_count"] == len(blobs)


# ---------------------------------------------------------------------------
# baselines and demos


def test_local_dp_baseline_finds_heavy_hitters_only():
    rng = random.Random(3)
    corpus = generate_zipf_corpus(2000, 1.1, 20_000, seed=3)
    report = local_dp_baseline(corpus, 2000, epsilon=5.0, rng=rng)
    truth = Counter(corpus.tolist())
    assert isinstance(report, BaselineReport)
    assert 0 < report.recovered_unique < len(truth)
    # the recovered set should be dominated by genuinely frequent items
    frequent = sum(1 for v in report.recovered_values if truth[v] >= 20)
    assert frequent / report.recovered_unique > 0.8


def test_local_dp_baseline_is_weak_at_moderate_epsilon():
    rng = random.Random(3)
    corpus = generate_zipf_corpus(2000, 1.1, 20_000, seed=3)
    report = local_dp_baseline(corpus, 2000, epsilon=2.0, rng=rng)
    assert report.recovered_unique <= 3  # the noise floor hides almost everything


def test_partitioned_baseline_beats_flat_baseline():
    corpus = generate_zipf_corpus(2000, 1.1, 20_000, seed=4)
    flat = local_dp_baseline(corpus, 2000, epsilon=2.0, rng=random.Random(5))
    parts = partitioned_baseline(corpus, 2000, 16, epsilon=2.0, rng=random.Random(5))
    assert parts.recovered_unique > flat.recovered_unique


def test_partitioned_baseline_requires_power_of_two():
    with pytest.raises(ValueError):
        partitioned_baseline(np.array([1, 2]), 10, 3, 2.0, random.Random(0))


def test_perms_demo_recovers_common_tuples():
    report = run_perms_demo(n_samples=6000, num_pages=50, threshold_t=15, seed=2)
    assert report.recovered_unique > 0
    assert report.recovery_ratio < 1.0
    assert report.stage_counts["surviving"] <= report.stage_counts["reports"]


def test_client_rating_tuples_canonical():
    rng = random.Random(5)
    tuples = client_rating_tuples({3: 4, 1: 5, 7: 2}, rng)
    assert len(tuples) == 6  # C(3,2) pairs + 3 self pairs
    assert all(i <= j for i, _, j, _ in tuples)
    assert (1, 5, 3, 4) in tuples and (1, 5, 1, 5) in tuples


def test_client_rating_tuples_cap_and_replacement():
    rng = random.Random(6)
    tuples = client_rating_tuples({1: 5, 2: 4, 3: 3, 4: 2}, rng, cap=4)
    assert len(tuples) == 4
    replaced = client_rating_tuples(
        {1: 5, 2: 4}, random.Random(7), replace_frac=1.0, num_items=1000
    )
    assert all(i <= j for i, _, j, _ in replaced)


# ---------------------------------------------------------------------------
# CLI


def _cli_ok(args):
    res = CliRunner().invoke(cli_main, args, catch_exceptions=False)
    assert res.exit_code == 0, res.output
    return res


@pytest.mark.parametrize(
    "extra",
    [
        pytest.param({}, id="hashed"),
        pytest.param(
            dict(crowd_mode="blinded", drop_mean=2, sigma=1, policy_mode="both"),
            id="blinded",
        ),
    ],
)
def test_cli_stagewise_pipeline_matches_run(tmp_path, extra):
    cfg = _small_config(n_samples=800, vocab_size=120, threshold_t=5, **extra)
    cfg_path, keys_path = str(tmp_path / "scenario.cfg"), str(tmp_path / "keys.json")
    (tmp_path / "scenario.cfg").write_text(cfg.to_text())

    _cli_ok(["keygen", "--workspace", str(tmp_path), "--seed", str(cfg.seed),
             "--group", "test-256"])
    _cli_ok(["generate", "--vocab-size", "120", "--exponent", "1.1", "--n-samples", "800",
             "--seed", str(cfg.seed), "--out", str(tmp_path / "corpus.txt")])
    _cli_ok(["encode", "--config", cfg_path, "--corpus", str(tmp_path / "corpus.txt"),
             "--keys", keys_path, "--out", str(tmp_path / "reports.bin")])
    if cfg.two_shufflers:
        _cli_ok(["shuffle", "--config", cfg_path, "--keys", keys_path,
                 "--in", str(tmp_path / "reports.bin"), "--out", str(tmp_path / "blinded.bin")])
        shuffle_res = _cli_ok(["shuffle2", "--config", cfg_path, "--keys", keys_path,
                               "--in", str(tmp_path / "blinded.bin"),
                               "--out", str(tmp_path / "shuffled.bin")])
    else:
        shuffle_res = _cli_ok(["shuffle", "--config", cfg_path, "--keys", keys_path,
                               "--in", str(tmp_path / "reports.bin"),
                               "--out", str(tmp_path / "shuffled.bin")])
    selectivity = shuffle_res.output.strip().splitlines()[-1]
    assert set(json.loads(selectivity)) == {"epoch_id", "input_count", "surviving_count"}
    res = _cli_ok(["analyze", "--config", cfg_path, "--keys", keys_path,
                   "--in", str(tmp_path / "shuffled.bin"), "--out-dir", str(tmp_path / "out")])
    assert "unique values:" in res.output

    run_res = _cli_ok(["run", "--config", cfg_path, "--workspace", str(tmp_path / "full")])
    assert "recovered unique" in run_res.output
    # stage-wise CLI and one-shot run write the same artifacts
    full = tmp_path / "full"
    assert (tmp_path / "shuffled.bin").read_bytes() == (full / "shuffled.bin").read_bytes()
    assert (tmp_path / "out" / "histogram.csv").read_bytes() == (
        full / "histogram.csv"
    ).read_bytes()
    assert selectivity + "\n" == (full / "selectivity.json").read_text()


def test_cli_keygen_unseeded_keys_differ_and_seeded_keys_match_run(tmp_path):
    for name in ("a", "b"):
        _cli_ok(["keygen", "--workspace", str(tmp_path / name)])
    assert (tmp_path / "a" / "keys.json").read_text() != (tmp_path / "b" / "keys.json").read_text()
    a = json.loads((tmp_path / "a" / "keys.json").read_text())
    b = json.loads((tmp_path / "b" / "keys.json").read_text())
    assert all(a[k] != b[k] for k in a if k.endswith(("_secret", "_alpha")))

    _cli_ok(["keygen", "--workspace", str(tmp_path / "s"), "--seed", "7"])
    seeded = PipelineKeys.from_json((tmp_path / "s" / "keys.json").read_text())
    assert seeded == derive_keys(DEFAULT_GROUP, RngTape(7))


def test_keys_json_with_mismatched_transport_halves_is_rejected(tmp_path):
    _cli_ok(["keygen", "--workspace", str(tmp_path)])
    text = (tmp_path / "keys.json").read_text()
    assert PipelineKeys.from_json(text).to_json() + "\n" == text
    keys = json.loads(text)
    keys["analyzer_public"], keys["shuffler1_public"] = (
        keys["shuffler1_public"], keys["analyzer_public"]
    )
    with pytest.raises(ValueError):
        PipelineKeys.from_json(json.dumps(keys))


def test_cli_keygen_offers_only_known_groups(tmp_path):
    res = CliRunner().invoke(cli_main, ["keygen", "--workspace", str(tmp_path),
                                        "--group", "modp-3072"])
    assert res.exit_code == 2 and "modp-3072" in res.output
    assert not (tmp_path / "keys.json").exists()
    _cli_ok(["keygen", "--workspace", str(tmp_path), "--group", "modp-2048", "--seed", "1"])
    loaded = PipelineKeys.from_json((tmp_path / "keys.json").read_text())
    assert loaded == derive_keys("modp-2048", RngTape(1))


@pytest.mark.parametrize(
    "key, value", [("group_id", "modp-3072"), ("crowd_mode", "hashd"), ("policy_mode", "strict")]
)
def test_cli_unknown_config_value_is_a_usage_error(tmp_path, key, value):
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(_small_config(n_samples=50).to_text() + f"{key} = {value}\n")
    res = CliRunner().invoke(
        cli_main, ["run", "--config", str(cfg_path), "--workspace", str(tmp_path / "run")]
    )
    assert res.exit_code == 2, res.output
    assert "Usage:" in res.output and f"{key} must be one of" in res.output
    assert isinstance(res.exception, SystemExit) and "Traceback" not in res.output
    assert not (tmp_path / "run").exists()


def test_cli_params_reference_table():
    runner = CliRunner()
    res = runner.invoke(cli_main, ["params", "--reference", "--prior-art"],
                        catch_exceptions=False)
    assert res.exit_code == 0
    for expected in ("3.50x", "3.40x", "3.70x", "3.32x"):
        assert expected in res.output
    assert "batcher 49x" in res.output
    assert "columnsort 8x" in res.output


def test_cli_params_requires_arguments():
    runner = CliRunner()
    res = runner.invoke(cli_main, ["params"])
    assert res.exit_code != 0
