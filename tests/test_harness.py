import ast
import dataclasses
import json
import math
import re
import random
import shlex
import shutil
import stat
import struct
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.stats import chisquare
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from anonpipe import cli, formats, shuffler
from anonpipe import stash_shuffle
from anonpipe.cli import main as cli_main
from anonpipe.crypto.envelope import POINT_LEN, open_envelope, seal
from anonpipe.crypto.group import GROUPS, MODP_2048
from anonpipe.encoder import SHARE_FIELD, secret_share_encode
from anonpipe.errors import PayloadTooLarge
from anonpipe.harness import (
    DEFAULT_GROUP,
    BaselineReport,
    PipelineKeys,
    RngTape,
    ScenarioConfig,
    analyze_file,
    analyze_stage,
    derive_keys,
    derived_pad_to,
    encode_corpus,
    generate_zipf_corpus,
    item_word,
    load_corpus,
    local_dp_baseline,
    run_scenario,
    save_corpus,
    second_shuffler_stage,
    shuffle2_file,
    shuffle_file,
    shuffle_stage,
)
from anonpipe.shuffler import Batch, apply_threshold, count_crowds


# ---------------------------------------------------------------------------
# corpora


def test_zipf_corpus_is_deterministic():
    a = generate_zipf_corpus(1000, 1.1, 5000, seed=7)
    b = generate_zipf_corpus(1000, 1.1, 5000, seed=7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, generate_zipf_corpus(1000, 1.1, 5000, seed=8))


def test_zipf_corpus_range_and_skew():
    corpus = generate_zipf_corpus(500, 1.2, 50_000, seed=0)
    assert min(corpus) >= 1 and max(corpus) <= 500
    counts = Counter(corpus.tolist())
    # item 1 should be drawn roughly 10^1.2 times as often as item 10
    ratio = counts[1] / counts[10]
    assert 0.6 * 10**1.2 < ratio < 1.5 * 10**1.2


def zipf_chisquare_p(corpus, vocab_size, exponent):
    """The p-value of a chi-square test of the corpus's item counts against
    weights k^-exponent, the bins expected to hold fewer than 5 items pooled."""
    weights = np.arange(1, vocab_size + 1, dtype=np.float64) ** -exponent
    expected = weights / weights.sum() * len(corpus)
    observed = np.bincount(np.asarray(corpus), minlength=vocab_size + 1)[1:]
    small = expected < 5
    if small.any():
        observed = np.append(observed[~small], observed[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
    return chisquare(observed, expected).pvalue


@pytest.mark.parametrize("seed", [0, 1, 2**70])
@pytest.mark.parametrize("vocab_size, exponent", [(20, 2.0), (100, 1.1), (200, 0.7)])
def test_zipf_corpus_follows_its_weights(vocab_size, exponent, seed):
    corpus = generate_zipf_corpus(vocab_size, exponent, 100_000, seed)
    assert min(corpus) >= 1 and max(corpus) <= vocab_size
    assert zipf_chisquare_p(corpus, vocab_size, exponent) > 1e-4
    # the negative control: 5% off the exponent is plain at this sample size
    assert zipf_chisquare_p(corpus, vocab_size, exponent * 1.05) < 1e-6


@pytest.mark.parametrize("vocab_size, exponent, n_samples, seed", [
    pytest.param(100, 1.1, -1, 0, id="negative-sample-count"),
    pytest.param(100, 1.1, 10, -1, id="negative-seed"),
    pytest.param(100, 1.1, 0, -1, id="negative-seed-no-samples"),
    pytest.param(100, 1.1, 10, -(2**130), id="large-negative-seed"),
    pytest.param(100, math.nan, 10, 0, id="nan-exponent"),
    pytest.param(0, 1.1, 0, 0, id="empty-vocabulary"),
])
def test_zipf_corpus_raises_on_a_bad_argument(vocab_size, exponent, n_samples, seed):
    with pytest.raises(ValueError):
        generate_zipf_corpus(vocab_size, exponent, n_samples, seed)


def test_corpus_file_roundtrip(tmp_path):
    corpus = generate_zipf_corpus(50, 1.0, 200, seed=1)
    path = tmp_path / "corpus.txt"
    save_corpus(path, corpus)
    assert np.array_equal(load_corpus(path, 50), corpus)


def test_rng_tape_streams_are_stable_and_independent():
    tape = RngTape(42)
    assert tape.stream("a").random() == RngTape(42).stream("a").random()
    assert tape.stream("a").random() != tape.stream("b").random()


def test_unseeded_rng_tape_streams_never_repeat():
    draws = {RngTape(None).stream("a").randbytes(16) for _ in range(2)}
    draws.add(RngTape(None).stream("b").randbytes(16))
    assert len(draws) == 3


# ---------------------------------------------------------------------------
# configuration


def test_config_text_roundtrip():
    cfg = ScenarioConfig(
        name="x", vocab_size=5000, zipf_exponent=1.3, n_samples=777, seed=5,
        crowd_mode="blinded", secret_share_t=20, threshold_t=25, drop_mean=10,
        sigma=2, pad_to=0, group_id="test-256",
    )
    assert ScenarioConfig.from_text(cfg.to_text()) == cfg


def test_config_rejects_unknown_keys():
    # policy_mode once chose whether drop_mean and sigma applied; they always do
    for line in ("budget = 12\n", "policy_mode = both\n"):
        with pytest.raises(ValueError, match="unknown config key"):
            ScenarioConfig.from_text(line)


# (key, first value, second value) for a config that sets the key twice
SET_TWICE = [("threshold_t", 50, 2), ("sigma", 4, 0), ("group_id", "modp-2048", "test-256")]


@pytest.mark.parametrize("key, first, last", SET_TWICE)
def test_config_refuses_a_key_set_twice(key, first, last):
    # the last line once set the key silently, the privacy threshold among them
    with pytest.raises(ValueError, match=f"config key '{key}' is set more than once"):
        ScenarioConfig.from_text(f"{key} = {first}\n{key} = {last}\n")


def test_config_drop_mean_and_sigma_apply_without_a_mode():
    policy = ScenarioConfig.from_text("threshold_t = 5\ndrop_mean = 10\nsigma = 2\n").policy()
    rng = random.Random(12)
    batch = Batch("e", [(b"crowd", rng.randbytes(16)) for _ in range(30)])
    out = apply_threshold(batch, count_crowds(batch), policy, rng)
    assert 0 < len(out.records) < 30


def test_readme_cli_lines_run(tmp_path, monkeypatch):
    """Every `anonpipe` line of the README's sh blocks, in order, over its
    example config, exits 0."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (tmp_path / "scenario.cfg").write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    monkeypatch.chdir(tmp_path)
    lines = [
        shlex.split(line, comments=True)
        for block in readme.split("```sh\n")[1:]
        for line in block.split("```", 1)[0].splitlines()
    ]
    commands = [args[1:] for args in lines if args and args[0] == "anonpipe"]
    assert {"params", "run", "generate", "keygen", "encode", "shuffle", "analyze"} <= {
        args[0] for args in commands
    }
    for args in commands:
        _cli_ok(args)


def test_readme_example_config_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = ScenarioConfig.from_text(block)
    assert (cfg.name, cfg.crowd_mode, cfg.secret_share_t, cfg.group_id) == (
        "demo", "hashed", 0, "test-256"
    )


@pytest.mark.parametrize("secret_share_t", [0, 5])
def test_longest_word_payload_pads_to_exactly_derived_pad_to(secret_share_t):
    for group_id in GROUPS:
        cfg = _small_config(vocab_size=1000, secret_share_t=secret_share_t, group_id=group_id)
        word = item_word(cfg.vocab_size)
        payload = word
        if secret_share_t:
            payload = secret_share_encode(word, secret_share_t, SHARE_FIELD, random.Random(1))
        pad_to = derived_pad_to(cfg)
        assert len(formats.pad_payload(payload, pad_to)) == pad_to
        with pytest.raises(PayloadTooLarge):
            formats.pad_payload(payload, pad_to - 1)


def test_secret_share_reports_are_as_long_in_every_group():
    # the share field is one 255-bit prime whatever the group
    keys = derive_keys(DEFAULT_GROUP, RngTape(1))
    public = (keys.analyzer.public_bytes, keys.shuffler.public_bytes)
    lengths = {
        len(encode_corpus(
            _small_config(vocab_size=3000, crowd_mode="fixed", secret_share_t=20, group_id=g),
            np.array([3000]), RngTape(1), *public,
        )[0])
        for g in GROUPS
    }
    assert len(lengths) == 1


@pytest.mark.parametrize(
    "key, value, allowed",
    [
        ("group_id", "modp-3072", "modp-2048, test-256"),
        ("crowd_mode", "hashd", "plain, hashed, fixed, blinded"),
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


SMALL = dict(
    name="small", vocab_size=300, zipf_exponent=1.1, n_samples=2000,
    seed=11, crowd_mode="hashed", threshold_t=10, group_id="test-256",
)


def _small_config(**kw):
    return ScenarioConfig(**{**SMALL, **kw})


def test_encode_without_a_hash_key_draws_the_keys_crowd_hash():
    cfg = _small_config(n_samples=20)
    keys = derive_keys(cfg.group_id, RngTape(cfg.seed))
    public = (keys.analyzer.public_bytes, keys.shuffler.public_bytes)
    items = np.arange(20) % 4
    assert encode_corpus(cfg, items, RngTape(cfg.seed), *public) == encode_corpus(
        cfg, items, RngTape(cfg.seed), *public, hash_key=keys.crowd_hash
    )


def test_naive_scenario_recovers_exactly_above_threshold(tmp_path):
    cfg = _small_config()
    report = run_scenario(cfg, tmp_path)
    corpus = load_corpus(tmp_path / "corpus.txt", cfg.vocab_size)
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
    cfg = _small_config(secret_share_t=5, drop_mean=3, sigma=1)
    run_scenario(cfg, tmp_path / "a")
    run_scenario(cfg, tmp_path / "b")
    for name in ("corpus.txt", "reports.bin", "shuffled.bin", "histogram.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_blinded_scenario_matches_hashed_scenario(tmp_path):
    cfg_plain = _small_config(secret_share_t=5, drop_mean=3, sigma=1)
    cfg_blind = _small_config(
        secret_share_t=5, drop_mean=3, sigma=1, crowd_mode="blinded"
    )
    r1 = run_scenario(cfg_plain, tmp_path / "plain")
    r2 = run_scenario(cfg_blind, tmp_path / "blind")
    assert r1.recovered_values == r2.recovered_values


def test_secret_share_scenario_hides_below_t(tmp_path):
    # threshold passes everything; only share groups of >= t decode
    cfg = _small_config(secret_share_t=8, threshold_t=1)
    report = run_scenario(cfg, tmp_path)
    corpus = load_corpus(tmp_path / "corpus.txt", cfg.vocab_size)
    counts = Counter(corpus.tolist())
    expected = {item_word(k) for k, c in counts.items() if c >= 8 and c > 1}
    assert report.recovered_values == expected


def test_run_into_a_blinded_runs_workspace_leaves_no_file_of_it(tmp_path):
    hashed = _small_config(n_samples=200)
    run_scenario(dataclasses.replace(hashed, crowd_mode="blinded"), tmp_path / "reused")
    run_scenario(hashed, tmp_path / "reused")
    run_scenario(hashed, tmp_path / "fresh")
    names = [sorted(p.name for p in (tmp_path / d).iterdir()) for d in ("reused", "fresh")]
    assert names[0] == names[1]


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
    was padded 16 bytes longer, or it is just as long as the honest
    reports but its sealed crowd ID is plain, padded 16 bytes shorter."""
    tape = RngTape(cfg.seed)
    corpus = generate_zipf_corpus(cfg.vocab_size, cfg.zipf_exponent, cfg.n_samples, cfg.seed)
    blobs = encode_corpus(cfg, corpus, tape, keys.analyzer.public_bytes, keys.shuffler.public_bytes)

    def one(pad_to, crowd_mode="hashed"):
        return encode_corpus(
            dataclasses.replace(cfg, pad_to=pad_to, crowd_mode=crowd_mode), np.array([1]), tape,
            keys.analyzer.public_bytes, keys.shuffler.public_bytes,
        )[0]

    pad_to = derived_pad_to(cfg)
    longer = one(pad_to + 16)
    relabelled = one(pad_to - 16, "plain")
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
        _cli_ok(["shuffle", "--config", str(tmp_path / "scenario.cfg"),
                 "--keys", str(tmp_path / "keys.json"), "--in", str(tmp_path / f"{name}.bin"),
                 "--out", str(tmp_path / name / "out.bin")])
        outputs.append(
            {f: (tmp_path / name / f).read_bytes() for f in ("out.bin", "selectivity.json")}
        )
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[1]["selectivity.json"])["input_count"] == len(blobs)


@pytest.mark.parametrize(
    "boundary, reject_key",
    [("reports.bin", "corrupt"), ("blinded.bin", "invalid"), ("shuffled.bin", "decrypt_failures")],
)
def test_replayed_report_does_not_form_a_crowd(tmp_path, monkeypatch, boundary, reject_key):
    # k copies of one record in a stage's input file, written by anyone who
    # can write that file, count once: the stage counts k - 1 of them among
    # its rejects, and every later artifact is the honest run's
    k = 9
    cfg = _small_config(n_samples=400, vocab_size=50, threshold_t=5, crowd_mode="blinded")
    keys = derive_keys(cfg.group_id, RngTape(cfg.seed))
    honest, replayed = tmp_path / "honest", tmp_path / "replayed"
    run_scenario(cfg, honest)
    shutil.copytree(honest, replayed)
    blobs = formats.read_batch(honest / boundary)
    formats.write_batch(replayed / boundary, blobs + [blobs[0]] * (k - 1))

    # the batches intake and the second shuffler's unblinding hand on carry their counts
    stats = {}
    for name in ("blind_stage1", "apply_threshold"):
        def spy(batch, *args, real=getattr(shuffler, name)):
            stats.update(batch.stats)
            return real(batch, *args)

        monkeypatch.setattr(shuffler, name, spy)
    order = ["reports.bin", "blinded.bin", "shuffled.bin"]
    later = order[order.index(boundary) + 1 :]
    for stage, src, out in zip((shuffle_file, shuffle2_file), order, order[1:]):
        if out in later:
            stage(cfg, keys, replayed / src, replayed / out)
    stats.update(analyze_file(cfg, keys, replayed / "shuffled.bin", replayed)[1])
    assert stats[reject_key] == k - 1
    for name in later + ["selectivity.json", "histogram.csv"]:
        assert (replayed / name).read_bytes() == (honest / name).read_bytes(), name


def test_resealed_inner_envelope_is_one_crowd_member():
    # whoever holds one client's inner envelope seals it under 9 fresh outer
    # envelopes: the shuffler counts one member and 8 corrupt reports
    cfg = _small_config(seed=3, threshold_t=5)
    keys = derive_keys(cfg.group_id, RngTape(cfg.seed))
    public = (keys.analyzer.public_bytes, keys.shuffler.public_bytes)
    report = encode_corpus(cfg, np.array([7]), RngTape(cfg.seed), *public)[0]
    outer = open_envelope(keys.shuffler, formats.parse_report(report))
    rng = random.Random(3)
    resealed = [
        formats.build_report(seal(keys.shuffler.public_bytes, outer, rng)) for _ in range(9)
    ]
    out = shuffle_stage(cfg, resealed, RngTape(cfg.seed), keys.shuffler, keys.shuffler2)
    assert (out.stats["corrupt"], out.stats["surviving_count"], out.records) == (8, 0, [])
    hist, stats = analyze_stage(cfg, [inner for _, inner in out.records], keys.analyzer)
    assert (hist.bins, stats["decrypt_failures"]) == ({}, 0)


def test_rerandomized_blinded_record_is_one_crowd_member(tmp_path):
    # 7 re-randomizations (c1 g^s, c2 h^s) of one blinded.bin record unblind
    # to one pseudonym with one inner envelope: one member, 6 invalid
    cfg = _small_config(n_samples=400, vocab_size=50, threshold_t=5, crowd_mode="blinded")
    keys = derive_keys(cfg.group_id, RngTape(cfg.seed))
    group = GROUPS[cfg.group_id]
    run_scenario(cfg, tmp_path)
    width, w = group.ciphertext_len, group.element_len
    first = formats.read_batch(tmp_path / "blinded.bin")[0]
    ct1, ct2 = group.decode_element(first[:w]), group.decode_element(first[w:width])
    rng = random.Random(11)
    copies = []
    for _ in range(7):
        s = group.random_scalar(rng)
        c1 = group.mul(ct1, group.exp(group.generator, s))
        c2 = group.mul(ct2, group.exp(keys.shuffler2.public, s))
        copies.append(group.encode_element(c1) + group.encode_element(c2) + first[width:])
    formats.write_batch(tmp_path / "copies.bin", copies)
    shuffle2_file(cfg, keys, tmp_path / "copies.bin", tmp_path / "out" / "shuffled.bin")
    selectivity = json.loads((tmp_path / "out" / "selectivity.json").read_text())
    assert (selectivity["input_count"], selectivity["surviving_count"]) == (1, 0)
    records = [(c[:width], c[width:]) for c in copies]
    out = second_shuffler_stage(cfg, Batch("epoch-0", records), RngTape(cfg.seed), keys.shuffler2)
    assert out.stats["invalid"] == 6
    hist, stats = analyze_file(cfg, keys, tmp_path / "out" / "shuffled.bin", tmp_path / "out")
    assert (hist.bins, stats["decrypt_failures"]) == ({}, 0)


def test_shuffle_stage_reports_intake_corrupt_count():
    # the threshold keeps the intake's count of corrupt reports
    cfg = _small_config(n_samples=200, vocab_size=40, threshold_t=5)
    keys = derive_keys(cfg.group_id, RngTape(cfg.seed))
    blobs = encode_corpus(
        cfg, generate_zipf_corpus(40, 1.1, 200, cfg.seed), RngTape(cfg.seed),
        keys.analyzer.public_bytes, keys.shuffler.public_bytes, keys.shuffler2,
    )
    garbled = bytearray(blobs[0])
    garbled[-1] ^= 1
    out = shuffle_stage(
        cfg, [bytes(garbled)] + blobs[1:], RngTape(cfg.seed), keys.shuffler, keys.shuffler2
    )
    assert out.stats["corrupt"] == 1


@pytest.mark.parametrize("crowd_mode, calls", [("hashed", 1), ("blinded", 2)])
def test_every_shuffler_reorders_with_the_stash_shuffle(monkeypatch, crowd_mode, calls):
    real = stash_shuffle.stash_shuffle
    sizes = []

    def spy(records, params, rng, **kwargs):
        sizes.append(len(records))
        return real(records, params, rng, **kwargs)

    monkeypatch.setattr(stash_shuffle, "stash_shuffle", spy)
    cfg = _small_config(n_samples=300, vocab_size=40, threshold_t=5, crowd_mode=crowd_mode)
    keys = derive_keys(cfg.group_id, RngTape(cfg.seed))
    blobs = encode_corpus(
        cfg, generate_zipf_corpus(40, 1.1, 300, cfg.seed), RngTape(cfg.seed),
        keys.analyzer.public_bytes, keys.shuffler.public_bytes, keys.shuffler2,
    )
    out = shuffle_stage(cfg, blobs, RngTape(cfg.seed), keys.shuffler, keys.shuffler2)
    assert len(sizes) == calls
    assert sizes[-1] == len(out.records) > 0


# ---------------------------------------------------------------------------
# the local-DP baseline


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


# ---------------------------------------------------------------------------
# CLI


def _cli_ok(args):
    res = CliRunner().invoke(cli_main, args, catch_exceptions=False)
    assert res.exit_code == 0, res.output
    return res


def _write_config(tmp_path, **kw) -> str:
    """`_small_config(**kw)` as text in `scenario.cfg` in `tmp_path`, also
    where a value is one no config accepts; its path."""
    path = tmp_path / "scenario.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in {**SMALL, **kw}.items()))
    return str(path)


@pytest.mark.parametrize(
    "extra",
    [
        pytest.param({}, id="hashed"),
        pytest.param(dict(crowd_mode="fixed", secret_share_t=20), id="secret-share"),
        pytest.param(dict(crowd_mode="blinded", drop_mean=2, sigma=1), id="blinded"),
    ],
)
def test_cli_stagewise_pipeline_matches_run(tmp_path, extra):
    cfg = _small_config(n_samples=800, vocab_size=120, threshold_t=5, **extra)
    (tmp_path / "scenario.cfg").write_text(cfg.to_text())
    stages = tmp_path / "stages"
    keys = ["--keys", stages / "keys.json"]

    def anonpipe(command, *args):
        return _cli_ok([command, "--config", str(tmp_path / "scenario.cfg"), *map(str, args)])

    anonpipe("keygen", "--workspace", stages, "--seed", cfg.seed)
    anonpipe("generate", "--out", stages / "corpus.txt")
    anonpipe("encode", *keys, "--corpus", stages / "corpus.txt", "--out", stages / "reports.bin")
    if cfg.two_shufflers:
        anonpipe("shuffle", *keys, "--in", stages / "reports.bin", "--out", stages / "blinded.bin")
        anonpipe("shuffle2", *keys, "--in", stages / "blinded.bin",
                 "--out", stages / "shuffled.bin")
    else:
        anonpipe("shuffle", *keys, "--in", stages / "reports.bin", "--out", stages / "shuffled.bin")
    res = anonpipe("analyze", *keys, "--in", stages / "shuffled.bin", "--out-dir", stages)
    assert "unique values:" in res.output
    assert "recovered unique" in anonpipe("run", "--workspace", tmp_path / "full").output

    # the stage commands in one directory and `run` write the same files, byte
    # for byte, but for the keys file and run's utility report
    stagewise = {path.name: path.read_bytes() for path in stages.iterdir()}
    full = {path.name: path.read_bytes() for path in (tmp_path / "full").iterdir()}
    assert stagewise.pop("keys.json") and full.pop("utility.json")
    assert sorted(stagewise) == sorted(full)
    assert stagewise == full
    assert ("blinded.bin" in full) == cfg.two_shufflers
    selectivity = json.loads(full["selectivity.json"])
    assert set(selectivity) == {"epoch_id", "input_count", "surviving_count"}
    # only the secret-share path decodes, so only its stats count groups
    stats = json.loads(full["analyzer_stats.json"])
    assert ("undecoded_groups" in stats) == bool(cfg.secret_share_t)


def test_cli_stage_commands_write_no_file_themselves():
    # every artifact comes from the harness's stages over files, which `run`
    # calls too; the commands and the cli helpers they call write nothing
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def called(name, seen):
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "attr", getattr(node.func, "id", None))
                yield callee
                if callee in functions and callee not in seen:
                    yield from called(callee, seen)

    for command in ("encode", "shuffle", "shuffle2", "analyze"):
        writes = {"write_batch", "write_text", "save_corpus", "mkdir"} & set(called(command, set()))
        assert not writes, (command, writes)


def test_cli_stage_commands_create_the_out_directory(tmp_path):
    cfg_path = _write_config(tmp_path, n_samples=50, crowd_mode="blinded")
    keys = str(tmp_path / "keys.json")
    _cli_ok(["keygen", "--config", cfg_path, "--workspace", str(tmp_path), "--seed", "1"])
    corpus, reports, blinded, shuffled = (
        tmp_path / stage / "new" / name
        for stage, name in [("generate", "corpus.txt"), ("encode", "reports.bin"),
                            ("shuffle", "blinded.bin"), ("shuffle2", "shuffled.bin")]
    )
    for args in (
        ["generate", "--out", corpus],
        ["encode", "--corpus", corpus, "--keys", keys, "--out", reports],
        ["shuffle", "--keys", keys, "--in", reports, "--out", blinded],
        ["shuffle2", "--keys", keys, "--in", blinded, "--out", shuffled],
    ):
        _cli_ok([args[0], "--config", cfg_path, *map(str, args[1:])])
    assert all(path.is_file() for path in (corpus, reports, blinded, shuffled))


def test_cli_keygen_unseeded_keys_differ_and_seeded_keys_match_run(tmp_path):
    cfg_path = _write_config(tmp_path)
    for name in ("a", "b"):
        _cli_ok(["keygen", "--config", cfg_path, "--workspace", str(tmp_path / name)])
    assert (tmp_path / "a" / "keys.json").read_text() != (tmp_path / "b" / "keys.json").read_text()
    a = json.loads((tmp_path / "a" / "keys.json").read_text())
    b = json.loads((tmp_path / "b" / "keys.json").read_text())
    assert all(a[k] != b[k] for k in a if k.endswith(("_secret", "_alpha")))

    _cli_ok(["keygen", "--config", cfg_path, "--workspace", str(tmp_path / "s"), "--seed", "7"])
    seeded = PipelineKeys.from_json(
        (tmp_path / "s" / "keys.json").read_text(), GROUPS[DEFAULT_GROUP]
    )
    assert seeded == derive_keys(DEFAULT_GROUP, RngTape(7))


def test_cli_keygen_writes_keys_readable_by_the_owner_only(tmp_path):
    cfg_path = _write_config(tmp_path)
    keys_path = tmp_path / "keys.json"
    _cli_ok(["keygen", "--config", cfg_path, "--workspace", str(tmp_path), "--seed", "3"])
    assert stat.S_IMODE(keys_path.stat().st_mode) & 0o077 == 0
    written = keys_path.read_bytes()
    # a mode given at creation leaves an existing file's mode as it was
    keys_path.chmod(0o644)
    _cli_ok(["keygen", "--config", cfg_path, "--workspace", str(tmp_path), "--seed", "3"])
    assert stat.S_IMODE(keys_path.stat().st_mode) & 0o077 == 0
    assert keys_path.read_bytes() == written


@pytest.fixture
def cli_encode(tmp_path):
    """`anonpipe encode` of one hashed corpus under the keys in `keys_dir`,
    which an unseeded `keygen` creates on first use."""
    cfg = _small_config(n_samples=300, vocab_size=40, threshold_t=5)
    (tmp_path / "scenario.cfg").write_text(cfg.to_text())
    save_corpus(tmp_path / "corpus.txt", generate_zipf_corpus(40, 1.1, 300, cfg.seed))

    def encode(keys_dir: str, out: str) -> list[bytes]:
        if not (tmp_path / keys_dir / "keys.json").exists():
            _cli_ok(["keygen", "--config", str(tmp_path / "scenario.cfg"),
                     "--workspace", str(tmp_path / keys_dir)])
        _cli_ok(["encode", "--config", str(tmp_path / "scenario.cfg"),
                 "--corpus", str(tmp_path / "corpus.txt"),
                 "--keys", str(tmp_path / keys_dir / "keys.json"), "--out", str(tmp_path / out)])
        return formats.read_batch(tmp_path / out)

    return cfg, encode


def test_cli_encodes_under_unseeded_keys_differ(cli_encode):
    _, encode = cli_encode
    first, second = encode("keys", "a.bin"), encode("keys", "b.bin")
    assert len(first) == len(second) == 300
    assert all(a != b for a, b in zip(first, second))


def _open_outer(report: bytes, keys: PipelineKeys):
    """A report's outer envelope and its opened (kind, crowd ID, inner)."""
    outer = formats.parse_report(report)
    return outer, formats.parse_outer_plaintext(open_envelope(keys.shuffler, outer))


def _ephemeral_publics(report: bytes, keys: PipelineKeys) -> set[bytes]:
    """The outer and inner envelopes' ephemeral public keys, which begin them."""
    outer, (_, _, inner) = _open_outer(report, keys)
    return {outer[:POINT_LEN], inner[:POINT_LEN]}


@pytest.mark.parametrize("seeded", [False, True])
def test_cli_report_keys_come_from_the_config_seed_only_under_seeded_keys(
    tmp_path, cli_encode, seeded
):
    cfg, encode = cli_encode
    if seeded:
        _cli_ok(["keygen", "--config", str(tmp_path / "scenario.cfg"),
                 "--workspace", str(tmp_path / "keys"), "--seed", str(cfg.seed)])
    report = encode("keys", "reports.bin")[0]
    keys = PipelineKeys.from_json(
        (tmp_path / "keys" / "keys.json").read_text(), GROUPS[cfg.group_id]
    )
    # every ephemeral public key anyone holding the config can compute for
    # report 0: the seals' 32-byte draws on the config seed's encode streams
    derivable = set()
    for name in ("encode/seal", "encode/0"):
        rng = RngTape(cfg.seed).stream(name)
        for n in (32, 12, 32, 12):
            draw = rng.randbytes(n)
            if n == 32:
                sk = X25519PrivateKey.from_private_bytes(draw)
                derivable.add(sk.public_key().public_bytes_raw())
    assert bool(_ephemeral_publics(report, keys) & derivable) == seeded


def test_cli_shuffles_under_unseeded_keys_differ_in_order_only(tmp_path, cli_encode):
    _, encode = cli_encode
    encode("keys", "reports.bin")
    outputs = []
    for out in ("s1.bin", "s2.bin"):
        _cli_ok(["shuffle", "--config", str(tmp_path / "scenario.cfg"),
                 "--keys", str(tmp_path / "keys" / "keys.json"),
                 "--in", str(tmp_path / "reports.bin"), "--out", str(tmp_path / out)])
        outputs.append(formats.read_batch(tmp_path / out))
    assert len(outputs[0]) > 50
    assert outputs[0] != outputs[1] and sorted(outputs[0]) == sorted(outputs[1])


def test_cli_hashed_crowd_ids_come_from_the_keys(tmp_path, cli_encode):
    cfg, encode = cli_encode

    def crowd_ids(keys_dir, out):
        reports = encode(keys_dir, out)
        keys = PipelineKeys.from_json(
            (tmp_path / keys_dir / "keys.json").read_text(), GROUPS[cfg.group_id]
        )
        return [_open_outer(r, keys)[1][1] for r in reports]

    same_keys = crowd_ids("a", "a1.bin"), crowd_ids("a", "a2.bin")
    assert same_keys[0] == same_keys[1]
    other_keys = crowd_ids("b", "b.bin")
    assert all(a != b for a, b in zip(same_keys[0], other_keys))


def test_keys_json_with_mismatched_transport_halves_is_rejected(tmp_path):
    _cli_ok(["keygen", "--config", _write_config(tmp_path), "--workspace", str(tmp_path)])
    text = (tmp_path / "keys.json").read_text()
    group = GROUPS[DEFAULT_GROUP]
    assert PipelineKeys.from_json(text, group).to_json() + "\n" == text
    keys = json.loads(text)
    keys["analyzer_public"], keys["shuffler1_public"] = (
        keys["shuffler1_public"], keys["analyzer_public"]
    )
    with pytest.raises(ValueError):
        PipelineKeys.from_json(json.dumps(keys), group)


@pytest.mark.parametrize("value", ["4", "zz", "g^(x2+1)", "q-1", "q-h"])
def test_cli_keys_json_with_another_shuffler2_public_is_a_usage_error(tmp_path, value):
    # clients encrypt crowd IDs to the h that keys.json names, so it must be
    # hex, a group member (q-1 is not) and g^x2 as written in [1, p] (q-h,
    # the other representative of g^x2, is not)
    cfg_path = _write_config(tmp_path, n_samples=5, crowd_mode="blinded")
    _cli_ok(["keygen", "--config", cfg_path, "--workspace", str(tmp_path), "--seed", "1"])
    keys = json.loads((tmp_path / "keys.json").read_text())
    group = GROUPS[DEFAULT_GROUP]
    x2 = int(keys["shuffler2_secret"], 16)
    keys["shuffler2_public"] = {
        "g^(x2+1)": f"{group.exp(group.generator, x2 + 1):x}",
        "q-1": f"{group.modulus - 1:x}",
        "q-h": f"{group.modulus - int(keys['shuffler2_public'], 16):x}",
    }.get(value, value)
    with pytest.raises(ValueError):
        PipelineKeys.from_json(json.dumps(keys), group)
    (tmp_path / "keys.json").write_text(json.dumps(keys))
    save_corpus(tmp_path / "corpus.txt", generate_zipf_corpus(10, 1.1, 5, 1))
    res = CliRunner().invoke(cli_main, [
        "encode", "--config", str(tmp_path / "scenario.cfg"), "--corpus",
        str(tmp_path / "corpus.txt"), "--keys", str(tmp_path / "keys.json"),
        "--out", str(tmp_path / "reports.bin"),
    ])
    assert res.exit_code == 2, res.output
    assert "not a keys file" in res.output and not (tmp_path / "reports.bin").exists()


# values keygen never writes: a seed that is not an int seeds every stage
# draw; a crowd-hash key shorter than derive_keys draws is one a shuffler
# can enumerate ("": none at all)
BAD_KEY_VALUES = {
    "seed-abc": ("seed", "abc"), "seed-true": ("seed", True), "seed-1.5": ("seed", 1.5),
    "seed-list": ("seed", [1]), "crowd_hash-empty": ("crowd_hash", ""),
    "crowd_hash-1-byte": ("crowd_hash", "ab"), "crowd_hash-17-bytes": ("crowd_hash", "ab" * 17),
}


@pytest.mark.parametrize("damage", ["crowd_hash", "seed", "not json", *BAD_KEY_VALUES])
def test_cli_unusable_keys_file_is_a_usage_error(tmp_path, damage):
    cfg_path = _write_config(tmp_path, n_samples=5)
    _cli_ok(["keygen", "--config", cfg_path, "--workspace", str(tmp_path), "--seed", "1"])
    keys = json.loads((tmp_path / "keys.json").read_text())
    if damage == "not json":
        text = "{"
    else:
        if damage in BAD_KEY_VALUES:
            name, value = BAD_KEY_VALUES[damage]
            keys[name] = value
        else:
            del keys[damage]
        text = json.dumps(keys)
    (tmp_path / "keys.json").write_text(text)
    save_corpus(tmp_path / "corpus.txt", generate_zipf_corpus(10, 1.1, 5, 1))
    res = CliRunner().invoke(cli_main, [
        "encode", "--config", str(tmp_path / "scenario.cfg"), "--corpus",
        str(tmp_path / "corpus.txt"), "--keys", str(tmp_path / "keys.json"),
        "--out", str(tmp_path / "reports.bin"),
    ])
    assert res.exit_code == 2, res.output
    assert "Usage:" in res.output and "not a keys file" in res.output
    assert isinstance(res.exception, SystemExit) and not (tmp_path / "reports.bin").exists()


@pytest.mark.parametrize(
    "command, scalar, value",
    [("shuffle", "blinding_alpha", "0"), ("shuffle2", "shuffler2_secret", "0"),
     ("shuffle2", "shuffler2_secret", "p")],
)
def test_cli_out_of_range_key_scalar_is_a_usage_error(tmp_path, command, scalar, value):
    # alpha = 0 makes every pseudonym 1; x2 = 0 or p makes h = 1, so every
    # client's c2 is its crowd ID in the clear
    cfg_path = _write_config(tmp_path, crowd_mode="blinded")
    _cli_ok(["keygen", "--config", cfg_path, "--workspace", str(tmp_path), "--seed", "1"])
    keys = json.loads((tmp_path / "keys.json").read_text())
    keys[scalar] = f"{GROUPS[DEFAULT_GROUP].order_p:x}" if value == "p" else value
    (tmp_path / "keys.json").write_text(json.dumps(keys))
    formats.write_batch(tmp_path / "in.bin", [])
    res = CliRunner().invoke(cli_main, [
        command, "--config", str(tmp_path / "scenario.cfg"), "--keys",
        str(tmp_path / "keys.json"), "--in", str(tmp_path / "in.bin"),
        "--out", str(tmp_path / "out.bin"),
    ])
    assert res.exit_code == 2, res.output
    assert "not a keys file" in res.output and scalar in res.output
    assert not (tmp_path / "out.bin").exists()


def test_cli_shuffle2_of_a_config_without_blinding_is_a_usage_error(tmp_path):
    cfg_path = _write_config(tmp_path)
    _cli_ok(["keygen", "--config", cfg_path, "--workspace", str(tmp_path), "--seed", "1"])
    formats.write_batch(tmp_path / "in.bin", [])
    res = CliRunner().invoke(cli_main, [
        "shuffle2", "--config", str(tmp_path / "scenario.cfg"), "--keys",
        str(tmp_path / "keys.json"), "--in", str(tmp_path / "in.bin"),
        "--out", str(tmp_path / "out.bin"),
    ])
    assert res.exit_code == 2, res.output
    assert "Usage:" in res.output and "only blinded configs" in res.output
    assert not (tmp_path / "out.bin").exists()


def test_cli_keygen_offers_only_known_groups(tmp_path):
    cfg_path = _write_config(tmp_path, group_id="modp-3072")
    res = CliRunner().invoke(cli_main, ["keygen", "--config", cfg_path,
                                        "--workspace", str(tmp_path)])
    assert res.exit_code == 2 and "modp-3072" in res.output
    assert not (tmp_path / "keys.json").exists()
    cfg_path = _write_config(tmp_path, group_id="modp-2048")
    _cli_ok(["keygen", "--config", cfg_path, "--workspace", str(tmp_path), "--seed", "1"])
    loaded = PipelineKeys.from_json((tmp_path / "keys.json").read_text(), MODP_2048)
    assert loaded == derive_keys("modp-2048", RngTape(1))


@pytest.mark.parametrize("crowd_mode", ["hashed", "blinded"])
@pytest.mark.parametrize("keys_group, config_group", [("test-256", "modp-2048"),
                                                      ("modp-2048", "test-256")])
def test_cli_keys_from_another_group_are_a_usage_error(
    tmp_path, crowd_mode, keys_group, config_group
):
    # keys.json names no group: keys made in another fail a range or g^x2 check
    _cli_ok(["keygen", "--config", _write_config(tmp_path, group_id=keys_group),
             "--workspace", str(tmp_path), "--seed", "1"])
    cfg_path = _write_config(tmp_path, n_samples=5, crowd_mode=crowd_mode, group_id=config_group)
    save_corpus(tmp_path / "corpus.txt", generate_zipf_corpus(10, 1.1, 5, 1))
    formats.write_batch(tmp_path / "in.bin", [])
    out = tmp_path / "out"
    out.mkdir()
    keys = ["--config", cfg_path, "--keys", str(tmp_path / "keys.json")]
    batch_in = ["--in", str(tmp_path / "in.bin")]
    commands = [
        ["encode", *keys, "--corpus", str(tmp_path / "corpus.txt"), "--out", str(out / "r.bin")],
        ["shuffle", *keys, *batch_in, "--out", str(out / "s.bin")],
        ["analyze", *keys, *batch_in, "--out-dir", str(out)],
    ]
    if crowd_mode == "blinded":
        commands.append(["shuffle2", *keys, *batch_in, "--out", str(out / "s2.bin")])
    for args in commands:
        res = CliRunner().invoke(cli_main, args)
        assert res.exit_code == 2, (args[0], res.output)
        assert "not a keys file" in res.output and config_group in res.output
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "extra",
    [pytest.param({}, id="hashed"),
     pytest.param(dict(crowd_mode="fixed", secret_share_t=5, threshold_t=1), id="shares")],
)
def test_cli_generate_and_encode_write_run_corpus_and_reports(tmp_path, extra):
    cfg_path = _write_config(tmp_path, n_samples=300, vocab_size=60, **extra)
    _cli_ok(["run", "--config", cfg_path, "--workspace", str(tmp_path / "full")])
    _cli_ok(["generate", "--config", cfg_path, "--out", str(tmp_path / "corpus.txt")])
    # seeded as `run` seeds its keys: from the config's seed, 11
    _cli_ok(["keygen", "--config", cfg_path, "--workspace", str(tmp_path), "--seed", "11"])
    _cli_ok(["encode", "--config", cfg_path, "--keys", str(tmp_path / "keys.json"),
             "--corpus", str(tmp_path / "corpus.txt"), "--out", str(tmp_path / "reports.bin")])
    for name in ("corpus.txt", "reports.bin"):
        assert (tmp_path / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


@pytest.mark.parametrize("bad", ["7x", "41", "0"])
def test_cli_encode_of_a_corpus_item_outside_the_vocabulary_is_a_usage_error(tmp_path, bad):
    cfg_path = _write_config(tmp_path, n_samples=5, vocab_size=40)
    _cli_ok(["keygen", "--config", cfg_path, "--workspace", str(tmp_path), "--seed", "1"])
    (tmp_path / "corpus.txt").write_text(f"1\n40\n{bad}\n2\n")
    res = CliRunner().invoke(cli_main, [
        "encode", "--config", cfg_path, "--keys", str(tmp_path / "keys.json"),
        "--corpus", str(tmp_path / "corpus.txt"), "--out", str(tmp_path / "reports.bin"),
    ])
    assert res.exit_code == 2, res.output
    assert "Usage:" in res.output and f"line 3: '{bad}'" in res.output
    assert isinstance(res.exception, SystemExit) and not (tmp_path / "reports.bin").exists()


def test_cli_encode_of_a_corpus_that_is_not_text_is_a_usage_error(tmp_path):
    cfg_path = _write_config(tmp_path, n_samples=5, vocab_size=40)
    _cli_ok(["keygen", "--config", cfg_path, "--workspace", str(tmp_path), "--seed", "1"])
    formats.write_batch(tmp_path / "reports.bin", [b"\xff" * 40])
    res = CliRunner().invoke(cli_main, [
        "encode", "--config", cfg_path, "--keys", str(tmp_path / "keys.json"),
        "--corpus", str(tmp_path / "reports.bin"), "--out", str(tmp_path / "out.bin"),
    ])
    assert res.exit_code == 2, res.output
    assert "Usage:" in res.output and "'--corpus'" in res.output
    assert isinstance(res.exception, SystemExit) and not (tmp_path / "out.bin").exists()


@pytest.mark.parametrize(
    "command, option, path",
    [("shuffle", "--in", "."), ("encode", "--corpus", "."), ("encode", "--out", "."),
     ("generate", "--out", "."), ("keygen", "--workspace", "keys.json"),
     ("run", "--workspace", "scenario.cfg"), ("analyze", "--out-dir", "scenario.cfg")],
)
def test_cli_path_of_the_wrong_kind_is_a_usage_error(tmp_path, monkeypatch, command, option, path):
    monkeypatch.chdir(tmp_path)
    _write_config(tmp_path, n_samples=5)
    _cli_ok(["keygen", "--config", "scenario.cfg", "--seed", "1"])
    (tmp_path / "corpus.txt").write_text("1\n")
    formats.write_batch(tmp_path / "in.bin", [])
    files = {"--config": "scenario.cfg", "--keys": "keys.json", "--corpus": "corpus.txt",
             "--in": "in.bin", "--out": "out.bin", option: path}
    needs = {"keygen": [], "generate": ["--out"], "run": [],
             "encode": ["--keys", "--corpus", "--out"], "shuffle": ["--keys", "--in", "--out"],
             "analyze": ["--keys", "--in"]}[command]
    options = dict.fromkeys(["--config", *needs, option])
    args = [command] + [arg for o in options for arg in (o, files[o])]

    def tree():
        return {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}

    before = tree()
    res = CliRunner().invoke(cli_main, args)
    assert res.exit_code == 2, res.output
    assert "Usage:" in res.output and option in res.output and "Traceback" not in res.output
    assert isinstance(res.exception, SystemExit) and tree() == before


@pytest.mark.parametrize(
    "key, value", [("group_id", "modp-3072"), ("crowd_mode", "hashd")]
)
def test_cli_unknown_config_value_is_a_usage_error(tmp_path, key, value):
    cfg_path = tmp_path / "scenario.cfg"
    _write_config(tmp_path, **{"n_samples": 50, key: value})
    res = CliRunner().invoke(
        cli_main, ["run", "--config", str(cfg_path), "--workspace", str(tmp_path / "run")]
    )
    assert res.exit_code == 2, res.output
    assert "Usage:" in res.output and f"{key} must be one of" in res.output
    assert isinstance(res.exception, SystemExit) and "Traceback" not in res.output
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, first, last", SET_TWICE)
def test_cli_config_setting_a_key_twice_is_a_usage_error(tmp_path, key, first, last):
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(f"n_samples = 50\n{key} = {first}\n{key} = {last}\n")
    res = CliRunner().invoke(
        cli_main, ["run", "--config", str(cfg_path), "--workspace", str(tmp_path / "run")]
    )
    assert res.exit_code == 2, res.output
    assert "Usage:" in res.output and "'--config'" in res.output
    assert f"config key '{key}' is set more than once" in res.output
    assert isinstance(res.exception, SystemExit) and not (tmp_path / "run").exists()


def test_cli_config_naming_policy_mode_is_a_usage_error(tmp_path):
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(_small_config(n_samples=50).to_text() + "policy_mode = both\n")
    res = CliRunner().invoke(
        cli_main, ["run", "--config", str(cfg_path), "--workspace", str(tmp_path / "run")]
    )
    assert res.exit_code == 2, res.output
    assert "unknown config key 'policy_mode'" in res.output
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "key, value",
    [("threshold_t", 0), ("sigma", -1), ("drop_mean", -0.5),
     # once a traceback in draw_drop (drop_mean), or a run that released nothing (sigma)
     ("drop_mean", "nan"), ("drop_mean", "inf"), ("sigma", "nan"), ("sigma", "inf")],
)
@pytest.mark.parametrize("command", ["run", "shuffle"])
def test_cli_invalid_threshold_policy_is_a_usage_error(tmp_path, command, key, value):
    cfg_path = tmp_path / "scenario.cfg"
    if command == "run":
        args = ["run", "--config", str(cfg_path), "--workspace", str(tmp_path / "run")]
    else:
        _cli_ok(["keygen", "--config", _write_config(tmp_path, n_samples=50),
                 "--workspace", str(tmp_path), "--seed", "1"])
        formats.write_batch(tmp_path / "reports.bin", [])
        args = ["shuffle", "--config", str(cfg_path), "--keys", str(tmp_path / "keys.json"),
                "--in", str(tmp_path / "reports.bin"), "--out", str(tmp_path / "out.bin")]
    _write_config(tmp_path, **{"n_samples": 50, key: value})
    res = CliRunner().invoke(cli_main, args)
    assert res.exit_code == 2, res.output
    assert "Usage:" in res.output and "threshold_t must be at least 1" in res.output
    assert isinstance(res.exception, SystemExit) and "Traceback" not in res.output
    assert not (tmp_path / "run").exists() and not (tmp_path / "out.bin").exists()


@pytest.mark.parametrize(
    "key, value, rule",
    [("vocab_size", 0, "at least 1"), ("n_samples", 0, "at least 1"),
     ("zipf_exponent", 0, "positive"), ("secret_share_t", -2, "at least 0"),
     ("pad_to", -1, "at least 0"), ("seed", -1, "at least 0"),
     # below the 4-byte word w300's needs, and past what one envelope holds
     ("pad_to", 5, "0 or from 6 to 1048507"), ("pad_to", 1048508, "0 or from 6 to 1048507")],
)
@pytest.mark.parametrize("command", ["generate", "run"])
def test_cli_out_of_range_config_value_is_a_usage_error(tmp_path, command, key, value, rule):
    cfg_path = tmp_path / "scenario.cfg"
    _write_config(tmp_path, **{"n_samples": 50, key: value})
    with pytest.raises(ValueError, match=f"{key} must be {rule}"):
        ScenarioConfig.from_text(cfg_path.read_text())
    # a config built in code meets the same rules
    with pytest.raises(ValueError, match=f"{key} must be {rule}"):
        ScenarioConfig(**{**SMALL, "n_samples": 50, key: value})
    out = tmp_path / "out"
    args = {"generate": ["generate", "--config", str(cfg_path), "--out", str(out)],
            "run": ["run", "--config", str(cfg_path), "--workspace", str(out)]}[command]
    res = CliRunner().invoke(cli_main, args)
    assert res.exit_code == 2, res.output
    assert "Usage:" in res.output and f"{key} must be {rule}" in res.output
    assert isinstance(res.exception, SystemExit) and not out.exists()


@pytest.mark.parametrize(
    "key, value, kind",
    [("threshold_t", "ten", "int"), ("zipf_exponent", "abc", "float"), ("seed", "1.5", "int")],
)
def test_cli_config_value_of_the_wrong_type_is_a_usage_error(tmp_path, key, value, kind):
    cfg_path = _write_config(tmp_path, **{"n_samples": 50, key: value})
    message = f"{key} must be of type {kind}, not {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        ScenarioConfig.from_text(Path(cfg_path).read_text())
    out = tmp_path / "out"
    res = CliRunner().invoke(cli_main, ["run", "--config", cfg_path, "--workspace", str(out)])
    assert res.exit_code == 2, res.output
    assert "Usage:" in res.output and message in res.output
    assert isinstance(res.exception, SystemExit) and not out.exists()


@pytest.mark.parametrize("damage", ["truncated", "zero-length records"])
@pytest.mark.parametrize("command", ["shuffle", "shuffle2", "analyze"])
def test_cli_unreadable_batch_file_is_a_usage_error(tmp_path, command, damage):
    cfg_path = _write_config(tmp_path, crowd_mode="blinded")
    _cli_ok(["keygen", "--config", cfg_path, "--workspace", str(tmp_path), "--seed", "1"])
    batch = tmp_path / "in.bin"
    if damage == "truncated":
        formats.write_batch(batch, [b"r" * 40] * 3)
        batch.write_bytes(batch.read_bytes()[:-1])
    else:
        # once read as an empty batch, so `shuffle` wrote one and exited 0
        batch.write_bytes(struct.pack("<8sIQ", formats.BATCH_MAGIC, 0, 5) + b"garbage")
    out = tmp_path / "out"
    res = CliRunner().invoke(cli_main, [
        command, "--config", cfg_path, "--keys", str(tmp_path / "keys.json"),
        "--in", str(batch), "--out-dir" if command == "analyze" else "--out", str(out),
    ])
    assert res.exit_code == 2, res.output
    assert "Usage:" in res.output and "'--in'" in res.output and "not a batch file" in res.output
    assert isinstance(res.exception, SystemExit) and not out.exists()


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


ONE_ROW = ["--n-items", "100", "--buckets", "10", "--chunk-cap", "12"]


@pytest.mark.parametrize(
    "args, message",
    [
        (ONE_ROW + ["--buckets", "-1"], "num_buckets >= 1"),
        (ONE_ROW + ["--chunk-cap", "-3"], "chunk cap must be >= 1"),
        (ONE_ROW + ["--window", "0"], "window >= 1"),
        (ONE_ROW + ["--stash", "-5"], "stash_cap >= 0"),
        (ONE_ROW + ["--budget", "10"], "exceeds private-memory budget 10"),
        (["--reference", "--prior-art", "--record-len", "0"], "item_len >= 1"),
        (["--reference", "--prior-art", "--budget", "10"], "budget below one record pair"),
        (["--n-items", "0", "--buckets", "10", "--chunk-cap", "12"], "n_items >= 1"),
        (["--n-items", "100", "--buckets", "10"], "--chunk-cap"),
        (["--reference", "--prior-art", "--budget", "0"], "budget below one record pair"),
    ],
)
def test_cli_params_bad_value_is_a_usage_error(args, message):
    res = CliRunner().invoke(cli_main, ["params", *args])
    assert res.exit_code == 2, res.output
    assert "Usage:" in res.output and message in res.output and "Traceback" not in res.output


# ---------------------------------------------------------------------------
# code that the pipeline, the CLI or a benchmark reaches

# helpers that only the acceptance criteria call (shamir_share: the tests'
# reference dealer), and what only those helpers use; every other public
# definition has a caller outside tests
CRITERIA_ONLY = {
    "local_dp_baseline", "accumulate_covariance", "covariance_estimate", "laplace_noise",
    "shamir_share", "BaselineReport", "k_ary_randomized_response", "krr_true_prob",
    "CovarianceAccumulators", "NonCanonicalTuple",
}


def _names_in(node):
    """Every name `node` refers to, as a variable or an attribute; an import
    alone is no use."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def test_every_public_definition_is_reached_outside_the_tests():
    # each public top-level function and class of anonpipe is referred to
    # from src/, perfbench/ or bench/ outside its own definition and outside
    # every definition only so reached, or is a CLI command, which its
    # decorator registers. Names are matched, not resolved, so a namesake
    # can hide dead code but never report live code
    root = Path(__file__).resolve().parents[1]
    defined, referrers = {}, {}
    for path in sorted(p for d in ("src", "perfbench", "bench") for p in (root / d).rglob("*.py")):
        for top in ast.parse(path.read_text()).body:
            scope = (path, getattr(top, "name", None))
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and "anonpipe" in path.parts:
                if not top.name.startswith("_"):
                    defined[top.name] = scope
                if any(getattr(d, "func", None) and getattr(d.func, "attr", None) == "command"
                       for d in top.decorator_list):
                    referrers.setdefault(top.name, set()).add("the CLI")
            for name in _names_in(top):
                referrers.setdefault(name, set()).add(scope)
    unreached, previous = set(), None
    while unreached != previous:
        previous, dead = unreached, {defined[name] for name in unreached}
        unreached = {
            name for name, own in defined.items() if not referrers.get(name, set()) - {own} - dead
        }
    assert unreached == CRITERIA_ONLY, (
        f"reached only from tests: {sorted(unreached - CRITERIA_ONLY)}; "
        f"reached after all, or gone: {sorted(CRITERIA_ONLY - unreached)}"
    )
