"""map_records: results, when it forks, and that every child is reaped; the
gate map_checked, and that records reach map_records only through it; the
pipeline's artifacts and its counts of hostile records at any CPU count, the
golden digests of seeded runs' artifacts, and group powers and symbols
whose first use is in a forked child."""

import ast
import hashlib
import os
import pickle
import random
import threading
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anonpipe import parallel
from anonpipe.analyzer import decrypt_corpus
from anonpipe.crypto import modexp
from anonpipe.crypto.group import (
    GROUPS,
    BlindingSecret,
    ElGamalCiphertext,
    GroupParams,
    KeyPair,
    elgamal_encrypt,
    hash_to_group,
)
from anonpipe.encoder import CROWD_KINDS
from anonpipe.formats import inner_envelope_length, report_length
from anonpipe.harness import (
    RngTape,
    ScenarioConfig,
    derive_keys,
    derived_pad_to,
    encode_words,
    item_word,
    run_scenario,
)
from anonpipe.errors import AuthenticationError, DecryptionError, InvalidPoint
from anonpipe.parallel import MIN_PER_WORKER, map_checked, map_records
from anonpipe.shuffler import Batch, blind_stage1, intake


class Boom(Exception):
    pass


def square(x):
    return x * x


@pytest.fixture
def cpus(monkeypatch):
    def set_cpus(n):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: n)

    return set_cpus


@pytest.fixture
def forked(monkeypatch):
    """The pids of the children forked during the test."""
    real_fork = os.fork
    pids = []

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def no_fork():
    raise AssertionError("forked")


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


# ---------------------------------------------------------------------------
# lifecycle


@pytest.mark.parametrize("n_cpus", [1, 2, 3])
@pytest.mark.parametrize(
    "n_items", [0, 1, 2 * MIN_PER_WORKER - 1, 2 * MIN_PER_WORKER, 3 * MIN_PER_WORKER + 7]
)
def test_map_records_equals_the_comprehension(cpus, forked, n_cpus, n_items):
    cpus(n_cpus)
    items = list(range(n_items))
    assert map_records(square, items) == [square(x) for x in items]
    workers = min(n_cpus, n_items // MIN_PER_WORKER)
    assert len(forked) == (workers - 1 if workers >= 2 else 0)
    assert_reaped(forked)


def test_closures_reach_the_children(cpus, forked):
    cpus(2)
    offset = 7
    items = list(range(2 * MIN_PER_WORKER))
    assert map_records(lambda x: x + offset, items) == [x + offset for x in items]
    assert len(forked) == 1


def test_small_inputs_stay_in_process(cpus, monkeypatch):
    cpus(3)
    monkeypatch.setattr(os, "fork", no_fork)
    items = list(range(2 * MIN_PER_WORKER - 1))
    assert map_records(square, items) == [square(x) for x in items]


def test_no_fork_while_another_thread_is_alive(cpus, monkeypatch):
    cpus(3)
    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    thread.start()
    try:
        items = list(range(3 * MIN_PER_WORKER))
        assert map_records(square, items) == [square(x) for x in items]
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()


@pytest.mark.parametrize("where", ["first", "last"])
def test_an_exception_reaches_the_caller_and_every_child_is_reaped(cpus, forked, where):
    cpus(3)
    items = list(range(3 * MIN_PER_WORKER))
    bad = items[0] if where == "first" else items[-1]  # the parent's or a child's chunk

    def fn(x):
        if x == bad:
            raise Boom(x)
        return x

    with pytest.raises(Boom):
        map_records(fn, items)
    assert len(forked) == 2
    assert_reaped(forked)


def test_an_error_in_the_parents_chunk_stops_the_children(cpus, forked):
    cpus(2)
    items = list(range(2 * MIN_PER_WORKER))

    def fn(x):
        if x == items[0]:
            raise Boom(x)
        time.sleep(60 if x == items[-1] else 0)  # the child's chunk never ends in time
        return x

    start = time.monotonic()
    with pytest.raises(Boom):
        map_records(fn, items)
    assert time.monotonic() - start < 30
    assert_reaped(forked)


def test_a_result_that_cannot_be_pickled_is_an_error(cpus, forked):
    cpus(2)
    with pytest.raises((AttributeError, pickle.PicklingError)):
        map_records(lambda x: (lambda: x), list(range(2 * MIN_PER_WORKER)))
    assert_reaped(forked)


def test_a_child_that_exits_without_a_result_is_an_error(cpus, forked):
    cpus(2)
    items = list(range(2 * MIN_PER_WORKER))

    def fn(x):
        if x == items[-1]:  # in the child's chunk, never the parent's
            os._exit(3)
        return x

    with pytest.raises(RuntimeError, match="without a result"):
        map_records(fn, items)
    assert_reaped(forked)


# ---------------------------------------------------------------------------
# the gate for records from another party

REJECTS = [AuthenticationError, DecryptionError, InvalidPoint]


@pytest.mark.parametrize("n_cpus", [1, 2])
@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    n=st.integers(0, 3 * MIN_PER_WORKER),
    copies=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=40),
    bad=st.dictionaries(st.integers(0, 3 * MIN_PER_WORKER), st.sampled_from(REJECTS), max_size=40),
)
def test_map_checked_maps_distinct_items_and_counts_rejects(cpus, n_cpus, n, copies, bad):
    cpus(n_cpus)
    items = list(range(n))
    for source, position in copies:
        if items:
            items.insert(position % (len(items) + 1), items[source % len(items)])

    def fn(x):
        if x in bad:
            raise bad[x](x)
        return square(x)

    seen, expected = set(), []
    for x in items:
        if x not in seen and x not in bad:
            expected.append(square(x))
        seen.add(x)
    results, rejected = map_checked(fn, items)
    assert results == expected
    assert rejected == len(items) - len(results)


def test_map_checked_passes_any_other_error_on(cpus):
    cpus(1)

    def fn(x):
        raise Boom(x)

    with pytest.raises(Boom):
        map_checked(fn, [1])


def test_records_reach_map_records_only_through_the_gate():
    # a stage's per-record check over another party's records goes through
    # map_checked, which drops repeats; only the encoder maps its own input
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    callers = set()
    for path in Path(parallel.__file__).parent.rglob("*.py"):
        tree = ast.parse(path.read_text())
        for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, functions))]:
            todo = list(ast.iter_child_nodes(scope))  # scope's own nodes, not nested functions'
            while todo:
                node = todo.pop()
                if isinstance(node, ast.alias) and node.name == "map_records":
                    assert node.asname is None, path
                if isinstance(node, ast.Call) and "map_records" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                ):
                    callers.add((path.stem, getattr(scope, "name", "<module>")))
                if not isinstance(node, functions):
                    todo.extend(ast.iter_child_nodes(node))
    assert callers == {("parallel", "map_checked"), ("harness", "encode_words")}


# ---------------------------------------------------------------------------
# the pipeline at any CPU count

ARTIFACTS = (
    "reports.bin", "shuffled.bin", "selectivity.json", "histogram.csv", "analyzer_stats.json",
)


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(ScenarioConfig(vocab_size=40, n_samples=1000, seed=3), id="hashed"),
        pytest.param(
            ScenarioConfig(
                vocab_size=60, n_samples=1000, seed=4, crowd_mode="fixed", secret_share_t=20
            ),
            id="secret-share",
        ),
        pytest.param(
            ScenarioConfig(
                vocab_size=30, n_samples=800, seed=5, crowd_mode="blinded", threshold_t=5,
                drop_mean=2, sigma=1,
            ),
            id="blinded",
        ),
    ],
)
def test_artifacts_do_not_depend_on_the_cpu_count(tmp_path, cpus, forked, config):
    outputs = []
    for n in (1, 2, 3):
        cpus(n)
        run_scenario(config, tmp_path / f"cpus{n}")
        outputs.append({name: (tmp_path / f"cpus{n}" / name).read_bytes() for name in ARTIFACTS})
        if n > 1:
            assert forked, "the forked path did not run"
    assert outputs[0] == outputs[1] == outputs[2]
    assert_reaped(forked)


# ---------------------------------------------------------------------------
# hostile records on the forked path

FUZZ_CONFIG = ScenarioConfig(vocab_size=50, n_samples=640, seed=8, threshold_t=1)
FUZZ_GROUP = GROUPS[FUZZ_CONFIG.group_id]
FUZZ_KIND = CROWD_KINDS[FUZZ_CONFIG.crowd_mode]
FUZZ_PAD_TO = derived_pad_to(FUZZ_CONFIG)
FUZZ_REPORT_LEN = report_length(FUZZ_KIND, FUZZ_PAD_TO, FUZZ_GROUP)


@pytest.fixture(scope="module")
def honest():
    """Reports, their intake batch and the analyzer's records, on 1 CPU."""
    tape = RngTape(FUZZ_CONFIG.seed)
    keys = derive_keys(FUZZ_CONFIG.group_id, tape)
    words = [item_word(1 + i % FUZZ_CONFIG.vocab_size) for i in range(FUZZ_CONFIG.n_samples)]
    with mock.patch.object(parallel, "usable_cpus", lambda: 1):
        reports = encode_words(
            FUZZ_CONFIG, words, tape, keys.analyzer.public_bytes, keys.shuffler.public_bytes
        )
        batch = fuzz_intake(reports, keys)
        inner = [i for _, i in batch.records]
        corpus = decrypt_corpus(inner, keys.analyzer)
    assert batch.stats["corrupt"] == 0 and corpus.failures == 0
    return keys, reports, batch, inner, corpus


def fuzz_intake(reports, keys):
    return intake(
        reports, keys.shuffler, "epoch-0", random.Random(1), FUZZ_GROUP,
        kind=FUZZ_KIND, report_len=FUZZ_REPORT_LEN,
    )


def hostile_records(length):
    """Arbitrary bytes, arbitrary bytes of the honest length, and honest
    records with one byte changed, each with an insertion point."""
    tampered = st.tuples(
        st.integers(0, FUZZ_CONFIG.n_samples - 1), st.integers(0, length - 1),
        st.integers(1, 255),
    )
    return st.lists(
        st.tuples(
            st.integers(0, FUZZ_CONFIG.n_samples),
            st.one_of(
                st.binary(max_size=2 * length),
                st.binary(min_size=length, max_size=length),
                tampered,
            ),
        ),
        min_size=1, max_size=12,
    )


def mix_in(honest_records, hostile):
    mixed = list(honest_records)
    for position, record in hostile:
        if isinstance(record, tuple):
            index, offset, mask = record
            blob = bytearray(honest_records[index])
            blob[offset] ^= mask
            record = bytes(blob)
        mixed.insert(position % (len(mixed) + 1), record)
    return mixed


@settings(max_examples=20, deadline=None)
@given(hostile=hostile_records(FUZZ_REPORT_LEN))
def test_intake_counts_every_hostile_report_when_forked(honest, hostile):
    keys, reports, expected, _, _ = honest
    mixed = mix_in(reports, hostile)
    with mock.patch.object(parallel, "usable_cpus", lambda: 2):
        batch = fuzz_intake(mixed, keys)
    assert batch.stats == {"input_count": len(mixed), "corrupt": len(hostile)}
    assert batch.records == expected.records


@settings(max_examples=20, deadline=None)
@given(hostile=hostile_records(inner_envelope_length(FUZZ_PAD_TO)))
def test_decrypt_corpus_counts_every_hostile_envelope_when_forked(honest, hostile):
    keys, _, _, inner, expected = honest
    mixed = mix_in(inner, hostile)
    with mock.patch.object(parallel, "usable_cpus", lambda: 2):
        corpus = decrypt_corpus(mixed, keys.analyzer)
    assert corpus.failures == len(hostile)
    assert corpus.records == expected.records


# ---------------------------------------------------------------------------
# golden artifacts: the sha256 of each file pins the bytes of a seeded run,
# also where the encoder's arithmetic or the stage orchestration changes

GOLDEN_RUNS = {
    "hashed": ScenarioConfig(
        vocab_size=40, n_samples=600, seed=6, threshold_t=5, drop_mean=2, sigma=1
    ),
    "secret-share": ScenarioConfig(
        vocab_size=60, n_samples=600, seed=4, crowd_mode="fixed", secret_share_t=20
    ),
    "blinded-test-256": ScenarioConfig(
        vocab_size=30, n_samples=600, seed=5, crowd_mode="blinded", threshold_t=5
    ),
    "blinded-modp-2048": ScenarioConfig(
        name="small", vocab_size=3, n_samples=12, seed=11, crowd_mode="blinded",
        threshold_t=2, group_id="modp-2048",
    ),
}
NO_DECODE_STATS = "b55cd2b521806b4f4c66d7619d4a6e25041b129ec9d323c528e5d40b33ab6f1b"
GOLDEN_DIGESTS = {
    "hashed": {
        "reports.bin": "b9424a21716aed36b302fbbf558c0d225a94910bc25d2b6c7c93913a50a7a7f8",
        "shuffled.bin": "81dcb9e66b1bc2bf1801439f518d499b14fc9b5ebf6dd4228b967fc1a84a1e2b",
        "selectivity.json": "d407fa27798e9683b52a9b96affd4b933966c7014f60d9f0053fdf272760cb60",
        "histogram.csv": "838db251c69629b3674ece1c361c0a21ac7ae2c0a370a4719d23ba3bfebda870",
        "analyzer_stats.json": NO_DECODE_STATS,
    },
    "secret-share": {
        "reports.bin": "5223def4ff01cd2bddbf4ec5330d4a29a1b2ca87e8187eb392bddba6effdf09a",
        "shuffled.bin": "1cdf0f92091f66d950a89759bba774a8ecae9cbe378cd043d0edb10067ca22d8",
        "selectivity.json": "c5f11ee83db0a8dd0cc18cb485819599dbcaa561d59aa1e98adf885b666b680f",
        "histogram.csv": "887197f19a34423b9283ab1d516e847e60ec7842c7241f66e4b74d7a03ffd41f",
        "analyzer_stats.json": "04a2ad0eeb5717dcf49f58f597d7532762b74820f5d48145d4a36342ddbc677b",
    },
    "blinded-test-256": {
        "reports.bin": "9bcaac0a5003ce1ab3ab2fc27d73f90b5c34d076057440e5b23ef918792fe5f0",
        "blinded.bin": "efe5ef5e6d468cd2120168c6334c70723f58590d3a53388eb61b637920d03633",
        "shuffled.bin": "6f9f8938dbcede84a374f245b630fe65376a07c0163dc27e653d03b649d3ca9b",
        "selectivity.json": "a614f202b93fe09795f42b93c1316b9417fa0165523c13bdeab39f6a85520560",
        "histogram.csv": "68f6831d97d52ba934aa5b8675b2382f0da2be0c3538187e0a7ffe3c23def7ba",
        "analyzer_stats.json": NO_DECODE_STATS,
    },
    "blinded-modp-2048": {
        "reports.bin": "50f079df8959f2eabfeaee961946d53c71a8404246915fe9bcd958fdd211bb3f",
        "blinded.bin": "f6057ef40f26cfd767f4916b3ab1b0d57acf9976ead49fa9586a2d53ebab5dd8",
        "shuffled.bin": "2c227cb4ae99180fe1ddf04b7ceac7949a01dc2414a4c4a40153bed8d67a0b72",
        "selectivity.json": "f0739da9df5980e93729890443a7bcd02acb6bcfe19b019ef7cfe1182f4cc34c",
        "histogram.csv": "bf49a3821fbc8c0c94734d1ccaafaebd599919227f7db09be0e03f8d38e0aeaf",
        "analyzer_stats.json": NO_DECODE_STATS,
    },
}


@pytest.mark.parametrize("n_cpus", [1, 2])
@pytest.mark.parametrize("name", list(GOLDEN_RUNS))
def test_artifacts_match_their_golden_digests(tmp_path, cpus, forked, name, n_cpus):
    cpus(n_cpus)
    config = GOLDEN_RUNS[name]
    run_scenario(config, tmp_path)
    # 600 reports fork at 2 CPUs; the 12 of modp-2048 never do
    assert bool(forked) == (n_cpus == 2 and config.n_samples >= 2 * MIN_PER_WORKER)
    digests = {
        artifact: hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()
        for artifact in GOLDEN_DIGESTS[name]
    }
    assert digests == GOLDEN_DIGESTS[name]


# ---------------------------------------------------------------------------
# membership checks on the forked encode path

SPY_WORDS = [item_word(1 + i % 30) for i in range(2 * MIN_PER_WORKER + 88)]


@pytest.fixture(scope="module")
def spy_keys():
    return derive_keys("test-256", RngTape(5))


@pytest.fixture
def membership_checks(monkeypatch, tmp_path):
    """Membership checks in the parent and in every forked child, as
    (pid, element).  Children append to one file, so their checks are seen
    too."""
    log = tmp_path / "membership-checks"
    log.touch()
    is_element = GroupParams.is_element

    def spy_is_element(self, e):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {e}\n")
        return is_element(self, e)

    monkeypatch.setattr(GroupParams, "is_element", spy_is_element)
    return lambda: [
        (int(pid), int(e)) for pid, e in (line.split() for line in log.read_text().splitlines())
    ]


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(ScenarioConfig(seed=5), id="hashed"),
        pytest.param(ScenarioConfig(seed=5, crowd_mode="fixed", secret_share_t=20), id="secret"),
        pytest.param(ScenarioConfig(seed=5, crowd_mode="fixed"), id="fixed"),
        pytest.param(ScenarioConfig(seed=5, crowd_mode="blinded"), id="blinded"),
    ],
)
def test_forked_encode_checks_only_shuffler2s_key_once_per_report(
    cpus, forked, membership_checks, spy_keys, config
):
    cpus(2)
    encode_words(
        config, SPY_WORDS, RngTape(config.seed), spy_keys.analyzer.public_bytes,
        spy_keys.shuffler.public_bytes, spy_keys.shuffler2, hash_key=spy_keys.crowd_hash,
    )
    assert forked
    checks = membership_checks()
    if not config.two_shufflers:
        assert checks == []
        return
    # h once per report, in the parent and in the child, and nothing else
    assert {e for _, e in checks} == {spy_keys.shuffler2.public}
    assert len(checks) == len(SPY_WORDS)
    assert {pid for pid, _ in checks} == {os.getpid(), *forked}


# ---------------------------------------------------------------------------
# OpenSSL's powers, loaded first in a forked child


def test_a_forked_child_loads_its_powers_on_first_use(monkeypatch, tmp_path, cpus, forked):
    """blind_stage1 at 2 CPUs with `modexp._power` not yet loaded in the
    parent: each process loads OpenSSL once and gets pow's records."""
    G, rng = GROUPS["test-256"], random.Random(13)
    kp, blinding = KeyPair.generate(G, rng), BlindingSecret.generate(G, rng)
    cts = [
        elgamal_encrypt(G, kp.public, hash_to_group(G, b"crowd %d" % (i % 40)), rng)
        for i in range(600)
    ]
    records = [(ct.to_bytes(G), b"inner %d" % i) for i, ct in enumerate(cts)]
    log, load = tmp_path / "loads", modexp._load

    def spy_load():
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return load()

    monkeypatch.setattr(modexp, "_power", None)
    monkeypatch.setattr(modexp, "_load", spy_load)
    cpus(2)
    out = blind_stage1(Batch(epoch_id="e", records=records), G, blinding)
    assert len(forked) == 1
    assert sorted(map(int, log.read_text().split())) == sorted([os.getpid(), *forked])
    q, alpha = G.modulus, blinding.alpha

    def power(c):  # pow's answer, as its class's member in [1, p]
        r = pow(c, alpha, q)
        return min(r, q - r)

    assert out.records == [
        (ElGamalCiphertext(power(ct.c1), power(ct.c2)).to_bytes(G), inner)
        for ct, (_, inner) in zip(cts, records)
    ]
    assert out.stats == {"input_count": 600, "invalid": 0}
