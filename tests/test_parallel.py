"""map_records: results, when it forks, that its workers serve every later
map, and that every worker is reaped, also when its process exits, is killed
or forks; the gate map_checked, and that records reach map_records only
through it, by functions that pickle; the pipeline's artifacts and its
counts of hostile records at any CPU count, the golden digests of seeded
runs' artifacts, and group powers and symbols whose first use is in a
forked child."""

import ast
import hashlib
import importlib.util
import os
import pickle
import random
import subprocess
import sys
import threading
import time
from contextlib import suppress
from functools import partial
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


SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


class Boom(Exception):
    pass


# Functions the workers run travel pickled, so they live at module level.


def square(x):
    return x * x


def add(offset, x):
    return x + offset


def pid_of(_):
    return os.getpid()


def fail_at(bad, x):
    if x == bad:
        raise Boom(x)
    return x


def interrupt_at(bad, x):
    if x == bad:
        raise KeyboardInterrupt
    return x


def fail_at_first_sleep_at_last(first, last, x):
    if x == first:
        raise Boom(x)
    time.sleep(60 if x == last else 0)  # the worker's chunk never ends in time
    return x


def exit_at(bad, x):
    if x == bad:
        os._exit(3)
    return x


def closure_of(x):
    return lambda: x


def pids_of_a_nested_map(_):
    return set(map_records(pid_of, list(range(2 * MIN_PER_WORKER))))


@pytest.fixture
def cpus(monkeypatch):
    def set_cpus(n):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: n)

    return set_cpus


@pytest.fixture
def forked(monkeypatch):
    """The pids of the workers forked during the test: it starts without a
    pool, and the pool's shutdown at its end must reap every one of them."""
    parallel.shutdown()
    real_fork = os.fork
    pids = []

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    yield pids
    parallel.shutdown()
    assert_reaped(pids)


def no_fork():
    raise AssertionError("forked")


def assert_reaped(pids):
    """Each of `pids` is reaped once the pool is shut down."""
    parallel.shutdown()
    assert_already_reaped(pids)


def assert_already_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


# ---------------------------------------------------------------------------
# lifecycle


@pytest.mark.parametrize("n_cpus", [1, 2, 3])
@pytest.mark.parametrize(
    "n_items",
    # around the split, and around it at the MIN_PER_WORKER of 256 that
    # forking on every call needed
    [0, 1, 2 * MIN_PER_WORKER - 1, 2 * MIN_PER_WORKER, 3 * MIN_PER_WORKER + 7, 511, 512, 775],
)
def test_map_records_equals_the_comprehension(cpus, forked, n_cpus, n_items):
    cpus(n_cpus)
    items = list(range(n_items))
    assert map_records(square, items) == [square(x) for x in items]
    splits = min(n_cpus, n_items // MIN_PER_WORKER) >= 2
    assert len(forked) == (n_cpus - 1 if splits else 0)


def test_the_workers_serve_every_later_map(cpus, forked):
    cpus(3)
    items = list(range(3 * MIN_PER_WORKER))
    first = map_records(pid_of, items)
    assert set(first) == {os.getpid(), *forked} and len(forked) == 2
    for offset in range(3):
        assert map_records(partial(add, offset), items) == [x + offset for x in items]
    # a batch of two chunks uses the first worker only
    assert set(map_records(pid_of, items[: 2 * MIN_PER_WORKER])) == {os.getpid(), forked[0]}
    assert map_records(pid_of, items) == first
    assert len(forked) == 2


def test_a_changed_cpu_count_replaces_the_pool(cpus, forked):
    items = list(range(3 * MIN_PER_WORKER))
    cpus(2)
    assert set(map_records(pid_of, items)) == {os.getpid(), forked[0]}
    cpus(3)
    assert set(map_records(pid_of, items)) == {os.getpid(), *forked[1:]}
    assert len(forked) == 3
    assert_already_reaped(forked[:1])


def test_bound_arguments_travel_and_closures_do_not(cpus, forked):
    cpus(2)
    offset = 7
    items = list(range(2 * MIN_PER_WORKER))
    assert map_records(partial(add, offset), items) == [x + offset for x in items]
    with pytest.raises((AttributeError, pickle.PicklingError)):
        map_records(lambda x: x + offset, items)
    assert_already_reaped(forked)
    # below the split a closure runs in-process, as before
    assert map_records(lambda x: x + offset, items[:1]) == [offset]


def test_a_map_inside_a_map_runs_in_process(cpus, forked):
    cpus(2)
    items = list(range(2 * MIN_PER_WORKER))
    nested = map_records(pids_of_a_nested_map, items)
    assert len(forked) == 1
    half = len(items) // 2
    assert nested[:half] == [{os.getpid()}] * half  # in the owner's chunk too
    assert nested[half:] == [{forked[0]}] * (len(items) - half)


def pool_pipes_held(pool_pipes, _):
    """Which of the pool's pipes (by inode) this process holds an end of."""
    held = set()
    for fd in os.listdir("/proc/self/fd"):
        with suppress(FileNotFoundError):  # listdir's own, closed since
            held.add(os.readlink(f"/proc/self/fd/{fd}"))
    return held & pool_pipes


@pytest.mark.skipif(not Path("/proc/self/fd").exists(), reason="needs /proc")
def test_each_worker_holds_only_its_own_pipes(cpus, forked):
    cpus(3)
    items = list(range(3 * MIN_PER_WORKER))
    map_records(square, items)
    pipes = [
        {os.readlink(f"/proc/self/fd/{f.fileno()}") for f in (requests, replies)}
        for _, requests, replies in parallel._pool.workers
    ]
    every = set.union(*pipes)
    assert len(forked) == 2 and len(every) == 4
    held = map_records(partial(pool_pipes_held, every), items)
    bounds = [0, len(items) // 3, 2 * len(items) // 3, len(items)]
    assert held[: bounds[1]] == [every] * bounds[1]  # the owner
    for i, own in enumerate(pipes, 1):
        assert held[bounds[i] : bounds[i + 1]] == [own] * (bounds[i + 1] - bounds[i])


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
    bad = items[0] if where == "first" else items[-1]  # the owner's or a worker's chunk
    with pytest.raises(Boom):
        map_records(partial(fail_at, bad), items)
    assert len(forked) == 2
    assert_already_reaped(forked)
    assert map_records(square, items) == [square(x) for x in items]  # a new pool
    assert len(forked) == 4


def test_an_error_in_the_parents_chunk_stops_the_children(cpus, forked):
    cpus(2)
    items = list(range(2 * MIN_PER_WORKER))
    start = time.monotonic()
    with pytest.raises(Boom):
        map_records(partial(fail_at_first_sleep_at_last, items[0], items[-1]), items)
    assert time.monotonic() - start < 30
    assert_already_reaped(forked)


def test_an_interrupt_during_a_map_reaps_the_workers(cpus, forked):
    cpus(3)
    items = list(range(3 * MIN_PER_WORKER))
    with pytest.raises(KeyboardInterrupt):
        map_records(partial(interrupt_at, items[0]), items)
    assert len(forked) == 2
    assert_already_reaped(forked)


def test_a_result_that_cannot_be_pickled_is_an_error(cpus, forked):
    cpus(2)
    with pytest.raises((AttributeError, pickle.PicklingError)):
        map_records(closure_of, list(range(2 * MIN_PER_WORKER)))
    assert_already_reaped(forked)


def test_a_child_that_exits_without_a_result_is_an_error(cpus, forked):
    cpus(2)
    items = list(range(2 * MIN_PER_WORKER))
    with pytest.raises(RuntimeError, match="without a result"):
        map_records(partial(exit_at, items[-1]), items)  # in the worker's chunk
    assert_already_reaped(forked)


# ---------------------------------------------------------------------------
# the workers of a process that exits, is killed or forks: each case runs in
# a process of its own, which prints its workers' pids

OWNER = """
import atexit, os, sys


def reaped():  # registered first, so it runs after the pool's own exit handler
    for pid in workers:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        print("left", pid, flush=True)
        return
    print("reaped", flush=True)


atexit.register(reaped)
from anonpipe import parallel

parallel.usable_cpus = lambda: 3


def pid_of(_):
    return os.getpid()


items = list(range(3 * parallel.MIN_PER_WORKER))
pids = parallel.map_records(pid_of, items)
workers = set(pids) - {os.getpid()}
print(*sorted(workers), flush=True)
"""


def run_owner(tail, **kwargs):
    env = {**os.environ, "PYTHONPATH": str(Path(parallel.__file__).parents[1])}
    return subprocess.Popen(
        [sys.executable, "-c", OWNER + tail], env=env, stdout=subprocess.PIPE, text=True,
        **kwargs,
    )


def alive(pid):
    """Running, not a zombie left for another process to reap."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def wait_until_gone(pids, timeout=10):
    deadline = time.monotonic() + timeout
    while any(alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    return [pid for pid in pids if alive(pid)]


needs_proc = pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")


@needs_proc
def test_an_owner_that_exits_leaves_no_worker():
    owner = run_owner("")
    out, _ = owner.communicate(timeout=60)
    lines = out.splitlines()
    workers = [int(pid) for pid in lines[0].split()]
    assert owner.returncode == 0 and len(workers) == 2
    assert lines[1:] == ["reaped"]  # by the owner, at its exit
    assert [pid for pid in workers if alive(pid)] == []


@needs_proc
def test_the_workers_of_a_killed_idle_owner_leave():
    owner = run_owner("sys.stdin.read()\n", stdin=subprocess.PIPE)
    try:
        workers = [int(pid) for pid in owner.stdout.readline().split()]
        assert len(workers) == 2 and all(alive(pid) for pid in workers)
    finally:
        owner.kill()
        owner.communicate(timeout=60)
    assert wait_until_gone(workers) == []


def test_a_forked_child_leaves_the_owners_workers_alone():
    owner = run_owner(
        "child = os.fork()\n"
        "if child == 0:\n"
        "    mine = set(parallel.map_records(pid_of, items))\n"
        "    parallel.shutdown()\n"
        "    os._exit(3 if mine & workers else 0 if len(mine) == 3 else 4)\n"
        "print(os.waitstatus_to_exitcode(os.waitpid(child, 0)[1]), flush=True)\n"
        "print(int(parallel.map_records(pid_of, items) == pids), flush=True)\n"
        "print(parallel.map_records(str, items) == list(map(str, items)), flush=True)\n"
    )
    out, _ = owner.communicate(timeout=60)
    lines = out.splitlines()
    assert owner.returncode == 0 and len(lines) == 5, out
    # the child mapped on workers of its own; the owner's pool is unchanged
    assert lines[1:] == ["0", "1", "True", "reaped"]


# ---------------------------------------------------------------------------
# the gate for records from another party

REJECTS = [AuthenticationError, DecryptionError, InvalidPoint]


def square_unless_rejected(rejects, x):
    if x in rejects:
        raise rejects[x](x)
    return square(x)


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

    seen, expected = set(), []
    for x in items:
        if x not in seen and x not in bad:
            expected.append(square(x))
        seen.add(x)
    results, rejected = map_checked(partial(square_unless_rejected, bad), items)
    assert results == expected
    assert rejected == len(items) - len(results)


def test_map_checked_passes_any_other_error_on(cpus):
    cpus(1)
    with pytest.raises(Boom):
        map_checked(partial(fail_at, 1), [1])


def test_records_reach_map_records_only_through_the_gate():
    # a stage's per-record check over another party's records goes through
    # map_checked, which drops repeats; only the encoder maps its own input.
    # Every function handed to either map is sent to the workers by name: a
    # module-level function or a partial of one, never a lambda or a nested
    # def, and never a name the per-layer tracer replaces (perfbench/spans.py)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    traced = {(path, attr) for _, path, attr, _ in spans.TARGETS}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    callers, sent = set(), set()
    for path in Path(parallel.__file__).parent.rglob("*.py"):
        tree = ast.parse(path.read_text())
        module_functions = {n.name: path.stem for n in tree.body if isinstance(n, functions)}
        module_functions.update(
            (alias.asname or alias.name, node.module.rsplit(".", 1)[-1])
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names
        )
        for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, functions))]:
            bound = {}  # this scope's `name = partial(...)` assignments
            calls = []
            todo = list(ast.iter_child_nodes(scope))  # scope's own nodes, not nested functions'
            while todo:
                node = todo.pop()
                if isinstance(node, ast.alias) and node.name in ("map_records", "map_checked"):
                    assert node.asname is None, path
                if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                    bound[node.targets[0].id] = node.value
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    if name == "map_records":
                        callers.add((path.stem, getattr(scope, "name", "<module>")))
                    if name in ("map_records", "map_checked"):
                        calls.append(node)
                if not isinstance(node, functions):
                    todo.extend(ast.iter_child_nodes(node))
            for call in calls:
                fn = bound.get(getattr(call.args[0], "id", None), call.args[0])
                if isinstance(fn, ast.Call) and getattr(fn.func, "id", None) == "partial":
                    fn = fn.args[0]
                where = f"{path.stem}.{getattr(scope, 'name', '<module>')}"
                assert isinstance(fn, ast.Name), where
                if fn.id == "fn" and where == "parallel.map_checked":
                    continue  # the caller's function, checked at the caller
                assert fn.id in module_functions, f"{where} sends {fn.id}"
                sent.add((module_functions[fn.id], fn.id))
    assert callers == {("parallel", "map_checked"), ("harness", "encode_words")}
    assert sent and not sent & traced, sent & traced


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
