import ast
import hashlib
import random
from collections import Counter
from pathlib import Path

import pytest
from cryptography.exceptions import InvalidTag
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from anonpipe import stash_shuffle as stash_shuffle_mod
from anonpipe.errors import BudgetExceeded, ShuffleFailed
from anonpipe.shuffler import Batch, shuffle_batch
from anonpipe.stash_shuffle import (
    REFERENCE_SCENARIOS,
    ItemCipher,
    Trace,
    analytic_overhead,
    chunk_cap_for_alpha,
    make_params,
    params_for,
    prior_art_overheads,
    shuffle_to_buckets,
    stash_shuffle,
)


def _items(n, rng, length=16):
    return [rng.randbytes(length) for _ in range(n)]


# ---------------------------------------------------------------------------
# parameters


def test_chunk_cap_for_alpha_formula():
    c = chunk_cap_for_alpha(1000, 10, alpha=4.0)
    assert c == 23  # ceil(10 + 4*sqrt(10))
    p = make_params(1000, 10, chunk_cap=c, stash_cap=40, window=2)
    assert p.bucket_size == 100
    assert p.drain_per_bucket == 4


def test_alpha_inversion_roundtrip():
    p = make_params(10_000_000, 1000, chunk_cap=25, stash_cap=40_000, window=4)
    assert chunk_cap_for_alpha(10_000_000, 1000, p.alpha) == 25


def test_mid_slots_accounting():
    p = make_params(1000, 10, chunk_cap=13, stash_cap=40, window=2)
    assert p.mid_slots == 10 * (10 * 13 + 4)


def test_reference_overheads():
    expected = [3.50, 3.40, 3.70, 3.32]
    for (n, b, c, w, s), target in zip(REFERENCE_SCENARIOS, expected):
        p = make_params(n, b, chunk_cap=c, stash_cap=s, window=w)
        assert analytic_overhead(p) == pytest.approx(target, abs=0.005)


def test_params_for_rule():
    p = params_for(2255, 65)
    assert (p.num_buckets, p.stash_cap, p.window, p.item_len) == (14, 282, 4, 65)
    assert p.chunk_cap == chunk_cap_for_alpha(2255, 14, 4.0)
    small = params_for(1, 65)
    assert (small.num_buckets, small.stash_cap) == (1, 16)


def test_budget_rejects_oversized_working_set():
    with pytest.raises(BudgetExceeded):
        make_params(10_000, 2, chunk_cap=5000, stash_cap=0, window=2,
                    item_len=1024, private_mem_budget=1 << 20)


def test_prior_art_multipliers():
    budget = 2 * 152_000 * 318
    r = prior_art_overheads(10_000_000, 318, budget)
    assert r.batcher_bucket_items == 152_000
    assert r.batcher_multiplier == 49  # ceil(log2(10M/152k))^2 = 7^2
    r100 = prior_art_overheads(100_000_000, 318, budget)
    assert r100.batcher_multiplier == 100  # 10^2
    assert r.columnsort_multiplier == 8
    assert r.columnsort_max_items == 118_560_000
    assert r.columnsort_feasible and not prior_art_overheads(
        200_000_000, 318, budget
    ).columnsort_feasible


# ---------------------------------------------------------------------------
# target drawing


def test_shuffle_to_buckets_shape():
    rng = random.Random(0)
    targets = shuffle_to_buckets(5, 12, rng)
    assert len(targets) == 12
    assert all(0 <= t < 5 for t in targets)


def test_shuffle_to_buckets_marginal_uniform():
    rng = random.Random(1)
    counts = Counter(shuffle_to_buckets(4, 8, rng)[0] for _ in range(8000))
    _, pvalue = stats.chisquare([counts[i] for i in range(4)])
    assert pvalue > 1e-3


def test_shuffle_to_buckets_marginals_at_three_buckets():
    # 2^64 is not a multiple of 3, so targets come from the words below the
    # rejection limit; every position of the run lands uniformly
    rng = random.Random(13)
    counts = Counter()
    for _ in range(3000):
        counts.update(enumerate(shuffle_to_buckets(3, 5, rng)))
    for position in range(5):
        _, pvalue = stats.chisquare([counts[position, t] for t in range(3)])
        assert pvalue > 1e-3


class _TapeRng:
    """Answers each `randbytes` call with the next of `tape`'s byte strings;
    logs each call's length."""

    def __init__(self, tape):
        self.tape, self.calls = list(tape), []

    def randbytes(self, n):
        self.calls.append(n)
        assert len(self.tape[0]) == n
        return self.tape.pop(0)


def _words(*words):
    return b"".join(w.to_bytes(8, "little") for w in words)


def test_shuffle_to_buckets_draws_a_word_past_the_limit_again():
    # 2^64 mod 3 = 1, so 2^64 - 1 is the one word past the limit; 2^64 - 2 is kept
    rng = _TapeRng([_words(2**64 - 1, 0, 2**64 - 2, 4), _words(5)])
    assert shuffle_to_buckets(3, 4, rng) == [2, 0, (2**64 - 2) % 3, 1]
    assert rng.calls == [32, 8]


def test_shuffle_to_buckets_keeps_every_word_at_a_power_of_two():
    # 2^64 is a multiple of 4: no word is past a limit
    rng = _TapeRng([_words(2**64 - 1, 2**64 - 2, 1, 0)])
    assert shuffle_to_buckets(4, 4, rng) == [3, 2, 1, 0]
    assert rng.calls == [32]


def test_random_order_sorts_by_key_and_draws_all_keys_again_on_a_tie():
    # the first draw ties two keys; the second orders the items by its keys
    rng = _TapeRng([_words(7, 3, 7), _words(2**64 - 1, 0, 2**63)])
    assert stash_shuffle_mod._random_order(["a", "b", "c"], rng) == ["b", "c", "a"]
    assert rng.calls == [24, 24]


# ---------------------------------------------------------------------------
# end-to-end shuffling


def test_output_is_permutation_of_input():
    rng = random.Random(2)
    p = make_params(200, 5, chunk_cap=22, stash_cap=40, window=3, item_len=16)
    items = _items(200, rng)
    res = stash_shuffle(items, p, rng)
    assert sorted(res.records) == sorted(items)


def test_short_last_bucket():
    rng = random.Random(3)
    # runs of 19 and 20 items; then B > N, so one run of 0 items and two of 1
    for p in (make_params(97, 5, chunk_cap=14, stash_cap=30, window=3, item_len=16),
              make_params(2, 3, chunk_cap=1, stash_cap=1, window=3, item_len=16)):
        items = _items(p.n_items, rng)
        res = stash_shuffle(items, p, rng)
        assert sorted(res.records) == sorted(items)


def test_draws_come_only_from_randbytes_once_per_run_and_bucket():
    # the key, then one draw per input run and one per output bucket: no draw
    # per item or per blob, and no other method of the rng
    class Counting:
        def __init__(self, seed):
            self._real, self.calls = random.Random(seed), 0

        def randbytes(self, n):
            self.calls += 1
            return self._real.randbytes(n)

    p = make_params(4000, 20, 30, 1200, 4, item_len=150)
    items = _items(p.n_items, random.Random(14), p.item_len)
    for seed in range(3):
        rng = Counting(seed)
        res = stash_shuffle(items, p, rng, keep_trace=False)
        assert sorted(res.records) == sorted(items)
        assert rng.calls <= res.attempts * (2 * p.num_buckets + 1)


def test_tied_order_keys_are_drawn_again():
    # after the key and the B runs' targets, the next draw is the first
    # output bucket's keys: answer it with zeros, so all of them tie
    p = _safe_params(12, 3)
    items = _items(12, random.Random(15))
    real, calls = random.Random(16), []

    class TieOnce:
        def randbytes(self, n):
            calls.append(n)
            return bytes(n) if len(calls) == 2 + p.num_buckets else real.randbytes(n)

    res = stash_shuffle(items, p, TieOnce())
    assert sorted(res.records) == sorted(items)
    # the keys of two or more items are drawn again, once
    assert len(calls) == 2 * p.num_buckets + 2
    assert calls[1 + p.num_buckets] == calls[2 + p.num_buckets] > 8


def test_orders_of_four_items_are_uniform():
    # all 24 orders of 4 items, through both phases at B = 2
    rng = random.Random(18)
    p = _safe_params(4, 2, item_len=4)
    items = [b"%04d" % i for i in range(4)]
    counts = Counter(tuple(stash_shuffle(items, p, rng, keep_trace=False).records)
                     for _ in range(4800))
    assert len(counts) == 24
    _, pvalue = stats.chisquare(list(counts.values()))
    assert pvalue > 1e-3


def test_max_attempts_below_one_is_refused():
    p = make_params(8, 2, chunk_cap=4, stash_cap=4, window=2, item_len=4)
    with pytest.raises(ValueError, match="max_attempts"):
        stash_shuffle([b"aaaa"] * 8, p, random.Random(0), max_attempts=0)


def test_mixed_item_lengths_rejected():
    rng = random.Random(5)
    p = make_params(8, 2, chunk_cap=4, stash_cap=4, window=2, item_len=4)
    with pytest.raises(ValueError):
        stash_shuffle([b"aaaa"] * 7 + [b"bb"], p, rng)


def test_records_of_another_length_than_params_rejected():
    rng = random.Random(5)
    p = make_params(8, 2, chunk_cap=4, stash_cap=4, window=2, item_len=4)
    with pytest.raises(ValueError, match="item_len"):
        stash_shuffle([b"aaaaa"] * 8, p, rng)


def test_record_count_must_match():
    rng = random.Random(6)
    p = make_params(8, 2, chunk_cap=4, stash_cap=4, window=2, item_len=4)
    with pytest.raises(ValueError):
        stash_shuffle([b"aaaa"] * 7, p, rng)


# ---------------------------------------------------------------------------
# obliviousness and volume


def _safe_params(n, b, item_len=16):
    # C >= D makes every attempt succeed, so traces are single-attempt
    d = -(-n // b)
    return make_params(n, b, chunk_cap=d, stash_cap=0, window=b, item_len=item_len)


def test_trace_is_data_independent():
    # runs of 12 items; then B does not divide N, so runs of 12 and 13
    for p in (_safe_params(48, 4), _safe_params(50, 4)):
        dumps = set()
        for seed in range(6):
            rng = random.Random(seed)
            res = stash_shuffle(_items(p.n_items, rng), p, rng)
            assert res.attempts == 1
            dumps.add(res.trace.dump())
        assert len(dumps) == 1


@pytest.mark.parametrize("n", [1, 7, 50, 300, 2255])
def test_trace_is_data_independent_at_pipeline_params(n):
    p = params_for(n, 24)
    dumps = set()
    for seed in range(2):
        rng = random.Random(seed)
        dumps.add(stash_shuffle(_items(n, rng, 24), p, rng).trace.dump())
    assert len(dumps) == 1


def test_trace_volumes_match_analysis():
    rng = random.Random(7)
    # runs of 30 items; then B does not divide N, so runs of 30 and 31
    for n in (120, 122):
        p = make_params(n, 4, chunk_cap=21, stash_cap=16, window=3, item_len=16)
        res = stash_shuffle(_items(n, rng), p, rng)
        assert res.attempts == 1
        entries = res.trace.entries
        mid_writes = sum(1 for _, r, _, _, op in entries if r == "mid" and op == "write")
        mid_reads = sum(1 for _, r, _, _, op in entries if r == "mid" and op == "read")
        in_reads = sum(1 for _, r, _, _, op in entries if r == "in")
        out_writes = sum(1 for _, r, _, _, op in entries if r == "out")
        assert mid_writes == mid_reads == p.mid_slots
        assert in_reads == out_writes == n


def test_peak_private_memory_within_declared_working_set():
    rng = random.Random(8)
    p = make_params(300, 5, chunk_cap=30, stash_cap=40, window=3, item_len=24)
    res = stash_shuffle(_items(300, rng, 24), p, rng)
    assert res.peak_private_bytes <= p.working_set_bytes()


def _blob_lengths(monkeypatch, n, seed):
    """Lengths of the blobs `shuffle_batch` seals and opens, in call order,
    for a batch of n records of 8 + 40 bytes; and the params it ran at."""
    sealed, opened = [], []
    encrypt, decrypt = ItemCipher.encrypt, ItemCipher.decrypt

    def spy_encrypt(self, *args):
        blob = encrypt(self, *args)
        sealed.append(len(blob))
        return blob

    def spy_decrypt(self, blob, *args):
        opened.append(len(blob))
        return decrypt(self, blob, *args)

    rng = random.Random(seed)
    batch = Batch("e", [(rng.randbytes(8), rng.randbytes(40)) for _ in range(n)])
    with monkeypatch.context() as m:
        m.setattr(ItemCipher, "encrypt", spy_encrypt)
        m.setattr(ItemCipher, "decrypt", spy_decrypt)
        assert sorted(shuffle_batch(batch, rng).records) == sorted(batch.records)
    return sealed, opened, params_for(n, 48)


def test_blob_lengths_depend_only_on_the_parameters(monkeypatch):
    # 99 records fill 3 runs of 33; 97 fill runs of 32, 32 and 33
    sealed, opened, p = _blob_lengths(monkeypatch, 99, 1)
    b, d = p.num_buckets, p.bucket_size
    assert (b, b * d) == (3, 99)
    chunk = 4 + p.chunk_cap * p.item_len + 16
    drain = 4 + p.drain_per_bucket * p.item_len + 16
    # one attempt: B chunks per input bucket, then B drain regions; each
    # output bucket then opens its B chunks and its drain region
    assert sealed == [chunk] * (b * b) + [drain] * b
    assert opened == ([chunk] * b + [drain]) * b
    padded = _blob_lengths(monkeypatch, 97, 2)
    assert padded[2].num_buckets * padded[2].bucket_size == 99
    assert padded[:2] == (sealed, opened)


def test_a_blob_handed_back_at_another_address_fails_to_open(monkeypatch):
    # untrusted memory answers the first read of the intermediate region with
    # another chunk of the same size; its seal names its own address
    read = Trace.read
    swapped = []

    def swap_once(self, region, offset, count):
        if region != "mid" or swapped:
            return read(self, region, offset, count)
        other = next(
            key for key in self.runs if key[0] == "mid" and key[2] == count and key[1] != offset
        )
        swapped.append(other)
        return self.runs[other]

    rng = random.Random(3)
    p = make_params(48, 4, chunk_cap=12, stash_cap=0, window=4, item_len=16)
    items = _items(48, rng)
    monkeypatch.setattr(Trace, "read", swap_once)
    with pytest.raises(InvalidTag):
        stash_shuffle(items, p, rng)
    assert swapped


def test_untrusted_accesses_are_logged_only_by_the_store():
    # the trace is the store's log of its own reads and writes, not a second
    # model of them: only Trace touches `entries`, outside it only `read` and
    # `write` reach the methods that extend it, and `_attempt` nests no helper
    tree = ast.parse(Path(stash_shuffle_mod.__file__).read_text())
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    store = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Trace")
    inside = {id(n) for n in ast.walk(store)}

    def appends(node):
        if isinstance(node, ast.AugAssign):
            return getattr(node.target, "attr", None) == "entries"
        return isinstance(node, ast.Call) and getattr(node.func, "attr", None) in (
            "append", "extend", "insert"
        ) and getattr(node.func.value, "attr", None) == "entries"

    loggers = {
        method.name
        for method in store.body
        if isinstance(method, ast.FunctionDef) and any(map(appends, ast.walk(method)))
    }
    assert loggers
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        assert getattr(node, "attr", None) != "entries", node.lineno
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in loggers:
            assert node.func.attr in ("read", "write"), node.lineno
    attempt = next(n for n in tree.body if getattr(n, "name", None) == "_attempt")
    assert not [n for n in ast.walk(attempt) if isinstance(n, functions) and n is not attempt]


@pytest.mark.parametrize("path", ["stash_shuffle", "shuffle_batch"])
@pytest.mark.parametrize("n", [99, 97])  # B = 3 runs: of 33 items, then of 32, 32 and 33
def test_all_zero_records_are_never_taken_for_pads(n, path):
    # a dummy is zero-filled, so a real all-zero record equals it by value,
    # and repeated records equal each other: only a blob's item count may
    # tell items from dummies, or such records would be dropped or duplicated
    rng = random.Random(n)
    p = params_for(n, 48)
    assert p.num_buckets * p.bucket_size - n == 99 - n
    zero, repeated = bytes(48), rng.randbytes(48)
    records = [zero] * 5 + [repeated] * 4 + _items(n - 9, rng, 48)
    rng.shuffle(records)
    for seed in range(3):
        if path == "stash_shuffle":
            out = stash_shuffle(records, p, random.Random(seed)).records
        else:
            batch = Batch("e", [(r[:8], r[8:]) for r in records])
            out = [a + b for a, b in shuffle_batch(batch, random.Random(seed)).records]
        assert all(type(r) is bytes for r in out)
        assert sorted(out) == sorted(records)


# N = 97 over 5 buckets: runs of 19 and 20 items, B*D - N = 3 short of five
# full runs (id "pads"); N = 100: five full runs of 20
_CIPHER_PARAMS = [make_params(97, 5, 14, 30, 3, item_len=16),
                  make_params(100, 5, 14, 30, 3, item_len=16)]


@settings(max_examples=20, deadline=None)
@given(st.data())
@pytest.mark.parametrize("p", _CIPHER_PARAMS, ids=["pads", "no-pads"])
def test_item_cipher_round_trips_every_fill_at_its_own_address_only(p, data):
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    cipher = ItemCipher(rng, p)
    addresses = [a for row in p.blob_addresses() for a in row]
    # a chunk's address and a drain region's
    for offset, slots in (addresses[0], addresses[-1]):
        assert slots in (p.chunk_cap, p.drain_per_bucket)
        for fill in range(slots + 1):
            zeros = data.draw(st.lists(st.booleans(), min_size=fill, max_size=fill))
            items = [bytes(16) if zero else rng.randbytes(16) for zero in zeros]
            blob = cipher.encrypt(items, offset, slots)
            assert len(blob) == 4 + slots * p.item_len + 16
            out = cipher.decrypt(blob, offset, slots)
            assert all(type(got) is bytes for got in out) and out == items
            for other in [*addresses, (offset + 1, slots), (offset, slots + 1)]:
                if other != (offset, slots):
                    with pytest.raises(InvalidTag):
                        cipher.decrypt(blob, *other)


# ---------------------------------------------------------------------------
# failure phases (driven by a rigged target draw)


@pytest.fixture
def rigged(monkeypatch):
    """Sends every item to the last bucket."""
    monkeypatch.setattr(
        stash_shuffle_mod, "shuffle_to_buckets", lambda b, run_length, rng: [b - 1] * run_length
    )


def test_stash_overflow_fails_distribution_phase(rigged):
    p = make_params(9, 3, chunk_cap=1, stash_cap=0, window=3, item_len=4)
    with pytest.raises(ShuffleFailed) as exc:
        stash_shuffle([b"%04d" % i for i in range(9)], p, random.Random(0))
    assert exc.value.phase == "distribution"


def test_stash_drain_cap_fails_drain_phase(rigged):
    p = make_params(9, 3, chunk_cap=1, stash_cap=9, window=3, item_len=4)
    with pytest.raises(ShuffleFailed) as exc:
        stash_shuffle([b"%04d" % i for i in range(9)], p, random.Random(0))
    assert exc.value.phase == "drain"


def test_queue_underflow_fails_compression_phase(rigged):
    p = make_params(9, 3, chunk_cap=3, stash_cap=0, window=1, item_len=4)
    with pytest.raises(ShuffleFailed) as exc:
        stash_shuffle([b"%04d" % i for i in range(9)], p, random.Random(0))
    assert exc.value.phase == "compression"


def test_failed_phases_recorded_on_success_after_retry():
    # tight caps make first attempts fail sometimes; records must survive
    rng = random.Random(9)
    p = make_params(6, 3, chunk_cap=1, stash_cap=2, window=3, item_len=4)
    saw_retry = False
    for _ in range(300):
        items = [b"%04d" % rng.randrange(10_000) for _ in range(6)]
        res = stash_shuffle(items, p, rng, max_attempts=64)
        assert sorted(res.records) == sorted(items)
        if res.attempts > 1:
            saw_retry = True
            assert len(res.failed_phases) == res.attempts - 1
    assert saw_retry


def test_retries_do_not_bias_the_permutation():
    # conditional on a retry having happened, the output permutation should
    # look the same as in single-attempt runs (fresh key, fresh randomness)
    rng = random.Random(10)
    p = make_params(6, 3, chunk_cap=1, stash_cap=2, window=3, item_len=4)
    items = [b"%04d" % i for i in range(6)]
    table = {}  # perm -> [single-attempt count, retried count]
    for _ in range(6000):
        res = stash_shuffle(items, p, rng, max_attempts=64)
        key = tuple(res.records)
        row = table.setdefault(key, [0, 0])
        row[1 if res.attempts > 1 else 0] += 1
    rows = [row for row in table.values() if sum(row) >= 10]
    _, pvalue, _, _ = stats.chi2_contingency([[r[0] for r in rows], [r[1] for r in rows]])
    assert pvalue > 1e-4


def test_first_item_lands_uniformly():
    rng = random.Random(11)
    # runs of 2 items; then B does not divide N, so runs of 2, 2 and 3
    for n in (6, 7):
        p = _safe_params(n, 3, item_len=4)
        items = [b"%04d" % i for i in range(n)]
        positions = Counter()
        for _ in range(4000):
            res = stash_shuffle(items, p, rng)
            positions[res.records.index(items[0])] += 1
        _, pvalue = stats.chisquare([positions[i] for i in range(n)])
        assert pvalue > 1e-3


def test_same_input_bucket_pairs_split_like_a_uniform_permutation():
    # items 0 and 1 share an input bucket; under a uniform permutation of 6
    # items into 3 output buckets of 2 they share an output bucket w.p. 1/5
    rng = random.Random(12)
    p = _safe_params(6, 3, item_len=4)
    items = [b"%04d" % i for i in range(6)]
    runs, together = 4000, 0
    for _ in range(runs):
        out = stash_shuffle(items, p, rng, keep_trace=False).records
        together += out.index(items[0]) // 2 == out.index(items[1]) // 2
    assert stats.binomtest(together, runs, 0.2).pvalue > 1e-3


# ---------------------------------------------------------------------------
# golden outputs: the permutation, RNG draw order, trace and failure history
# are pinned, so a rework of the private-memory code must reproduce them

_GOLDEN = [
    # (params, seed, attempts, failed phases, sha256 of the result)
    (params_for(1, 24), 1, 1, [],
     "a0f1ade8dfc9c5294efe58a2a72ed2eba036078fb6073992b32b79e985fa7fd6"),
    (params_for(50, 24), 2, 1, [],
     "9ac9079f4102994207aee7f42b742f7cc14d29b04a32d21f145edbed7f3b8cfe"),
    (params_for(2100, 24), 3, 1, [],
     "c3d77c236617ff46c48d5768e302d78f7ace1e29e8414b0a626c0abd2143d51e"),
    # the perfbench `stash` workload's parameters
    (make_params(4000, 20, 30, 1200, 4, item_len=150), 4, 1, [],
     "fd42870d37bc52a061bdbda4a38e6c7a4c8a644d54fcaa454d13abfc159d2141"),
    # B does not divide N: runs of 19 and 20 items
    (make_params(97, 5, 14, 30, 3, item_len=16), 5, 1, [],
     "fcdbc270b8158ac7d542118406cdb236c25875c8da0f4210d49330737f6a5c25"),
    # tight caps: failed attempts before the one that succeeds
    (make_params(6, 3, 1, 2, 3, item_len=4), 2453, 3, ["distribution", "drain"],
     "652211bd9507af452b34e9e20db77a54874ac3f81ea17289841f883b7e01b863"),
    (make_params(10, 3, 2, 3, 1, item_len=4), 11, 3, ["compression", "compression"],
     "dbbf2a76ff2de4bf97e586e4654da87d34324eee53ed5929acb24e62d721f7b2"),
]


@pytest.mark.parametrize("p,seed,attempts,failed,digest", _GOLDEN)
def test_golden_output(p, seed, attempts, failed, digest):
    rng = random.Random(seed)
    items = _items(p.n_items, rng, p.item_len)
    res = stash_shuffle(items, p, rng, max_attempts=64)
    assert (res.attempts, res.failed_phases) == (attempts, failed)
    h = hashlib.sha256(b"".join(res.records))
    h.update(repr((res.attempts, res.failed_phases, res.peak_private_bytes)).encode())
    h.update(res.trace.dump().encode())
    assert h.hexdigest() == digest
