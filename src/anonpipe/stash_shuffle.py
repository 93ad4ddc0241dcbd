"""Oblivious shuffle of N fixed-size records under a private-memory budget.

Two phases.  Input run i and output run i both hold records i*N//B up to
(i+1)*N//B, so every run is D or D - 1 items long.  Distribution reads one
input run at a time, deals its items to randomly chosen output buckets
subject to a per-(input, output) chunk quota C, parks overflow in a bounded
private stash, and writes each chunk of C slots (its items, then dummies)
to an intermediate array as one sealed blob; the stash drains into one
sealed K-slot region per output bucket.  A blob's plaintext is its item
count followed by its slots, so its length depends only on its slot count.
Compression slides a W-bucket window over the intermediate array, opens a
bucket's B + 1 blobs, keeps each blob's counted items, shuffles them in
private memory, and streams each output run, at its own length, to the
output.

Untrusted memory is one store, `Trace`, addressed by (region, slot offset,
slot count).  Its log of reads and writes is the trace, and each address in
it depends only on the parameters, never on data values.  Each blob's nonce
is its address, so one handed back at another fails to open.  Failures
(stash overflow, undrainable stash, queue over/underflow) abort the
attempt; retries use a fresh ephemeral key, so failed attempts reveal
nothing about the final order.

Randomness comes from `rng.randbytes` alone, in 2B + 1 calls per attempt:
the attempt's key, one call per input run for its items' targets
(`shuffle_to_buckets`) and one per output bucket for the 64-bit keys that
order its items (`_random_order`).  A draw covers one run or one bucket,
never all N items, so private memory stays O(D).
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from itertools import repeat

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from anonpipe.errors import BudgetExceeded, ShuffleFailed

DEFAULT_RECORD_LEN = 318
_POINTER_BYTES = 8


@dataclass(frozen=True)
class ShuffleParams:
    n_items: int  # N
    num_buckets: int  # B
    chunk_cap: int  # C
    stash_cap: int  # S
    window: int  # W
    item_len: int  # every record's length

    @property
    def bucket_size(self) -> int:
        """D = ceil(N / B), the longest run's length."""
        return -(-self.n_items // self.num_buckets)

    @property
    def drain_per_bucket(self) -> int:
        """K = ceil(S / B)."""
        return -(-self.stash_cap // self.num_buckets)

    @property
    def alpha(self) -> float:
        """The alpha of C = D/B + alpha * sqrt(D/B)."""
        ratio = self.bucket_size / self.num_buckets
        return (self.chunk_cap - ratio) / math.sqrt(ratio)

    @property
    def bucket_stride(self) -> int:
        """Intermediate slots per output bucket: B chunks of C, then K drain slots."""
        return self.num_buckets * self.chunk_cap + self.drain_per_bucket

    @property
    def mid_slots(self) -> int:
        """Total intermediate slots: B * (B*C + K) = B^2*C + S (up to rounding)."""
        return self.num_buckets * self.bucket_stride

    @property
    def queue_cap(self) -> int:
        """W buckets' slots: occupancy varies around D, so W*D would overflow."""
        return self.window * self.bucket_stride

    def run_addresses(self) -> list[tuple[int, int]]:
        """(slot offset, slot count) of input run i and of output run i:
        records i*N//B up to (i+1)*N//B, D or D - 1 of them."""
        n, b = self.n_items, self.num_buckets
        bounds = [i * n // b for i in range(b + 1)]
        return [(lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])]

    def blob_addresses(self) -> list[list[tuple[int, int]]]:
        """(slot offset, slot count) of every blob: row i < B holds input
        bucket i's chunk for each output bucket, row B each drain region."""
        b, c, k = self.num_buckets, self.chunk_cap, self.drain_per_bucket
        stride = self.bucket_stride
        return [
            list(zip(range(i * c, i * c + b * stride, stride), repeat(c if i < b else k)))
            for i in range(b + 1)
        ]

    def private_bytes(self, stash: int, queue: int) -> int:
        """Peak private bytes of either phase with `stash` items stashed and `queue` queued."""
        b, c, d = self.num_buckets, self.chunk_cap, self.bucket_size
        dist = (d + b * c + stash) * self.item_len + d * _POINTER_BYTES
        return max(dist, (self.bucket_stride + queue) * self.item_len)

    def working_set_bytes(self) -> int:
        """Peak private bytes with a full stash and a full queue."""
        return self.private_bytes(self.stash_cap, self.queue_cap)


def make_params(
    n_items: int,
    num_buckets: int,
    chunk_cap: int,
    stash_cap: int,
    window: int,
    item_len: int = DEFAULT_RECORD_LEN,
    private_mem_budget: int | None = None,
) -> ShuffleParams:
    """Build params with an explicit chunk cap C, checking the working set
    against `private_mem_budget` when one is given."""
    if num_buckets < 1 or n_items < 1:
        raise ValueError("need n_items >= 1 and num_buckets >= 1")
    if chunk_cap < 1:
        raise ValueError("chunk cap must be >= 1")
    # W = 0 fails compression and a negative S distribution, on every attempt
    if window < 1 or stash_cap < 0 or item_len < 1:
        raise ValueError("need window >= 1, stash_cap >= 0 and item_len >= 1")
    params = ShuffleParams(n_items, num_buckets, chunk_cap, stash_cap, window, item_len)
    ws = params.working_set_bytes()
    if private_mem_budget is not None and ws > private_mem_budget:
        raise BudgetExceeded(ws, private_mem_budget)
    return params


def chunk_cap_for_alpha(n_items: int, num_buckets: int, alpha: float) -> int:
    """C = ceil(D/B + alpha * sqrt(D/B)), at least 1."""
    ratio = -(-n_items // num_buckets) / num_buckets
    return max(1, math.ceil(ratio + alpha * math.sqrt(ratio)))


def params_for(n_items: int, item_len: int) -> ShuffleParams:
    """The pipeline's parameters for a batch: B = round(sqrt(N) / 3.3) buckets
    (at least 1), C at alpha = 4, S = max(16, ceil(N / 8)) and W = 4.  Over
    20-200 runs per size from N = 1 to N = 100,000, every shuffle succeeded
    on its first attempt; the overhead is 3.3-3.5x for N >= 50."""
    b = max(1, round(math.sqrt(n_items) / 3.3))
    return make_params(
        n_items, b, chunk_cap_for_alpha(n_items, b, 4.0), max(16, -(-n_items // 8)), 4,
        item_len=item_len,
    )


def analytic_overhead(params: ShuffleParams) -> float:
    """Processed data relative to input: (N + B^2*C + S) / N."""
    n, b = params.n_items, params.num_buckets
    return (n + b * b * params.chunk_cap + params.stash_cap) / n


# Parameter scenarios used in the docs and the `params` CLI subcommand
# (N, B, C, W, S) for 318-byte records.
REFERENCE_SCENARIOS = [
    (10_000_000, 1_000, 25, 4, 40_000),
    (50_000_000, 2_000, 30, 4, 86_000),
    (100_000_000, 3_000, 30, 4, 117_000),
    (200_000_000, 4_400, 24, 4, 170_000),
]


@dataclass(frozen=True)
class PriorArtReport:
    """Analytic data-volume multipliers for sort-based oblivious shuffles."""

    batcher_bucket_items: int  # b: records per half of one private 2b-sort
    batcher_multiplier: int
    columnsort_multiplier: int
    columnsort_max_items: int
    columnsort_feasible: bool


def prior_art_overheads(
    n_items: int, record_len: int, private_mem_budget: int
) -> PriorArtReport:
    if record_len <= 0:
        raise ValueError("record_len must be positive")
    b = private_mem_budget // (2 * record_len)
    if b < 1:
        raise ValueError("budget below one record pair")
    if n_items <= b:
        batcher = 1
    else:
        batcher = math.ceil(math.log2(n_items / b)) ** 2
    # ColumnSort: r rows x s columns with r >= 2(s-1)^2 and r rows resident.
    r = private_mem_budget // record_len
    s = int(math.isqrt(r // 2)) + 1
    while s > 1 and 2 * (s - 1) ** 2 > r:
        s -= 1
    col_max = r * s
    return PriorArtReport(
        batcher_bucket_items=b,
        batcher_multiplier=batcher,
        columnsort_multiplier=8,
        columnsort_max_items=col_max,
        columnsort_feasible=n_items <= col_max,
    )


# ---------------------------------------------------------------------------
# Execution


class _AttemptFailed(Exception):
    def __init__(self, phase: str):
        self.phase = phase


class Trace:
    """The attempt's untrusted memory: runs of slots keyed by their address,
    (region, slot offset, slot count).  Each `read` and `write` logs one
    (phase, region, offset, 1, op) entry per slot, and that log is the trace;
    with `enabled` false the runs are kept and only the log is skipped."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.phase = ""
        self.entries: list[tuple[str, str, int, int, str]] = []
        self.runs: dict[tuple[str, int, int], object] = {}

    def _log(self, region: str, offset: int, count: int, op: str) -> None:
        self.entries.extend((self.phase, region, offset + i, 1, op) for i in range(count))

    def write(self, region: str, offset: int, count: int, data) -> None:
        if self.enabled:
            self._log(region, offset, count, "write")
        self.runs[region, offset, count] = data

    def read(self, region: str, offset: int, count: int):
        if self.enabled:
            self._log(region, offset, count, "read")
        return self.runs[region, offset, count]

    def dump(self) -> str:
        return "\n".join(f"{p},{r},{off},{ln},{op}" for p, r, off, ln, op in self.entries)


class ItemCipher:
    """AEAD over a run of slots of the intermediate region under an
    ephemeral per-attempt key.  A blob's 12-byte nonce is its address, the
    region byte then the slot offset (7 bytes) and the slot count (4 bytes),
    so a blob moved to another address fails to open; an attempt seals each
    address once, under its own key, so no nonce repeats under a key.  A
    blob of n slots seals its item count as 4 bytes, then its items, then
    zero-filled dummies up to n slots: 4 + n * item_len + 16 bytes whatever
    it holds.  Dummies exist only inside blobs.

    Sealing joins the items with a slice of one zero-filled run; opening cuts
    the items out with one `struct` unpack per blob."""

    def __init__(self, rng, params: ShuffleParams):
        self._aead = AESGCM(rng.randbytes(16))
        self._item_len = item_len = params.item_len
        most = max(params.chunk_cap, params.drain_per_bucket)
        self._zeros = memoryview(bytes(most * item_len))
        self._cuts = [_cutter(item_len, count) for count in range(most + 1)]

    def encrypt(self, items: list, offset: int, slots: int) -> bytes:
        """Seal `items` followed by dummies up to `slots` slots, for `offset`."""
        fill = (slots - len(items)) * self._item_len
        plaintext = b"".join([_count(len(items)), *items, self._zeros[:fill]])
        return self._aead.encrypt(_nonce(_MID | offset, slots), plaintext, None)

    def decrypt(self, blob: bytes, offset: int, slots: int) -> list:
        """The items of the blob sealed for (`offset`, `slots`).  Raises
        `InvalidTag` for any other blob."""
        pt = self._aead.decrypt(_nonce(_MID | offset, slots), blob, None)
        return list(self._cuts[int.from_bytes(pt[:4], "big")](pt, 4))


@functools.cache
def _cutter(item_len: int, count: int):
    """`unpack_from(buffer, offset)` for `count` items of `item_len` bytes;
    kept for the process, one per record length and count up to the largest
    blob's slot count."""
    return struct.Struct(f"{item_len}s" * count).unpack_from


# a blob's nonce: (region byte << 56 | slot offset, slot count).  The
# intermediate region's byte is 1, so runs of another region sealed under
# the same key would get nonces of their own; offsets stay below 2^56 and
# slot counts below 2^32 for any parameters whose blobs fit in memory.
_nonce = struct.Struct(">QI").pack
_MID = 1 << 56
_count = struct.Struct(">I").pack  # a blob's item count, at the head of its plaintext


def _words(rng, count: int) -> tuple[int, ...]:
    """`count` uniform 64-bit words from one `rng.randbytes` call, read little-endian."""
    return struct.unpack(f"<{count}Q", rng.randbytes(8 * count))


def shuffle_to_buckets(num_buckets: int, run_length: int, rng) -> list[int]:
    """Target bucket per item of an input run, each drawn independently and
    uniformly: a 64-bit word mod B, where the words of 2^64 - (2^64 mod B) or
    more are drawn again, in one call, until none is left, so every target
    is exactly uniform.

    Independent targets make the bucket loads multinomial; a uniform
    composition (D items shuffled among B-1 separators) would skew loads and
    keep items of one input bucket together more often than a uniform
    permutation does.
    """
    top = 2**64 - 1 - 2**64 % num_buckets  # the largest word kept
    words = _words(rng, run_length)
    while max(words, default=0) > top:
        again = [i for i, word in enumerate(words) if word > top]
        words = list(words)
        for i, word in zip(again, _words(rng, len(again))):
            words[i] = word
    return [word % num_buckets for word in words]


def _random_order(items: list, rng) -> list:
    """`items` in a uniformly random order: ascending by one 64-bit key
    each, the keys drawn again while two of them tie."""
    while True:
        keys = _words(rng, len(items))
        if len(set(keys)) == len(keys):
            # the sort calls its key function once per item, in list order
            return sorted(items, key=functools.partial(next, iter(keys)))


@dataclass
class ShuffleResult:
    records: list[bytes]
    attempts: int
    trace: Trace
    peak_private_bytes: int
    failed_phases: list[str] = field(default_factory=list)


def stash_shuffle(
    records: list[bytes],
    params: ShuffleParams,
    rng,
    max_attempts: int = 8,
    keep_trace: bool = True,
) -> ShuffleResult:
    """Obliviously permute `records`, each `params.item_len` bytes long,
    returning a uniformly chosen feasible permutation."""
    if len(records) != params.n_items:
        raise ValueError("record count does not match params.n_items")
    if set(map(len, records)) != {params.item_len}:
        raise ValueError(f"every record must be params.item_len = {params.item_len} bytes")
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    failed: list[str] = []
    for attempt in range(1, max_attempts + 1):
        trace = Trace(enabled=keep_trace)
        cipher = ItemCipher(rng, params)
        try:
            out, peak = _attempt(records, params, cipher, rng, trace)
            return ShuffleResult(out, attempt, trace, peak_private_bytes=peak, failed_phases=failed)
        except _AttemptFailed as exc:
            failed.append(exc.phase)
    raise ShuffleFailed(failed[-1], max_attempts)


def _attempt(records, params, cipher, rng, trace):
    """One attempt.  The host places the input in `trace` as runs at
    `params.run_addresses()` and takes the output runs at the same addresses
    at the end; every access in between goes through `trace`.  Per output
    bucket, the intermediate region holds one sealed C-slot chunk from each
    input bucket and one sealed K-slot drain region."""
    b_count, c = params.num_buckets, params.chunk_cap
    runs = params.run_addresses()
    addresses = params.blob_addresses()
    for start, length in runs:
        trace.runs["in", start, length] = records[start : start + length]
    stash: list[list] = [[] for _ in range(b_count)]
    max_stash = 0

    trace.phase = "distribution"
    for (start, length), row in zip(runs, addresses):
        targets = shuffle_to_buckets(b_count, length, rng)
        # each chunk starts with its target's oldest stashed items
        chunks = [st[:c] for st in stash]
        for st in stash:
            if st:
                del st[:c]
        for item, j in zip(trace.read("in", start, length), targets):
            chunks[j].append(item)
        # past C, a target's items queue at the back of its stash, in order
        for st, chunk in zip(stash, chunks):
            if len(chunk) > c:
                st += chunk[c:]
                del chunk[c:]
        stash_total = sum(map(len, stash))
        if stash_total > params.stash_cap:
            raise _AttemptFailed("distribution")
        max_stash = max(max_stash, stash_total)
        for chunk, (offset, slots) in zip(chunks, row):
            trace.write("mid", offset, slots, cipher.encrypt(chunk, offset, slots))

    trace.phase = "drain"
    for st, (offset, slots) in zip(stash, addresses[b_count]):
        if len(st) > slots:
            raise _AttemptFailed("drain")
        trace.write("mid", offset, slots, cipher.encrypt(st, offset, slots))

    trace.phase = "compression"
    window = min(params.window, b_count)
    queue: list = []
    max_queue = 0
    # step i exports output run i - W, then imports bucket i
    for i in range(b_count + window):
        if i >= window:
            start, length = runs[i - window]
            if len(queue) < length:
                raise _AttemptFailed("compression")
            trace.write("out", start, length, queue[:length])
            del queue[:length]
        if i < b_count:
            items = []
            for row in addresses:
                offset, slots = row[i]
                items += cipher.decrypt(trace.read("mid", offset, slots), offset, slots)
            items = _random_order(items, rng)
            if len(queue) + len(items) > params.queue_cap:
                raise _AttemptFailed("compression")
            queue += items
            max_queue = max(max_queue, len(queue))

    result = []
    for start, length in runs:
        result += trace.runs["out", start, length]
    trace.runs.clear()  # only the log outlives the attempt
    assert len(result) == params.n_items
    return result, params.private_bytes(max_stash, max_queue)
