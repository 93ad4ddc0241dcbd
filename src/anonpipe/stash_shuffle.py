"""Oblivious shuffle of N fixed-size records under a private-memory budget.

Two phases.  Distribution reads one input bucket at a time, deals its items
to randomly chosen output buckets subject to a per-(input, output) chunk
quota C, parks overflow in a bounded private stash, and writes each chunk
of C slots (its items, then dummies) to an intermediate array as one sealed
blob; the stash drains into one sealed K-slot region per output bucket.  A
blob's plaintext is its slots' flag bytes (real, pad or dummy) followed by
their items, so its length depends only on its slot count.  Compression
slides a W-bucket window over the intermediate array, opens a bucket's
B + 1 blobs, keeps each blob's slots before its first dummy, shuffles the
items in private memory, and streams the result to the output.

Every read and write against the untrusted arrays depends only on the
parameters, never on data values, and is recorded in a trace for tests.
Failures (stash overflow, undrainable stash, queue over/underflow) abort
the attempt; retries use a fresh ephemeral key, so failed attempts reveal
nothing about the final order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
        """D = ceil(N / B)."""
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
    def mid_slots(self) -> int:
        """Total intermediate slots: B * (B*C + K) = B^2*C + S (up to rounding)."""
        return self.num_buckets * (
            self.num_buckets * self.chunk_cap + self.drain_per_bucket
        )

    def working_set_bytes(self) -> int:
        """Peak private bytes across the two phases."""
        b, c, d = self.num_buckets, self.chunk_cap, self.bucket_size
        dist = (d + b * c + self.stash_cap) * self.item_len + d * _POINTER_BYTES
        stride = b * c + self.drain_per_bucket
        comp = (self.window + 1) * stride * self.item_len
        return max(dist, comp)


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
    """Accesses to untrusted arrays: (phase, region, offset, len, op)."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.phase = ""
        self.entries: list[tuple[str, str, int, int, str]] = []

    def log(self, region: str, offset: int, count: int, op: str) -> None:
        """One entry per slot of the `count` consecutive slots at `offset`."""
        if self.enabled:
            self.entries.extend(
                (self.phase, region, offset + i, 1, op) for i in range(count)
            )

    def dump(self) -> str:
        return "\n".join(
            f"{p},{r},{off},{ln},{op}" for p, r, off, ln, op in self.entries
        )


# Slot flags, at the head of a blob's plaintext.  Dummies only fill the tail
# of a chunk or drain region and are discarded during compression; pads stand
# in for missing items of a short last input bucket and travel all the way
# to the output, keeping the per-bucket export schedule independent of
# N mod (B*D).
FLAG_REAL = 0
FLAG_DUMMY = 1
FLAG_PAD = 2


class ItemCipher:
    """AEAD over a run of slots under an ephemeral per-attempt key; every
    blob gets a fresh nonce.  A blob of n slots seals n flag bytes followed
    by n items, 12 + n * (1 + item_len) + 16 bytes whatever it holds.  In
    private memory an item is its record's bytes or `pad`, a zero-filled
    sentinel told apart by identity; dummies exist only inside blobs."""

    def __init__(self, rng, item_len: int):
        self._aead = AESGCM(rng.randbytes(16))
        self._rng = rng
        self._item_len = item_len
        self.pad = memoryview(bytes(item_len))

    def encrypt(self, items: list, slots: int) -> bytes:
        """Seal `items` followed by dummies up to `slots` slots."""
        fill = slots - len(items)
        pad = self.pad
        plaintext = b"".join([
            bytes([FLAG_PAD if x is pad else FLAG_REAL for x in items]),
            bytes([FLAG_DUMMY]) * fill,
            *items,
            bytes(fill * self._item_len),
        ])
        nonce = self._rng.randbytes(12)
        return nonce + self._aead.encrypt(nonce, plaintext, None)

    def decrypt(self, blob: bytes) -> list:
        """The items of a blob: its slots before the first dummy."""
        pt = self._aead.decrypt(blob[:12], blob[12:], None)
        step = self._item_len
        slots = len(pt) // (1 + step)
        count = pt.find(FLAG_DUMMY, 0, slots)
        if count < 0:
            count = slots
        items = [pt[i : i + step] for i in range(slots, slots + count * step, step)]
        i = pt.find(FLAG_PAD, 0, count)
        while i >= 0:
            items[i] = self.pad
            i = pt.find(FLAG_PAD, i + 1, count)
        return items


def shuffle_to_buckets(num_buckets: int, bucket_size: int, rng) -> list[int]:
    """Target bucket per input slot, each drawn independently and uniformly.

    Independent targets make the bucket loads multinomial; a uniform
    composition (D items shuffled among B-1 separators) would skew loads and
    keep items of one input bucket together more often than a uniform
    permutation does.
    """
    return rng.choices(range(num_buckets), k=bucket_size)


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
    if any(len(rec) != params.item_len for rec in records):
        raise ValueError(f"every record must be params.item_len = {params.item_len} bytes")
    failed: list[str] = []
    for attempt in range(1, max_attempts + 1):
        trace = Trace(enabled=keep_trace)
        cipher = ItemCipher(rng, params.item_len)
        try:
            out, peak = _attempt(records, params, cipher, rng, trace)
            return ShuffleResult(
                records=out,
                attempts=attempt,
                trace=trace,
                peak_private_bytes=peak,
                failed_phases=failed,
            )
        except _AttemptFailed as exc:
            failed.append(exc.phase)
    raise ShuffleFailed(failed[-1], max_attempts)


def _attempt(records, params, cipher, rng, trace):
    """One attempt.  The intermediate array holds, per output bucket, one
    sealed chunk of C slots from each input bucket and one sealed K-slot
    drain region: B + 1 blobs of sizes fixed by the parameters."""
    n = params.n_items
    b_count = params.num_buckets
    d = params.bucket_size
    c = params.chunk_cap
    s = params.stash_cap
    k = params.drain_per_bucket
    w = params.window
    bucket_stride = b_count * c + k
    item_len = params.item_len

    mid: list[bytes | None] = [None] * (b_count * (b_count + 1))
    stash: list[list] = [[] for _ in range(b_count)]
    max_stash = 0

    trace.phase = "distribution"
    for b in range(b_count):
        targets = shuffle_to_buckets(b_count, d, rng)
        # each chunk starts with its target's oldest stashed items
        chunks = [st[:c] for st in stash]
        for st in stash:
            del st[:c]
        trace.log("in", b * d, d, "read")
        # a short last bucket is padded; pads ride through to the output so
        # every bucket exports exactly D items
        block = records[b * d : (b + 1) * d]
        block += [cipher.pad] * (d - len(block))
        for item, j in zip(block, targets):
            chunks[j].append(item)
        # past C, a target's items queue at the back of its stash, in order
        for st, chunk in zip(stash, chunks):
            st += chunk[c:]
            del chunk[c:]
        stash_total = sum(map(len, stash))
        if stash_total > s:
            raise _AttemptFailed("distribution")
        max_stash = max(max_stash, stash_total)
        for j, chunk in enumerate(chunks):
            mid[j * (b_count + 1) + b] = cipher.encrypt(chunk, c)
            trace.log("mid", j * bucket_stride + b * c, c, "write")

    trace.phase = "drain"
    for j, st in enumerate(stash):
        if len(st) > k:
            raise _AttemptFailed("drain")
        mid[j * (b_count + 1) + b_count] = cipher.encrypt(st, k)
        trace.log("mid", j * bucket_stride + b_count * c, k, "write")

    trace.phase = "compression"
    effective_window = min(w, b_count)
    # The window buffers up to W fully imported buckets; bucket occupancy
    # fluctuates around D, so sizing by W*D alone would overflow constantly.
    queue_cap = w * bucket_stride
    queue: list = []
    max_queue = 0
    out: list = []

    def import_bucket(bk: int) -> None:
        nonlocal max_queue
        trace.log("mid", bk * bucket_stride, bucket_stride, "read")
        items = []
        for blob in mid[bk * (b_count + 1) : (bk + 1) * (b_count + 1)]:
            items += cipher.decrypt(blob)
        rng.shuffle(items)
        if len(queue) + len(items) > queue_cap:
            raise _AttemptFailed("compression")
        queue.extend(items)
        max_queue = max(max_queue, len(queue))

    def drain_queue() -> None:
        if len(queue) < d:
            raise _AttemptFailed("compression")
        trace.log("out", len(out), d, "write")
        out.extend(queue[:d])
        del queue[:d]

    for bk in range(effective_window):
        import_bucket(bk)
    for bk in range(effective_window, b_count):
        drain_queue()
        import_bucket(bk)
    for _ in range(effective_window):
        drain_queue()

    assert len(out) == b_count * d
    result = [item for item in out if item is not cipher.pad]
    assert len(result) == n
    dist_peak = (d + b_count * c + max_stash) * item_len + d * _POINTER_BYTES
    comp_peak = (bucket_stride + max_queue) * item_len
    return result, max(dist_peak, comp_peak)
