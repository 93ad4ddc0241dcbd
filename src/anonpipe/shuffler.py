"""Pipeline intermediary: metadata stripping, crowd counting, randomized
thresholding with noisy drops, and the two-shuffler blinded-crowd protocol.

Per-crowd noise is drawn once per crowd per epoch, in a canonical group
order (lexicographically smallest member envelope), so two pipelines fed
the same records and the same RNG tape make identical decisions even when
their crowd-ID representations differ.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import partial

from anonpipe import stash_shuffle
from anonpipe.crypto.envelope import AeadEnvelope, TransportKeyPair, open_envelope
from anonpipe.crypto.group import GroupParams, KeyPair
from anonpipe.errors import DecryptionError
from anonpipe.formats import parse_outer_plaintext, parse_report
from anonpipe.parallel import map_checked

@dataclass(frozen=True)
class ThresholdPolicy:
    """Each crowd loses d ~ rounded N(drop_mean, sigma^2) members when
    drop_mean > 0, then is forwarded only if the rest are strictly more than
    threshold_t + N(0, sigma^2) noise, drawn when sigma > 0."""

    threshold_t: int
    drop_mean: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        # NaN passes a `< 0` check; neither NaN nor inf rounds to a drop, and as noise
        # either hides every crowd
        spreads = (self.sigma, self.drop_mean)
        if self.threshold_t < 1 or not all(math.isfinite(v) and v >= 0 for v in spreads):
            raise ValueError(
                "threshold_t must be at least 1, sigma and drop_mean finite and at least 0"
            )


@dataclass
class Batch:
    """Records after outer decryption; intake metadata is never stored."""

    epoch_id: str
    records: list[tuple[bytes, bytes]]  # (crowd_id, inner envelope bytes)
    stats: dict = field(default_factory=dict)


def intake(
    report_blobs: list[bytes],
    shuffler_keypair: TransportKeyPair,
    epoch_id: str,
    rng,
    group: GroupParams | None = None,
    *,
    kind: int | None = None,
    report_len: int | None = None,
) -> Batch:
    """Open outer layers and store records in randomized order.

    Source metadata (arrival order, addresses, timing) is dropped here;
    malformed reports are counted and skipped, never fatal.  Given the
    batch's `report_len`, a report of another length is counted corrupt
    before it is opened; given its crowd-ID `kind`, so is a report whose
    sealed kind differs.  With both, every record kept has the batch's
    inner-envelope length.  Repeats count as corrupt: exact ones
    (`map_checked`) and later reports of one inner envelope (`one_per_inner`).
    """
    open_one = partial(_open_report, shuffler_keypair, group, kind, report_len)
    records, corrupt = map_checked(open_one, report_blobs)
    records, repeats = one_per_inner(records)
    rng.shuffle(records)
    return Batch(
        epoch_id=epoch_id,
        records=records,
        stats={"input_count": len(report_blobs), "corrupt": corrupt + repeats},
    )


def _open_report(
    shuffler_keypair: TransportKeyPair,
    group: GroupParams | None,
    kind: int | None,
    report_len: int | None,
    blob: bytes,
) -> tuple[bytes, bytes]:
    if report_len is not None and len(blob) != report_len:
        raise DecryptionError("report length differs from the batch's")
    outer = open_envelope(shuffler_keypair, AeadEnvelope.from_bytes(parse_report(blob)))
    outer_kind, crowd_id, inner = parse_outer_plaintext(outer, group)
    if kind is not None and outer_kind != kind:
        raise DecryptionError("crowd-ID kind differs from the batch's")
    return crowd_id, inner


def one_per_inner(records: list[tuple[bytes, bytes]]) -> tuple[list, int]:
    """The first record of each inner envelope, in order of first appearance,
    and how many later records were dropped.  One client's inner envelope,
    re-sealed or with a re-randomized crowd ID, is one member of its crowd."""
    first: dict[bytes, tuple[bytes, bytes]] = {}
    for record in records:
        first.setdefault(record[1], record)
    return list(first.values()), len(records) - len(first)


def count_crowds(batch: Batch) -> dict[bytes, int]:
    """Exact per-crowd counts (pass one of the two-pass filter)."""
    return dict(Counter(crowd for crowd, _ in batch.records))


def draw_drop(policy: ThresholdPolicy, rng) -> int:
    """Rounded-normal drop count, clamped at zero."""
    if not policy.drop_mean:
        return 0
    return max(0, round(rng.gauss(policy.drop_mean, policy.sigma)))


def crowd_survives(count: int, policy: ThresholdPolicy, rng) -> tuple[bool, int]:
    """Forwarding decision for one crowd: drop d items, then require the
    remaining count to be strictly more than T + noise."""
    d = draw_drop(policy, rng)
    noise = rng.gauss(0.0, policy.sigma) if policy.sigma else 0.0
    return (count - d) > policy.threshold_t + noise, d


def apply_threshold(
    batch: Batch, counts: dict[bytes, int], policy: ThresholdPolicy, rng
) -> Batch:
    """Filter crowds below the (noisy) threshold; survivors keep inner
    envelopes only, and the batch's other stats are kept."""
    groups: dict[bytes, list[bytes]] = defaultdict(list)
    for crowd, inner in batch.records:
        groups[crowd].append(inner)

    survivors: list[tuple[bytes, bytes]] = []
    # Canonical order: smallest member envelope, so noise assignment is
    # independent of the crowd-ID representation.
    for crowd in sorted(groups, key=lambda cid: min(groups[cid])):
        survives, d = crowd_survives(counts[crowd], policy, rng)
        if not survives:
            continue
        members = sorted(groups[crowd])
        if d:
            dropped = set(rng.sample(range(len(members)), min(d, len(members))))
            members = [m for i, m in enumerate(members) if i not in dropped]
        survivors.extend((b"", inner) for inner in members)
    return Batch(
        epoch_id=batch.epoch_id,
        records=survivors,
        stats={
            **batch.stats, "input_count": len(batch.records), "surviving_count": len(survivors)
        },
    )


def shuffle_batch(batch: Batch, rng) -> Batch:
    """Reorder with the Stash Shuffle at `params_for` parameters.

    Each record travels as one item, crowd ID || inner envelope; crowd IDs
    share one width and inner envelopes one length across the batch.  An
    empty batch, which has no Stash Shuffle parameters, passes through.
    """
    records = list(batch.records)
    if records:
        width = len(records[0][0])
        items = [crowd + inner for crowd, inner in records]
        params = stash_shuffle.params_for(len(items), len(items[0]))
        out = stash_shuffle.stash_shuffle(items, params, rng, keep_trace=False)
        records = [(item[:width], item[width:]) for item in out.records]
    return Batch(epoch_id=batch.epoch_id, records=records, stats=dict(batch.stats))


def selectivity_record(batch: Batch) -> dict:
    """The one statistic the shuffler discloses."""
    return {
        "epoch_id": batch.epoch_id,
        "input_count": batch.stats.get("input_count", len(batch.records)),
        "surviving_count": batch.stats.get("surviving_count", len(batch.records)),
    }


# ---------------------------------------------------------------------------
# Two-shuffler blinded crowd IDs


def blind_stage1(batch: Batch, group: GroupParams, alpha: int) -> Batch:
    """Exponent-blind every El Gamal crowd ID by `alpha`; the caller reorders
    the result with `shuffle_batch`.  Repeats count as invalid."""
    records, invalid = map_checked(partial(_blind_record, group, alpha), batch.records)
    return Batch(
        epoch_id=batch.epoch_id,
        records=records,
        stats={"input_count": len(batch.records), "invalid": invalid},
    )


def _blind_record(
    group: GroupParams, alpha: int, record: tuple[bytes, bytes]
) -> tuple[bytes, bytes]:
    crowd_id, inner = record
    return group.blind(crowd_id, alpha), inner


def blind_stage2_threshold(
    batch: Batch, group: GroupParams, shuffler2_keypair: KeyPair, policy: ThresholdPolicy, rng
) -> Batch:
    """Decrypt blinded IDs to equality-preserving pseudonyms and threshold on
    them; neither party ever sees an unblinded crowd ID.  Repeats count as
    invalid: exact ones and later records of one inner envelope."""
    unblind_one = partial(_unblind_record, group, shuffler2_keypair)
    records, invalid = map_checked(unblind_one, batch.records)
    records, repeats = one_per_inner(records)
    staged = Batch(epoch_id=batch.epoch_id, records=records, stats={"invalid": invalid + repeats})
    return apply_threshold(staged, count_crowds(staged), policy, rng)


def _unblind_record(
    group: GroupParams, shuffler2_keypair: KeyPair, record: tuple[bytes, bytes]
) -> tuple[bytes, bytes]:
    crowd_id, inner = record
    return group.unblind_decrypt(crowd_id, shuffler2_keypair.secret), inner
