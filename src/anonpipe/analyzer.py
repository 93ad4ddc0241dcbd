"""Final stage: inner decryption, secret-share reconstruction and histograms.

The share decode parses each payload once into plain ints and inverts once
per decodable group: one `shamir_reconstruct` over that group's t shares.

Covariance accumulation and estimate and `laplace_noise` are library
helpers: no stage, CLI command or benchmark calls them, and only acceptance
criteria 10 and 11 check them."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

from anonpipe.crypto.envelope import TransportKeyPair
from anonpipe.crypto.shamir import PrimeField, ShamirShare, shamir_reconstruct
from anonpipe.encoder import open_inner, parse_share_payload, secret_share_open
from anonpipe.errors import DecryptionError, IntegrityError, NonCanonicalTuple
from anonpipe.parallel import map_checked


@dataclass
class DecodedCorpus:
    records: list[bytes]
    failures: int = 0


def decrypt_corpus(
    inner_blobs: list[bytes], analyzer_keypair: TransportKeyPair
) -> DecodedCorpus:
    """Open every inner envelope; failures and repeats are counted, never fatal."""
    open_one = partial(open_inner, analyzer_keypair=analyzer_keypair)
    records, failures = map_checked(open_one, inner_blobs)
    return DecodedCorpus(records=records, failures=failures)


@dataclass
class ShareDecodeResult:
    messages: list[bytes]
    undecoded_groups: int = 0  # groups with fewer than t distinct shares
    adversarial_groups: int = 0  # reconstruction failed the integrity check
    parse_failures: int = 0


def secret_share_decode(
    payloads: list[bytes], t: int, fld: PrimeField
) -> ShareDecodeResult:
    """Group (c, x, y) payloads by exact ciphertext bytes; decode groups
    holding at least t distinct evaluation points, one message per record.

    Each payload is parsed once into plain ints.  Per ciphertext the first y
    seen for each x is kept, and a group with t or more distinct x hands the
    shares at its t smallest x to one `shamir_reconstruct`, which inverts
    once.  A decoded group counts every record that parsed, including
    repeated-x shares and shares beyond the first t that lie off the
    polynomial: nothing checks those."""
    groups: dict[bytes, dict[int, int]] = {}  # c -> x -> first y seen
    records: Counter[bytes] = Counter()
    parse_failures = 0
    for payload in payloads:
        try:
            c, x, y = parse_share_payload(fld, payload)
        except (DecryptionError, ValueError):
            parse_failures += 1
            continue
        records[c] += 1
        groups.setdefault(c, {}).setdefault(x, y)

    result = ShareDecodeResult(messages=[], parse_failures=parse_failures)
    for c, points in groups.items():
        if len(points) < t:
            result.undecoded_groups += 1
            continue
        shares = [ShamirShare(x, points[x]) for x in sorted(points)[:t]]
        try:
            k_field = shamir_reconstruct(fld, shares, t)
            m = secret_share_open(fld, c, k_field)
        except IntegrityError:
            result.adversarial_groups += 1
            continue
        result.messages.extend([m] * records[c])
    return result


@dataclass
class Histogram:
    bins: dict[bytes, int]

    @property
    def unique_count(self) -> int:
        return len(self.bins)

    @property
    def total(self) -> int:
        return sum(self.bins.values())


def histogram(records: list[bytes]) -> Histogram:
    return Histogram(bins=dict(Counter(records)))


def laplace_noise(rng, scale: float) -> float:
    u = rng.random() - 0.5
    return -scale * math.copysign(1.0, u) * math.log(1.0 - 2.0 * abs(u))


# ---------------------------------------------------------------------------
# Covariance assembly


@dataclass
class CovarianceAccumulators:
    """Pair-count matrix S and rating-product matrix A, (i, j) with i <= j."""

    s_matrix: dict[tuple[int, int], int] = field(default_factory=dict)
    a_matrix: dict[tuple[int, int], float] = field(default_factory=dict)

    def add(self, i: int, r_ui: float, j: int, r_uj: float) -> None:
        if i > j:
            raise NonCanonicalTuple(f"tuple ({i}, {j}) must have i <= j")
        key = (i, j)
        self.s_matrix[key] = self.s_matrix.get(key, 0) + 1
        self.a_matrix[key] = self.a_matrix.get(key, 0.0) + r_ui * r_uj


def accumulate_covariance(four_tuples) -> CovarianceAccumulators:
    acc = CovarianceAccumulators()
    for i, r_ui, j, r_uj in four_tuples:
        acc.add(i, r_ui, j, r_uj)
    return acc


def covariance_estimate(acc: CovarianceAccumulators) -> dict[tuple[int, int], float]:
    """Approximate covariance cell (i, j) as A_ij / S_ij."""
    return {
        key: acc.a_matrix[key] / s for key, s in acc.s_matrix.items() if s > 0
    }


def histogram_csv(hist: Histogram) -> str:
    lines = ["key,count"]
    for key in sorted(hist.bins):
        lines.append(f"{key.hex()},{hist.bins[key]}")
    return "\n".join(lines) + "\n"
