"""Final stage: inner decryption, secret-share reconstruction, histograms,
differentially-private release, and covariance assembly."""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import partial

from anonpipe.crypto.envelope import TransportKeyPair
from anonpipe.crypto.shamir import PrimeField, shamir_reconstruct
from anonpipe.encoder import SecretShareEncoding, open_inner, secret_share_open
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
    """Group (c, aux) payloads by exact ciphertext bytes; decode groups
    holding at least t distinct evaluation points, one message per record."""
    groups: dict[bytes, list[SecretShareEncoding]] = defaultdict(list)
    parse_failures = 0
    for payload in payloads:
        try:
            enc = SecretShareEncoding.from_payload(fld, payload)
        except (DecryptionError, ValueError):
            parse_failures += 1
            continue
        groups[enc.c].append(enc)

    result = ShareDecodeResult(messages=[], parse_failures=parse_failures)
    for c, encodings in groups.items():
        shares = []
        seen = set()
        for enc in sorted(encodings, key=lambda e: e.aux.x):
            if enc.aux.x not in seen:
                seen.add(enc.aux.x)
                shares.append(enc.aux)
        if len(shares) < t:
            result.undecoded_groups += 1
            continue
        try:
            k_field = shamir_reconstruct(fld, shares[:t], t)
            m = secret_share_open(fld, c, k_field)
        except IntegrityError:
            result.adversarial_groups += 1
            continue
        result.messages.extend([m] * len(encodings))
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


def dp_release(
    hist: Histogram, epsilon: float, sensitivity: int, rng
) -> dict[bytes, float]:
    """Per-bin Laplace(sensitivity / epsilon) noise; raw bins untouched."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    scale = sensitivity / min(epsilon, 1e6)
    return {k: v + laplace_noise(rng, scale) for k, v in sorted(hist.bins.items())}


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

    def merge(self, other: "CovarianceAccumulators") -> "CovarianceAccumulators":
        merged = CovarianceAccumulators(
            s_matrix=dict(self.s_matrix), a_matrix=dict(self.a_matrix)
        )
        for key, v in other.s_matrix.items():
            merged.s_matrix[key] = merged.s_matrix.get(key, 0) + v
        for key, v in other.a_matrix.items():
            merged.a_matrix[key] = merged.a_matrix.get(key, 0.0) + v
        return merged


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


def covariance_csv(acc: CovarianceAccumulators) -> str:
    est = covariance_estimate(acc)
    lines = ["i,j,s,a,estimate"]
    for (i, j) in sorted(acc.s_matrix):
        lines.append(
            f"{i},{j},{acc.s_matrix[(i, j)]},{acc.a_matrix[(i, j)]},{est[(i, j)]}"
        )
    return "\n".join(lines) + "\n"
