"""Client-side encoding: crowd IDs, secret-share encoding, and nested
encryption into wire reports.  Also k-ary randomized response, which no
client applies: it is the mechanism of the local-DP baseline,
`harness.local_dp_baseline`.

Values leave this module as bytes: a crowd ID's wire encoding, a share
payload, a report."""

from __future__ import annotations

import hashlib
import math
import struct

from anonpipe import formats
from anonpipe.crypto import OS_RNG
from anonpipe.crypto.deterministic import (
    DETERMINISTIC_OVERHEAD,
    deterministic_decrypt,
    deterministic_encrypt,
)
from anonpipe.crypto.envelope import open_envelope, seal
from anonpipe.crypto.group import GroupParams
from anonpipe.crypto.shamir import PrimeField, eval_poly
from anonpipe.errors import DecryptionError, IntegrityError, MissingKey
from anonpipe.formats import KIND_BLINDED, KIND_FIXED, KIND_HASHED, KIND_PLAIN


# ---------------------------------------------------------------------------
# Local randomization


def k_ary_randomized_response(true_value: int, k: int, epsilon: float, rng) -> int:
    """Report the true value with probability e^eps / (e^eps + k - 1),
    otherwise a uniformly random other value."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if not 0 <= true_value < k:
        raise ValueError("true_value out of range")
    e = math.exp(min(epsilon, 50.0))
    if rng.random() < e / (e + k - 1):
        return true_value
    other = rng.randrange(k - 1)
    return other if other < true_value else other + 1


def krr_true_prob(k: int, epsilon: float) -> float:
    e = math.exp(min(epsilon, 50.0))
    return e / (e + k - 1)


# ---------------------------------------------------------------------------
# Secret-share encoding


def share_payload_length(field: PrimeField, message_len: int) -> int:
    """`secret_share_encode`'s payload size for a message of `message_len` bytes."""
    return 2 + DETERMINISTIC_OVERHEAD + message_len + 2 * field.elem_len


def parse_share_payload(field: PrimeField, payload: bytes) -> tuple[bytes, int, int]:
    """(c, x, y) from `secret_share_encode`'s payload, len(c) || c || x || y.

    Raises `DecryptionError` when the framing is wrong and `ValueError` when
    x or y is not below the field's modulus or x is 0."""
    if len(payload) < 2:
        raise DecryptionError("truncated secret-share payload")
    (clen,) = struct.unpack_from("<H", payload)
    w = field.elem_len
    if len(payload) != 2 + clen + 2 * w:
        raise DecryptionError("bad secret-share payload")
    x = field.decode(payload[2 + clen : 2 + clen + w])
    y = field.decode(payload[2 + clen + w :])
    if x == 0:
        raise ValueError("share x must be nonzero")
    return payload[2 : 2 + clen], x, y


# The field of every secret-share payload, whatever the config's group:
# test-256's p, a 255-bit prime, so a share's size does not grow with the group.
SHARE_FIELD = PrimeField(0x61d689bea9b7b2c11663b2f54bd92fd39ae2ec3f525d4573408046134d38cd15)


# Bytes of SHAKE-256 output per polynomial coefficient: 384 bits reduced mod
# the 255-bit SHARE_FIELD are within 2^-128 of uniform.
_COEFF_LEN = 48


def message_field_key(field: PrimeField, m: bytes) -> int:
    """The constant term of m's share polynomial, which keys m's
    deterministic ciphertext; the same at every t."""
    return _share_poly_coeffs(field, m, 1)[0]


def _share_poly_coeffs(field: PrimeField, m: bytes, t: int) -> list[int]:
    """m's degree-(t - 1) share polynomial, constant term first: one
    SHAKE-256 output over m cut into t big-endian integers of `_COEFF_LEN`
    bytes, so the coefficients for t are a prefix of those for any larger t.

    The coefficients are message-derived so uncoordinated clients evaluate
    the same polynomial; only the evaluation point is per-client randomness.
    Only the constant term is reduced mod p: `eval_poly` reduces at every
    Horner step, so the others may stay unreduced."""
    stream = hashlib.shake_256(b"anonpipe-ssc-v2|" + m).digest(_COEFF_LEN * t)
    coeffs = [
        int.from_bytes(stream[i : i + _COEFF_LEN], "big")
        for i in range(0, len(stream), _COEFF_LEN)
    ]
    coeffs[0] %= field.modulus
    return coeffs


def symmetric_key_from_field(field: PrimeField, k_field: int) -> bytes:
    return hashlib.sha256(b"anonpipe-ssenc-v1|" + field.encode(k_field)).digest()[:16]


def secret_share_encode(m: bytes, t: int, field: PrimeField, rng=OS_RNG) -> bytes:
    """The payload len(c) || c || x || y that decodes to m only once t
    independent payloads are grouped: c is m's deterministic ciphertext and
    (x, y) one share of its key."""
    if t < 1:
        raise ValueError("t must be >= 1")
    coeffs = _share_poly_coeffs(field, m, t)
    key = symmetric_key_from_field(field, coeffs[0])
    c = deterministic_encrypt(key, m)
    x = field.random_nonzero(rng)
    y = eval_poly(field, coeffs, x)
    return struct.pack("<H", len(c)) + c + field.encode(x) + field.encode(y)


def secret_share_open(field: PrimeField, c: bytes, k_field: int) -> bytes:
    """Decrypt c with a reconstructed field key and verify the key matches."""
    m = deterministic_decrypt(symmetric_key_from_field(field, k_field), c)
    if message_field_key(field, m) != k_field:
        raise IntegrityError("reconstructed key inconsistent with message")
    return m


# ---------------------------------------------------------------------------
# Crowd IDs and nested encryption


# The wire kind each crowd-ID mode produces.
CROWD_KINDS = {
    "plain": KIND_PLAIN,
    "hashed": KIND_HASHED,
    "fixed": KIND_FIXED,
    "blinded": KIND_BLINDED,
}


def make_crowd_id(
    crowd_key: bytes,
    mode: str,
    hash_key: bytes = b"",
    group: GroupParams | None = None,
    shuffler2_public: int | None = None,
    rng=OS_RNG,
) -> bytes:
    """The crowd ID of `crowd_key` in `mode`, fixed-width encoded for the wire;
    its kind is `CROWD_KINDS[mode]`."""
    if mode == "plain":
        return formats.encode_plain_crowd(crowd_key)
    if mode == "hashed":
        if not hash_key:
            # unkeyed, anyone could recompute every client's crowd ID
            raise MissingKey("hashed crowd IDs need the clients' crowd-hash key")
        return hashlib.blake2b(
            crowd_key, key=hash_key[:64], digest_size=formats.HASHED_CROWD_WIDTH
        ).digest()
    if mode == "fixed":
        return formats.FIXED_CROWD_SENTINEL
    if mode == "blinded":
        if group is None or shuffler2_public is None:
            raise MissingKey("blinded crowd IDs need the second shuffler's public key")
        return group.elgamal_encrypt(shuffler2_public, group.hash_to_group(crowd_key), rng)
    raise ValueError(f"unknown crowd-ID mode {mode!r}")


def encode_report(
    payload: bytes,
    kind: int,
    crowd_id: bytes,
    analyzer_public: bytes,
    shuffler_public: bytes,
    pad_to: int,
    rng=OS_RNG,
) -> bytes:
    """Nested encryption: inner sealed to the analyzer, outer to the shuffler."""
    inner = seal(analyzer_public, formats.pad_payload(payload, pad_to), rng)
    outer_plain = formats.build_outer_plaintext(kind, crowd_id, inner)
    return formats.build_report(seal(shuffler_public, outer_plain, rng))


def open_inner(envelope_bytes: bytes, analyzer_keypair) -> bytes:
    return formats.unpad_payload(open_envelope(analyzer_keypair, envelope_bytes))
