"""Hybrid authenticated-encryption envelopes (ephemeral-static X25519 + AES-GCM).

`seal` returns an envelope's bytes, ephemeral_public (32) || nonce (12) ||
ciphertext || tag (16), a constant 60-byte overhead over the plaintext, and
`open_envelope` takes those bytes as they arrived.  Only this module splits
them, so every other module passes envelopes as bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from anonpipe.crypto import OS_RNG
from anonpipe.errors import AuthenticationError, PayloadTooLarge

POINT_LEN = 32
NONCE_LEN = 12
TAG_LEN = 16
ENVELOPE_OVERHEAD = POINT_LEN + NONCE_LEN + TAG_LEN

MAX_PLAINTEXT = 1 << 20


@dataclass(frozen=True)
class TransportKeyPair:
    """Recipient key pair for sealed envelopes.

    The private key is loaded once, here, rather than on every open; a pair
    whose public half does not belong to its secret half is rejected.
    """

    secret_bytes: bytes
    public_bytes: bytes

    def __post_init__(self):
        sk = X25519PrivateKey.from_private_bytes(self.secret_bytes)
        if sk.public_key().public_bytes_raw() != self.public_bytes:
            raise ValueError("transport public key does not match its secret key")
        object.__setattr__(self, "_private_key", sk)

    def __reduce__(self):
        # the two halves, never the loaded key: loading checks them again
        return type(self), (self.secret_bytes, self.public_bytes)

    @classmethod
    def generate(cls, rng=OS_RNG) -> "TransportKeyPair":
        sk_bytes = rng.randbytes(32)
        sk = X25519PrivateKey.from_private_bytes(sk_bytes)
        return cls(secret_bytes=sk_bytes, public_bytes=sk.public_key().public_bytes_raw())


def _derive_key(shared: bytes, ephemeral_public: bytes, recipient_public: bytes) -> bytes:
    return HKDF(
        algorithm=hashes.SHA256(),
        length=16,
        salt=None,
        info=b"anonpipe-envelope-v1" + ephemeral_public + recipient_public,
    ).derive(shared)


def seal(recipient_public: bytes, plaintext: bytes, rng=OS_RNG) -> bytes:
    """The envelope of `plaintext` for a recipient public key, under a fresh
    ephemeral key pair."""
    if len(plaintext) > MAX_PLAINTEXT:
        raise PayloadTooLarge(f"plaintext longer than {MAX_PLAINTEXT}")
    eph_sk = X25519PrivateKey.from_private_bytes(rng.randbytes(32))
    eph_pub = eph_sk.public_key().public_bytes_raw()
    shared = eph_sk.exchange(X25519PublicKey.from_public_bytes(recipient_public))
    key = _derive_key(shared, eph_pub, recipient_public)
    nonce = rng.randbytes(NONCE_LEN)
    return eph_pub + nonce + AESGCM(key).encrypt(nonce, plaintext, None)


def open_envelope(recipient: TransportKeyPair, envelope: bytes) -> bytes:
    """The plaintext `seal` sealed in `envelope`; `AuthenticationError` for
    bytes that are not an envelope to `recipient`, whatever their length."""
    if len(envelope) < ENVELOPE_OVERHEAD:
        raise AuthenticationError("envelope too short")
    eph_pub = envelope[:POINT_LEN]
    nonce = envelope[POINT_LEN : POINT_LEN + NONCE_LEN]
    try:
        shared = recipient._private_key.exchange(X25519PublicKey.from_public_bytes(eph_pub))
        key = _derive_key(shared, eph_pub, recipient.public_bytes)
        return AESGCM(key).decrypt(nonce, envelope[POINT_LEN + NONCE_LEN :], None)
    except (InvalidTag, ValueError) as exc:
        raise AuthenticationError("envelope failed to open") from exc
