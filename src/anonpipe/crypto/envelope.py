"""Hybrid authenticated-encryption envelopes (ephemeral-static X25519 + AES-GCM).

Wire layout: ephemeral_public (32) || nonce (12) || ciphertext || tag (16),
a constant 60-byte overhead over the plaintext.
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

    @classmethod
    def generate(cls, rng=OS_RNG) -> "TransportKeyPair":
        sk_bytes = rng.randbytes(32)
        sk = X25519PrivateKey.from_private_bytes(sk_bytes)
        return cls(secret_bytes=sk_bytes, public_bytes=sk.public_key().public_bytes_raw())


@dataclass(frozen=True)
class AeadEnvelope:
    ephemeral_public: bytes
    nonce: bytes
    ciphertext: bytes
    tag: bytes

    def to_bytes(self) -> bytes:
        return self.ephemeral_public + self.nonce + self.ciphertext + self.tag

    @classmethod
    def from_bytes(cls, data: bytes) -> "AeadEnvelope":
        if len(data) < ENVELOPE_OVERHEAD:
            raise AuthenticationError("envelope too short")
        return cls(
            ephemeral_public=data[:POINT_LEN],
            nonce=data[POINT_LEN : POINT_LEN + NONCE_LEN],
            ciphertext=data[POINT_LEN + NONCE_LEN : -TAG_LEN],
            tag=data[-TAG_LEN:],
        )


def _derive_key(shared: bytes, ephemeral_public: bytes, recipient_public: bytes) -> bytes:
    return HKDF(
        algorithm=hashes.SHA256(),
        length=16,
        salt=None,
        info=b"anonpipe-envelope-v1" + ephemeral_public + recipient_public,
    ).derive(shared)


def seal(recipient_public: bytes, plaintext: bytes, rng=OS_RNG) -> AeadEnvelope:
    """Encrypt to a recipient public key with a fresh ephemeral key pair."""
    if len(plaintext) > MAX_PLAINTEXT:
        raise PayloadTooLarge(f"plaintext longer than {MAX_PLAINTEXT}")
    eph_sk = X25519PrivateKey.from_private_bytes(rng.randbytes(32))
    eph_pub = eph_sk.public_key().public_bytes_raw()
    shared = eph_sk.exchange(X25519PublicKey.from_public_bytes(recipient_public))
    key = _derive_key(shared, eph_pub, recipient_public)
    nonce = rng.randbytes(NONCE_LEN)
    ct_tag = AESGCM(key).encrypt(nonce, plaintext, None)
    return AeadEnvelope(
        ephemeral_public=eph_pub,
        nonce=nonce,
        ciphertext=ct_tag[:-TAG_LEN],
        tag=ct_tag[-TAG_LEN:],
    )


def open_envelope(recipient: TransportKeyPair, env: AeadEnvelope) -> bytes:
    try:
        ephemeral = X25519PublicKey.from_public_bytes(env.ephemeral_public)
        shared = recipient._private_key.exchange(ephemeral)
        key = _derive_key(shared, env.ephemeral_public, recipient.public_bytes)
        return AESGCM(key).decrypt(env.nonce, env.ciphertext + env.tag, None)
    except (InvalidTag, ValueError) as exc:
        raise AuthenticationError("envelope failed to open") from exc
