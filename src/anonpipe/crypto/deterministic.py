"""Deterministic authenticated encryption under message-derived keys.

Equal messages under equal keys produce byte-identical ciphertexts; that
equality is what lets the analyzer group independently-produced encodings
of the same value.  Realized as AES-GCM with a synthetic IV derived from
the key and the message.
"""

from __future__ import annotations

import hashlib
import hmac

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from anonpipe.errors import IntegrityError

_SIV_LEN = 12

DETERMINISTIC_OVERHEAD = _SIV_LEN + 16  # synthetic IV + GCM tag


def _synthetic_iv(key: bytes, m: bytes) -> bytes:
    return hmac.new(key, b"siv|" + m, hashlib.sha256).digest()[:_SIV_LEN]


def deterministic_encrypt(key: bytes, m: bytes) -> bytes:
    iv = _synthetic_iv(key, m)
    return iv + AESGCM(key).encrypt(iv, m, None)


def deterministic_decrypt(key: bytes, c: bytes) -> bytes:
    if len(c) < DETERMINISTIC_OVERHEAD:
        raise IntegrityError("ciphertext too short")
    try:
        return AESGCM(key).decrypt(c[:_SIV_LEN], c[_SIV_LEN:], None)
    except InvalidTag as exc:
        raise IntegrityError("wrong key or corrupted ciphertext") from exc
