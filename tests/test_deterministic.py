import pytest

from anonpipe.crypto.deterministic import (
    DETERMINISTIC_OVERHEAD,
    deterministic_decrypt,
    deterministic_encrypt,
)
from anonpipe.crypto.group import TEST_GROUP_256
from anonpipe.crypto.shamir import PrimeField
from anonpipe.encoder import message_field_key, symmetric_key_from_field
from anonpipe.errors import IntegrityError

KEY = bytes(range(16))
OTHER_KEY = bytes(range(16, 32))
FIELD = PrimeField(TEST_GROUP_256.order_p)


def test_same_message_same_ciphertext():
    assert deterministic_encrypt(KEY, b"www.example.com") == deterministic_encrypt(
        KEY, b"www.example.com"
    )


def test_roundtrip():
    assert deterministic_decrypt(KEY, deterministic_encrypt(KEY, b"hello")) == b"hello"


def test_ciphertext_length():
    assert len(deterministic_encrypt(KEY, b"m")) == 1 + DETERMINISTIC_OVERHEAD


def test_wrong_key_fails():
    ct = deterministic_encrypt(KEY, b"a")
    with pytest.raises(IntegrityError):
        deterministic_decrypt(OTHER_KEY, ct)


def test_tampering_fails():
    raw = bytearray(deterministic_encrypt(KEY, b"a"))
    raw[-1] ^= 1
    with pytest.raises(IntegrityError):
        deterministic_decrypt(KEY, bytes(raw))


def test_injectivity_over_many_messages():
    # 10^5 distinct messages, each under the key the encoder derives from
    # it, -> distinct ciphertexts
    seen = set()
    for i in range(100_000):
        m = i.to_bytes(4, "big")
        key = symmetric_key_from_field(FIELD, message_field_key(FIELD, m))
        seen.add(deterministic_encrypt(key, m))
    assert len(seen) == 100_000
