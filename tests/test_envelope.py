import random
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonpipe.crypto.envelope import (
    ENVELOPE_OVERHEAD,
    AeadEnvelope,
    TransportKeyPair,
    open_envelope,
    seal,
)
from anonpipe.errors import AuthenticationError, PayloadTooLarge


def _keys(seed=0):
    rng = random.Random(seed)
    return TransportKeyPair.generate(rng), rng


def test_seal_open_roundtrip():
    kp, rng = _keys()
    msg = b"hello, shuffler"
    assert open_envelope(kp, seal(kp.public_bytes, msg, rng)) == msg


def test_key_pair_halves_must_match():
    a, rng = _keys(8)
    b = TransportKeyPair.generate(rng)
    with pytest.raises(ValueError):
        TransportKeyPair(secret_bytes=a.secret_bytes, public_bytes=b.public_bytes)
    with pytest.raises(ValueError):
        TransportKeyPair(secret_bytes=bytes(31), public_bytes=a.public_bytes)


def test_loaded_key_is_not_part_of_the_value():
    a, _ = _keys(9)
    twin = TransportKeyPair(secret_bytes=a.secret_bytes, public_bytes=a.public_bytes)
    assert twin == a and hash(twin) == hash(a) and repr(twin) == repr(a)
    assert [f.name for f in fields(TransportKeyPair)] == ["secret_bytes", "public_bytes"]


def test_sealing_twice_differs():
    kp, rng = _keys(1)
    a = seal(kp.public_bytes, b"m", rng).to_bytes()
    b = seal(kp.public_bytes, b"m", rng).to_bytes()
    assert a != b


def test_wrong_recipient_fails():
    kp1, rng = _keys(2)
    kp2 = TransportKeyPair.generate(rng)
    env = seal(kp1.public_bytes, b"m", rng)
    with pytest.raises(AuthenticationError):
        open_envelope(kp2, env)


def test_tampered_ciphertext_fails():
    kp, rng = _keys(3)
    raw = bytearray(seal(kp.public_bytes, b"payload", rng).to_bytes())
    raw[-1] ^= 0x01
    with pytest.raises(AuthenticationError):
        open_envelope(kp, AeadEnvelope.from_bytes(bytes(raw)))


def test_tampered_ephemeral_key_fails():
    kp, rng = _keys(4)
    raw = bytearray(seal(kp.public_bytes, b"payload", rng).to_bytes())
    raw[0] ^= 0x01
    with pytest.raises(AuthenticationError):
        open_envelope(kp, AeadEnvelope.from_bytes(bytes(raw)))


def test_serialized_length_is_plaintext_plus_constant():
    kp, rng = _keys(5)
    for n in (0, 1, 17, 255, 1024):
        env = seal(kp.public_bytes, bytes(n), rng)
        assert len(env.to_bytes()) == n + ENVELOPE_OVERHEAD


def test_payload_cap_enforced():
    kp, rng = _keys(6)
    with pytest.raises(PayloadTooLarge):
        seal(kp.public_bytes, bytes((1 << 20) + 1), rng)


@settings(max_examples=60, deadline=None)
@given(payload=st.binary(min_size=0, max_size=4096), seed=st.integers(0, 2**31))
def test_roundtrip_property(payload, seed):
    rng = random.Random(seed)
    kp = TransportKeyPair.generate(rng)
    env = seal(kp.public_bytes, payload, rng)
    assert len(env.to_bytes()) == len(payload) + ENVELOPE_OVERHEAD
    assert open_envelope(kp, AeadEnvelope.from_bytes(env.to_bytes())) == payload


def test_seal_rng_consumption_is_length_independent():
    # replayability of downstream draws must not depend on payload size
    kp, _ = _keys(7)
    seeds = []
    for n in (0, 64, 4096):
        rng = random.Random(99)
        seal(kp.public_bytes, bytes(n), rng)
        seeds.append(rng.randbytes(8))
    assert len(set(seeds)) == 1
