import ast
import pickle
import random
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anonpipe
from anonpipe.crypto.envelope import (
    ENVELOPE_OVERHEAD,
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


def test_a_key_pair_pickles_as_its_two_halves():
    a, rng = _keys(10)
    b = TransportKeyPair.generate(rng)
    cls, args = a.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
    assert (cls, args) == (TransportKeyPair, (a.secret_bytes, a.public_bytes))
    data = pickle.dumps(a, pickle.HIGHEST_PROTOCOL)
    assert b"_private_key" not in data
    loaded = pickle.loads(data)
    assert loaded == a
    assert open_envelope(loaded, seal(a.public_bytes, b"m", rng)) == b"m"
    # the halves check runs again on load
    swapped = data.replace(a.public_bytes, b.public_bytes)
    assert swapped != data
    with pytest.raises(ValueError, match="does not match"):
        pickle.loads(swapped)


def test_loaded_key_is_not_part_of_the_value():
    a, _ = _keys(9)
    twin = TransportKeyPair(secret_bytes=a.secret_bytes, public_bytes=a.public_bytes)
    assert twin == a and hash(twin) == hash(a) and repr(twin) == repr(a)
    assert [f.name for f in fields(TransportKeyPair)] == ["secret_bytes", "public_bytes"]


def test_sealing_twice_differs():
    kp, rng = _keys(1)
    a = seal(kp.public_bytes, b"m", rng)
    b = seal(kp.public_bytes, b"m", rng)
    assert a != b


def test_wrong_recipient_fails():
    kp1, rng = _keys(2)
    kp2 = TransportKeyPair.generate(rng)
    env = seal(kp1.public_bytes, b"m", rng)
    with pytest.raises(AuthenticationError):
        open_envelope(kp2, env)


def test_tampered_ciphertext_fails():
    kp, rng = _keys(3)
    raw = bytearray(seal(kp.public_bytes, b"payload", rng))
    raw[-1] ^= 0x01
    with pytest.raises(AuthenticationError):
        open_envelope(kp, bytes(raw))


def test_tampered_ephemeral_key_fails():
    kp, rng = _keys(4)
    raw = bytearray(seal(kp.public_bytes, b"payload", rng))
    raw[0] ^= 0x01
    with pytest.raises(AuthenticationError):
        open_envelope(kp, bytes(raw))


def test_serialized_length_is_plaintext_plus_constant():
    kp, rng = _keys(5)
    for n in (0, 1, 17, 255, 1024):
        env = seal(kp.public_bytes, bytes(n), rng)
        assert len(env) == n + ENVELOPE_OVERHEAD


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
    assert len(env) == len(payload) + ENVELOPE_OVERHEAD
    assert open_envelope(kp, env) == payload


def test_seal_rng_consumption_is_length_independent():
    # replayability of downstream draws must not depend on payload size
    kp, _ = _keys(7)
    seeds = []
    for n in (0, 64, 4096):
        rng = random.Random(99)
        seal(kp.public_bytes, bytes(n), rng)
        seeds.append(rng.randbytes(8))
    assert len(set(seeds)) == 1


_FUZZ_KEYS, _ = _keys(11)


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=ENVELOPE_OVERHEAD + 32))
def test_hostile_envelope_bytes_raise_only_authentication_error(data):
    # shufflers and the analyzer count AuthenticationError as a reject;
    # nothing else may escape, whatever the length
    with pytest.raises(AuthenticationError):
        open_envelope(_FUZZ_KEYS, data)


def test_every_truncation_of_an_envelope_fails_to_open():
    kp, rng = _keys(12)
    env = seal(kp.public_bytes, bytes(32), rng)
    for n in range(len(env)):
        with pytest.raises(AuthenticationError):
            open_envelope(kp, env[:n])


# What the rest of anonpipe may see of this module.  Envelopes travel as
# bytes, so only this module knows their layout.
ENVELOPE_EXPORTS = {
    "seal", "open_envelope", "TransportKeyPair", "ENVELOPE_OVERHEAD", "MAX_PLAINTEXT"
}


def test_envelope_layout_stays_inside_the_envelope_module():
    package = Path(anonpipe.__file__).parent
    crossings = []
    for path in sorted(package.rglob("*.py")):
        if path == package / "crypto" / "envelope.py":
            continue
        where = str(path.relative_to(package))
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "anonpipe.crypto.envelope":
                crossings += [(where, a.name) for a in node.names if a.name not in ENVELOPE_EXPORTS]
            elif isinstance(node, ast.ImportFrom) and node.module == "anonpipe.crypto":
                crossings += [(where, a.name) for a in node.names if a.name == "envelope"]
            elif isinstance(node, ast.Import):
                crossings += [
                    (where, a.name) for a in node.names if a.name == "anonpipe.crypto.envelope"
                ]
    assert crossings == []
