import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonpipe import formats
from anonpipe.crypto.envelope import TransportKeyPair, open_envelope
from anonpipe.crypto.group import TEST_GROUP_256, KeyPair
from anonpipe.crypto.shamir import GF251, PrimeField, ShamirShare, shamir_reconstruct
from anonpipe.encoder import (
    CROWD_KINDS,
    encode_report,
    k_ary_randomized_response,
    krr_true_prob,
    make_crowd_id,
    message_field_key,
    open_inner,
    parse_share_payload,
    secret_share_encode,
    secret_share_open,
)
from anonpipe.formats import inner_envelope_length, parse_outer_plaintext, report_length
from anonpipe.errors import DecryptionError, IntegrityError, MissingKey


# ---------------------------------------------------------------------------
# local randomization


def test_krr_true_prob_formula():
    # p = e^eps / (e^eps + k - 1)
    assert krr_true_prob(2, math.log(3)) == pytest.approx(0.75)
    assert krr_true_prob(10, 0.0) == pytest.approx(0.1)


def test_krr_empirical_rate_within_3_sigma():
    rng = random.Random(4)
    k, eps, n = 16, 2.0, 30_000
    p = krr_true_prob(k, eps)
    kept = sum(1 for _ in range(n) if k_ary_randomized_response(3, k, eps, rng) == 3)
    # the true value is reported with probability exactly p
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(kept - n * p) < 3 * sigma


def test_krr_output_in_domain():
    rng = random.Random(5)
    for _ in range(200):
        assert 0 <= k_ary_randomized_response(7, 11, 1.0, rng) < 11


# ---------------------------------------------------------------------------
# secret-share encoding


def test_share_encodings_agree_on_c_and_reconstruct():
    field = PrimeField((1 << 127) - 1)
    rng = random.Random(6)
    t = 5
    encs = [
        parse_share_payload(field, secret_share_encode(b"secret-url", t, field, rng))
        for _ in range(t)
    ]
    assert len({c for c, _, _ in encs}) == 1  # deterministic outer ciphertext
    k = shamir_reconstruct(field, [ShamirShare(x, y) for _, x, y in encs], t=t)
    assert k == message_field_key(field, b"secret-url")
    assert secret_share_open(field, encs[0][0], k) == b"secret-url"


def test_share_open_rejects_wrong_key():
    field = GF251
    rng = random.Random(7)
    c, _, _ = parse_share_payload(field, secret_share_encode(b"m", 1, field, rng))
    good = message_field_key(field, b"m")
    with pytest.raises(IntegrityError):
        secret_share_open(field, c, (good + 1) % field.modulus)


def test_share_payload_roundtrip():
    field = PrimeField((1 << 61) - 1)
    rng = random.Random(8)
    payload = secret_share_encode(b"value", 3, field, rng)
    c, x, y = parse_share_payload(field, payload)
    assert payload == struct.pack("<H", len(c)) + c + field.encode(x) + field.encode(y)


# ---------------------------------------------------------------------------
# crowd IDs


def test_hashed_crowd_id_stable_and_keyed():
    a = make_crowd_id(b"crowd", "hashed", hash_key=b"k1")
    b = make_crowd_id(b"crowd", "hashed", hash_key=b"k1")
    c = make_crowd_id(b"crowd", "hashed", hash_key=b"k2")
    assert a == b and a != c
    assert len(a) == formats.HASHED_CROWD_WIDTH


def test_hashed_crowd_id_requires_key():
    # unkeyed, anyone could recompute every client's crowd ID
    with pytest.raises(MissingKey):
        make_crowd_id(b"crowd", "hashed")
    with pytest.raises(MissingKey):
        make_crowd_id(b"crowd", "hashed", hash_key=b"")


def test_fixed_crowd_id_is_constant():
    assert make_crowd_id(b"x", "fixed") == make_crowd_id(b"y", "fixed")


def test_plain_crowd_id_roundtrip():
    cid = make_crowd_id(b"news.site", "plain")
    # one length byte, then the key zero-padded to the fixed width
    assert cid == b"\x09news.site" + b"\x00" * 14
    assert len(cid) == formats.PLAIN_CROWD_WIDTH


def test_blinded_crowd_id_decrypts_to_group_hash():
    g = TEST_GROUP_256
    rng = random.Random(9)
    kp = KeyPair.generate(g, rng)
    cid = make_crowd_id(b"crowd", "blinded", group=g, shuffler2_public=kp.public, rng=rng)
    assert g.unblind_decrypt(cid, kp.secret) == g.encode_element(g.hash_to_group(b"crowd"))


def test_blinded_crowd_id_requires_key():
    with pytest.raises(MissingKey):
        make_crowd_id(b"crowd", "blinded", group=TEST_GROUP_256)


# ---------------------------------------------------------------------------
# nested report encryption


def _transport_keys(seed):
    rng = random.Random(seed)
    return TransportKeyPair.generate(rng), TransportKeyPair.generate(rng), rng


def _open_outer(report, shuffler):
    return open_envelope(shuffler, formats.parse_report(report))


def test_report_nesting_roundtrip():
    analyzer, shuffler, rng = _transport_keys(10)
    cid = make_crowd_id(b"crowd", "hashed", hash_key=b"hk")
    report = encode_report(
        b"payload", formats.KIND_HASHED, cid, analyzer.public_bytes, shuffler.public_bytes, 64, rng
    )
    assert report[0] == formats.REPORT_VERSION

    kind, crowd, inner = parse_outer_plaintext(_open_outer(report, shuffler))
    assert (kind, crowd) == (formats.KIND_HASHED, cid)
    # the shuffler cannot open the inner envelope
    with pytest.raises(Exception):
        open_inner(inner, shuffler)
    assert open_inner(inner, analyzer) == b"payload"


@pytest.mark.parametrize("mode", ["plain", "hashed", "blinded"])
def test_crowd_id_travels_only_inside_the_outer_envelope(mode):
    analyzer, shuffler, rng = _transport_keys(13)
    h = KeyPair.generate(TEST_GROUP_256, rng).public
    reports = []
    for _ in range(2):
        cid = make_crowd_id(
            b"w1", mode, hash_key=b"hk", group=TEST_GROUP_256, shuffler2_public=h, rng=rng
        )
        report = encode_report(
            b"w1", CROWD_KINDS[mode], cid, analyzer.public_bytes, shuffler.public_bytes, 32, rng
        )
        assert cid not in report
        assert parse_outer_plaintext(_open_outer(report, shuffler), TEST_GROUP_256)[1] == cid
        reports.append(report)
    if mode == "hashed":
        # one key, one word: equal crowd IDs, yet no 8-byte window of one
        # report equals the other's at the same offset after the version
        a, b = reports
        assert all(a[i : i + 8] != b[i : i + 8] for i in range(1, len(a) - 7))


def test_report_lengths_are_uniform():
    # 10^4 variable-length payloads must serialize to one constant size
    analyzer, shuffler, rng = _transport_keys(11)
    pad_to = 64
    expected = report_length(formats.KIND_HASHED, pad_to)
    sizes = set()
    for i in range(10_000):
        payload = rng.randbytes(rng.randrange(0, pad_to - 1))
        cid = make_crowd_id(b"c%d" % (i % 7), "hashed", hash_key=b"hk")
        r = encode_report(
            payload, formats.KIND_HASHED, cid, analyzer.public_bytes, shuffler.public_bytes,
            pad_to, rng,
        )
        sizes.add(len(r))
    assert sizes == {expected}


def test_inner_envelope_length_constant():
    analyzer, shuffler, rng = _transport_keys(12)
    cid = make_crowd_id(b"c", "fixed")
    r = encode_report(
        b"xy", formats.KIND_FIXED, cid, analyzer.public_bytes, shuffler.public_bytes, 48, rng
    )
    _, _, inner = parse_outer_plaintext(_open_outer(r, shuffler))
    assert len(inner) == inner_envelope_length(48)


def test_batch_file_roundtrip(tmp_path):
    records = [b"a" * 10, b"b" * 10, b"c" * 10]
    path = tmp_path / "batch.bin"
    formats.write_batch(path, records)
    assert formats.read_batch(path) == records


def test_write_batch_of_unequal_records_leaves_the_old_file(tmp_path):
    path = tmp_path / "batch.bin"
    formats.write_batch(path, [b"a" * 10, b"b" * 10])
    old = path.read_bytes()
    for records in ([b"a" * 10, b"b" * 10, b"c" * 9], [b"a" * 9, b"b" * 10]):
        with pytest.raises(ValueError, match="one length"):
            formats.write_batch(path, records)
        assert path.read_bytes() == old
    assert formats.read_batch(path) == [b"a" * 10, b"b" * 10]


@pytest.mark.parametrize("keep", [0, 5, 19])
def test_read_batch_rejects_truncated_header(tmp_path, keep):
    path = tmp_path / "batch.bin"
    formats.write_batch(path, [b"a" * 10])
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(DecryptionError):
        formats.read_batch(path)


def test_empty_batch_file_roundtrip(tmp_path):
    path = tmp_path / "batch.bin"
    formats.write_batch(path, [])
    assert formats.read_batch(path) == []


@pytest.mark.parametrize(
    "record_len, count, body",
    [(0, 5, b"garbage"), (0, 5, b""), (0, 0, b"garbage"), (10, 3, b"a" * 29), (10, 3, b"a" * 31)],
)
def test_read_batch_rejects_a_body_its_header_does_not_describe(tmp_path, record_len, count, body):
    # a header claiming zero-length records once read as an empty batch
    path = tmp_path / "batch.bin"
    path.write_bytes(struct.pack("<8sIQ", formats.BATCH_MAGIC, record_len, count) + body)
    with pytest.raises(DecryptionError):
        formats.read_batch(path)


# Shufflers and the analyzer count a DecryptionError as a reject; any other
# exception would fail the stage.
@settings(max_examples=300, deadline=None)
@given(
    data=st.one_of(
        st.binary(max_size=80),
        st.builds(lambda version, rest: bytes([version]) + rest,
                  st.sampled_from([formats.REPORT_VERSION - 1, formats.REPORT_VERSION]),
                  st.binary(max_size=80)),
    ),
)
def test_parse_report_raises_only_decryption_error(data):
    try:
        outer = formats.parse_report(data)
    except DecryptionError:
        return
    assert formats.build_report(outer) == data


@settings(max_examples=300, deadline=None)
@given(
    data=st.one_of(
        st.binary(max_size=80),
        st.builds(lambda kind, rest: bytes([kind]) + rest,
                  st.integers(0, 255), st.binary(max_size=80)),
    ),
    group=st.sampled_from([None, TEST_GROUP_256]),
)
def test_parse_outer_plaintext_raises_only_decryption_error(data, group):
    try:
        kind, crowd, inner = formats.parse_outer_plaintext(data, group)
    except DecryptionError:
        return
    assert formats.build_outer_plaintext(kind, crowd, inner) == data
    assert len(crowd) == formats.crowd_id_width(kind, group)


@settings(max_examples=300, deadline=None)
@given(
    data=st.one_of(
        st.binary(max_size=40),
        st.builds(
            lambda record_len, count, body: struct.pack(
                "<8sIQ", formats.BATCH_MAGIC, record_len, count
            ) + body,
            st.one_of(st.integers(0, 4), st.integers(0, 2**32 - 1)),
            st.one_of(st.integers(0, 8), st.integers(0, 2**64 - 1)),
            st.binary(max_size=24),
        ),
    )
)
def test_read_batch_of_any_file_raises_only_decryption_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "batch.bin"
    path.write_bytes(data)
    try:
        records = formats.read_batch(path)
    except DecryptionError:
        return
    assert len({len(r) for r in records}) <= 1
