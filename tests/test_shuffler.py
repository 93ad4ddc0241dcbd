import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonpipe.crypto.envelope import TransportKeyPair
from anonpipe.crypto.group import TEST_GROUP_256, KeyPair
from anonpipe.encoder import CrowdId, encode_report, make_crowd_id
from anonpipe.errors import DecryptionError
from anonpipe.formats import (
    KIND_HASHED,
    KIND_PLAIN,
    encode_plain_crowd,
    parse_report,
    report_length,
)
from anonpipe.shuffler import (
    Batch,
    ThresholdPolicy,
    apply_threshold,
    blind_stage1,
    blind_stage2_threshold,
    count_crowds,
    crowd_survives,
    draw_drop,
    intake,
    selectivity_record,
    shuffle_batch,
)

G = TEST_GROUP_256


def _reports(crowd_keys, seed=0, pad_to=48):
    rng = random.Random(seed)
    analyzer = TransportKeyPair.generate(rng)
    shuffler = TransportKeyPair.generate(rng)
    blobs = []
    for key in crowd_keys:
        cid = make_crowd_id(key, "hashed", hash_key=b"hk")
        blobs.append(
            encode_report(b"v:" + key, cid, analyzer.public_bytes, shuffler.public_bytes, pad_to, rng)
        )
    return blobs, shuffler, rng


def test_intake_opens_and_randomizes():
    blobs, shuffler, rng = _reports([b"a", b"b", b"a", b"c"])
    batch = intake(blobs, shuffler, "epoch-1", rng)
    assert len(batch.records) == 4
    assert batch.stats == {"input_count": 4, "corrupt": 4 - len(batch.records)}
    # only (crowd_id, inner) survive intake; no source metadata fields exist
    assert all(isinstance(c, bytes) and isinstance(i, bytes) for c, i in batch.records)


def test_intake_skips_corrupt_reports():
    blobs, shuffler, rng = _reports([b"a", b"b"])
    garbled = bytearray(blobs[0])
    garbled[-1] ^= 1
    batch = intake([bytes(garbled), blobs[1], b"\xff\x00junk"], shuffler, "e", rng)
    assert len(batch.records) == 1
    assert batch.stats["corrupt"] == 2


def test_intake_without_group_counts_blinded_reports_corrupt():
    blobs, shuffler, rng = _reports([b"b"])
    kp2 = KeyPair.generate(G, rng)
    cid = make_crowd_id(b"a", "blinded", group=G, shuffler2_public=kp2.public, rng=rng)
    blinded = encode_report(b"v", cid, shuffler.public_bytes, shuffler.public_bytes, 48, rng)
    batch = intake([blinded] + blobs, shuffler, "e", rng)
    assert len(batch.records) == 1
    assert batch.stats["corrupt"] == 1


def test_intake_counts_reports_of_another_length_or_kind_corrupt():
    blobs, shuffler, rng = _reports([b"a", b"b"])
    analyzer = TransportKeyPair.generate(rng)
    hashed = make_crowd_id(b"a", "hashed", hash_key=b"hk")
    plain_crowd = CrowdId(KIND_PLAIN, encode_plain_crowd(b"a"))

    def report(crowd, pad_to):
        return encode_report(
            b"v:a", crowd, analyzer.public_bytes, shuffler.public_bytes, pad_to, rng
        )

    # Each hostile report opens, and each would carry an inner envelope of
    # another length than the batch's 108 bytes: a longer pad, and a report
    # of the batch's exact length whose sealed kind is plain, padded 16
    # bytes shorter to make room for the wider crowd ID.
    hostile = [report(hashed, 64), report(plain_crowd, 32)]
    report_len = report_length(KIND_HASHED, 48)
    assert [len(r) == report_len for r in hostile] == [False, True]

    batch = intake(blobs + hostile, shuffler, "e", rng, kind=KIND_HASHED, report_len=report_len)
    assert sorted(batch.records) == sorted(intake(blobs, shuffler, "e", rng).records)
    assert batch.stats["corrupt"] == 2
    assert len({len(inner) for _, inner in batch.records}) == 1


def test_intake_drops_repeats_of_a_report():
    blobs, shuffler, rng = _reports([b"a", b"b"])
    batch = intake(blobs + [blobs[0]] * 20 + [blobs[1]], shuffler, "e", rng)
    assert sorted(batch.records) == sorted(intake(blobs, shuffler, "e", rng).records)
    assert batch.stats == {"input_count": 23, "corrupt": 21}


def test_intake_counts_a_report_of_the_old_layout_corrupt():
    # version 1 carried the kind and crowd ID in the clear before the outer
    # envelope; such a report is rejected on its header, never opened
    blobs, shuffler, rng = _reports([b"a", b"b"])
    crowd = make_crowd_id(b"a", "hashed", hash_key=b"hk").data
    old = bytes([1, KIND_HASHED]) + crowd + parse_report(blobs[0])
    with pytest.raises(DecryptionError, match="bad report header"):
        parse_report(old)
    batch = intake(blobs + [old], shuffler, "e", rng)
    assert sorted(batch.records) == sorted(intake(blobs, shuffler, "e", rng).records)
    assert batch.stats["corrupt"] == 1


def test_count_crowds_conserves_totals():
    keys = [b"a"] * 5 + [b"b"] * 3 + [b"c"]
    blobs, shuffler, rng = _reports(keys)
    batch = intake(blobs, shuffler, "e", rng)
    counts = count_crowds(batch)
    assert sum(counts.values()) == len(keys)
    assert sorted(counts.values()) == [1, 3, 5]


def _batch_of(counts, rng):
    records = []
    for key, c in counts.items():
        for i in range(c):
            records.append((key, rng.randbytes(16)))
    rng.shuffle(records)
    return Batch("e", records)


def test_naive_threshold_is_a_strict_cutoff():
    rng = random.Random(1)
    policy = ThresholdPolicy(threshold_t=20)
    batch = _batch_of({b"big": 21, b"edge": 20, b"small": 3}, rng)
    out = apply_threshold(batch, count_crowds(batch), policy, rng)
    assert len(out.records) == 21  # only the count-21 crowd passes count > T
    assert all(crowd == b"" for crowd, _ in out.records)  # IDs stripped


def test_zero_noise_zero_drop_equals_naive():
    rng = random.Random(2)
    batch = _batch_of({b"a": 25, b"b": 20, b"c": 21}, rng)
    counts = count_crowds(batch)
    naive = apply_threshold(batch, counts, ThresholdPolicy(20), random.Random(3))
    degenerate = apply_threshold(
        batch, counts, ThresholdPolicy(20, drop_mean=0, sigma=0), random.Random(3)
    )
    assert sorted(naive.records) == sorted(degenerate.records)


def test_noisy_drop_removes_d_members_from_survivors():
    rng = random.Random(4)
    policy = ThresholdPolicy(threshold_t=5, drop_mean=3, sigma=0)
    batch = _batch_of({b"a": 30}, rng)
    out = apply_threshold(batch, count_crowds(batch), policy, rng)
    assert len(out.records) == 27  # sigma=0 so d is exactly drop_mean


def test_draw_drop_never_negative():
    rng = random.Random(5)
    policy = ThresholdPolicy(threshold_t=5, drop_mean=0.5, sigma=4)
    assert min(draw_drop(policy, rng) for _ in range(2000)) == 0


def test_crowd_survives_boundary_without_noise():
    policy = ThresholdPolicy(threshold_t=20)
    rng = random.Random(6)
    assert crowd_survives(21, policy, rng)[0]
    assert not crowd_survives(20, policy, rng)[0]


def test_survival_probability_monotone_in_count():
    rng = random.Random(7)
    policy = ThresholdPolicy(20, drop_mean=10, sigma=2)
    probs = []
    for count in range(20, 45, 4):
        hits = sum(crowd_survives(count, policy, rng)[0] for _ in range(4000))
        probs.append(hits / 4000)
    for lo, hi in zip(probs, probs[1:]):
        assert hi >= lo - 0.02  # monotone up to sampling noise


def test_shuffle_batch_is_a_permutation():
    rng = random.Random(8)
    batch = _batch_of({b"a": 10, b"b": 5}, rng)
    out = shuffle_batch(batch, rng)
    assert sorted(out.records) == sorted(batch.records)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 50, 300, 2255])
def test_shuffle_batch_permutes_every_batch_size(n):
    # the pipeline's parameters must not exhaust the Stash Shuffle's
    # attempts (ShuffleFailed) at any batch size
    for seed in range(20 if n < 2255 else 5):
        rng = random.Random(seed)
        records = [(rng.randbytes(8), rng.randbytes(20)) for _ in range(n)]
        batch = Batch("e", records, stats={"input_count": n})
        out = shuffle_batch(batch, rng)
        assert sorted(out.records) == sorted(records)
        assert out.stats == batch.stats
        if n >= 50:
            assert out.records != records


def test_selectivity_record_is_counts_only():
    rng = random.Random(9)
    batch = _batch_of({b"a": 25}, rng)
    out = apply_threshold(batch, count_crowds(batch), ThresholdPolicy(20), rng)
    rec = selectivity_record(out)
    assert set(rec) == {"epoch_id", "input_count", "surviving_count"}
    assert rec["input_count"] == 25 and rec["surviving_count"] == 25


# ---------------------------------------------------------------------------
# two-shuffler blinded crowds


def _blinded_batch(crowd_keys, kp2, rng):
    records = []
    for key in crowd_keys:
        mu = G.hash_to_group(key)
        ct = G.elgamal_encrypt(kp2.public, mu, rng)
        records.append((ct, rng.randbytes(16)))
    return Batch("e", records)


def test_blind_stage1_preserves_count_and_rerandomizes():
    rng = random.Random(10)
    kp2 = KeyPair.generate(G, rng)
    batch = _blinded_batch([b"a", b"b", b"a"], kp2, rng)
    alpha = G.random_scalar(rng)
    out = blind_stage1(batch, G, alpha)
    assert len(out.records) == 3
    assert {i for _, i in out.records} == {i for _, i in batch.records}
    assert all(c != c0 for (c, _), (c0, _) in zip(out.records, batch.records))


def test_blind_stage1_drops_invalid_ciphertexts():
    rng = random.Random(11)
    kp2 = KeyPair.generate(G, rng)
    batch = _blinded_batch([b"a"], kp2, rng)
    batch.records.append((b"\x00" * (2 * G.element_len), b"junk"))
    out = blind_stage1(batch, G, G.random_scalar(rng))
    assert len(out.records) == 1
    assert out.stats["invalid"] == 1


def test_stage2_pseudonyms_preserve_equality():
    rng = random.Random(12)
    kp2 = KeyPair.generate(G, rng)
    batch = _blinded_batch([b"a"] * 6 + [b"b"] * 2, kp2, rng)
    blinded = blind_stage1(batch, G, G.random_scalar(rng))
    out = blind_stage2_threshold(blinded, G, kp2, ThresholdPolicy(5), rng)
    # only the 6-member crowd passes T=5; its inner envelopes survive intact
    assert len(out.records) == 6
    originals = {i for c, i in batch.records[:6]}
    assert {i for _, i in out.records} == originals


def test_blinded_pipeline_matches_plaintext_pipeline():
    # same crowds, same thresholding randomness -> identical surviving sets
    policy = ThresholdPolicy(5, drop_mean=2, sigma=1)
    for seed in range(10):
        rng = random.Random(100 + seed)
        kp2 = KeyPair.generate(G, rng)
        alpha = G.random_scalar(rng)
        keys = [b"k%d" % rng.randrange(6) for _ in range(60)]
        inners = [rng.randbytes(16) for _ in keys]

        plain = Batch("e", list(zip([b"h:" + k for k in keys], inners)))
        plain_out = apply_threshold(
            plain, count_crowds(plain), policy, random.Random(7 * seed)
        )

        blinded = Batch(
            "e",
            [
                (G.elgamal_encrypt(kp2.public, G.hash_to_group(k), rng), i)
                for k, i in zip(keys, inners)
            ],
        )
        stage1 = blind_stage1(blinded, G, alpha)
        blind_out = blind_stage2_threshold(stage1, G, kp2, policy, random.Random(7 * seed))

        assert sorted(i for _, i in plain_out.records) == sorted(
            i for _, i in blind_out.records
        )


def _valid_crowd_id(data: bytes) -> bool:
    # each half one element, written as its class's member in [1, p]
    w = G.element_len
    return len(data) == 2 * w and all(
        1 <= int.from_bytes(half, "big") <= G.order_p for half in (data[:w], data[w:])
    )


def _other_representatives(records, tag):
    """Each crowd ID twice more: with q - c1 for c1, then q - c2 for c2."""
    w, q = G.element_len, G.modulus
    out = []
    for i, (cid, _) in enumerate(records):
        c1, c2 = cid[:w], cid[w:]
        other = [(q - int.from_bytes(c, "big")).to_bytes(w, "big") for c in (c1, c2)]
        out += [(other[0] + c2, b"%s%d-c1" % (tag, i)), (c1 + other[1], b"%s%d-c2" % (tag, i))]
    return out


def test_blinded_stages_count_the_other_representative_as_invalid():
    # q - x is the same class as x, but not its encoding: accepted, it would
    # give one honest element a second byte string
    rng = random.Random(21)
    kp2, alpha = KeyPair.generate(G, rng), G.random_scalar(rng)
    keys = [b"a"] * 3 + [b"b"] * 2
    honest = _blinded_batch(keys, kp2, rng).records
    n_bad = 2 * len(honest)

    stage1 = blind_stage1(Batch("e", honest + _other_representatives(honest, b"s1-")), G, alpha)
    assert stage1.stats["invalid"] == n_bad
    assert stage1.records == blind_stage1(Batch("e", honest), G, alpha).records
    pseudonyms = [G.unblind_decrypt(cid, kp2.secret) for cid, _ in stage1.records]
    assert pseudonyms == [G.encode_element(G.exp(G.hash_to_group(k), alpha)) for k in keys]

    stage2_in = Batch("e", stage1.records + _other_representatives(stage1.records, b"s2-"))
    stage2 = blind_stage2_threshold(stage2_in, G, kp2, ThresholdPolicy(2), random.Random(1))
    assert stage2.stats["invalid"] == n_bad
    # only crowd a, of 3 > T = 2 members, survives
    assert sorted(i for _, i in stage2.records) == sorted(i for _, i in honest[:3])


_W = G.element_len
_EDGE_CROWD_IDS = [
    bytes(2 * _W),
    G.encode_element(G.modulus - 1) + G.encode_element(G.generator),
    G.encode_element(G.generator) + G.encode_element(G.modulus - 1),
    G.modulus.to_bytes(_W, "big") + G.encode_element(G.generator),
    G.encode_element(G.generator) + G.modulus.to_bytes(_W, "big"),
    b"\xff" * (2 * _W),
    G.encode_element(G.generator) * 2 + b"\x01",
    (G.encode_element(G.generator) * 2)[:-1],
    b"",
]


@settings(max_examples=40, deadline=None)
@given(
    bad=st.lists(
        st.one_of(
            st.binary(max_size=2 * _W + 2),
            st.binary(min_size=2 * _W, max_size=2 * _W),
            st.sampled_from(_EDGE_CROWD_IDS),
        ),
        max_size=6,
    ),
    seed=st.integers(0, 2**32),
)
def test_blinded_stages_count_every_bad_crowd_id(bad, seed):
    rng = random.Random(seed)
    kp2 = KeyPair.generate(G, rng)
    alpha = G.random_scalar(rng)
    honest = _blinded_batch([b"a"] * 3 + [b"b"] * 2, kp2, rng).records
    n_bad = sum(not _valid_crowd_id(c) for c in bad)

    def with_fuzz(records, tag):
        return Batch("e", records + [(c, b"%s%d" % (tag, i)) for i, c in enumerate(bad)])

    stage1 = blind_stage1(with_fuzz(honest, b"s1-"), G, alpha)
    assert stage1.stats["invalid"] == n_bad
    assert len(stage1.records) == len(honest) + len(bad) - n_bad
    assert {i for _, i in honest} <= {i for _, i in stage1.records}

    stage2_in = with_fuzz(stage1.records, b"s2-")
    stage2 = blind_stage2_threshold(stage2_in, G, kp2, ThresholdPolicy(1), rng)
    assert stage2.stats["invalid"] == n_bad
    assert stage2.stats["input_count"] == len(stage2_in.records) - n_bad
    # both honest crowds clear T=1; a fuzzed ID is a crowd of its own
    assert {i for _, i in honest} <= {i for _, i in stage2.records}
