import math
import random
import statistics
import struct
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from anonpipe.analyzer import (
    ShareDecodeResult,
    accumulate_covariance,
    covariance_estimate,
    decrypt_corpus,
    histogram,
    histogram_csv,
    laplace_noise,
    secret_share_decode,
)
from anonpipe.crypto.envelope import TransportKeyPair, seal
from anonpipe.crypto.shamir import PrimeField
from anonpipe.encoder import (
    SHARE_FIELD,
    parse_share_payload,
    secret_share_encode,
    secret_share_open,
)
from anonpipe.errors import DecryptionError, IntegrityError, NonCanonicalTuple
from anonpipe.formats import pad_payload

FIELD = PrimeField((1 << 127) - 1)


# ---------------------------------------------------------------------------
# inner decryption


def test_decrypt_corpus_counts_failures():
    rng = random.Random(0)
    analyzer = TransportKeyPair.generate(rng)
    blobs = [seal(analyzer.public_bytes, pad_payload(b"v%d" % i, 16), rng) for i in range(5)]
    blobs.append(b"\x00" * len(blobs[0]))
    out = decrypt_corpus(blobs, analyzer)
    assert sorted(out.records) == [b"v%d" % i for i in range(5)]
    assert out.failures == 1
    assert len(out.records) + out.failures == 6


def test_decrypt_corpus_counts_plaintext_shorter_than_length_prefix():
    rng = random.Random(1)
    analyzer = TransportKeyPair.generate(rng)
    short = seal(analyzer.public_bytes, b"\x01", rng)
    good = seal(analyzer.public_bytes, pad_payload(b"v", 16), rng)
    out = decrypt_corpus([short, good], analyzer)
    assert out.records == [b"v"]
    assert out.failures == 1


# ---------------------------------------------------------------------------
# secret-share decoding


def _payloads(message, copies, t, rng):
    return [secret_share_encode(message, t, FIELD, rng) for _ in range(copies)]


def test_group_at_threshold_decodes_every_record():
    rng = random.Random(1)
    t = 20
    res = secret_share_decode(_payloads(b"https://popular", 20, t, rng), t, FIELD)
    assert res.messages == [b"https://popular"] * 20
    assert res.undecoded_groups == 0


def test_group_below_threshold_stays_hidden():
    rng = random.Random(2)
    t = 20
    res = secret_share_decode(_payloads(b"https://rare", 19, t, rng), t, FIELD)
    assert res.messages == []
    assert res.undecoded_groups == 1


def test_mixed_groups_decode_independently():
    rng = random.Random(3)
    t = 5
    payloads = (
        _payloads(b"hot", 8, t, rng)
        + _payloads(b"warm", 5, t, rng)
        + _payloads(b"cold", 4, t, rng)
    )
    rng.shuffle(payloads)
    res = secret_share_decode(payloads, t, FIELD)
    assert sorted(res.messages) == [b"hot"] * 8 + [b"warm"] * 5
    assert res.undecoded_groups == 1


def test_duplicate_evaluation_points_do_not_count_twice():
    rng = random.Random(4)
    t = 3
    payloads = _payloads(b"m", 2, t, rng)
    payloads.append(payloads[0])  # replayed share: same x
    res = secret_share_decode(payloads, t, FIELD)
    assert res.messages == []
    assert res.undecoded_groups == 1


def test_forged_group_flagged_adversarial():
    rng = random.Random(5)
    t = 3
    good_c, _, _ = parse_share_payload(FIELD, secret_share_encode(b"m", t, FIELD, rng))
    # shares pointing at good's ciphertext but from a different polynomial
    forged = [parse_share_payload(FIELD, p) for p in _payloads(b"other", t, t, rng)]
    payloads = [_framed(good_c, x, y) for _, x, y in forged]
    res = secret_share_decode(payloads, t, FIELD)
    assert res.adversarial_groups == 1
    assert res.messages == []


def test_garbage_payloads_counted_not_fatal():
    rng = random.Random(6)
    payloads = _payloads(b"m", 2, 2, rng) + [b"", b"\x01"]
    res = secret_share_decode(payloads, 2, FIELD)
    assert res.parse_failures == 2
    assert res.messages == [b"m", b"m"]


def test_below_threshold_fuzz():
    # many small random groups below t never leak a message
    rng = random.Random(7)
    for trial in range(1000):
        t = rng.randrange(2, 6)
        copies = rng.randrange(1, t)
        m = b"s%d" % trial
        res = secret_share_decode(_payloads(m, copies, t, rng), t, FIELD)
        assert res.messages == []


_HONEST = _payloads(b"m", 4, 3, random.Random(8)) + _payloads(b"n", 4, 3, random.Random(9))
_HONEST_C = sorted({parse_share_payload(FIELD, p)[0] for p in _HONEST})


def _framed(c: bytes, x: int, y: int) -> bytes:
    # secret_share_encode's payload layout, also for x = 0
    return struct.pack("<H", len(c)) + c + FIELD.encode(x) + FIELD.encode(y)


_field_ints = st.integers(0, FIELD.modulus - 1)
_hostile_payloads = st.lists(
    st.one_of(
        st.sampled_from(_HONEST),  # honest shares, replays among them
        st.builds(_framed, st.sampled_from(_HONEST_C), _field_ints, _field_ints),  # forged
        st.builds(_framed, st.binary(max_size=40), _field_ints, _field_ints),
        st.binary(max_size=2 * FIELD.elem_len + 60),
    ),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(payloads=_hostile_payloads, t=st.integers(1, 4))
def test_any_payload_list_is_counted_and_never_raises(payloads, t):
    parsed = []
    for payload in payloads:
        try:
            parsed.append(parse_share_payload(FIELD, payload))
        except (DecryptionError, ValueError):
            pass
    res = secret_share_decode(payloads, t, FIELD)
    assert res.parse_failures == len(payloads) - len(parsed)
    assert len(res.messages) <= len(parsed)
    decoded = len(set(res.messages))
    assert decoded + res.undecoded_groups + res.adversarial_groups == len({c for c, _, _ in parsed})


def _decode_oracle(payloads, t, fld):
    """The decode as a reference: each group's payloads stably sorted by x,
    the first y of each x kept, the first t distinct x interpolated at 0 with
    one inversion per term, and every parsed record of a decoded group counted."""
    groups = defaultdict(list)
    res = ShareDecodeResult(messages=[])
    for payload in payloads:
        try:
            c, x, y = parse_share_payload(fld, payload)
        except (DecryptionError, ValueError):
            res.parse_failures += 1
            continue
        groups[c].append((x, y))
    for c, shares in groups.items():
        first_y = {}
        for x, y in sorted(shares, key=lambda share: share[0]):
            first_y.setdefault(x, y)
        if len(first_y) < t:
            res.undecoded_groups += 1
            continue
        pts, p, k = list(first_y.items())[:t], fld.modulus, 0
        for xi, yi in pts:
            num = math.prod(-xj for xj, _ in pts if xj != xi)
            den = math.prod(xi - xj for xj, _ in pts if xj != xi)
            k = (k + yi * num * pow(den, -1, p)) % p
        try:
            m = secret_share_open(fld, c, k)
        except IntegrityError:
            res.adversarial_groups += 1
            continue
        res.messages.extend([m] * len(shares))
    return res


@settings(max_examples=300, deadline=None)
@given(payloads=_hostile_payloads, t=st.integers(1, 4))
def test_decode_matches_the_oracle_on_hostile_payloads(payloads, t):
    assert secret_share_decode(payloads, t, FIELD) == _decode_oracle(payloads, t, FIELD)


def test_decode_matches_the_oracle_on_a_mixed_share_field_batch():
    rng = random.Random(14)
    t = 20

    def encodings(message, copies):
        return [secret_share_encode(message, t, SHARE_FIELD, rng) for _ in range(copies)]

    def parsed(payloads):
        return [parse_share_payload(SHARE_FIELD, p) for p in payloads]

    def framed(c, x, y):
        return struct.pack("<H", len(c)) + c + SHARE_FIELD.encode(x) + SHARE_FIELD.encode(y)

    payloads = encodings(b"hot", 30)
    warm = encodings(b"warm", 20)
    payloads += warm + warm[:5]  # replayed x: 25 records, 20 distinct x
    cold = encodings(b"cold", 19)
    payloads += cold + cold[:3]  # replays do not lift it to t
    # two groups where one share reuses an honest x with another y: the
    # first y seen for an x is the one interpolated
    lukewarm = parsed(encodings(b"lukewarm", 20))
    payloads += [framed(*e) for e in lukewarm]
    tepid = parsed(encodings(b"tepid", 22))
    payloads += [framed(*e) for e in tepid]
    low = min(x for _, x, _ in tepid)
    # one forged group: t shares of another polynomial under "forged"'s c
    target, _, _ = parsed(encodings(b"forged", 1))[0]
    payloads += [framed(target, x, y) for _, x, y in parsed(encodings(b"other", t))]
    payloads += [
        b"",
        b"\x01",
        rng.randbytes(len(payloads[0])),
        framed(target, 0, 5),  # x = 0
        framed(target, SHARE_FIELD.modulus, 5),  # x out of range
    ]
    rng.shuffle(payloads)
    payloads.insert(0, framed(tepid[0][0], low, 1))  # first seen: tepid fails
    payloads.append(framed(lukewarm[0][0], lukewarm[0][1], 1))  # seen last

    res = secret_share_decode(payloads, t, SHARE_FIELD)
    assert res == _decode_oracle(payloads, t, SHARE_FIELD)
    assert sorted(Counter(res.messages).items()) == [
        (b"hot", 30), (b"lukewarm", 21), (b"warm", 25)
    ]
    assert (res.undecoded_groups, res.adversarial_groups) == (1, 2)
    assert res.parse_failures == 5


# ---------------------------------------------------------------------------
# histogram and DP release


def test_histogram_counts():
    h = histogram([b"a", b"b", b"a", b"a"])
    assert h.bins == {b"a": 3, b"b": 1}
    assert h.unique_count == 2 and h.total == 4


def test_histogram_csv_sorted():
    h = histogram([b"b", b"a"])
    assert histogram_csv(h) == "key,count\n61,1\n62,1\n"


def test_laplace_noise_distribution():
    rng = random.Random(10)
    scale = 2.0
    draws = [laplace_noise(rng, scale) for _ in range(40_000)]
    assert statistics.mean(draws) == pytest.approx(0.0, abs=0.05)
    assert statistics.variance(draws) == pytest.approx(2 * scale * scale, rel=0.05)
    _, pvalue = stats.kstest(draws, stats.laplace(scale=scale).cdf)
    assert pvalue > 1e-3


# ---------------------------------------------------------------------------
# covariance


def test_hand_worked_covariance_cell():
    # two users rated both items 1 and 2: (4,5) and (1,3)
    tuples = [(1, 4.0, 2, 5.0), (1, 1.0, 2, 3.0)]
    acc = accumulate_covariance(tuples)
    assert acc.s_matrix[(1, 2)] == 2
    assert acc.a_matrix[(1, 2)] == 23.0
    assert covariance_estimate(acc)[(1, 2)] == pytest.approx(11.5)


def test_non_canonical_tuple_rejected():
    with pytest.raises(NonCanonicalTuple):
        accumulate_covariance([(2, 1.0, 1, 1.0)])


def test_order_independence():
    rng = random.Random(11)
    tuples = [
        (i, float(rng.randrange(1, 6)), j, float(rng.randrange(1, 6)))
        for i in range(4)
        for j in range(i, 6)
        for _ in range(3)
    ]
    shuffled = list(tuples)
    rng.shuffle(shuffled)
    a = accumulate_covariance(tuples)
    b = accumulate_covariance(shuffled)
    assert a.s_matrix == b.s_matrix and a.a_matrix == b.a_matrix


def test_covariance_matches_direct_oracle():
    # rebuild S and A from the raw rating table, entirely outside the library
    rng = random.Random(13)
    users = {
        u: {i: float(rng.randrange(1, 6)) for i in rng.sample(range(8), rng.randrange(2, 7))}
        for u in range(10)
    }
    tuples = []
    for ratings in users.values():
        items = sorted(ratings)
        for a in range(len(items)):
            for b in range(a, len(items)):
                i, j = items[a], items[b]
                tuples.append((i, ratings[i], j, ratings[j]))
    acc = accumulate_covariance(tuples)
    for i in range(8):
        for j in range(i, 8):
            raters = [u for u, r in users.items() if i in r and j in r]
            if not raters:
                assert (i, j) not in acc.s_matrix
                continue
            assert acc.s_matrix[(i, j)] == len(raters)
            expected_a = sum(users[u][i] * users[u][j] for u in raters)
            assert acc.a_matrix[(i, j)] == pytest.approx(expected_a)
