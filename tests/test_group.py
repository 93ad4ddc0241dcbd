import random
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anonpipe.crypto import modexp
from anonpipe.crypto.group import (
    MODP_2048,
    TEST_GROUP_256,
    BlindingSecret,
    ElGamalCiphertext,
    GroupParams,
    KeyPair,
    blind,
    elgamal_encrypt,
    hash_to_group,
    unblind_decrypt,
)
from anonpipe.errors import InvalidPoint

G = TEST_GROUP_256


def test_group_constants_are_consistent():
    for g in (TEST_GROUP_256, MODP_2048):
        assert g.modulus == 2 * g.order_p + 1
        assert g.is_element(g.generator)
        assert pow(g.generator, g.order_p, g.modulus) == 1


def test_hash_to_group_deterministic():
    assert hash_to_group(G, b"movie:42") == hash_to_group(G, b"movie:42")


def test_hash_to_group_distinct_inputs():
    assert hash_to_group(G, b"a") != hash_to_group(G, b"b")


def test_hash_to_group_closure_under_exponentiation():
    rng = random.Random(1)
    e = hash_to_group(G, b"value")
    for _ in range(10):
        assert G.is_element(G.exp(e, G.random_scalar(rng)))


def test_hash_to_group_rejects_empty():
    with pytest.raises(ValueError):
        hash_to_group(G, b"")


def test_elgamal_roundtrip_without_blinding():
    rng = random.Random(2)
    kp = KeyPair.generate(G, rng)
    mu = hash_to_group(G, b"crowd")
    assert unblind_decrypt(kp, elgamal_encrypt(G, kp.public, mu, rng)) == mu


def test_blinding_same_alpha_same_plaintext_decrypt_equal():
    rng = random.Random(3)
    kp = KeyPair.generate(G, rng)
    mu = hash_to_group(G, b"crowd")
    alpha = BlindingSecret.generate(G, rng)
    ct1 = blind(G, elgamal_encrypt(G, kp.public, mu, rng), alpha)
    ct2 = blind(G, elgamal_encrypt(G, kp.public, mu, rng), alpha)
    assert ct1 != ct2  # fresh r
    assert unblind_decrypt(kp, ct1) == unblind_decrypt(kp, ct2) == G.exp(mu, alpha.alpha)


def test_blinding_distinct_plaintexts_stay_distinct():
    rng = random.Random(4)
    kp = KeyPair.generate(G, rng)
    alpha = BlindingSecret.generate(G, rng)
    out = set()
    for word in (b"a", b"b", b"c"):
        ct = blind(G, elgamal_encrypt(G, kp.public, hash_to_group(G, word), rng), alpha)
        out.add(unblind_decrypt(kp, ct))
    assert len(out) == 3


def test_blinding_preserves_equality_relation():
    rng = random.Random(5)
    kp = KeyPair.generate(G, rng)
    for _ in range(50):
        a = rng.randbytes(8)
        b = rng.randbytes(8)
        alpha = BlindingSecret.generate(G, rng)
        pa = G.exp(hash_to_group(G, a), alpha.alpha)
        pb = G.exp(hash_to_group(G, b), alpha.alpha)
        assert (pa == pb) == (a == b)


def test_invalid_point_rejected():
    kp = KeyPair.generate(G, random.Random(6))
    # a quadratic non-residue is outside the prime-order subgroup
    non_member = G.modulus - 1
    assert not G.is_element(non_member)
    member = G.encode_element(G.generator)
    # a ciphertext reaches `unblind_decrypt` only through decoding
    for data in (
        G.encode_element(non_member) + member,
        member + G.encode_element(non_member),
        bytes(2 * G.element_len),
    ):
        with pytest.raises(InvalidPoint):
            unblind_decrypt(kp, ElGamalCiphertext.from_bytes(G, data))


def test_blind_and_encrypt_reject_non_members():
    rng = random.Random(8)
    alpha = BlindingSecret.generate(G, rng)
    member = G.encode_element(G.generator)
    # nor `blind`
    for data in (G.encode_element(G.modulus - 1) + member, member + G.encode_element(2)):
        with pytest.raises(InvalidPoint):
            blind(G, ElGamalCiphertext.from_bytes(G, data), alpha)
    for non_member in (0, 2, G.modulus - 1, G.modulus):
        with pytest.raises(InvalidPoint):
            elgamal_encrypt(G, non_member, G.generator, rng)


def test_decode_checks_width_range_and_membership():
    q, w = G.modulus, G.element_len
    assert G.decode_element(G.encode_element(G.generator)) == G.generator
    for bad in (
        bytes(w),
        q.to_bytes(w, "big"),
        b"\xff" * w,
        (q - 1).to_bytes(w, "big"),
        (2).to_bytes(w, "big"),
        bytes(w - 1),
        bytes(w + 1),
    ):
        with pytest.raises(InvalidPoint):
            G.decode_element(bad)


@pytest.mark.parametrize("group", [TEST_GROUP_256, MODP_2048], ids=lambda g: g.group_id)
@settings(max_examples=100, deadline=None)
@given(data=st.binary(min_size=1, max_size=64))
def test_hash_to_group_returns_a_member(group, data):
    # Euler's criterion, independent of GroupParams.is_element: nothing
    # checks mu after hash_to_group, so this pins that it is a member
    q, p = group.modulus, group.order_p
    e = hash_to_group(group, data)
    assert 1 < e < q and pow(e, p, q) == 1


# Each Euler reference costs a full modexp, ~30 ms in modp-2048.
@pytest.mark.parametrize(
    "group, examples",
    [pytest.param(TEST_GROUP_256, 300, id="test-256"), pytest.param(MODP_2048, 15, id="modp-2048")],
)
def test_jacobi_membership_agrees_with_euler(group, examples):
    q, p, g = group.modulus, group.order_p, group.generator

    def euler(e: int) -> bool:
        return 1 <= e < q and pow(e, p, q) == 1

    @settings(max_examples=examples, deadline=None)
    @given(e=st.integers(-2, q + 2), k=st.integers(0, p - 1))
    def check(e, k):
        member = pow(g, k, q)
        non_member = (q - 1) * member % q
        assert group.is_element(e) == euler(e)
        assert group.is_element(member) and euler(member)
        assert not group.is_element(non_member) and not euler(non_member)

    check()


def test_element_encoding_roundtrip():
    rng = random.Random(7)
    e = hash_to_group(G, b"x")
    assert G.decode_element(G.encode_element(e)) == e
    assert len(G.encode_element(e)) == G.element_len


BOTH_GROUPS = [
    pytest.param(TEST_GROUP_256, 200, id="test-256"),
    pytest.param(MODP_2048, 10, id="modp-2048"),
]


# Each pow reference costs ~30 ms in modp-2048.
@pytest.mark.parametrize("group, examples", BOTH_GROUPS)
def test_generator_exp_matches_pow(group, examples):
    q, p, g = group.modulus, group.order_p, group.generator

    @settings(max_examples=examples, deadline=None)
    @given(e=st.integers(0, 4 * p))
    @example(e=0)
    @example(e=1)
    @example(e=p - 1)
    @example(e=p)
    @example(e=p + 1)
    def check(e):
        assert group.exp(g, e) == pow(g, e, q)
        assert group.exp(g, -e) == pow(g, -e % p, q)

    check()


@pytest.mark.parametrize("group, examples", BOTH_GROUPS)
def test_exp_of_another_base_matches_pow(group, examples):
    q, p = group.modulus, group.order_p
    member = hash_to_group(group, b"another base")

    @settings(max_examples=examples, deadline=None)
    @given(base=st.integers(1, q - 1), e=st.integers(-4 * p, 4 * p))
    @example(base=member, e=0)
    @example(base=member, e=p)
    @example(base=member, e=-1)
    def check(base, e):
        if base != group.generator:
            assert group.exp(base, e) == pow(base, e, q)
        assert group.exp(member, e) == pow(member, e, q)

    check()


@pytest.fixture
def checked(monkeypatch):
    """Every element whose membership is checked."""
    seen = []
    is_element = GroupParams.is_element
    monkeypatch.setattr(
        GroupParams, "is_element", lambda self, e: seen.append(e) or is_element(self, e)
    )
    return seen


def test_encrypting_checks_only_the_key(checked):
    rng = random.Random(11)
    kp = KeyPair.generate(G, rng)
    mu = hash_to_group(G, b"crowd")
    ct = elgamal_encrypt(G, kp.public, mu, rng)
    assert checked == [kp.public]
    assert unblind_decrypt(kp, ct) == mu


@pytest.mark.parametrize("group, examples", BOTH_GROUPS)
def test_unblind_decrypt_matches_inverting_c1_to_the_x(group, examples):
    q, p, g = group.modulus, group.order_p, group.generator

    @settings(max_examples=examples, deadline=None)
    @given(k1=st.integers(1, p - 1), k2=st.integers(1, p - 1), x=st.integers(1, p - 1))
    def check(k1, k2, x):
        c1, c2 = pow(g, k1, q), pow(g, k2, q)
        kp = KeyPair(group=group, secret=x, public=pow(g, x, q))
        expected = c2 * pow(pow(c1, x, q), -1, q) % q
        assert unblind_decrypt(kp, ElGamalCiphertext(c1=c1, c2=c2)) == expected

    check()


# The three tests above compare `exp` with `pow` on OpenSSL's path, which is
# the default here; these run them again on the built-in fallback.
@pytest.mark.parametrize(
    "compare",
    [
        test_generator_exp_matches_pow,
        test_exp_of_another_base_matches_pow,
        test_unblind_decrypt_matches_inverting_c1_to_the_x,
    ],
    ids=lambda f: f.__name__,
)
@pytest.mark.parametrize("group, examples", BOTH_GROUPS)
def test_exp_matches_pow_with_the_fallback_forced(monkeypatch, compare, group, examples):
    monkeypatch.setattr(modexp, "_power", pow)
    compare(group, examples)


def test_the_first_power_loads_openssl(monkeypatch):
    monkeypatch.setattr(modexp, "_power", None)
    assert G.exp(G.generator, 5) == 4**5
    assert isinstance(modexp._power.__self__, modexp._OpenSSL)


@pytest.mark.parametrize("group", [TEST_GROUP_256, MODP_2048], ids=lambda g: g.group_id)
def test_exp_outside_the_native_range_keeps_pow_semantics(group):
    q, p = group.modulus, group.order_p
    for base in (0, 1, q - 1, q, q + 3, -5, 2 * q - 1):
        for e in (0, 1, 7, p, -1):
            try:
                expected = pow(base, e, q)
            except ValueError:  # 0 and q have no inverse
                with pytest.raises(ValueError):
                    group.exp(base, e)
            else:
                assert group.exp(base, e) == expected


def test_a_failed_openssl_call_raises():
    # OpenSSL's Montgomery arithmetic needs an odd modulus
    with pytest.raises(RuntimeError, match="BN_MONT_CTX_set"):
        modexp._OpenSSL().power(3, 5, 10)


def test_threads_sharing_the_scratch_numbers_get_pows_answers():
    rng = random.Random(12)
    q, p = G.modulus, G.order_p
    jobs = [[(rng.randrange(1, q), rng.randrange(p)) for _ in range(200)] for _ in range(4)]
    results = [None] * len(jobs)

    def work(i):
        results[i] = [G.exp(base, e) for base, e in jobs[i]]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[pow(base, e, q) for base, e in job] for job in jobs]


_FUZZ_KEYS = KeyPair.generate(G, random.Random(10))
_FUZZ_ALPHA = BlindingSecret.generate(G, random.Random(11))


@settings(max_examples=300, deadline=None)
@given(
    data=st.one_of(
        st.binary(max_size=2 * G.element_len + 2),
        st.binary(min_size=2 * G.element_len, max_size=2 * G.element_len),
    )
)
def test_hostile_ciphertext_bytes_raise_only_invalid_point(data):
    # the blinded stages count InvalidPoint as `invalid`; nothing else may escape
    try:
        ct = ElGamalCiphertext.from_bytes(G, data)
    except InvalidPoint:
        return
    for apply in (lambda: blind(G, ct, _FUZZ_ALPHA), lambda: unblind_decrypt(_FUZZ_KEYS, ct)):
        try:
            apply()
        except InvalidPoint:
            pass
