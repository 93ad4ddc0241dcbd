import ast
import random
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import anonpipe
from anonpipe.crypto import modexp
from anonpipe.crypto.group import MODP_2048, TEST_GROUP_256, GroupParams, KeyPair
from anonpipe.errors import InvalidPoint

G = TEST_GROUP_256


def canonical(group: GroupParams, r: int) -> int:
    """The class {r, q - r} as its member in [1, p], independent of group.py."""
    return min(r, group.modulus - r)


def halves(group: GroupParams, ct: bytes) -> tuple[int, int]:
    """c1 and c2 of the ciphertext bytes c1 || c2, unchecked."""
    w = group.element_len
    return int.from_bytes(ct[:w], "big"), int.from_bytes(ct[w:], "big")


def test_group_constants_are_consistent():
    rng = random.Random(9)
    for g in (TEST_GROUP_256, MODP_2048):
        q, p = g.modulus, g.order_p
        assert q == 2 * p + 1
        # -1 is a non-residue, so the classes {e, q - e} form a group of order p
        assert q % 4 == 3
        assert g.is_element(g.generator)
        assert pow(g.generator, p, q) == 1
        # Euler's criterion: exactly one of e and q - e is a residue
        for e in (1, 2, g.generator, p, p + 1, q - 1, *(rng.randrange(1, q) for _ in range(5))):
            assert (pow(e, p, q) == 1) != (pow(q - e, p, q) == 1)


def test_hash_to_group_deterministic():
    assert G.hash_to_group(b"movie:42") == G.hash_to_group(b"movie:42")


def test_hash_to_group_distinct_inputs():
    assert G.hash_to_group(b"a") != G.hash_to_group(b"b")


def test_hash_to_group_closure_under_exponentiation():
    rng = random.Random(1)
    e = G.hash_to_group(b"value")
    for _ in range(10):
        assert G.is_element(G.exp(e, G.random_scalar(rng)))


def test_hash_to_group_rejects_empty():
    with pytest.raises(ValueError):
        G.hash_to_group(b"")


def test_elgamal_roundtrip_without_blinding():
    rng = random.Random(2)
    kp = KeyPair.generate(G, rng)
    mu = G.hash_to_group(b"crowd")
    ct = G.elgamal_encrypt(kp.public, mu, rng)
    assert G.unblind_decrypt(ct, kp.secret) == G.encode_element(mu)


def test_blinding_same_alpha_same_plaintext_decrypt_equal():
    rng = random.Random(3)
    kp = KeyPair.generate(G, rng)
    mu = G.hash_to_group(b"crowd")
    alpha = G.random_scalar(rng)
    ct1 = G.blind(G.elgamal_encrypt(kp.public, mu, rng), alpha)
    ct2 = G.blind(G.elgamal_encrypt(kp.public, mu, rng), alpha)
    assert ct1 != ct2  # fresh r
    assert (
        G.unblind_decrypt(ct1, kp.secret)
        == G.unblind_decrypt(ct2, kp.secret)
        == G.encode_element(G.exp(mu, alpha))
    )


def test_blinding_distinct_plaintexts_stay_distinct():
    rng = random.Random(4)
    kp = KeyPair.generate(G, rng)
    alpha = G.random_scalar(rng)
    out = set()
    for word in (b"a", b"b", b"c"):
        ct = G.blind(G.elgamal_encrypt(kp.public, G.hash_to_group(word), rng), alpha)
        out.add(G.unblind_decrypt(ct, kp.secret))
    assert len(out) == 3


def test_blinding_preserves_equality_relation():
    rng = random.Random(5)
    kp = KeyPair.generate(G, rng)
    for _ in range(50):
        a = rng.randbytes(8)
        b = rng.randbytes(8)
        alpha = G.random_scalar(rng)
        pa = G.exp(G.hash_to_group(a), alpha)
        pb = G.exp(G.hash_to_group(b), alpha)
        assert (pa == pb) == (a == b)


def test_invalid_point_rejected():
    kp = KeyPair.generate(G, random.Random(6))
    # q - 1, the other representative of 1, is outside [1, p]
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
            G.unblind_decrypt(data, kp.secret)


def test_blind_and_encrypt_reject_non_members():
    rng = random.Random(8)
    alpha = G.random_scalar(rng)
    member = G.encode_element(G.generator)
    # nor `blind`
    above_p = G.encode_element(G.order_p + 1)
    for data in (G.encode_element(G.modulus - 1) + member, member + above_p):
        with pytest.raises(InvalidPoint):
            G.blind(data, alpha)
    for non_member in (0, G.order_p + 1, G.modulus - 1, G.modulus):
        with pytest.raises(InvalidPoint):
            G.elgamal_encrypt(non_member, G.generator, rng)


def test_decode_checks_width_range_and_membership():
    q, w = G.modulus, G.element_len
    assert G.decode_element(G.encode_element(G.generator)) == G.generator
    for bad in (
        bytes(w),
        q.to_bytes(w, "big"),
        b"\xff" * w,
        (q - 1).to_bytes(w, "big"),
        (G.order_p + 1).to_bytes(w, "big"),
        bytes(w - 1),
        bytes(w + 1),
    ):
        with pytest.raises(InvalidPoint):
            G.decode_element(bad)


@pytest.mark.parametrize("group", [TEST_GROUP_256, MODP_2048], ids=lambda g: g.group_id)
@settings(max_examples=100, deadline=None)
@given(data=st.binary(min_size=1, max_size=64))
def test_hash_to_group_returns_a_member(group, data):
    # nothing checks mu after hash_to_group, so this pins that it is a
    # member other than 1
    assert 1 < group.hash_to_group(data) <= group.order_p


@pytest.mark.parametrize(
    "group, examples",
    [
        pytest.param(TEST_GROUP_256, 300, id="test-256"),
        pytest.param(MODP_2048, 100, id="modp-2048"),
    ],
)
def test_decode_element_accepts_exactly_one_to_p(group, examples):
    q, p, w = group.modulus, group.order_p, group.element_len

    @settings(max_examples=examples, deadline=None)
    @given(v=st.integers(0, 2 ** (8 * w) - 1))
    @example(v=0)
    @example(v=1)
    @example(v=p)
    @example(v=p + 1)
    @example(v=q - 1)
    @example(v=q)
    @example(v=2 ** (8 * w) - 1)
    def check(v):
        member = 1 <= v <= p
        assert group.is_element(v) == member
        if member:
            assert group.decode_element(v.to_bytes(w, "big")) == v
        else:
            with pytest.raises(InvalidPoint):
                group.decode_element(v.to_bytes(w, "big"))

    check()


def test_element_encoding_roundtrip():
    rng = random.Random(7)
    e = G.hash_to_group(b"x")
    assert G.decode_element(G.encode_element(e)) == e
    assert len(G.encode_element(e)) == G.element_len


BOTH_GROUPS = [
    pytest.param(TEST_GROUP_256, 200, id="test-256"),
    pytest.param(MODP_2048, 10, id="modp-2048"),
]


@pytest.mark.parametrize("group, examples", BOTH_GROUPS)
def test_group_operations_return_members(group, examples):
    q, p = group.modulus, group.order_p
    kp = KeyPair.generate(group, random.Random(13))

    @settings(max_examples=examples, deadline=None)
    @given(
        a=st.integers(1, q - 1),
        b=st.integers(1, q - 1),
        k=st.integers(0, 2 * p),
        data=st.binary(min_size=1, max_size=16),
        seed=st.integers(0, 2**32),
    )
    @example(a=q - 1, b=q - 1, k=1, data=b"x", seed=0)
    @example(a=p, b=p + 1, k=p, data=b"x", seed=0)
    def check(a, b, k, data, seed):
        rng = random.Random(seed)
        mu = group.hash_to_group(data)
        ct = group.elgamal_encrypt(kp.public, mu, rng)
        blinded = group.blind(ct, group.random_scalar(rng))
        for e in (
            group.exp(a, k), group.mul(a, b), mu, *halves(group, ct), *halves(group, blinded),
            int.from_bytes(group.unblind_decrypt(blinded, kp.secret), "big"),
        ):
            assert 1 <= e <= p

    check()


# Each pow reference costs ~30 ms in modp-2048.  The three tests below
# compare `exp` with the class of `pow`'s answer.
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
        assert group.exp(g, e) == canonical(group, pow(g, e, q))
        assert group.exp(g, -e) == canonical(group, pow(g, -e % p, q))

    check()


@pytest.mark.parametrize("group, examples", BOTH_GROUPS)
def test_exp_of_another_base_matches_pow(group, examples):
    q, p = group.modulus, group.order_p
    member = group.hash_to_group(b"another base")

    @settings(max_examples=examples, deadline=None)
    @given(base=st.integers(1, q - 1), e=st.integers(-4 * p, 4 * p))
    @example(base=member, e=0)
    @example(base=member, e=p)
    @example(base=member, e=-1)
    def check(base, e):
        if base != group.generator:
            assert group.exp(base, e) == canonical(group, pow(base, e, q))
        assert group.exp(member, e) == canonical(group, pow(member, e, q))

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
    mu = G.hash_to_group(b"crowd")
    ct = G.elgamal_encrypt(kp.public, mu, rng)
    assert checked == [kp.public]
    assert G.unblind_decrypt(ct, kp.secret) == G.encode_element(mu)


@pytest.mark.parametrize("group, examples", BOTH_GROUPS)
def test_unblind_decrypt_matches_inverting_c1_to_the_x(group, examples):
    q, p, g = group.modulus, group.order_p, group.generator

    @settings(max_examples=examples, deadline=None)
    @given(k1=st.integers(1, p - 1), k2=st.integers(1, p - 1), x=st.integers(1, p - 1))
    def check(k1, k2, x):
        c1, c2 = canonical(group, pow(g, k1, q)), canonical(group, pow(g, k2, q))
        kp = KeyPair(secret=x, public=canonical(group, pow(g, x, q)))
        expected = canonical(group, c2 * pow(pow(c1, x, q), -1, q) % q)
        ct = group.encode_element(c1) + group.encode_element(c2)
        assert group.unblind_decrypt(ct, kp.secret) == group.encode_element(expected)

    check()


# The three tests above compare `exp` with `pow` on OpenSSL's path, which is
# the default here; these run them again with `pow` computing every power.
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
                assert group.exp(base, e) == canonical(group, expected)


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
        results[i] = [modexp.mod_exp(base, e, q) for base, e in jobs[i]]

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
_FUZZ_ALPHA = G.random_scalar(random.Random(11))


@settings(max_examples=300, deadline=None)
@given(
    data=st.one_of(
        st.binary(max_size=2 * G.element_len + 2),
        st.binary(min_size=2 * G.element_len, max_size=2 * G.element_len),
    )
)
def test_hostile_ciphertext_bytes_raise_only_invalid_point(data):
    # the blinded stages count InvalidPoint as `invalid`; nothing else may escape
    for apply in (
        lambda: G.blind(data, _FUZZ_ALPHA),
        lambda: G.unblind_decrypt(data, _FUZZ_KEYS.secret),
    ):
        try:
            apply()
        except InvalidPoint:
            pass


# What the rest of anonpipe may see of this module: group parameters and key
# pairs.  Elements travel as ciphertext bytes through GroupParams' El Gamal
# methods, so the element encoding can change without touching any caller.
GROUP_EXPORTS = {"GROUPS", "GroupParams", "KeyPair"}
ELEMENT_LAYOUT = {"mul", "encode_element", "decode_element", "check_element", "element_len"}


def test_group_elements_stay_inside_the_group_module():
    package = Path(anonpipe.__file__).parent
    crossings = []
    for path in sorted(package.rglob("*.py")):
        if path == package / "crypto" / "group.py":
            continue
        where = str(path.relative_to(package))
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "anonpipe.crypto.group":
                crossings += [(where, a.name) for a in node.names if a.name not in GROUP_EXPORTS]
            elif isinstance(node, ast.ImportFrom) and node.module == "anonpipe.crypto":
                crossings += [(where, a.name) for a in node.names if a.name == "group"]
            elif isinstance(node, ast.Import):
                crossings += [
                    (where, a.name) for a in node.names if a.name == "anonpipe.crypto.group"
                ]
            elif isinstance(node, ast.Attribute) and node.attr in ELEMENT_LAYOUT:
                crossings.append((where, node.attr))
    assert crossings == []
