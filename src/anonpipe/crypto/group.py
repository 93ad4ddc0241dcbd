"""Prime-order group arithmetic, El Gamal encryption, and exponent blinding.

The groups here are quadratic-residue subgroups of Z_q* for a safe prime
q = 2p + 1, so the subgroup has prime order p.  Multiplicative notation
throughout.  Two groups are published: a 2048-bit group for realistic runs
and a 256-bit group that keeps statistical tests fast.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from anonpipe.crypto import OS_RNG
from anonpipe.crypto.modexp import mod_exp
from anonpipe.errors import InvalidPoint


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0, by the binary algorithm (Cohen,
    A Course in Computational Algebraic Number Theory, Alg. 1.4.10)."""
    a %= n
    sign = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        # (2/n) = -1 iff n = 3, 5 mod 8
        if twos & 1 and (n & 7) in (3, 5):
            sign = -sign
        # quadratic reciprocity: flip iff a = n = 3 mod 4
        if a & n & 2:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


@dataclass(frozen=True)
class GroupParams:
    """A prime-order multiplicative group: QRs mod a safe prime."""

    group_id: str
    modulus: int  # safe prime q = 2p + 1
    order_p: int  # prime subgroup order p
    generator: int

    @property
    def element_len(self) -> int:
        return (self.modulus.bit_length() + 7) // 8

    @property
    def scalar_len(self) -> int:
        return (self.order_p.bit_length() + 7) // 8

    def is_element(self, e: int) -> bool:
        # For a safe prime q the order-p subgroup is exactly the quadratic
        # residues, so the Jacobi symbol decides membership without the
        # full modexp of Euler's criterion.
        return 1 <= e < self.modulus and jacobi(e, self.modulus) == 1

    def check_element(self, e: int) -> int:
        if not self.is_element(e):
            raise InvalidPoint(f"not an element of {self.group_id}")
        return e

    def exp(self, base: int, exponent: int) -> int:
        return mod_exp(base, exponent, self.modulus)

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.modulus

    def random_scalar(self, rng=OS_RNG) -> int:
        """Uniform scalar in [1, p-1]."""
        width = self.scalar_len + 8
        while True:
            v = int.from_bytes(rng.randbytes(width), "big") % self.order_p
            if v != 0:
                return v

    def encode_element(self, e: int) -> bytes:
        return e.to_bytes(self.element_len, "big")

    def decode_element(self, data: bytes) -> int:
        """The subgroup member `data` encodes: every element read from bytes
        is checked here, before any secret exponent touches it."""
        if len(data) != self.element_len:
            raise InvalidPoint("bad element width")
        return self.check_element(int.from_bytes(data, "big"))


# 2048-bit MODP safe prime (RFC 3526, group 14).  Generator 4 = 2^2 is a
# quadratic residue and therefore generates the order-p subgroup.
_MODP_2048_Q = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)

MODP_2048 = GroupParams(
    group_id="modp-2048",
    modulus=_MODP_2048_Q,
    order_p=(_MODP_2048_Q - 1) // 2,
    generator=4,
)

# 256-bit safe prime, for fast statistical tests only (not a security level).
_TEST_Q = 0xC3AD137D536F65822CC765EA97B25FA735C5D87EA4BA8AE681008C269A719A2B

TEST_GROUP_256 = GroupParams(
    group_id="test-256",
    modulus=_TEST_Q,
    order_p=(_TEST_Q - 1) // 2,
    generator=4,
)

GROUPS = {g.group_id: g for g in (MODP_2048, TEST_GROUP_256)}


@dataclass(frozen=True)
class KeyPair:
    """Group key pair: public = g^secret."""

    group: GroupParams
    secret: int
    public: int

    @classmethod
    def generate(cls, group: GroupParams, rng=OS_RNG) -> "KeyPair":
        x = group.random_scalar(rng)
        return cls(group=group, secret=x, public=group.exp(group.generator, x))


def hash_to_group(group: GroupParams, data: bytes) -> int:
    """Deterministically hash a byte string to a group element.

    Squares a hash-derived residue, which lands in the QR subgroup with no
    known discrete log relative to the generator.  Counter-increments past
    degenerate residues.
    """
    if not data:
        raise ValueError("hash_to_group requires nonempty input")
    counter = 0
    while True:
        h = hashlib.sha512(
            group.group_id.encode() + b"|h2g|" + counter.to_bytes(4, "big") + data
        ).digest()
        e = int.from_bytes(h, "big") % group.modulus
        elem = (e * e) % group.modulus
        if elem not in (0, 1):
            return elem
        counter += 1


@dataclass(frozen=True)
class ElGamalCiphertext:
    """El Gamal pair (c1, c2) = (g^r, h^r * mu)."""

    c1: int
    c2: int

    def to_bytes(self, group: GroupParams) -> bytes:
        return group.encode_element(self.c1) + group.encode_element(self.c2)

    @classmethod
    def from_bytes(cls, group: GroupParams, data: bytes) -> "ElGamalCiphertext":
        # data of any other length than 2w leaves one half the wrong width
        w = group.element_len
        return cls(
            c1=group.decode_element(data[:w]),
            c2=group.decode_element(data[w:]),
        )


@dataclass(frozen=True)
class BlindingSecret:
    """Nonzero exponent used to blind ciphertexts component-wise."""

    alpha: int

    @classmethod
    def generate(cls, group: GroupParams, rng=OS_RNG) -> "BlindingSecret":
        return cls(alpha=group.random_scalar(rng))


def elgamal_encrypt(
    group: GroupParams, public: int, mu: int, rng=OS_RNG
) -> ElGamalCiphertext:
    """Encrypt `mu`, a member as `hash_to_group` returns, to the checked key."""
    group.check_element(public)
    r = group.random_scalar(rng)
    return ElGamalCiphertext(
        c1=group.exp(group.generator, r),
        c2=group.mul(group.exp(public, r), mu),
    )


def blind(
    group: GroupParams, ct: ElGamalCiphertext, blinding: BlindingSecret
) -> ElGamalCiphertext:
    """Raise both halves of `ct` to alpha; they are members, as `from_bytes` returns."""
    return ElGamalCiphertext(
        c1=group.exp(ct.c1, blinding.alpha),
        c2=group.exp(ct.c2, blinding.alpha),
    )


def unblind_decrypt(kp: KeyPair, ct: ElGamalCiphertext) -> int:
    """Recover mu^alpha from a blinded ciphertext (mu itself if alpha = 1).

    `from_bytes` checked that c1 has order p, so c1^(p - x) is c1^-x
    without an inversion."""
    g = kp.group
    return g.mul(ct.c2, g.exp(ct.c1, g.order_p - kp.secret))
