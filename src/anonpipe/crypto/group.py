"""Prime-order group arithmetic, El Gamal encryption, and exponent blinding.

The groups here are Z_q* / {+1, -1} for a safe prime q = 2p + 1: each
element is a class {x, q - x}, written as its member in [1, p], and the
group has prime order p.  Since p is odd, q = 3 (mod 4) and -1 is a
quadratic non-residue, so each class holds exactly one quadratic residue.
Sending a residue to its class is therefore an isomorphism from the order-p
subgroup of residues onto this group, and both it (min(x, q - x)) and its
inverse (the member of the class that is a residue) are efficient, so DDH
is as hard here as among the residues.  This is the prime-modulus case of
Hofheinz and Kiltz, "The Group of Signed Quadratic Residues and
Applications" (CRYPTO 2009).  What it buys: every integer in [1, p] is an
element, so membership is a range check.  Multiplicative notation
throughout.  Two groups are published: a 2048-bit group for realistic runs
and a 256-bit group that keeps statistical tests fast.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from anonpipe.crypto import OS_RNG
from anonpipe.crypto.modexp import mod_exp
from anonpipe.errors import InvalidPoint


@dataclass(frozen=True)
class GroupParams:
    """A prime-order multiplicative group: Z_q* / {+1, -1} for a safe prime q,
    each element its class's member in [1, p]."""

    group_id: str
    modulus: int  # safe prime q = 2p + 1
    order_p: int  # prime group order p
    generator: int

    @property
    def element_len(self) -> int:
        return (self.modulus.bit_length() + 7) // 8

    @property
    def scalar_len(self) -> int:
        return (self.order_p.bit_length() + 7) // 8

    def is_element(self, e: int) -> bool:
        return 1 <= e <= self.order_p

    def check_element(self, e: int) -> int:
        if not self.is_element(e):
            raise InvalidPoint(f"not an element of {self.group_id}")
        return e

    def exp(self, base: int, exponent: int) -> int:
        return self._canonical(mod_exp(base, exponent, self.modulus))

    def mul(self, a: int, b: int) -> int:
        return self._canonical(a * b % self.modulus)

    def _canonical(self, r: int) -> int:
        # r's class {r, q - r} as its member in [1, p], so equal elements
        # are equal ints
        return min(r, self.modulus - r)

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
        """The element `data` encodes: every element read from bytes is
        checked here, before any secret exponent touches it."""
        if len(data) != self.element_len:
            raise InvalidPoint("bad element width")
        return self.check_element(int.from_bytes(data, "big"))

    # El Gamal ciphertexts (c1, c2) = (g^r, h^r * mu) travel as the bytes
    # c1 || c2, ciphertext_len long; only the methods below read or write them.

    @property
    def ciphertext_len(self) -> int:
        return 2 * self.element_len

    def _encode_pair(self, c1: int, c2: int) -> bytes:
        return self.encode_element(c1) + self.encode_element(c2)

    def _decode_pair(self, ciphertext: bytes) -> tuple[int, int]:
        # input of any other length than 2w leaves one half the wrong width
        w = self.element_len
        return self.decode_element(ciphertext[:w]), self.decode_element(ciphertext[w:])

    def hash_to_group(self, data: bytes) -> int:
        """Deterministically hash a byte string to a group element.

        Squares a hash-derived integer mod q; the square's class is an element
        with no known discrete log relative to the generator.  Counter-increments
        past the degenerate squares 0 and 1.
        """
        if not data:
            raise ValueError("hash_to_group requires nonempty input")
        counter = 0
        while True:
            h = hashlib.sha512(
                self.group_id.encode() + b"|h2g|" + counter.to_bytes(4, "big") + data
            ).digest()
            e = int.from_bytes(h, "big") % self.modulus
            elem = self.mul(e, e)
            if elem not in (0, 1):
                return elem
            counter += 1

    def elgamal_encrypt(self, public: int, mu: int, rng=OS_RNG) -> bytes:
        """Encrypt `mu`, a member as `hash_to_group` returns, to the checked key."""
        self.check_element(public)
        r = self.random_scalar(rng)
        return self._encode_pair(self.exp(self.generator, r), self.mul(self.exp(public, r), mu))

    def blind(self, ciphertext: bytes, alpha: int) -> bytes:
        """Raise both halves of `ciphertext` to alpha."""
        c1, c2 = self._decode_pair(ciphertext)
        return self._encode_pair(self.exp(c1, alpha), self.exp(c2, alpha))

    def unblind_decrypt(self, ciphertext: bytes, secret: int) -> bytes:
        """The encoded mu^alpha of a blinded ciphertext (mu itself if alpha = 1).

        The group has order p, so c1^(p - x) is c1^-x without an inversion."""
        c1, c2 = self._decode_pair(ciphertext)
        return self.encode_element(self.mul(c2, self.exp(c1, self.order_p - secret)))


# 2048-bit MODP safe prime (RFC 3526, group 14).  Generator 4 is not the
# class of 1 and therefore generates the group of prime order p.
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

    secret: int
    public: int

    @classmethod
    def generate(cls, group: GroupParams, rng=OS_RNG) -> "KeyPair":
        x = group.random_scalar(rng)
        return cls(secret=x, public=group.exp(group.generator, x))
