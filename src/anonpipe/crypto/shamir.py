"""Shamir secret sharing over a prime field.

Sharing uses a random degree-(t-1) polynomial with P(0) = secret;
reconstruction is Lagrange interpolation at zero.  The field is a
parameter: pipelines use `encoder.SHARE_FIELD`, a 255-bit prime field that
is the same in every group; exhaustive tests use GF(251).
"""

from __future__ import annotations

from dataclasses import dataclass

from anonpipe.crypto import OS_RNG
from anonpipe.errors import DuplicateShareX, InsufficientShares


@dataclass(frozen=True)
class PrimeField:
    modulus: int

    @property
    def elem_len(self) -> int:
        return (self.modulus.bit_length() + 7) // 8

    def reduce(self, v: int) -> int:
        return v % self.modulus

    def random_nonzero(self, rng=OS_RNG) -> int:
        width = self.elem_len + 8
        while True:
            v = int.from_bytes(rng.randbytes(width), "big") % self.modulus
            if v != 0:
                return v

    def encode(self, v: int) -> bytes:
        return v.to_bytes(self.elem_len, "big")

    def decode(self, data: bytes) -> int:
        v = int.from_bytes(data, "big")
        if v >= self.modulus:
            raise ValueError("field element out of range")
        return v


GF251 = PrimeField(251)


@dataclass(frozen=True)
class ShamirShare:
    x: int
    y: int

    def __post_init__(self):
        if self.x == 0:
            raise ValueError("share x must be nonzero")


def eval_poly(field: PrimeField, coeffs: list[int], x: int) -> int:
    """Evaluate sum(coeffs[i] * x^i) by Horner's rule."""
    p = field.modulus
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def shamir_share(
    field: PrimeField, secret: int, t: int, n: int, rng=OS_RNG
) -> list[ShamirShare]:
    """Split `secret` into n shares recoverable from any t of them."""
    if not 1 <= t <= n:
        raise ValueError("need 1 <= t <= n")
    if n >= field.modulus:
        raise ValueError("n must be below the field modulus")
    coeffs = [field.reduce(secret)] + [_random_coeff(field, rng) for _ in range(t - 1)]
    xs = _distinct_nonzero_xs(field, n, rng)
    return [ShamirShare(x=x, y=eval_poly(field, coeffs, x)) for x in xs]


def _random_coeff(field: PrimeField, rng) -> int:
    # Coefficients may be zero; only x values must be nonzero.
    return int.from_bytes(rng.randbytes(field.elem_len + 8), "big") % field.modulus


def _distinct_nonzero_xs(field: PrimeField, n: int, rng) -> list[int]:
    xs: list[int] = []
    seen: set[int] = set()
    while len(xs) < n:
        x = field.random_nonzero(rng)
        if x not in seen:
            seen.add(x)
            xs.append(x)
    return xs


def shamir_reconstruct(field: PrimeField, shares: list[ShamirShare], t: int) -> int:
    """Recover P(0) by Lagrange interpolation from the first t shares given.

    P(0) = sum_i y_i * prod_{j != i} (-x_j) / (x_i - x_j).  The numerators
    come from prefix and suffix products of the -x_j, and the t denominators
    share one inversion (Montgomery's batch inversion), which raises
    `ValueError` when two x are congruent mod p.
    """
    if len(shares) < t:
        raise InsufficientShares(f"need {t} shares, got {len(shares)}")
    pts = shares[:t]
    xs = [s.x for s in pts]
    if len(set(xs)) != len(xs):
        raise DuplicateShareX("shares with colliding x values")
    p = field.modulus
    dens = []
    for xi in xs:
        den = 1
        for xj in xs:
            if xj != xi:  # the x are distinct, so this skips j == i alone
                den = den * (xi - xj) % p
        dens.append(den)
    den_prefix = [1]  # den_prefix[i] = dens[0] * ... * dens[i - 1]
    for den in dens:
        den_prefix.append(den_prefix[-1] * den % p)
    num_prefix = [1]  # num_prefix[i] = (-x_0) * ... * (-x_{i-1})
    for x in xs[:-1]:
        num_prefix.append(num_prefix[-1] * -x % p)
    inv = pow(den_prefix[-1], -1, p)  # 1 / (dens[0] * ... * dens[i])
    num_suffix = 1  # (-x_{i+1}) * ... * (-x_{t-1})
    acc = 0
    for i in reversed(range(len(xs))):
        acc += pts[i].y * num_prefix[i] * num_suffix * (inv * den_prefix[i] % p)
        inv = inv * dens[i] % p
        num_suffix = num_suffix * -xs[i] % p
    return acc % p
