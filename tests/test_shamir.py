import itertools
import random

import pytest

from anonpipe.crypto.shamir import (
    GF251,
    PrimeField,
    ShamirShare,
    eval_poly,
    shamir_reconstruct,
    shamir_share,
)
from anonpipe.encoder import SHARE_FIELD
from anonpipe.errors import DuplicateShareX, InsufficientShares


def test_hand_worked_example():
    # P(X) = 3 + 2X over GF(101): P(1)=5, P(2)=7, secret P(0)=3
    field = PrimeField(101)
    shares = [ShamirShare(1, 5), ShamirShare(2, 7)]
    assert shamir_reconstruct(field, shares, t=2) == 3


def test_threshold_one_is_the_secret():
    field = GF251
    rng = random.Random(0)
    shares = shamir_share(field, 173, t=1, n=4, rng=rng)
    for s in shares:
        assert shamir_reconstruct(field, [s], t=1) == 173


def test_share_xs_are_nonzero_and_distinct():
    rng = random.Random(1)
    shares = shamir_share(GF251, 9, t=3, n=8, rng=rng)
    xs = [s.x for s in shares]
    assert 0 not in xs
    assert len(set(xs)) == len(xs)


def test_exhaustive_small_parameters():
    rng = random.Random(2)
    for t in range(1, 6):
        for n in range(t, 9):
            secret = rng.randrange(251)
            shares = shamir_share(GF251, secret, t=t, n=n, rng=rng)
            for subset in itertools.combinations(shares, t):
                assert shamir_reconstruct(GF251, list(subset), t=t) == secret


def _interpolate_at(field, points, x_target):
    """Lagrange interpolation oracle, written independently of the library path."""
    total = 0
    for i, (xi, yi) in enumerate(points):
        num, den = 1, 1
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            num = (num * (x_target - xj)) % field.modulus
            den = (den * (xi - xj)) % field.modulus
        total += yi * num * pow(den, field.modulus - 2, field.modulus)
    return total % field.modulus


@pytest.mark.parametrize("t", [1, 2, 20, 50])
def test_reconstruct_matches_the_oracle_over_the_share_field(t):
    # arbitrary points, x and y up to 2p (distinct mod p), two more than t given
    rng = random.Random(t)
    p = SHARE_FIELD.modulus
    for _ in range(5):
        residues = set()
        while len(residues) < t + 2:
            residues.add(rng.randrange(1, p))
        shares = [ShamirShare(x + p * rng.randrange(2), rng.randrange(2 * p)) for x in residues]
        expected = _interpolate_at(SHARE_FIELD, [(s.x, s.y) for s in shares[:t]], 0)
        assert shamir_reconstruct(SHARE_FIELD, shares, t) == expected


def test_reconstruct_errors_over_the_share_field():
    rng = random.Random(6)
    p = SHARE_FIELD.modulus
    shares = shamir_share(SHARE_FIELD, 9, t=20, n=21, rng=rng)
    with pytest.raises(InsufficientShares):
        shamir_reconstruct(SHARE_FIELD, shares[:19], t=20)
    repeat = shares[:19] + [ShamirShare(shares[3].x, 1)]
    with pytest.raises(DuplicateShareX):
        shamir_reconstruct(SHARE_FIELD, repeat, t=20)
    # a repeat beyond the first t is never read
    assert shamir_reconstruct(SHARE_FIELD, shares[:20] + [shares[0]], t=20) == 9
    congruent = shares[:19] + [ShamirShare(shares[3].x + p, 1)]
    with pytest.raises(ValueError):
        shamir_reconstruct(SHARE_FIELD, congruent, t=20)


def test_below_threshold_reveals_nothing():
    # any t-1 shares are consistent with *every* candidate secret: for each
    # candidate there is a degree-(t-1) polynomial through the shares with
    # that constant term, and a synthetic t-th share completes it.
    rng = random.Random(3)
    field = GF251
    t = 3
    shares = shamir_share(field, 77, t=t, n=5, rng=rng)
    partial = shares[: t - 1]
    used_xs = {s.x for s in partial}
    fresh_x = next(x for x in range(1, 251) if x not in used_xs)
    for candidate in range(0, 251, 7):
        points = [(0, candidate)] + [(s.x, s.y) for s in partial]
        forged = ShamirShare(fresh_x, _interpolate_at(field, points, fresh_x))
        got = shamir_reconstruct(field, partial + [forged], t=t)
        assert got == candidate


def test_insufficient_shares_raises():
    rng = random.Random(4)
    shares = shamir_share(GF251, 5, t=4, n=4, rng=rng)
    with pytest.raises(InsufficientShares):
        shamir_reconstruct(GF251, shares[:3], t=4)


def test_duplicate_x_raises():
    with pytest.raises(DuplicateShareX):
        shamir_reconstruct(GF251, [ShamirShare(1, 2), ShamirShare(1, 3)], t=2)


def test_eval_poly_matches_direct_sum():
    field = GF251
    coeffs = [7, 0, 13, 200]
    for x in range(0, 20):
        direct = sum(c * pow(x, i, 251) for i, c in enumerate(coeffs)) % 251
        assert eval_poly(field, coeffs, x) == direct


def test_large_field_roundtrip():
    field = PrimeField((1 << 61) - 1)
    rng = random.Random(5)
    secret = rng.randrange(field.modulus)
    shares = shamir_share(field, secret, t=20, n=25, rng=rng)
    assert shamir_reconstruct(field, shares[:20], t=20) == secret
