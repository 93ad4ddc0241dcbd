"""Acceptance checks for the whole pipeline.

Each test exercises one release criterion end to end and reports a single
pass/fail line in the terminal summary (see conftest.record_criterion).
The expected values are computed independently inside each test - from
closed-form arithmetic, direct set-based oracles, or Monte Carlo runs that
do not share code with the implementation under test.
"""

import functools
import itertools
import random
import statistics
from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner

from anonpipe.analyzer import accumulate_covariance, covariance_estimate, laplace_noise
from anonpipe.cli import main as cli_main
from anonpipe.crypto.group import TEST_GROUP_256, KeyPair
from anonpipe.crypto.shamir import GF251, ShamirShare, shamir_reconstruct, shamir_share
from anonpipe.harness import (
    ScenarioConfig,
    generate_zipf_corpus,
    item_word,
    load_corpus,
    local_dp_baseline,
    run_scenario,
)
from anonpipe.shuffler import (
    Batch,
    ThresholdPolicy,
    apply_threshold,
    blind_stage1,
    blind_stage2_threshold,
    count_crowds,
    crowd_survives,
)
from anonpipe.stash_shuffle import (
    REFERENCE_SCENARIOS,
    analytic_overhead,
    make_params,
    prior_art_overheads,
    stash_shuffle,
)
from conftest import record_criterion


def criterion(name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                record_criterion(name, False)
                raise
            record_criterion(name, True)

        return run

    return wrap


# ---------------------------------------------------------------------------
# 1. Analytic shuffle overhead for the documented parameter scenarios


@criterion("1. reference shuffle overheads are 3.50x/3.40x/3.70x/3.32x")
def test_criterion_1_reference_overheads():
    expected = [3.50, 3.40, 3.70, 3.32]
    for (n, b, c, w, s), target in zip(REFERENCE_SCENARIOS, expected):
        p = make_params(n, b, chunk_cap=c, stash_cap=s, window=w)
        # (N + B^2*C + S) / N computed from first principles
        direct = (n + b * b * c + s) / n
        assert round(direct, 2) == target
        assert analytic_overhead(p) == pytest.approx(direct)
    out = CliRunner().invoke(cli_main, ["params", "--reference"], catch_exceptions=False)
    assert out.exit_code == 0
    for target in ("3.50x", "3.40x", "3.70x", "3.32x"):
        assert target in out.output


# ---------------------------------------------------------------------------
# 2. Sort-based prior-art multipliers under the same private-memory budget


@criterion("2. prior-art multipliers: batcher 49x@10M / 100x@100M, columnsort 8x")
def test_criterion_2_prior_art():
    budget = 2 * 152_000 * 318  # bytes: 152k record pairs resident at once
    at_10m = prior_art_overheads(10_000_000, 318, budget)
    assert at_10m.batcher_bucket_items == 152_000
    assert at_10m.batcher_multiplier == 49
    assert prior_art_overheads(100_000_000, 318, budget).batcher_multiplier == 100
    assert at_10m.columnsort_multiplier == 8
    assert at_10m.columnsort_max_items == 118_560_000
    assert prior_art_overheads(100_000_000, 318, budget).columnsort_feasible
    assert not prior_art_overheads(200_000_000, 318, budget).columnsort_feasible
    out = CliRunner().invoke(
        cli_main,
        ["params", "--reference", "--prior-art"],
        catch_exceptions=False,
    )
    assert "batcher 49x (b=152000)" in out.output


# ---------------------------------------------------------------------------
# 3. The shuffle outputs a permutation for random parameter draws


@criterion("3. 50 random parameter sets (N<=10^4, B<=100): output multiset == input")
def test_criterion_3_multiset_preservation():
    rng = random.Random(33)
    for _ in range(50):
        n = rng.randrange(50, 10_001)
        b = rng.randrange(2, min(100, n // 2) + 1)
        d = -(-n // b)
        ratio = d / b
        # per-bucket chunk loads have variance ~ r(1+r); size C accordingly
        c = int(ratio + 4 * (ratio * (1 + ratio)) ** 0.5) + 1
        s = max(4 * b, n // 20)
        p = make_params(n, b, chunk_cap=c, stash_cap=s, window=min(4, b), item_len=16)
        items = [rng.randbytes(16) for _ in range(n)]
        res = stash_shuffle(items, p, rng, max_attempts=64, keep_trace=False)
        assert sorted(res.records) == sorted(items)


# ---------------------------------------------------------------------------
# 4. Obliviousness: untrusted access traces do not depend on the data


@criterion("4. 20 paired runs with different data produce identical access traces")
def test_criterion_4_oblivious_traces():
    p = make_params(240, 4, chunk_cap=60, stash_cap=0, window=4, item_len=16)
    dumps = set()
    for seed in range(20):
        rng = random.Random(1000 + seed)
        items = [rng.randbytes(16) for _ in range(240)]
        res = stash_shuffle(items, p, rng)
        assert res.attempts == 1
        dumps.add(res.trace.dump())
    assert len(dumps) == 1


# ---------------------------------------------------------------------------
# 5. Routing constraints make the identity permutation unreachable when C < D,
#    while all permutations stay reachable


@criterion("5. identity never among 10^4 tight-cap runs; all 24 perms of N=4 occur")
def test_criterion_5_permutation_support():
    # (a) N=6, B=3, C=1, no stash: the identity needs both items of some
    # input bucket routed to their own bucket, which C=1 cannot carry.
    rng = random.Random(55)
    p = make_params(6, 3, chunk_cap=1, stash_cap=0, window=3, item_len=4)
    items = [b"i%03d" % i for i in range(6)]
    for _ in range(10_000):
        res = stash_shuffle(items, p, rng, max_attempts=10_000, keep_trace=False)
        assert res.records != items

    # (b) with C >= D every permutation of 4 items shows up in 10^5 runs
    p4 = make_params(4, 2, chunk_cap=2, stash_cap=0, window=2, item_len=4)
    items4 = [b"j%03d" % i for i in range(4)]
    seen = set()
    for _ in range(100_000):
        res = stash_shuffle(items4, p4, rng, keep_trace=False)
        seen.add(tuple(res.records))
        if len(seen) == 24:
            break
    assert len(seen) == 24


# ---------------------------------------------------------------------------
# 6. Secret sharing: exhaustive correctness and below-threshold hiding


def _interpolate_at(points, x_target):
    total = 0
    m = 251
    for i, (xi, yi) in enumerate(points):
        num, den = 1, 1
        for j, (xj, _) in enumerate(points):
            if i != j:
                num = num * (x_target - xj) % m
                den = den * (xi - xj) % m
        total += yi * num * pow(den, m - 2, m)
    return total % m


@criterion("6. GF(251) sharing: every t-subset reconstructs; t-1 shares hide all")
def test_criterion_6_shamir_exhaustive():
    rng = random.Random(66)
    for t in range(1, 5):
        for n in range(t, 7):
            secret = rng.randrange(251)
            shares = shamir_share(GF251, secret, t=t, n=n, rng=rng)
            for subset in itertools.combinations(shares, t):
                assert shamir_reconstruct(GF251, list(subset), t) == secret
            if t == 1:
                continue
            # any t-1 shares extend to *every* candidate secret
            for subset in itertools.combinations(shares, t - 1):
                used = {s.x for s in subset}
                fresh_x = next(x for x in range(1, 251) if x not in used)
                for candidate in range(251):
                    pts = [(0, candidate)] + [(s.x, s.y) for s in subset]
                    forged = ShamirShare(fresh_x, _interpolate_at(pts, fresh_x))
                    got = shamir_reconstruct(GF251, list(subset) + [forged], t)
                    assert got == candidate


# ---------------------------------------------------------------------------
# 7. The blinded two-shuffler path and the plaintext path agree exactly


@criterion("7. 100 random batches: blinded pipeline == plaintext pipeline")
def test_criterion_7_blinded_equivalence():
    g = TEST_GROUP_256
    policy = ThresholdPolicy(5, drop_mean=2, sigma=1)
    for seed in range(100):
        rng = random.Random(7000 + seed)
        kp2 = KeyPair.generate(g, rng)
        alpha = g.random_scalar(rng)
        keys = [b"k%d" % rng.randrange(5) for _ in range(40)]
        inners = [rng.randbytes(16) for _ in keys]

        plain = Batch("e", list(zip([b"crowd:" + k for k in keys], inners)))
        plain_out = apply_threshold(
            plain, count_crowds(plain), policy, random.Random(13 * seed)
        )

        blinded = Batch(
            "e",
            [
                (g.elgamal_encrypt(kp2.public, g.hash_to_group(k), rng), i)
                for k, i in zip(keys, inners)
            ],
        )
        stage1 = blind_stage1(blinded, g, alpha)
        blind_out = blind_stage2_threshold(stage1, g, kp2, policy, random.Random(13 * seed))

        assert sorted(i for _, i in plain_out.records) == sorted(
            i for _, i in blind_out.records
        )


# ---------------------------------------------------------------------------
# 8. Randomized-threshold forwarding probabilities match a Monte Carlo oracle


def _oracle_forward_prob(count, t, drop_mean, sigma, draws, seed):
    """Vectorized reimplementation of the forwarding rule, numpy only."""
    gen = np.random.default_rng(seed)
    d = np.maximum(np.rint(gen.normal(drop_mean, sigma, draws)), 0.0)
    noise = gen.normal(0.0, sigma, draws)
    return float(np.mean((count - d) > t + noise))


@criterion("8. forwarding probabilities match the Monte Carlo oracle within 0.01")
def test_criterion_8_threshold_kernel():
    policy = ThresholdPolicy(20, drop_mean=10, sigma=2)
    rng = random.Random(88)
    for count in (10, 20, 25, 30, 40):
        oracle = _oracle_forward_prob(count, 20, 10, 2, 1_000_000, seed=count)
        hits = sum(crowd_survives(count, policy, rng)[0] for _ in range(100_000))
        assert abs(hits / 100_000 - oracle) < 0.01


# ---------------------------------------------------------------------------
# 9. End-to-end utility on a long-tail corpus (vocab 10^5, exponent 1.1, n 10^5)


def _utility_config(**kw):
    base = dict(
        vocab_size=100_000, zipf_exponent=1.1, n_samples=100_000,
        seed=9, group_id="test-256",
    )
    base.update(kw)
    return ScenarioConfig(**base)


@pytest.mark.slow
@criterion(
    "9. utility: naive recovery exact; secret+crowd >= 60% of no-crowd; kRR < 20%"
)
def test_criterion_9_end_to_end_utility(tmp_path):
    # (a) naive plaintext crowds recover exactly the items above the threshold
    naive = run_scenario(
        _utility_config(name="naive", crowd_mode="hashed", threshold_t=20),
        tmp_path / "naive",
    )
    corpus = load_corpus(tmp_path / "naive" / "corpus.txt", _utility_config().vocab_size)
    counts = Counter(corpus.tolist())
    expected = {item_word(k) for k, c in counts.items() if c > 20}
    assert naive.recovered_values == expected

    # (b) secret sharing with crowds retains >= 60% of the no-crowd utility
    no_crowd = run_scenario(
        _utility_config(name="no-crowd", crowd_mode="fixed", secret_share_t=20),
        tmp_path / "no-crowd",
    )
    secret_crowd = run_scenario(
        _utility_config(
            name="secret-crowd", crowd_mode="hashed", secret_share_t=20,
            threshold_t=20, drop_mean=10, sigma=2,
        ),
        tmp_path / "secret-crowd",
    )
    assert no_crowd.recovered_unique > 0
    assert secret_crowd.recovered_unique >= 0.6 * no_crowd.recovered_unique

    # (c) a pure local-DP baseline at epsilon=2 recovers far less
    krr = local_dp_baseline(corpus, 100_000, epsilon=2.0, rng=random.Random(99))
    assert krr.recovered_unique < 0.2 * secret_crowd.recovered_unique


# ---------------------------------------------------------------------------
# 10. Covariance accumulators agree with direct recomputation from ratings


@criterion("10. covariance S/A match a direct oracle on 100 random rating tables")
def test_criterion_10_covariance_oracle():
    # pinned hand example: users rated items (1,2) with (4,5) and (1,3)
    acc = accumulate_covariance([(1, 4.0, 2, 5.0), (1, 1.0, 2, 3.0)])
    assert acc.s_matrix[(1, 2)] == 2
    assert acc.a_matrix[(1, 2)] == 23.0
    assert covariance_estimate(acc)[(1, 2)] == pytest.approx(11.5)

    rng = random.Random(1010)
    for _ in range(100):
        users = {
            u: {
                i: float(rng.randrange(1, 6))
                for i in rng.sample(range(8), rng.randrange(2, 7))
            }
            for u in range(10)
        }
        tuples = []
        for ratings in users.values():
            its = sorted(ratings)
            for a in range(len(its)):
                for b in range(a, len(its)):
                    i, j = its[a], its[b]
                    tuples.append((i, ratings[i], j, ratings[j]))
        acc = accumulate_covariance(tuples)
        est = covariance_estimate(acc)
        for i in range(8):
            for j in range(i, 8):
                raters = [u for u, r in users.items() if i in r and j in r]
                if not raters:
                    assert (i, j) not in acc.s_matrix
                    continue
                assert acc.s_matrix[(i, j)] == len(raters)
                a_direct = sum(users[u][i] * users[u][j] for u in raters)
                assert est[(i, j)] == pytest.approx(a_direct / len(raters))


# ---------------------------------------------------------------------------
# 11. Laplace release noise has the right scale


@criterion("11. Laplace release noise variance within 5% of 2*(sens/eps)^2")
def test_criterion_11_laplace_variance():
    rng = random.Random(1111)
    for sensitivity, epsilon in ((1, 1.0), (1, 0.5), (2, 2.0)):
        scale = sensitivity / epsilon
        draws = [laplace_noise(rng, scale) for _ in range(200_000)]
        assert statistics.variance(draws) == pytest.approx(2 * scale * scale, rel=0.05)
