"""Per-call cost of secret sharing: the client's `secret_share_encode`,
`shamir_reconstruct` and the analyzer's `secret_share_decode`.

Run from the root of a checkout:

    python3 bench/shares.py --runs 11 --calls 40 --out BENCH_shares.json

`shamir_reconstruct` is timed per call over `encoder.SHARE_FIELD` at t = 5,
20 and 50, each call on t random points with distinct x in increasing
order, as the decode hands a decodable group's t shares to it.  `secret_share_decode` is
timed per payload on one batch shaped like the `secret` benchmark
workload's: `--payloads` Zipf(1.1) words over a vocabulary as large as the
batch, each encoded at t = 20 and framed as the analyzer receives it, in a
random order.  `secret_share_encode` is timed per call over the same words
at t = 5, 20 and 50.  A run times every case once, and the order of the cases
alternates from run to run, so the drift of a shared host falls on all of
them alike.  The output records each case's median and quartiles over the
runs in microseconds per call (per payload for the decode), and the decode
batch's group counts.  One process, one thread.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from benchstats import in_turn, parse_args, per_call_us, summary, write_result  # noqa: E402

THRESHOLDS = (5, 20, 50)
DECODE_T = 20
ZIPF_EXPONENT = 1.1


def measure(runs: int, calls: int, payloads: int, seed: int) -> dict:
    from anonpipe.analyzer import secret_share_decode
    from anonpipe.crypto.shamir import ShamirShare, shamir_reconstruct
    from anonpipe.encoder import SHARE_FIELD, secret_share_encode
    from anonpipe.harness import generate_zipf_corpus, item_word

    rng = random.Random(seed)
    p = SHARE_FIELD.modulus

    def distinct_xs(t):
        xs = set()
        while len(xs) < t:
            xs.add(rng.randrange(1, p))
        return sorted(xs)

    cases = {}  # case name -> (function, argument tuples, divisor per call)
    for t in THRESHOLDS:
        # any t points with distinct x define a polynomial, and the cost
        # does not depend on which
        share_sets = [
            (SHARE_FIELD, [ShamirShare(x, rng.randrange(p)) for x in distinct_xs(t)], t)
            for _ in range(calls)
        ]
        cases[f"reconstruct_t{t}"] = (shamir_reconstruct, share_sets, 1)
    corpus = generate_zipf_corpus(payloads, ZIPF_EXPONENT, payloads, seed)
    words = [item_word(int(i)) for i in corpus]
    batch = [secret_share_encode(w, DECODE_T, SHARE_FIELD, rng) for w in words]
    rng.shuffle(batch)
    decode_args = [(batch, DECODE_T, SHARE_FIELD)]
    cases[f"decode_t{DECODE_T}"] = (secret_share_decode, decode_args, payloads)
    for t in THRESHOLDS:
        cases[f"encode_t{t}"] = (
            secret_share_encode, [(w, t, SHARE_FIELD, rng) for w in words], 1
        )

    samples = {case: [] for case in cases}
    for run in range(runs):
        for case in in_turn(run, cases):
            fn, inputs, per = cases[case]
            samples[case].append(per_call_us(fn, inputs) / per)

    decoded = secret_share_decode(batch, DECODE_T, SHARE_FIELD)
    return {
        "encode": {f"t{t}": summary(samples[f"encode_t{t}"]) for t in THRESHOLDS},
        "reconstruct": {f"t{t}": summary(samples[f"reconstruct_t{t}"]) for t in THRESHOLDS},
        "decode": {
            f"t{DECODE_T}": {
                "per_payload": summary(samples[f"decode_t{DECODE_T}"]),
                "decoded_groups": len(set(decoded.messages)),
                "undecoded_groups": decoded.undecoded_groups,
                "decoded_records": len(decoded.messages),
            }
        },
    }


def main(argv=None) -> dict:
    args = parse_args(
        __doc__, "BENCH_shares.json", argv,
        calls=(40, "reconstructs per timed pass (>= 1)"),
        payloads=(3000, "decode batch size (>= 1)"),
    )
    fields = {
        "runs": args.runs, "calls": args.calls, "payloads": args.payloads, "seed": args.seed
    }
    result = write_result(
        args.out, fields | measure(args.runs, args.calls, args.payloads, args.seed)
    )
    for name in ("encode", "reconstruct"):
        for t, s in result[name].items():
            print(f"{name:11} {t:4} {s['median_us']:9.1f} us [{s['q1_us']:.1f}, {s['q3_us']:.1f}]")
    for t, d in result["decode"].items():
        s = d["per_payload"]
        print(
            f"decode      {t:4} {s['median_us']:9.2f} us/payload "
            f"[{s['q1_us']:.2f}, {s['q3_us']:.2f}]  {d['decoded_groups']} decoded, "
            f"{d['undecoded_groups']} undecoded groups"
        )
    return result


if __name__ == "__main__":
    main()
