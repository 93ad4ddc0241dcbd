"""Per-call cost of the layers the pipeline's stages are built from: the
envelope layer's `seal` and `open_envelope`, and the shuffler's threshold.

Run from the root of a checkout:

    python3 bench/layers.py --runs 11 --calls 200 --out BENCH_layers.json

Each envelope call seals or opens one envelope of a 140-byte plaintext,
between the outer plaintexts of the `hashed` (76 bytes) and `secret` (170
bytes) benchmark workloads, to one recipient, exactly as the encoder, the
shufflers and the analyzer call them: `seal` returns the envelope's bytes
and `open_envelope` takes them.  `count_crowds` and `apply_threshold` are
timed per record on one batch shaped like the `hashed` workload's, as the
first shuffler calls them: 4 000 records of Zipf(1.1) words over a
vocabulary as large as the batch, each an 8-byte keyed BLAKE2b crowd ID and
a 67-byte inner envelope, under `ThresholdPolicy(20)`, which draws nothing.
A run times `--calls` calls of each envelope case and one call of each
threshold case, and the order of the cases alternates from run to run, so
the drift of a shared host falls on all of them alike.  The output records
each case's median and quartiles over the runs in microseconds per call
(per record for the threshold), and how many records the threshold kept.
One process, one thread.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from benchstats import in_turn, parse_args, per_call_us, summary, write_result  # noqa: E402

PLAINTEXT_LEN = 140
THRESHOLD_RECORDS = 4000
THRESHOLD_T = 20
ZIPF_EXPONENT = 1.1


def measure(runs: int, calls: int, seed: int) -> dict:
    from anonpipe.crypto.envelope import TransportKeyPair, open_envelope, seal
    from anonpipe.encoder import make_crowd_id
    from anonpipe.formats import pad_payload, padded_length
    from anonpipe.harness import generate_zipf_corpus, item_word
    from anonpipe.shuffler import Batch, ThresholdPolicy, apply_threshold, count_crowds

    rng = random.Random(seed)
    kp = TransportKeyPair.generate(rng)
    plaintexts = [rng.randbytes(PLAINTEXT_LEN) for _ in range(calls)]
    cases = {  # case name -> (function, argument tuples, divisor per call)
        "seal": (seal, [(kp.public_bytes, m, rng) for m in plaintexts], 1),
        "open_envelope": (
            open_envelope, [(kp, seal(kp.public_bytes, m, rng)) for m in plaintexts], 1
        ),
    }

    corpus = generate_zipf_corpus(THRESHOLD_RECORDS, ZIPF_EXPONENT, THRESHOLD_RECORDS, seed)
    words = [item_word(int(i)) for i in corpus]
    hash_key, pad_to = rng.randbytes(16), padded_length(len(item_word(THRESHOLD_RECORDS)))
    batch = Batch("bench", [
        (make_crowd_id(w, "hashed", hash_key), seal(kp.public_bytes, pad_payload(w, pad_to), rng))
        for w in words
    ])
    counts, policy = count_crowds(batch), ThresholdPolicy(THRESHOLD_T)
    cases["count_crowds"] = (count_crowds, [(batch,)], THRESHOLD_RECORDS)
    cases["apply_threshold"] = (apply_threshold, [(batch, counts, policy, rng)], THRESHOLD_RECORDS)

    samples = {case: [] for case in cases}
    for run in range(runs):
        for case in in_turn(run, cases):
            fn, inputs, per = cases[case]
            samples[case].append(per_call_us(fn, inputs) / per)
    threshold = {case: summary(samples[case]) for case in ("apply_threshold", "count_crowds")}
    threshold["records"] = THRESHOLD_RECORDS
    threshold["kept"] = len(apply_threshold(batch, counts, policy, rng).records)
    return {
        "envelope": {case: summary(samples[case]) for case in ("seal", "open_envelope")},
        "threshold": threshold,
    }


def main(argv=None) -> dict:
    args = parse_args(
        __doc__, "BENCH_layers.json", argv, calls=(200, "calls per timed pass (>= 1)")
    )
    fields = {
        "runs": args.runs, "calls": args.calls, "plaintext_len": PLAINTEXT_LEN, "seed": args.seed
    }
    result = write_result(args.out, fields | measure(args.runs, args.calls, args.seed))
    for case, s in result["envelope"].items():
        print(f"{case:15} {s['median_us']:8.1f} us [{s['q1_us']:.1f}, {s['q3_us']:.1f}]")
    threshold = result["threshold"]
    for case in ("apply_threshold", "count_crowds"):
        s = threshold[case]
        print(f"{case:15} {s['median_us']:8.2f} us/record [{s['q1_us']:.2f}, {s['q3_us']:.2f}]")
    print(f"threshold kept {threshold['kept']} of {threshold['records']} records")
    return result


if __name__ == "__main__":
    main()
