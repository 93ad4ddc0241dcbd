"""Per-call cost of the layers the pipeline's stages are built from.  Today
the envelope layer: `seal` and `open_envelope`.

Run from the root of a checkout:

    python3 bench/layers.py --runs 11 --calls 200 --out BENCH_layers.json

Each call seals or opens one envelope of a 140-byte plaintext, between the
outer plaintexts of the `hashed` (76 bytes) and `secret` (170 bytes)
benchmark workloads, to one recipient, exactly as the encoder, the
shufflers and the analyzer call them: `seal` returns the envelope's bytes
and `open_envelope` takes them.  A run times `--calls` calls of each case,
and the order of the cases alternates from run to run, so the drift of a
shared host falls on both alike.  The output records each case's median
and quartiles over the runs in microseconds per call.  One process, one
thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from benchstats import summary  # noqa: E402

PLAINTEXT_LEN = 140


def per_call_us(fn, inputs) -> float:
    start = perf_counter()
    for args in inputs:
        fn(*args)
    return (perf_counter() - start) / len(inputs) * 1e6


def measure(runs: int, calls: int, seed: int) -> dict:
    from anonpipe.crypto.envelope import TransportKeyPair, open_envelope, seal

    rng = random.Random(seed)
    kp = TransportKeyPair.generate(rng)
    plaintexts = [rng.randbytes(PLAINTEXT_LEN) for _ in range(calls)]
    cases = {
        "seal": (seal, [(kp.public_bytes, m, rng) for m in plaintexts]),
        "open_envelope": (open_envelope, [(kp, seal(kp.public_bytes, m, rng)) for m in plaintexts]),
    }
    samples = {case: [] for case in cases}
    for run in range(runs):
        for case in cases if run % 2 == 0 else reversed(cases):
            fn, inputs = cases[case]
            samples[case].append(per_call_us(fn, inputs))
    return {"envelope": {case: summary(s) for case, s in samples.items()}}


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=11, help="alternating runs (>= 2)")
    parser.add_argument("--calls", type=int, default=200, help="calls per timed pass (>= 1)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_layers.json")
    args = parser.parse_args(argv)
    if args.runs < 2 or args.calls < 1:
        parser.error("--runs must be >= 2, and --calls >= 1")

    sys.path.insert(0, str(ROOT / "src"))
    result = {
        "machine": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "runs": args.runs,
        "calls": args.calls,
        "plaintext_len": PLAINTEXT_LEN,
        "seed": args.seed,
        **measure(args.runs, args.calls, args.seed),
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    for case, s in result["envelope"].items():
        print(f"{case:14} {s['median_us']:8.1f} us [{s['q1_us']:.1f}, {s['q3_us']:.1f}]")
    return result


if __name__ == "__main__":
    main()
