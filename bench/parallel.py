"""Per-call cost of `parallel.map_records` over the in-process loop.

Run from the root of a checkout:

    python3 bench/parallel.py --runs 11 --out BENCH_parallel.json

For a no-op (the identity) and for opening the analyzer's inner envelopes
(`encoder.open_inner`, one X25519 open each), at each batch size and at 1
and 2 CPUs (patched into `parallel.usable_cpus`), this times
`map_records(fn, items)` and `[fn(x) for x in items]` back to back on the
same items and records the difference per call: what the map costs over and
above the loop it replaces, negative where splitting wins.  `MIN_PER_WORKER`
is patched to 1 while timing, so at 2 CPUs every batch of two or more
records splits and the figures are those of the split itself, not of the
checkout's rule for when to split; at 1 CPU the map stays in-process.  Each
timed pass repeats the call until it has covered `--pass-items` records.
The sides, and the CPU counts, alternate which goes first from run to run,
so the drift of a shared host falls on both alike.  The output records, per
case, the median and quartiles over the runs of the difference and of both
sides' times, in microseconds per call, and for each function the smallest
batch size at which the 2-CPU map's median beats the loop's: the break-even
batch that `parallel.MIN_PER_WORKER` is half of.

The items are inner envelopes sealed to one analyzer key, 150 bytes each.
The parent's first chunk runs in this process; a checkout whose map keeps
workers between calls starts them in an untimed call first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from benchstats import summary  # noqa: E402

SIZES = (2, 4, 8, 16, 32, 64, 128, 253, 600, 4000)
CPUS = (1, 2)
PAD_TO = 90  # 150-byte inner envelopes


def identity(x):
    return x


def per_call_us(fn, calls: int) -> float:
    start = perf_counter()
    for _ in range(calls):
        fn()
    return (perf_counter() - start) / calls * 1e6


def measure(runs: int, pass_items: int, seed: int) -> dict:
    from anonpipe import parallel
    from anonpipe.crypto.envelope import TransportKeyPair, seal
    from anonpipe.encoder import open_inner
    from anonpipe.formats import pad_payload

    rng = random.Random(seed)
    kp = TransportKeyPair.generate(rng)
    blobs = [seal(kp.public_bytes, pad_payload(b"w%d" % i, PAD_TO), rng) for i in range(max(SIZES))]
    functions = {"noop": identity, "open_envelope": partial(open_inner, analyzer_keypair=kp)}
    samples = {
        (name, n, cpus, side): []
        for name in functions for n in SIZES for cpus in CPUS for side in ("map", "loop")
    }
    saved = parallel.usable_cpus, parallel.MIN_PER_WORKER
    parallel.MIN_PER_WORKER = 1
    try:
        for run in range(runs):
            for cpus in CPUS if run % 2 == 0 else reversed(CPUS):
                parallel.usable_cpus = partial(int, cpus)
                for name, fn in functions.items():
                    for n in SIZES:
                        items, calls = blobs[:n], -(-pass_items // n)
                        sides = {
                            "map": partial(parallel.map_records, fn, items),
                            "loop": lambda: [fn(x) for x in items],  # noqa: B023 - called here
                        }
                        sides["map"]()  # a checkout that keeps workers starts them here
                        for side in sides if run % 2 == 0 else reversed(sides):
                            samples[name, n, cpus, side].append(per_call_us(sides[side], calls))
    finally:
        parallel.usable_cpus, parallel.MIN_PER_WORKER = saved

    cases: dict[str, dict] = {}
    for name in functions:
        for n in SIZES:
            for cpus in CPUS:
                m, loop = samples[name, n, cpus, "map"], samples[name, n, cpus, "loop"]
                cases.setdefault(name, {}).setdefault(str(n), {})[f"cpus{cpus}"] = {
                    "over_loop": summary([a - b for a, b in zip(m, loop)]),
                    "map": summary(m),
                    "loop": summary(loop),
                }
    break_even = {
        name: next(
            (n for n in SIZES if cases[name][str(n)]["cpus2"]["over_loop"]["median_us"] < 0),
            None,
        )
        for name in functions
    }
    return {"cases": cases, "break_even_records_at_2_cpus": break_even}


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=11, help="alternating runs (>= 2)")
    parser.add_argument("--pass-items", type=int, default=2000, help="records per timed pass")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_parallel.json")
    args = parser.parse_args(argv)
    if args.runs < 2 or args.pass_items < 1:
        parser.error("--runs must be >= 2 and --pass-items >= 1")

    sys.path.insert(0, str(ROOT / "src"))
    result = {
        "machine": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "runs": args.runs,
        "sizes": list(SIZES),
        "pass_items": args.pass_items,
        "seed": args.seed,
        **measure(args.runs, args.pass_items, args.seed),
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    for name, by_size in result["cases"].items():
        for n, by_cpus in by_size.items():
            row = "  ".join(
                f"{cpus} {c['over_loop']['median_us']:9.1f} us "
                f"[{c['over_loop']['q1_us']:.1f}, {c['over_loop']['q3_us']:.1f}]"
                for cpus, c in by_cpus.items()
            )
            loop = by_cpus["cpus1"]["loop"]["median_us"]
            print(f"{name:13} n={n:>5}  loop {loop:9.1f} us  map over loop: {row}")
    print("break-even at 2 CPUs:", result["break_even_records_at_2_cpus"])
    return result


if __name__ == "__main__":
    main()
