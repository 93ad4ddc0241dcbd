"""Per-call cost of the layers the pipeline's stages are built from: the
envelope layer's `seal` and `open_envelope`, the shuffler's threshold, and
each phase of the Stash Shuffle.

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
`stash_shuffle` is timed per item on random 150-byte records, the length of
the `stash` workload's inner envelopes, at two sizes: that workload's
parameters (N = 4 000, B = 20, C = 30, S = 1 200, W = 4) and
`params_for(100_000, 150)`.  Its rows are the whole call and each phase
(distribution, drain, compression): during the timed calls the module's
store, `Trace`, is a subclass that stamps the time at each change of its
`phase`, and a failed attempt's time counts toward the phase it failed in.
Each phase draws its own randomness (the targets in `distribution`, the
keys that order each output bucket in `compression`), so the phase rows
and the attempt's key draw and input placement add up to the whole call.
A run times `--calls` calls of each envelope case, one call of each
threshold case and about 100 000 items' worth of shuffles at each size, and
the order of the cases alternates from run to run, so the drift of a shared
host falls on all of them alike.  The output records each case's median and
quartiles over the runs in microseconds per call (per record for the
threshold, per item for the shuffle), and how many records the threshold
kept.

The `import` row starts a fresh interpreter that runs `import anonpipe.cli`
from this checkout's `src/`, once untimed and then once timed per run, and
records its wall time (start to exit) and its peak resident set in MiB, the
`VmHWM` it reads from `/proc/self/status` before it exits.  Every
stage command and the owner that `map_records` forks its workers from
starts with that import.  Apart from these children, one process, one
thread.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from benchstats import (  # noqa: E402
    ROOT, in_turn, parse_args, per_call_us, stamped, summary, write_result
)

PLAINTEXT_LEN = 140
THRESHOLD_RECORDS = 4000
THRESHOLD_T = 20
ZIPF_EXPONENT = 1.1
STASH_ITEM_LEN = 150
STASH_ITEMS_PER_PASS = 100_000
STASH_PHASES = ("distribution", "drain", "compression")
# the child reports its own peak resident set: Linux counts the starting
# process's peak (under vfork, as `subprocess` starts a program) in the
# child's `ru_maxrss`, and this process holds the shuffles' inputs
IMPORT_CODE = "import anonpipe.cli"
IMPORT_ARGV = [
    sys.executable, "-c",
    f"{IMPORT_CODE}\nprint(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])",
]


def import_cli(max_rss_mb: list) -> None:
    """One fresh interpreter that imports the CLI from this checkout; appends
    its peak resident set in MiB to `max_rss_mb`."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        IMPORT_ARGV, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        check=True,
    )
    max_rss_mb.append(int(out.stdout) / 1024)  # VmHWM is in KiB


def stash_pass(module, inputs) -> dict:
    """Microseconds per item of the whole `stash_shuffle` call and of each
    phase, over one timed pass of `inputs`; during the pass only,
    `module.Trace` is a subclass that stamps each change of `phase`."""

    def shuffle(records, params, rng):
        # setting `phase` on the returned store stamps the call's end
        module.stash_shuffle(records, params, rng, keep_trace=False).trace.phase = "done"

    marks = []
    store, module.Trace = module.Trace, stamped(module.Trace, "phase", marks)
    try:
        whole = per_call_us(shuffle, inputs)
    finally:
        module.Trace = store
    # the pass's first call is untimed
    timed = marks[[phase for phase, _ in marks].index("done") + 1 :]
    spent = dict.fromkeys(STASH_PHASES, 0.0)
    for (phase, start), (_, stop) in zip(timed, timed[1:]):
        if phase in spent:
            spent[phase] += stop - start
    items = len(inputs) * inputs[0][1].n_items
    return {
        **{phase: seconds / items * 1e6 for phase, seconds in spent.items()},
        "stash_shuffle": whole / inputs[0][1].n_items,
    }


def measure(runs: int, calls: int, seed: int) -> dict:
    from anonpipe.crypto.envelope import TransportKeyPair, open_envelope, seal
    from anonpipe.encoder import make_crowd_id
    from anonpipe.formats import pad_payload, padded_length
    from anonpipe.harness import generate_zipf_corpus, item_word
    from anonpipe.shuffler import Batch, ThresholdPolicy, apply_threshold, count_crowds
    from anonpipe import stash_shuffle as stash_module

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

    sizes = {
        # the `stash` benchmark workload's parameters
        "perfbench": stash_module.make_params(4000, 20, 30, 1200, 4, item_len=STASH_ITEM_LEN),
        "params_for_100000": stash_module.params_for(100_000, STASH_ITEM_LEN),
    }
    stash_inputs = {}
    for size, params in sizes.items():
        records = [rng.randbytes(STASH_ITEM_LEN) for _ in range(params.n_items)]
        stash_inputs[size] = [
            (records, params, random.Random(rng.randrange(1 << 32)))
            for _ in range(max(1, STASH_ITEMS_PER_PASS // params.n_items))
        ]

    samples = {case: [] for case in cases}
    stash_samples = {size: {row: [] for row in (*STASH_PHASES, "stash_shuffle")} for size in sizes}
    import_wall, import_rss = [], []
    for run in range(runs):
        for case in in_turn(run, [*cases, *sizes, "import"]):
            if case == "import":
                rss = []
                import_wall.append(per_call_us(import_cli, [(rss,)]))
                import_rss.append(rss[-1])  # the timed start's
                continue
            if case in sizes:
                for row, us in stash_pass(stash_module, stash_inputs[case]).items():
                    stash_samples[case][row].append(us)
                continue
            fn, inputs, per = cases[case]
            samples[case].append(per_call_us(fn, inputs) / per)
    threshold = {case: summary(samples[case]) for case in ("apply_threshold", "count_crowds")}
    threshold["records"] = THRESHOLD_RECORDS
    threshold["kept"] = len(apply_threshold(batch, counts, policy, rng).records)
    return {
        "envelope": {case: summary(samples[case]) for case in ("seal", "open_envelope")},
        "threshold": threshold,
        "stash": {
            size: {
                "n_items": p.n_items, "num_buckets": p.num_buckets, "chunk_cap": p.chunk_cap,
                "stash_cap": p.stash_cap, "window": p.window, "item_len": p.item_len,
                "calls": len(stash_inputs[size]),
                **{row: summary(runs_us) for row, runs_us in stash_samples[size].items()},
            }
            for size, p in sizes.items()
        },
        "import": {
            "code": IMPORT_CODE, "wall": summary(import_wall),
            "max_rss": summary(import_rss, unit="mib"),
        },
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
    for size, rows in result["stash"].items():
        for row in (*STASH_PHASES, "stash_shuffle"):
            s = rows[row]
            print(
                f"{size:17} {row:13} {s['median_us']:7.3f} us/item "
                f"[{s['q1_us']:.3f}, {s['q3_us']:.3f}]"
            )
    wall, rss = result["import"]["wall"], result["import"]["max_rss"]
    print(
        f"import anonpipe.cli {wall['median_us'] / 1e3:7.1f} ms "
        f"[{wall['q1_us'] / 1e3:.1f}, {wall['q3_us'] / 1e3:.1f}], "
        f"max RSS {rss['median_mib']:.1f} MiB [{rss['q1_mib']:.1f}, {rss['q3_mib']:.1f}]"
    )
    return result


if __name__ == "__main__":
    main()
