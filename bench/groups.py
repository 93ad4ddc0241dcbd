"""Per-call cost of the group layer's primitives: OpenSSL against the built-in `pow`.

Run from the root of a checkout:

    python3 bench/groups.py --runs 11 --calls 60 --out BENCH_groups.json

For each group in `GROUPS` this times the `GroupParams` methods
`is_element`, `exp`, `blind` and `unblind_decrypt` per call, once with the
libcrypto powers that `crypto/modexp.py` loads and once with the built-in
`pow` forced, as the tests force it as an oracle; the program itself has no
`pow` path, and its key `fallback` names this one.  `is_element` is a range
check that computes no power, so its two sides time the same code.  A run
times every (group, operation) on both paths back to back, and the path
that goes first alternates from run to run, so the drift of a shared host
falls on both sides alike.  The output records each side's median and
quartiles over the runs in microseconds per call, and the median over the
runs of the fallback's time over OpenSSL's.

`is_element` gets uniform integers in [1, q), about half of them members;
`exp` gets members raised to uniform scalars in [1, p), as the blinded
shuffle raises them.  `blind` (two powers) gets the bytes c1 || c2 of El
Gamal ciphertexts of hashed crowd IDs, as the first shuffler does, and
`unblind_decrypt` (one power) those ciphertexts blinded, as the second
does; both times include decoding the two halves and encoding the result.
One process, one thread.
"""

from __future__ import annotations

import random
import ssl
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from benchstats import in_turn, parse_args, per_call_us, summary, write_result  # noqa: E402

PATHS = ("openssl", "fallback")


def measure(runs: int, calls: int, seed: int) -> dict:
    from anonpipe.crypto import modexp
    from anonpipe.crypto.group import GROUPS, KeyPair

    loaded = modexp._power
    rng = random.Random(seed)
    cases = {}  # (group id, operation) -> (function, argument tuples)
    for group_id, g in sorted(GROUPS.items()):
        members = [g.exp(g.generator, g.random_scalar(rng)) for _ in range(calls)]
        cases[group_id, "is_element"] = (
            g.is_element, [(rng.randrange(1, g.modulus),) for _ in range(calls)]
        )
        cases[group_id, "exp"] = (g.exp, [(e, g.random_scalar(rng)) for e in members])
        kp, alpha = KeyPair.generate(g, rng), g.random_scalar(rng)
        cts = [
            g.elgamal_encrypt(kp.public, g.hash_to_group(b"crowd %d" % i), rng)
            for i in range(calls)
        ]
        cases[group_id, "blind"] = (g.blind, [(ct, alpha) for ct in cts])
        cases[group_id, "unblind_decrypt"] = (
            g.unblind_decrypt, [(g.blind(ct, alpha), kp.secret) for ct in cts]
        )

    modexp._load()
    functions = {"openssl": modexp._power, "fallback": pow}
    samples = {(case, path): [] for case in cases for path in PATHS}
    try:
        for run in range(runs):
            for case, (fn, inputs) in cases.items():
                for path in in_turn(run, PATHS):
                    modexp._power = functions[path]
                    samples[case, path].append(per_call_us(fn, inputs))
    finally:
        modexp._power = loaded

    groups: dict[str, dict] = {}
    for (group_id, op) in cases:
        runs = {path: samples[(group_id, op), path] for path in PATHS}
        sides = {path: summary(runs[path]) for path in PATHS}
        # per run, as each run times both paths back to back
        sides["fallback_over_openssl"] = statistics.median(
            f / o for f, o in zip(runs["fallback"], runs["openssl"])
        )
        groups.setdefault(group_id, {})[op] = sides
    native = functions["openssl"] is not pow
    return {"native": native, "groups": groups}


def main(argv=None) -> dict:
    args = parse_args(
        __doc__, "BENCH_groups.json", argv, calls=(60, "inputs per timed pass (>= 1)")
    )
    fields = {"runs": args.runs, "calls": args.calls, "seed": args.seed}
    result = write_result(
        args.out, fields | measure(args.runs, args.calls, args.seed), openssl=ssl.OPENSSL_VERSION
    )
    for group_id, ops in result["groups"].items():
        for op, sides in ops.items():
            o, f = sides["openssl"], sides["fallback"]
            print(
                f"{group_id:10} {op:16} openssl {o['median_us']:9.1f} us "
                f"[{o['q1_us']:.1f}, {o['q3_us']:.1f}]  fallback {f['median_us']:9.1f} us "
                f"[{f['q1_us']:.1f}, {f['q3_us']:.1f}]  x{sides['fallback_over_openssl']:.2f}"
            )
    return result


if __name__ == "__main__":
    main()
