"""Benchmark of the anonpipe encode -> shuffle -> analyze pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hashed --seed 1 --seconds 25 --trace 0

One process and one thread.  The batch is processed in a closed loop: a
round encodes one batch of the workload's fixed size and runs one epoch
over it, and the next round starts when the previous one has ended.  Each
round draws its own corpus from the seed.  Rounds repeat until `--seconds`
is used up, and every figure is taken over all rounds.  Times are reported
in nominal seconds: scaled by the speed reference sampled between stages of
the untraced rounds (see reference.py); the unscaled figures are printed in
the info line.

With `--trace 0` the last line of stdout carries the end-to-end metrics.
With `--trace 1` each round is run twice on the same input, untraced and
then traced, and the last line carries the per-layer metrics: spans around
the program's public functions (see spans.py), a crypto primitive probe,
the count funnel, and the tracing overhead per stage.  The metric names and
units are the ones declared in BENCHMARK.json at the checkout root.  A line
before the result records the machine and the inputs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import shutil
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import spans
import workloads as wls
from reference import SpeedReference

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
WARMUP_REPORTS = 32
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
STAGES = ("encode", "shuffle", "analyze", "epoch")
LEAF_STAGES = ("encode", "shuffle", "analyze")
PROGRAM_MODULES = {
    "harness": "anonpipe.harness",
    "formats": "anonpipe.formats",
    "encoder": "anonpipe.encoder",
    "shuffler": "anonpipe.shuffler",
    "analyzer": "anonpipe.analyzer",
    "stash_shuffle": "anonpipe.stash_shuffle",
    "envelope": "anonpipe.crypto.envelope",
    "group": "anonpipe.crypto.group",
    "errors": "anonpipe.errors",
}


class Program:
    """The program's modules, imported from the checkout's `src/`."""

    def __init__(self):
        src = ROOT / "src"
        if not (src / "anonpipe").is_dir():
            raise ImportError(f"no anonpipe sources under {src}")
        sys.path.insert(0, str(src))
        for attr, module in PROGRAM_MODULES.items():
            setattr(self, attr, importlib.import_module(module))


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


# ---------------------------------------------------------------------------
# Crypto primitive probe (traced run only)


def crypto_probe(prog, seed: int) -> tuple[dict[str, float], float]:
    """Time per call of the primitives the stages are built from, in
    nominal microseconds, and the time scale of the probe's own speed
    reference, sampled between its batches."""
    rng = random.Random(wls.derive_seed(seed, "probe"))
    ref = SpeedReference()
    env = prog.envelope
    kp = env.TransportKeyPair.generate(rng)
    msgs = [(kp.public_bytes, rng.randbytes(100), rng) for _ in range(50)]
    sealed = [(kp, env.seal(*m)) for m in msgs]
    cases = {
        "crypto.probe.seal_us": (env.seal, msgs, 8),
        "crypto.probe.open_us": (env.open_envelope, sealed, 8),
    }
    for group_id, per_batch, batches in (("test-256", 40, 8), ("modp-2048", 3, 3)):
        g = prog.group.GROUPS[group_id]
        elems = [g.exp(g.generator, g.random_scalar(rng)) for _ in range(per_batch)]
        cases[f"crypto.probe.exp_us.{group_id}"] = (
            g.exp, [(e, g.random_scalar(rng)) for e in elems], batches
        )
        cases[f"crypto.probe.is_element_us.{group_id}"] = (
            g.is_element, [(e,) for e in elems], batches
        )
    busy = {}
    for name, (fn, args_list, batches) in cases.items():
        busy[name] = 0.0
        for _ in range(batches):
            ref.sample()
            start = perf_counter()
            for args in args_list:
                fn(*args)
            busy[name] += perf_counter() - start
        ref.sample()
    scale = ref.time_scale()
    return {
        name: busy[name] * scale / (len(args_list) * batches) * 1e6
        for name, (_, args_list, batches) in cases.items()
    }, scale


# ---------------------------------------------------------------------------
# Per-layer figures of one traced round


def traced_round_metrics(wl, tracer, traced, untraced) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced round and its untraced twin, plus the
    trace consistency problems found."""
    m: dict[str, float] = {}
    by_name = tracer.by_name()
    for name in spans.SPAN_NAMES:
        calls, busy, own = by_name.get(name, (0, 0.0, 0.0))
        m[f"{name}.calls"] = calls
        m[f"{name}.busy_s"] = busy
        m[f"{name}.self_s"] = own

    c = tracer.counts
    decoded = c["decoded"] if wl.secret_share_t else c["decrypted"]
    m.update({
        "shuffler.apply_threshold.input_records": c["threshold_input"],
        "shuffler.apply_threshold.kept_frac": (
            c["threshold_kept"] / c["threshold_input"] if c["threshold_input"] else 0.0
        ),
        "stash_shuffle.attempts": c["stash_attempts"],
        "stash_shuffle.failed_phases": c["stash_failed_phases"],
        "stash_shuffle.peak_over_working_set": tracer.peaks.get("peak_over_working_set", 0.0),
        "stash_shuffle.overhead": tracer.peaks.get("stash_overhead", 0.0),
        "analyzer.secret_share_decode.decoded_groups": c["decoded_groups"],
        "analyzer.secret_share_decode.undecoded_groups": c["undecoded_groups"],
        "analyzer.secret_share_decode.adversarial_groups": c["adversarial_groups"],
        "formats.write_batch.bytes": c["write_bytes"],
        "formats.read_batch.bytes": c["read_bytes"],
        "funnel.sent": traced.sent,
        "funnel.intake_corrupt": c["intake_corrupt"],
        "funnel.blinded_invalid": c["blinded_invalid"],
        "funnel.thresholded_away": c["threshold_input"] - c["threshold_kept"],
        "funnel.decrypt_failed": c["decrypt_failed"],
        "funnel.decrypted": c["decrypted"],
        "funnel.decoded": decoded,
    })
    # Each boundary is checked with the counts of the stages on both sides
    # of it, so a count lost between stages shows as a mismatch.
    m["funnel.mismatch"] = (
        abs(traced.sent - c["intake_ok"] - c["intake_corrupt"])
        + abs(c["intake_ok"] - c["threshold_input"] - c["blinded_invalid"])
        + abs(c["threshold_kept"] - traced.analyzed)
        + abs(traced.analyzed - c["decrypted"] - c["decrypt_failed"])
        + max(0, decoded + c["parse_failed"] - c["decrypted"])
    )

    problems = []
    for stage in STAGES:
        busy = traced.seconds.get(stage, 0.0)
        m[f"stage.{stage}.busy_s"] = busy
        m[f"stage.{stage}.untraced_s"] = untraced.seconds.get(stage, 0.0)
        m[f"stage.{stage}.overhead_s"] = busy - untraced.seconds.get(stage, 0.0)
        m[f"stage.{stage}.self_s"] = tracer.spans.get((stage, "stage." + stage), (0, 0.0, 0.0))[2]
    for stage in LEAF_STAGES:
        # self times of the stage span and every wrapped call under it add
        # up to the stage's busy time; wrapped self times never exceed it
        busy = tracer.spans.get((stage, "stage." + stage), (0, 0.0, 0.0))[1]
        self_sum = sum(rec[2] for (st, _), rec in tracer.spans.items() if st == stage)
        if abs(self_sum - busy) > 1e-6 or m[f"stage.{stage}.self_s"] < -1e-9:
            problems.append(f"trace self-sum {stage}")
    return m, problems


# ---------------------------------------------------------------------------


def machine_info(prog, args, wl) -> dict:
    import cryptography
    import numpy

    info = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "batch_size": wl.batch_size,
        "analyze_repeats": wl.analyze_repeats,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "numpy": numpy.__version__,
    }
    if wl.stash:
        s = wl.stash
        info["stash"] = {
            "n_items": wl.batch_size, "num_buckets": s.num_buckets, "chunk_cap": s.chunk_cap,
            "stash_cap": s.stash_cap, "window": s.window, "repeats": s.repeats,
        }
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wls.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = wls.WORKLOADS[args.workload]

    start = perf_counter()
    try:
        prog = Program()
        e2e_units, layer_units = declared_metrics()
    except (ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - start

    workdir = ROOT / ".perfbench_work" / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(prog, args, wl, workdir, import_s, e2e_units, layer_units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def run(prog, args, wl, workdir, import_s, e2e_units, layer_units) -> int:
    cfg = wl.config(prog, args.seed)
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        corpus0 = wls.make_corpus(prog, wl, args.seed, 0)
        keys = wls.make_keys(prog, cfg, args.seed)
        setup_samples.append(perf_counter() - t0)
    # First calls pay for lazy initialisation; that belongs to set-up.
    t0 = perf_counter()
    warm = wls.run_round(
        prog, wl, cfg, keys, wls.make_corpus(prog, wl, args.seed, -1, WARMUP_REPORTS),
        wls.derive_seed(args.seed, "warmup"), workdir, wls.StageClock(), repeat=False,
    )
    setup_s = import_s + median(setup_samples) + perf_counter() - t0

    ref = SpeedReference()
    rounds, traced_metrics = [], []
    attempted, failed = warm.attempted, warm.failed
    problems = list(warm.gates_failed)
    if args.trace:
        probe, probe_scale = crypto_probe(prog, args.seed)
    missing_spans = []
    loop_start, durations, r = perf_counter(), [], 0
    while True:
        t0 = perf_counter()
        corpus = corpus0 if r == 0 else wls.make_corpus(prog, wl, args.seed, r)
        round_seed = wls.derive_seed(args.seed, f"round/{r}")
        plain = wls.run_round(
            prog, wl, cfg, keys, corpus, round_seed, workdir, wls.StageClock(reference=ref)
        )
        done = [plain]
        if args.trace:
            # no reference samples here: they would land inside the spans
            tracer = spans.Tracer(prog)
            tracer.install()
            try:
                traced = wls.run_round(
                    prog, wl, cfg, keys, corpus, round_seed, workdir, wls.StageClock(tracer),
                    repeat=False,
                )
            finally:
                tracer.uninstall()
            m, trace_problems = traced_round_metrics(wl, tracer, traced, plain)
            traced_metrics.append(m)
            problems += trace_problems
            missing_spans = sorted(tracer.missing)
            done.append(traced)
        for res in done:
            attempted += res.attempted
            failed += res.failed
            problems += res.gates_failed
        rounds.append(plain)
        durations.append(perf_counter() - t0)
        r += 1
        enough = r >= (MIN_TRACED_ROUNDS if args.trace else MIN_ROUNDS)
        if enough and perf_counter() - loop_start + median(durations) > args.seconds:
            break

    scale = ref.time_scale()
    if args.trace:
        metrics = {}
        for name in traced_metrics[0]:
            if layer_units.get(name) == "s":
                metrics[name] = median(m[name] for m in traced_metrics)
            else:
                # counts come from the first traced round, whose input
                # depends on the seed alone
                metrics[name] = traced_metrics[0][name]
        raw = {name: v for name, v in metrics.items() if layer_units.get(name) == "s"}
        metrics.update((name, v * scale) for name, v in raw.items())
        metrics.update(probe, reject_frac=failed / attempted)
        units = layer_units
    else:
        n = wl.batch_size
        # a round whose shuffle failed has no analyze time; it is already
        # counted in `failed` and `problems`
        rounds = [res for res in rounds if "analyze" in res.seconds] or rounds
        # Totals over rounds, not medians of per-round rates: the host flips
        # between a fast and a slow state several times a second, so a short
        # stage's per-round time is bimodal and its median jumps between the
        # two states, while the total averages over them as the reference does.
        def total(*keys):
            return sum(res.seconds.get(key, 0.0) for res in rounds for key in keys)

        sent = n * len(rounds)
        stash_s = sum(t for res in rounds for t in res.stash_seconds)
        raw = {
            "setup_s": setup_s,
            "encode_rps": sent / total("encode"),
            "shuffle_rps": (
                n * sum(len(res.stash_seconds) for res in rounds) / stash_s
                if wl.stash else sent / total("shuffle")
            ),
            "analyze_rps": (
                sum(res.analyzed for res in rounds) / total("analyze", "analyze.repeat")
            ),
            "epoch_s": total("epoch") / len(rounds),
        }
        metrics = {
            name: value * scale if name.endswith("_s") else value / scale
            for name, value in raw.items()
        }
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = e2e_units
    if set(metrics) != set(units):
        print(f"perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 3

    info = machine_info(prog, args, wl)
    info.update(
        rounds=len(rounds),
        problems=problems,
        speed_reference={"samples": len(ref.samples), "time_scale": scale},
        probe_time_scale=probe_scale if args.trace else None,
        # wrapped functions the program no longer has; their spans read 0
        missing_spans=missing_spans,
        unscaled=raw,
    )
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
