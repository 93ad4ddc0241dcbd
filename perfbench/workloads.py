"""The benchmark's workloads, one closed-loop round over a batch, and the
correctness gates.

A round drives the stage functions the pipeline ships: encode the corpus,
write the encoded batch file, then one epoch (read it, shuffle, write and
read the shuffled batch, analyze, write the histogram CSV).  On `stash` the
shuffle step is the shuffler's intake and thresholding followed by
`stash_shuffle` over the inner envelopes in place of `shuffle_batch`.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter

ZIPF_EXPONENT = 1.1


@dataclass(frozen=True)
class StashSpec:
    """Stash Shuffle parameters (N is the batch size)."""

    num_buckets: int
    chunk_cap: int
    stash_cap: int
    window: int
    # stash_shuffle calls per round; the first one's output feeds the
    # analyzer, the rest time the shuffle on the same records
    repeats: int


@dataclass(frozen=True)
class Workload:
    name: str
    batch_size: int  # reports per round; the vocabulary is as large
    crowd_mode: str
    secret_share_t: int = 0
    threshold_t: int = 20
    pad_to: int = 0
    stash: StashSpec | None = None
    # analyzer-stage calls per round; the first one's output is gated and
    # written, the rest time a stage too short to time once per round
    analyze_repeats: int = 1

    def config(self, prog, seed: int):
        return prog.harness.ScenarioConfig(
            name=self.name,
            vocab_size=self.batch_size,
            zipf_exponent=ZIPF_EXPONENT,
            n_samples=self.batch_size,
            seed=seed,
            crowd_mode=self.crowd_mode,
            secret_share_t=self.secret_share_t,
            threshold_t=self.threshold_t,
            pad_to=self.pad_to,
        )

    def expected_histogram(self, prog, corpus) -> dict[bytes, int]:
        """Corpus counts of the words the pipeline must release."""
        counts = Counter(corpus.tolist())
        if self.secret_share_t:
            # one fixed crowd passes the shuffler; the analyzer decodes
            # groups holding at least t shares
            keep = [w for w, c in counts.items() if c >= self.secret_share_t]
        elif self.crowd_mode == "fixed":
            keep = list(counts)  # the one crowd holds the whole batch
        else:
            keep = [w for w, c in counts.items() if c > self.threshold_t]
        return {prog.harness.item_word(w): counts[w] for w in keep}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hashed", batch_size=4000, crowd_mode="hashed"),
        Workload("secret", batch_size=3000, crowd_mode="fixed", secret_share_t=20),
        # the analyzer sees ~250 records per round here, ~2% of the round
        Workload("blinded", batch_size=600, crowd_mode="blinded", analyze_repeats=6),
        # pad_to=90 gives 150-byte inner envelopes, the record size the
        # shuffle's reference measurements use
        Workload(
            "stash", batch_size=4000, crowd_mode="fixed", pad_to=90,
            stash=StashSpec(num_buckets=20, chunk_cap=30, stash_cap=1200, window=4, repeats=6),
        ),
    )
}


def derive_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}|{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def make_corpus(prog, wl: Workload, seed: int, round_index: int, n: int | None = None):
    n = wl.batch_size if n is None else n
    return prog.harness.generate_zipf_corpus(
        wl.batch_size, ZIPF_EXPONENT, n, derive_seed(seed, f"corpus/{round_index}")
    )


@dataclass
class Keys:
    analyzer: object
    shuffler: object
    shuffler2: object | None


def make_keys(prog, cfg, seed: int) -> Keys:
    tape = prog.harness.RngTape(derive_seed(seed, "keys"))
    shuffler2 = None
    if cfg.two_shufflers:
        shuffler2 = prog.group.KeyPair.generate(
            prog.group.GROUPS[cfg.group_id], tape.stream("keys/shuffler2")
        )
    return Keys(
        analyzer=prog.envelope.TransportKeyPair.generate(tape.stream("keys/analyzer")),
        shuffler=prog.envelope.TransportKeyPair.generate(tape.stream("keys/shuffler1")),
        shuffler2=shuffler2,
    )


class StageClock:
    """Wall time per stage; with a tracer the stages are also trace spans.

    With a speed reference, the reference is sampled when each stage opens
    and closes, and the sampling time is left out of every stage around it.
    """

    def __init__(self, tracer=None, reference=None):
        self.tracer = tracer
        self.reference = reference
        self.seconds: dict[str, float] = {}
        self._sampling_s = 0.0

    def sample_reference(self) -> None:
        if self.reference is not None:
            start = perf_counter()
            self.reference.sample()
            self._sampling_s += perf_counter() - start

    @contextmanager
    def stage(self, name: str):
        self.sample_reference()
        span = self.tracer.stage(name) if self.tracer else nullcontext()
        start, sampled = perf_counter(), self._sampling_s
        with span:
            yield
        elapsed = perf_counter() - start - (self._sampling_s - sampled)
        self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
        self.sample_reference()


@dataclass
class RoundResult:
    seconds: dict[str, float]
    sent: int
    analyzed: int  # records into the analyzer stage
    stash_seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    gates_failed: list[str] = field(default_factory=list)


def run_round(
    prog, wl: Workload, cfg, keys: Keys, corpus, round_seed: int, workdir, clock, repeat=True
):
    """One round.  With `repeat`, the stages the workload times in repeats
    run again on the same input after the epoch; traced and warm-up rounds
    run every stage once."""
    h, fmt = prog.harness, prog.formats
    tape = h.RngTape(round_seed)
    reports_path = workdir / "reports.bin"
    shuffled_path = workdir / "shuffled.bin"

    with clock.stage("encode"):
        blobs = h.encode_corpus(
            cfg, corpus, tape, keys.analyzer.public_bytes, keys.shuffler.public_bytes,
            keys.shuffler2,
        )
    fmt.write_batch(reports_path, blobs)
    res = RoundResult(seconds=clock.seconds, sent=len(blobs), analyzed=0, attempted=len(blobs))

    with clock.stage("epoch"):
        reports = fmt.read_batch(reports_path)
        with clock.stage("shuffle"):
            if wl.stash:
                shuffled, stash_input, params = _stash_stage(
                    prog, wl, cfg, reports, tape, keys, res
                )
            else:
                out = h.shuffle_stage(cfg, reports, tape, keys.shuffler, keys.shuffler2)
                shuffled = [inner for _, inner in out.records]
                # intake corrupt and blinded invalid reports never reach the threshold
                res.failed += len(reports) - out.stats["input_count"]
        if shuffled is None:
            res.failed += len(res.gates_failed)
            return res
        fmt.write_batch(shuffled_path, shuffled)
        inner = fmt.read_batch(shuffled_path)
        res.analyzed = len(inner)
        with clock.stage("analyze"):
            hist, stats = h.analyze_stage(cfg, inner, keys.analyzer)
        (workdir / "histogram.csv").write_text(prog.analyzer.histogram_csv(hist))

    rejects = ("decrypt_failures", "parse_failures", "adversarial_groups")
    res.failed += sum(stats.get(k, 0) for k in rejects)
    if hist.bins != wl.expected_histogram(prog, corpus):
        res.gates_failed.append("histogram")
    if repeat:
        for _ in range(1, wl.analyze_repeats):
            # a stage of its own, so "analyze" stays one call per round
            with clock.stage("analyze.repeat"):
                h.analyze_stage(cfg, inner, keys.analyzer)
            res.analyzed += len(inner)
    if wl.stash:
        outputs = [shuffled]
        for i in range(1, wl.stash.repeats if repeat else 1):
            clock.sample_reference()
            outputs.append(_timed_stash(prog, stash_input, params, tape.stream(f"stash/{i}"), res))
        expected = sorted(stash_input)
        res.gates_failed += [
            "stash permutation" for out in outputs if out is not None and sorted(out) != expected
        ]
    res.failed += len(res.gates_failed)
    return res


def _stash_stage(prog, wl, cfg, reports, tape, keys, res):
    """Intake and threshold as the shuffler does, then the Stash Shuffle."""
    sh = prog.shuffler
    batch = sh.intake(reports, keys.shuffler, "epoch-0", tape.stream("shuffle1/intake"))
    out = sh.apply_threshold(
        batch, sh.count_crowds(batch), cfg.policy(), tape.stream("threshold/noise")
    )
    res.failed += len(reports) - out.stats["input_count"]
    records = [inner for _, inner in out.records]
    spec = wl.stash
    params = prog.stash_shuffle.make_params(
        len(records), spec.num_buckets, spec.chunk_cap, spec.stash_cap, spec.window,
        item_len=len(records[0]),
    )
    shuffled = _timed_stash(prog, records, params, tape.stream("stash/0"), res)
    return shuffled, records, params


def _timed_stash(prog, records, params, rng, res):
    """One timed stash_shuffle call; None when every attempt failed."""
    res.attempted += 1
    start = perf_counter()
    try:
        out = prog.stash_shuffle.stash_shuffle(records, params, rng, keep_trace=False)
    except prog.errors.ShuffleFailed:
        res.gates_failed.append("stash_shuffle failed")
        return None
    res.stash_seconds.append(perf_counter() - start)
    return out.records
