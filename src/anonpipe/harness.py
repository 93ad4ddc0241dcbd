"""End-to-end scenario runner: synthetic corpora, the stages over batch files
that `run_scenario` and the CLI share, utility measurement, the local-DP baseline."""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import accumulate, repeat
from pathlib import Path

from anonpipe import analyzer as analyzer_mod
from anonpipe import formats
from anonpipe import shuffler as shuffler_mod
from anonpipe.crypto import OS_RNG
from anonpipe.crypto.envelope import MAX_PLAINTEXT, TransportKeyPair
from anonpipe.crypto.group import GROUPS, GroupParams, KeyPair
from anonpipe.encoder import (
    CROWD_KINDS,
    SHARE_FIELD,
    encode_report,
    k_ary_randomized_response,
    krr_true_prob,
    make_crowd_id,
    secret_share_encode,
    share_payload_length,
)
from anonpipe.errors import BadInput, DecryptionError
from anonpipe.parallel import map_records
from anonpipe.shuffler import Batch, ThresholdPolicy

DEFAULT_GROUP = "test-256"


class RngTape:
    """Where every random draw comes from: named streams, one per (stage,
    purpose).  Seeded, a stream is a function of the seed and its name
    (evaluation only); unseeded, every stream is the OS RNG."""

    def __init__(self, seed: int | None):
        self.seed = seed

    def stream(self, name: str) -> random.Random:
        if self.seed is None:
            return OS_RNG
        digest = hashlib.sha256(f"{self.seed}|{name}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))


# ---------------------------------------------------------------------------
# Corpora


def generate_zipf_corpus(
    vocab_size: int, exponent: float, n_samples: int, seed: int
) -> array:
    """Item ids in [1, vocab_size], item k drawn with probability ~ k^-exponent:
    `random.Random(seed).choices` over the cumulative weights, a pure function
    of the seed.  ValueError for an empty vocabulary, a non-positive or NaN
    exponent, or a negative `n_samples` or `seed`."""
    if vocab_size < 1 or not exponent > 0:
        raise ValueError("need vocab_size >= 1 and exponent > 0")
    if n_samples < 0 or seed < 0:
        raise ValueError("need n_samples >= 0 and seed >= 0")
    items = range(1, vocab_size + 1)
    cum_weights = array("d", accumulate(map(pow, items, repeat(-exponent))))
    return array("q", random.Random(seed).choices(items, cum_weights=cum_weights, k=n_samples))


def save_corpus(path: str | Path, items: array) -> None:
    _out_file(path).write_text("\n".join(str(int(v)) for v in items) + "\n")


def load_corpus(path: str | Path, vocab_size: int) -> array:
    """A corpus file's items, one per line; BadInput names the first line
    that is not an integer in [1, vocab_size], or says the file is not text."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise BadInput(f"not a text file ({exc})") from exc
    items = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            item = int(line)
        except ValueError:
            item = 0  # never an item
        if not 1 <= item <= vocab_size:
            raise BadInput(
                f"line {lineno}: {line.strip()!r} is not an item in [1, {vocab_size}]"
            )
        items.append(item)
    return array("q", items)


def item_word(item: int) -> bytes:
    return b"w%d" % item


def _out_file(path: str | Path) -> Path:
    """`path`, once its directory exists."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return Path(path)


# ---------------------------------------------------------------------------
# Scenario configuration


@dataclass
class ScenarioConfig:
    name: str = "scenario"
    vocab_size: int = 100_000
    zipf_exponent: float = 1.1
    n_samples: int = 100_000
    seed: int = 0
    crowd_mode: str = "hashed"  # plain | hashed | fixed | blinded
    secret_share_t: int = 0  # 0: payloads are the words themselves
    threshold_t: int = 20
    drop_mean: float = 0.0
    sigma: float = 0.0
    pad_to: int = 0  # 0: derived from the group and share parameters
    group_id: str = DEFAULT_GROUP

    def __post_init__(self):
        """Every rule a config meets, built from text or in code."""
        for key, ok, rule in (
            ("group_id", self.group_id in GROUPS, f"one of {', '.join(GROUPS)}"),
            ("crowd_mode", self.crowd_mode in CROWD_KINDS, f"one of {', '.join(CROWD_KINDS)}"),
            ("vocab_size", self.vocab_size >= 1, "at least 1"),
            ("n_samples", self.n_samples >= 1, "at least 1"),
            ("zipf_exponent", self.zipf_exponent > 0, "positive"),
            ("secret_share_t", self.secret_share_t >= 0, "at least 0"),
            ("pad_to", self.pad_to >= 0, "at least 0"),
            ("seed", self.seed >= 0, "at least 0"),
        ):
            if not ok:
                raise ValueError(f"{key} must be {rule}, not {getattr(self, key)!r}")
        if self.pad_to:
            # from the largest payload's needs to an outer plaintext one envelope holds
            lo = derived_pad_to(replace(self, pad_to=0))
            hi = MAX_PLAINTEXT - formats.outer_plaintext_length(
                CROWD_KINDS[self.crowd_mode], 0, GROUPS[self.group_id]
            )
            if not lo <= self.pad_to <= hi:
                raise ValueError(f"pad_to must be 0 or from {lo} to {hi}, not {self.pad_to!r}")
        self.policy()

    @property
    def two_shufflers(self) -> bool:
        return self.crowd_mode == "blinded"

    def corpus(self) -> array:
        """The synthetic corpus of `run` and `generate`."""
        return generate_zipf_corpus(self.vocab_size, self.zipf_exponent, self.n_samples, self.seed)

    def policy(self) -> ThresholdPolicy:
        return ThresholdPolicy(self.threshold_t, self.drop_mean, self.sigma)

    def to_text(self) -> str:
        return "".join(f"{f.name} = {getattr(self, f.name)}\n" for f in fields(self))

    @classmethod
    def from_text(cls, text: str) -> "ScenarioConfig":
        casts = {f.name: type(f.default) for f in fields(cls)}
        kw = {}
        for line in text.splitlines():
            line = line.partition("#")[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in casts:
                raise ValueError(f"unknown config key {key!r}")
            if key in kw:
                raise ValueError(f"config key {key!r} is set more than once")
            try:
                kw[key] = casts[key](value)
            except ValueError:
                raise ValueError(
                    f"{key} must be of type {casts[key].__name__}, not {value!r}"
                ) from None
        return cls(**kw)


def derived_pad_to(config: ScenarioConfig) -> int:
    if config.pad_to:
        return config.pad_to
    payload = len(item_word(config.vocab_size))
    if config.secret_share_t:
        payload = share_payload_length(SHARE_FIELD, payload)
    return formats.padded_length(payload)


# ---------------------------------------------------------------------------
# Utility report


@dataclass
class UtilityReport:
    name: str
    ground_truth_unique: int
    stage_counts: dict = field(default_factory=dict)
    stage_seconds: dict = field(default_factory=dict)
    recovered_values: set = field(default_factory=set, repr=False)

    @property
    def recovered_unique(self) -> int:
        return len(self.recovered_values)

    @property
    def recovery_ratio(self) -> float:
        return self.recovered_unique / self.ground_truth_unique if self.ground_truth_unique else 0.0

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "ground_truth_unique": self.ground_truth_unique,
                "recovered_unique": self.recovered_unique,
                "recovery_ratio": self.recovery_ratio,
                "stage_counts": self.stage_counts,
                "stage_seconds": {k: round(v, 4) for k, v in self.stage_seconds.items()},
            },
            indent=2,
        )

    def table(self) -> str:
        rows = [
            ("ground-truth unique", self.ground_truth_unique),
            ("recovered unique", self.recovered_unique),
            ("recovery ratio", f"{self.recovery_ratio:.4f}"),
        ]
        rows += [(f"count[{k}]", v) for k, v in self.stage_counts.items()]
        rows += [(f"wall[{k}]", f"{v:.2f}s") for k, v in self.stage_seconds.items()]
        width = max(len(r[0]) for r in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


# ---------------------------------------------------------------------------
# Key material


@dataclass(frozen=True)
class PipelineKeys:
    """Every party's keys: the analyzer's and the first shuffler's transport
    keys, the second shuffler's El Gamal key, the first shuffler's blinding
    exponent and the clients' crowd-hash key, with the seed they were
    derived from (None: drawn from the OS RNG).  The stage commands draw
    from `RngTape(seed)`, so they are seeded exactly when the keys are."""

    analyzer: TransportKeyPair
    shuffler: TransportKeyPair
    shuffler2: KeyPair
    blinding: int
    crowd_hash: bytes
    seed: int | None

    def to_json(self) -> str:
        return json.dumps(
            {
                "analyzer_secret": self.analyzer.secret_bytes.hex(),
                "analyzer_public": self.analyzer.public_bytes.hex(),
                "shuffler1_secret": self.shuffler.secret_bytes.hex(),
                "shuffler1_public": self.shuffler.public_bytes.hex(),
                "shuffler2_secret": f"{self.shuffler2.secret:x}",
                "shuffler2_public": f"{self.shuffler2.public:x}",
                "blinding_alpha": f"{self.blinding:x}",
                "crowd_hash": self.crowd_hash.hex(),
                "seed": self.seed,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str, group: GroupParams) -> "PipelineKeys":
        """Keys in the config's `group`; keys made in another fail a check below."""
        keys = json.loads(text)

        def transport(who: str) -> TransportKeyPair:
            return TransportKeyPair(
                secret_bytes=bytes.fromhex(keys[f"{who}_secret"]),
                public_bytes=bytes.fromhex(keys[f"{who}_public"]),
            )

        def scalar(name: str) -> int:
            # 0 makes every pseudonym 1 (alpha) or every c2 the clear crowd ID (x2)
            v = int(keys[name], 16)
            if not 1 <= v < group.order_p:
                raise ValueError(f"{name} is outside [1, p-1] for {group.group_id}")
            return v

        seed = keys["seed"]
        if seed is not None and type(seed) is not int:  # nor a bool
            raise ValueError(f"seed must be null or an integer, not {seed!r}")
        crowd_hash = bytes.fromhex(keys["crowd_hash"])
        if len(crowd_hash) != CROWD_HASH_BYTES:
            raise ValueError(f"crowd_hash is {len(crowd_hash)} bytes, not {CROWD_HASH_BYTES}")
        x2 = scalar("shuffler2_secret")
        # g^x2 is a group member, so this also rejects every non-member
        h = int(keys["shuffler2_public"], 16)
        if h != group.exp(group.generator, x2):
            raise ValueError(f"shuffler2_public is not g^shuffler2_secret in {group.group_id}")
        return cls(
            analyzer=transport("analyzer"),
            shuffler=transport("shuffler1"),
            shuffler2=KeyPair(secret=x2, public=h),
            blinding=scalar("blinding_alpha"),
            crowd_hash=crowd_hash,
            seed=seed,
        )


def derive_keys(group_id: str, tape: RngTape) -> PipelineKeys:
    """All key material, drawn from `tape`: a seeded tape makes every key a
    function of its seed (evaluation only)."""
    group = GROUPS[group_id]
    return PipelineKeys(
        analyzer=TransportKeyPair.generate(tape.stream("keys/analyzer")),
        shuffler=TransportKeyPair.generate(tape.stream("keys/shuffler1")),
        shuffler2=KeyPair.generate(group, tape.stream("keys/shuffler2")),
        blinding=_blinding_secret(group, tape),
        crowd_hash=_crowd_hash_key(tape),
        seed=tape.seed,
    )


CROWD_HASH_BYTES = 16  # the clients' crowd-hash key: no shuffler can enumerate it


def _crowd_hash_key(tape: RngTape) -> bytes:
    return tape.stream("keys/crowd-hash").randbytes(CROWD_HASH_BYTES)


def _blinding_secret(group: GroupParams, tape: RngTape) -> int:
    return group.random_scalar(tape.stream("shuffle1/blind"))


# ---------------------------------------------------------------------------
# Stages in memory, then over files for run_scenario and the CLI: each of those
# reads its whole input file before it writes anything, and returns its counts


def encode_corpus(
    config: ScenarioConfig,
    corpus: array,
    tape: RngTape,
    analyzer_public: bytes,
    shuffler_public: bytes,
    shuffler2_keypair: KeyPair | None = None,
    *,
    hash_key: bytes | None = None,
) -> list[bytes]:
    """One wire report per corpus item, whose word (`item_word`) is both the
    value and its crowd key.

    Report i draws its share and seal randomness from the stream
    `encode/{i}` and a blinded crowd ID's from `encode/crowd/{i}`, so the
    output does not depend on the CPU count.  Without `hash_key` (the
    keys' `crowd_hash`), the crowd-hash key is drawn from `tape` as
    `derive_keys` draws it."""
    if hash_key is None:
        hash_key = _crowd_hash_key(tape)
    s2_public = shuffler2_keypair.public if shuffler2_keypair else None
    encode_one = partial(
        _encode_one, config, tape, analyzer_public, shuffler_public, s2_public, hash_key,
        derived_pad_to(config),
    )
    return map_records(encode_one, [(i, item_word(int(item))) for i, item in enumerate(corpus)])


def _encode_one(
    config: ScenarioConfig,
    tape: RngTape,
    analyzer_public: bytes,
    shuffler_public: bytes,
    s2_public: int | None,
    hash_key: bytes,
    pad_to: int,
    item: tuple[int, bytes],
) -> bytes:
    """Report `i` of `encode_corpus`, for `item` = (i, word)."""
    i, word = item
    rng = tape.stream(f"encode/{i}")
    if config.secret_share_t:
        payload = secret_share_encode(word, config.secret_share_t, SHARE_FIELD, rng)
    else:
        payload = word
    crowd = make_crowd_id(
        word,
        config.crowd_mode,
        hash_key=hash_key,
        group=GROUPS[config.group_id],
        shuffler2_public=s2_public,
        rng=tape.stream(f"encode/crowd/{i}") if config.two_shufflers else None,
    )
    kind = CROWD_KINDS[config.crowd_mode]
    return encode_report(payload, kind, crowd, analyzer_public, shuffler_public, pad_to, rng)


def first_shuffler_stage(
    config: ScenarioConfig,
    report_blobs: list[bytes],
    tape: RngTape,
    shuffler_keypair: TransportKeyPair,
    blinding: int | None,
) -> Batch:
    """Intake, then either blind the crowd IDs for the second shuffler or
    threshold into the final inner-envelope batch; either way the output is
    reordered by the Stash Shuffle."""
    group = GROUPS[config.group_id]
    kind = CROWD_KINDS[config.crowd_mode]
    batch = shuffler_mod.intake(
        report_blobs, shuffler_keypair, EPOCH, tape.stream("shuffle1/intake"), group,
        kind=kind, report_len=formats.report_length(kind, derived_pad_to(config), group),
    )
    if config.two_shufflers:
        out = shuffler_mod.blind_stage1(batch, group, blinding)
    else:
        out = shuffler_mod.apply_threshold(
            batch, shuffler_mod.count_crowds(batch), config.policy(),
            tape.stream("threshold/noise"),
        )
    return shuffler_mod.shuffle_batch(out, tape.stream("shuffle1/output-order"))


def second_shuffler_stage(
    config: ScenarioConfig, batch: Batch, tape: RngTape, shuffler2_keypair: KeyPair
) -> Batch:
    """Threshold on unblinded pseudonyms, then reorder into the final batch."""
    out = shuffler_mod.blind_stage2_threshold(
        batch, GROUPS[config.group_id], shuffler2_keypair, config.policy(),
        tape.stream("threshold/noise"),
    )
    return shuffler_mod.shuffle_batch(out, tape.stream("shuffle2/output-order"))


def shuffle_stage(
    config: ScenarioConfig,
    report_blobs: list[bytes],
    tape: RngTape,
    shuffler_keypair: TransportKeyPair,
    shuffler2_keypair: KeyPair | None,
) -> Batch:
    """Every shuffler stage the config needs, with the blinding exponent
    drawn from `tape` as `derive_keys` draws it."""
    if not config.two_shufflers:
        return first_shuffler_stage(config, report_blobs, tape, shuffler_keypair, None)
    blinding = _blinding_secret(GROUPS[config.group_id], tape)
    staged = first_shuffler_stage(config, report_blobs, tape, shuffler_keypair, blinding)
    return second_shuffler_stage(config, staged, tape, shuffler2_keypair)


def analyze_stage(
    config: ScenarioConfig, inner_blobs: list[bytes], analyzer_keypair: TransportKeyPair
) -> tuple[analyzer_mod.Histogram, dict]:
    corpus = analyzer_mod.decrypt_corpus(inner_blobs, analyzer_keypair)
    stats = {"decrypt_failures": corpus.failures}
    if config.secret_share_t:
        decoded = analyzer_mod.secret_share_decode(
            corpus.records, config.secret_share_t, SHARE_FIELD
        )
        stats.update(
            undecoded_groups=decoded.undecoded_groups,
            adversarial_groups=decoded.adversarial_groups,
            parse_failures=decoded.parse_failures,
        )
        values = decoded.messages
    else:
        values = corpus.records
    return analyzer_mod.histogram(values), stats


def _read_batch(path: str | Path) -> list[bytes]:
    try:
        return formats.read_batch(path)
    except DecryptionError as exc:
        raise BadInput(f"not a batch file ({exc})") from exc


def encode_file(config: ScenarioConfig, keys: PipelineKeys, src, out) -> int:
    """A corpus file as a batch file of wire reports."""
    blobs = encode_corpus(
        config, load_corpus(src, config.vocab_size), RngTape(keys.seed),
        keys.analyzer.public_bytes, keys.shuffler.public_bytes, keys.shuffler2,
        hash_key=keys.crowd_hash,
    )
    formats.write_batch(_out_file(out), blobs)
    return len(blobs)


EPOCH = "epoch-0"  # the epoch of every batch a run makes


def shuffle_file(config: ScenarioConfig, keys: PipelineKeys, src, out) -> int:
    """A batch file of reports as a single shuffler's final batch, or as the
    blinded intermediate batch: crowd ID || inner envelope per record."""
    batch = first_shuffler_stage(
        config, _read_batch(src), RngTape(keys.seed), keys.shuffler, keys.blinding
    )
    if not config.two_shufflers:
        return _write_final_batch(out, batch)
    formats.write_batch(_out_file(out), [crowd + inner for crowd, inner in batch.records])
    return len(batch.records)


def shuffle2_file(config: ScenarioConfig, keys: PipelineKeys, src, out) -> int:
    """The blinded intermediate batch as the second shuffler's final batch."""
    width = formats.crowd_id_width(formats.KIND_BLINDED, GROUPS[config.group_id])
    records = [(blob[:width], blob[width:]) for blob in _read_batch(src)]
    batch = second_shuffler_stage(
        config, Batch(epoch_id=EPOCH, records=records), RngTape(keys.seed), keys.shuffler2
    )
    return _write_final_batch(out, batch)


def _write_final_batch(out, batch: Batch) -> int:
    """The inner envelopes, and the shuffler's one disclosed statistic beside them."""
    formats.write_batch(_out_file(out), [inner for _, inner in batch.records])
    selectivity = json.dumps(shuffler_mod.selectivity_record(batch))
    Path(out).with_name("selectivity.json").write_text(selectivity + "\n")
    return len(batch.records)


def analyze_file(config: ScenarioConfig, keys: PipelineKeys, src, out_dir):
    """A final batch file as `histogram.csv` and `analyzer_stats.json` in `out_dir`."""
    hist, stats = analyze_stage(config, _read_batch(src), keys.analyzer)
    _out_file(Path(out_dir) / "histogram.csv").write_text(analyzer_mod.histogram_csv(hist))
    (Path(out_dir) / "analyzer_stats.json").write_text(json.dumps(stats) + "\n")
    return hist, stats


def run_scenario(config: ScenarioConfig, workspace: str | Path) -> UtilityReport:
    """The stages over files in sequence in `workspace`, under the config seed's keys."""
    workspace = Path(workspace)
    timings: dict[str, float] = {}
    counts: dict[str, int] = {}

    def timed(stage: str, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        timings[stage] = time.perf_counter() - start
        return result

    corpus_txt, reports, blinded, shuffled = (
        workspace / name for name in ("corpus.txt", "reports.bin", "blinded.bin", "shuffled.bin")
    )
    corpus = timed("generate", config.corpus)
    save_corpus(corpus_txt, corpus)
    counts["corpus"] = len(corpus)

    keys = derive_keys(config.group_id, RngTape(config.seed))
    counts["reports"] = timed("encode", encode_file, config, keys, corpus_txt, reports)
    if config.two_shufflers:
        timed("shuffle", shuffle_file, config, keys, reports, blinded)
        counts["surviving"] = timed("shuffle2", shuffle2_file, config, keys, blinded, shuffled)
    else:
        blinded.unlink(missing_ok=True)  # an earlier blinded run's, not this run's
        counts["surviving"] = timed("shuffle", shuffle_file, config, keys, reports, shuffled)
    hist, _ = timed("analyze", analyze_file, config, keys, shuffled, workspace)
    counts["recovered_records"] = hist.total

    report = UtilityReport(
        name=config.name,
        ground_truth_unique=len(set(corpus.tolist())),
        stage_counts=counts,
        stage_seconds=timings,
        recovered_values=set(hist.bins),
    )
    (workspace / "utility.json").write_text(report.to_json() + "\n")
    return report


# ---------------------------------------------------------------------------
# Local-DP baseline

BASELINE_ALPHA = 0.05  # the decoder's significance level over the whole vocabulary


@dataclass
class BaselineReport:
    recovered_values: set

    @property
    def recovered_unique(self) -> int:
        return len(self.recovered_values)


def _poisson_detection_count(lam: float, bins: int, alpha: float) -> int:
    """Smallest observed count m with bins * P[Poisson(lam) >= m] <= alpha."""
    budget = alpha / max(bins, 1)
    pmf = math.exp(-lam)
    cdf = pmf
    m = 0
    while 1.0 - cdf > budget and m < 10_000_000:
        m += 1
        pmf *= lam / m
        cdf += pmf
    return m + 1


def local_dp_baseline(
    corpus: array,
    vocab_size: int,
    epsilon: float,
    rng,
) -> BaselineReport:
    """k-ary randomized response with a frequency-estimation decoder.

    An item counts as recovered when its observed count clears a Poisson
    tail test on the all-noise null, with the significance level
    BASELINE_ALPHA spread over the whole vocabulary (so false positives are
    rare even for very large domains).
    """
    n = len(corpus)
    observed = Counter(
        k_ary_randomized_response(int(item) - 1, vocab_size, epsilon, rng)
        for item in corpus
    )
    p = krr_true_prob(vocab_size, epsilon)
    q = (1.0 - p) / (vocab_size - 1) if vocab_size > 1 else 0.0
    cutoff = _poisson_detection_count(n * q, vocab_size, BASELINE_ALPHA)
    recovered = {value + 1 for value, obs in observed.items() if obs >= cutoff}
    return BaselineReport(recovered_values=recovered)
