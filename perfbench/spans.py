"""Per-layer tracing from outside the program.

The tracer replaces public functions of the program's modules with timing
wrappers for the length of one traced round and restores them afterwards;
nothing under ``src/`` is edited.  Each wrapper records calls, busy time and
self time (busy time minus the busy time of wrapped calls it made), keyed by
the stage span that was open when it ran, and may pass the call's arguments
and result to a hook that adds counts for the funnel.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, prog):
        self.prog = prog
        # (stage, span name) -> [calls, busy_s, self_s]
        self.spans: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self.current = ""  # the open stage span
        self.missing: set[str] = set()
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _close(self, name: str, busy: float, frame: list[float]) -> None:
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += busy
        rec = self.spans[(self.current, name)]
        rec[0] += 1
        rec[1] += busy
        rec[2] += busy - frame[0]

    def wrap(self, name, fn, hook=None):
        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, perf_counter() - start, frame)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    @contextmanager
    def stage(self, stage: str):
        """A stage span; wrapped calls inside it are attributed to `stage`."""
        outer, self.current = self.current, stage
        frame = [0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            self._close("stage." + stage, perf_counter() - start, frame)
            self.current = outer

    def install(self) -> None:
        for name, path, attr, hook in TARGETS:
            owner = self.prog
            for part in path.split("."):
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.add(f"{path}.{attr}")
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def by_name(self) -> dict[str, list]:
        """Span totals summed over stages."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (_, name), rec in self.spans.items():
            for i in range(3):
                out[name][i] += rec[i]
        return out

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks.get(key, value), value)


# ---------------------------------------------------------------------------
# Hooks: counts read from what the stage functions return.


def _intake(tr, args, batch):
    tr.counts["intake_ok"] += len(batch.records)
    tr.counts["intake_corrupt"] += batch.stats.get("corrupt", 0)


def _blind_stage1(tr, args, batch):
    tr.counts["blinded_invalid"] += batch.stats.get("invalid", 0)


def _apply_threshold(tr, args, batch):
    # On the blinded path the batch handed in carries the second shuffler's
    # invalid count.
    tr.counts["blinded_invalid"] += args[0].stats.get("invalid", 0)
    tr.counts["threshold_input"] += batch.stats.get("input_count", 0)
    tr.counts["threshold_kept"] += batch.stats.get("surviving_count", 0)


def _decrypt_corpus(tr, args, corpus):
    tr.counts["decrypted"] += len(corpus.records)
    tr.counts["decrypt_failed"] += corpus.failures


def _secret_share_decode(tr, args, result):
    tr.counts["decoded"] += len(result.messages)
    tr.counts["decoded_groups"] += len(set(result.messages))
    tr.counts["undecoded_groups"] += result.undecoded_groups
    tr.counts["adversarial_groups"] += result.adversarial_groups
    tr.counts["parse_failed"] += result.parse_failures


def _stash_shuffle(tr, args, res):
    params = args[1]
    tr.counts["stash_attempts"] += res.attempts
    tr.counts["stash_failed_phases"] += len(res.failed_phases)
    tr.peak("peak_over_working_set", res.peak_private_bytes / params.working_set_bytes())
    tr.peak("stash_overhead", tr.prog.stash_shuffle.analytic_overhead(params))


def _file_bytes(key):
    def hook(tr, args, result):
        tr.counts[key] += os.path.getsize(args[0])

    return hook


# (span name, owner, attribute, hook).  A function is patched where its
# caller looks it up: the module that imported it by name, or the class for
# methods.  Owners are dotted paths into the program namespace.
TARGETS = [
    ("crypto.seal", "encoder", "seal", None),
    ("crypto.open_envelope", "envelope", "open_envelope", None),
    ("crypto.open_envelope", "shuffler", "open_envelope", None),
    ("crypto.group.exp", "group.GroupParams", "exp", None),
    ("crypto.group.is_element", "group.GroupParams", "is_element", None),
    ("crypto.shamir_reconstruct", "analyzer", "shamir_reconstruct", None),
    ("crypto.deterministic_encrypt", "encoder", "deterministic_encrypt", None),
    ("crypto.deterministic_decrypt", "encoder", "deterministic_decrypt", None),
    ("encoder.secret_share_encode", "harness", "secret_share_encode", None),
    ("encoder.make_crowd_id", "harness", "make_crowd_id", None),
    ("encoder.encode_report", "harness", "encode_report", None),
    ("shuffler.intake", "shuffler", "intake", _intake),
    ("shuffler.count_crowds", "shuffler", "count_crowds", None),
    ("shuffler.apply_threshold", "shuffler", "apply_threshold", _apply_threshold),
    ("shuffler.blind_stage1", "shuffler", "blind_stage1", _blind_stage1),
    ("shuffler.blind_stage2_threshold", "shuffler", "blind_stage2_threshold", None),
    ("shuffler.shuffle_batch", "shuffler", "shuffle_batch", None),
    ("stash_shuffle.stash_shuffle", "stash_shuffle", "stash_shuffle", _stash_shuffle),
    ("stash_shuffle.ItemCipher.encrypt", "stash_shuffle.ItemCipher", "encrypt", None),
    ("stash_shuffle.ItemCipher.decrypt", "stash_shuffle.ItemCipher", "decrypt", None),
    ("stash_shuffle.shuffle_to_buckets", "stash_shuffle", "shuffle_to_buckets", None),
    ("analyzer.decrypt_corpus", "analyzer", "decrypt_corpus", _decrypt_corpus),
    ("analyzer.secret_share_decode", "analyzer", "secret_share_decode", _secret_share_decode),
    ("analyzer.histogram", "analyzer", "histogram", None),
    ("formats.write_batch", "formats", "write_batch", _file_bytes("write_bytes")),
    ("formats.read_batch", "formats", "read_batch", _file_bytes("read_bytes")),
]

SPAN_NAMES = list(dict.fromkeys(name for name, *_ in TARGETS))
