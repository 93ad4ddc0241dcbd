"""Order-preserving map of a per-record function over this process's CPUs.

Reports are sealed, opened and blinded independently of each other, so a
stage can split its records into chunks and compute them in forked children.
Children inherit the function and the records, so closures are fine and
nothing is pickled on the way in; each child pickles its chunk's results (or
its exception) back over its own pipe and leaves through `os._exit`, which
runs no exit handlers and flushes no inherited stdio buffers.  A stage that
reads another party's batch checks its records through `map_checked`, which
drops exact repeats and counts them with the records that fail their check:
copies of one record must not make a crowd."""

from __future__ import annotations

import os
import pickle
import signal
import threading

from anonpipe.errors import AuthenticationError, DecryptionError, InvalidPoint

MIN_PER_WORKER = 256


def usable_cpus() -> int:
    """CPUs in this process's affinity mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_records(fn, items) -> list:
    """`[fn(x) for x in items]`, with the work split over the usable CPUs.

    Runs in-process for small inputs, where `os.fork` is missing, and while
    another thread is alive (forking a threaded process is unsafe)."""
    n = min(usable_cpus(), len(items) // MIN_PER_WORKER)
    if n < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(x) for x in items]
    bounds = [len(items) * i // n for i in range(n + 1)]
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    finished = False
    try:
        for i in range(1, n):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:  # child: compute chunk i, report it, leave
                try:
                    os.close(r)
                    try:
                        msg = ("ok", [fn(x) for x in items[bounds[i] : bounds[i + 1]]])
                        data = pickle.dumps(msg, pickle.HIGHEST_PROTOCOL)
                    except BaseException as exc:  # noqa: BLE001 - handed to the parent
                        data = pickle.dumps(("err", exc), pickle.HIGHEST_PROTOCOL)
                    with open(w, "wb") as pipe:
                        pipe.write(data)
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, r))
        results = [fn(x) for x in items[: bounds[1]]]
        for _, r in children:
            with open(r, "rb", closefd=False) as pipe:
                try:
                    status, value = pickle.load(pipe)
                except EOFError:
                    raise RuntimeError("a map_records worker exited without a result") from None
            if status == "err":
                raise value
            results.extend(value)
        finished = True
        return results
    finally:
        for pid, r in children:
            os.close(r)
            if not finished:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            os.waitpid(pid, 0)


def map_checked(fn, items) -> tuple[list, int]:
    """`fn`'s results over the distinct `items`, in order of first appearance,
    through `map_records`, less those on which it raised a malformed record's
    error; and how many of `items` gave no result, repeats included."""

    def checked(item):
        try:
            return (fn(item),)
        except (AuthenticationError, DecryptionError, InvalidPoint):
            return ()

    results = [r for out in map_records(checked, list(dict.fromkeys(items))) for r in out]
    return results, len(items) - len(results)
