"""Order-preserving map of a per-record function over this process's CPUs.

Reports are sealed, opened and blinded independently of each other, so a
stage can split its records into chunks and compute them in worker
processes that live as long as the process does.

When workers start: the first map that splits forks `usable_cpus() - 1`
workers, and every later map reuses them.  What they hold: a worker is a
fork of its owner at that moment (modules, keys and any patches included)
and holds one pipe end from its owner and one to it, and no other worker's.
A map sends each worker it uses its chunk and the function, pickled, so the
function is a module-level function or a `functools.partial` of one over
arguments that pickle; the owner computes the first chunk itself, then reads
each worker's results (or its exception) back in chunk order.  When they
stop: the owner kills them, busy or idle, and reaps them all at interpreter
exit (`atexit`), on any error, a worker's EOF or an interrupt during a map,
and when the wanted worker count changes.  If the owner dies without that,
every worker reads EOF and leaves through `os._exit`.  A process forked from
the owner drops its copies of the pipe ends without touching the workers,
and starts its own pool if it maps.  A map called from inside a map's
function, in a worker or in the owner's own chunk, runs in-process.

The split rule: N records make min(CPUs, N // MIN_PER_WORKER) chunks, and
under two chunks the map stays in-process.  `bench/parallel.py` times a
split against the in-process loop (BENCH_parallel.json; 2-CPU shared host,
11 runs): a two-way split of a no-op costs 36-77 µs a call over the loop up
to 253 records, where forking a worker per call cost 2.1-2.4 ms, and
splitting envelope opens two ways wins in the median from 8 records on
(from 128 with a fork per call).  MIN_PER_WORKER is half that break-even
batch.

A stage that reads another party's batch checks its records through
`map_checked`, which drops exact repeats and counts them with the records
that fail their check: copies of one record must not make a crowd."""

from __future__ import annotations

import atexit
import os
import pickle
import signal
import threading
from contextlib import suppress
from functools import partial

from anonpipe.errors import AuthenticationError, DecryptionError, InvalidPoint

MIN_PER_WORKER = 4


def usable_cpus() -> int:
    """CPUs in this process's affinity mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_pool: _Pool | None = None
_mapping = False  # a map over the pool is under way, or this is a worker


class _Pool:
    """The workers forked by the process `owner`, each as (pid, the pipe its
    chunks go down, the pipe its results come back up)."""

    def __init__(self):
        self.owner = os.getpid()
        self.workers: list = []

    def fork_worker(self) -> None:
        global _mapping
        from_owner, to_worker = os.pipe()
        from_worker, to_owner = os.pipe()
        try:
            pid = os.fork()  # the child drops the earlier workers' pipes in `shutdown`
        except OSError:
            for fd in (from_owner, to_worker, from_worker, to_owner):
                os.close(fd)
            raise
        if pid == 0:
            try:
                _mapping = True
                signal.signal(signal.SIGINT, signal.SIG_IGN)  # the owner decides
                os.close(to_worker)
                os.close(from_worker)
                with open(from_owner, "rb") as requests, open(to_owner, "wb") as replies:
                    _serve(requests, replies)
            finally:
                os._exit(0)
        os.close(from_owner)
        os.close(to_owner)
        self.workers.append((pid, open(to_worker, "wb"), open(from_worker, "rb")))


def _serve(requests, replies) -> None:
    """A worker's loop: map each chunk that arrives and send back its results
    or its exception, until the owner's end of the pipe closes."""
    while requests.peek(1):
        try:
            fn, chunk = pickle.load(requests)
            data = pickle.dumps(("ok", [fn(x) for x in chunk]), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 - handed to the owner
            data = pickle.dumps(("err", exc), pickle.HIGHEST_PROTOCOL)
        replies.write(data)
        replies.flush()


def _workers(size: int) -> list:
    global _pool
    if _pool is not None and (_pool.owner != os.getpid() or len(_pool.workers) != size):
        shutdown()
    if _pool is None:
        _pool = _Pool()  # set first, so each new worker drops the earlier ones' pipes
        for _ in range(size):
            _pool.fork_worker()
    return _pool.workers


def shutdown() -> None:
    """Close the pool's pipes; in its owner, also kill its workers, busy or
    idle, and reap them.  A process forked from the owner only drops its
    copies of the pipe ends."""
    global _pool
    pool, _pool = _pool, None
    if pool is None:
        return
    owner = pool.owner == os.getpid()
    for pid, requests, replies in pool.workers:
        if owner:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        requests.raw.close()  # unflushed: nothing more reaches the worker
        replies.raw.close()
    if owner:
        for pid, _, _ in pool.workers:
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)


atexit.register(shutdown)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=shutdown)


def map_records(fn, items) -> list:
    """`[fn(x) for x in items]`, with the work split over the usable CPUs.

    `fn` must pickle when the map splits.  Runs in-process for small inputs,
    where `os.fork` is missing, inside another map's `fn` (in a worker or in
    the owner's chunk), and while another thread is alive (forking a
    threaded process is unsafe, and two threads would share the pipes)."""
    global _mapping
    cpus = usable_cpus()
    n = min(cpus, len(items) // MIN_PER_WORKER)
    if n < 2 or _mapping or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(x) for x in items]
    bounds = [len(items) * i // n for i in range(n + 1)]
    _mapping = True
    try:
        workers = _workers(cpus - 1)[: n - 1]
        for i, (_, requests, _) in enumerate(workers, 1):
            pickle.dump((fn, items[bounds[i] : bounds[i + 1]]), requests, pickle.HIGHEST_PROTOCOL)
            requests.flush()
        results = [fn(x) for x in items[: bounds[1]]]
        for _, _, replies in workers:
            try:
                status, value = pickle.load(replies)
            except EOFError:
                raise RuntimeError("a map_records worker exited without a result") from None
            if status == "err":
                raise value
            results.extend(value)
        return results
    except BaseException:
        shutdown()
        raise
    finally:
        _mapping = False


def _checked(fn, item) -> tuple:
    try:
        return (fn(item),)
    except (AuthenticationError, DecryptionError, InvalidPoint):
        return ()


def map_checked(fn, items) -> tuple[list, int]:
    """`fn`'s results over the distinct `items`, in order of first appearance,
    through `map_records`, less those on which it raised a malformed record's
    error; and how many of `items` gave no result, repeats included."""
    checked = map_records(partial(_checked, fn), list(dict.fromkeys(items)))
    results = [r for out in checked for r in out]
    return results, len(items) - len(results)
