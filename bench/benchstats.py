"""What the per-layer bench scripts share: their options, the timing of one
pass and of the steps inside it, the order of the sides from run to run, the
summary over runs and the result file."""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def parse_args(doc: str, out_name: str, argv, **counts) -> argparse.Namespace:
    """`--runs`, then one integer option per `counts` entry, given as
    name=(default, help) and each `>= 1`, then `--seed` and `--out` (default
    `out_name` at the root of the checkout); puts `src/` on the import path."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=11, help="alternating runs (>= 2)")
    for name, (default, text) in counts.items():
        parser.add_argument(f"--{name.replace('_', '-')}", type=int, default=default, help=text)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=ROOT / out_name)
    args = parser.parse_args(argv)
    if args.runs < 2 or any(getattr(args, name) < 1 for name in counts):
        options = " and ".join(f"--{name.replace('_', '-')}" for name in counts)
        parser.error(f"--runs must be >= 2 and {options} >= 1")
    sys.path.insert(0, str(ROOT / "src"))
    return args


def per_call_us(fn, inputs) -> float:
    """Microseconds per call of `fn` over the argument tuples `inputs`.  One
    untimed call on the first comes before the timed pass, since a first use
    may build a context or start workers."""
    fn(*inputs[0])
    start = perf_counter()
    for args in inputs:
        fn(*args)
    return (perf_counter() - start) / len(inputs) * 1e6


def stamped(cls, attr: str, marks: list):
    """A subclass of `cls` whose instances append (value, time) to `marks`
    each time `attr` is set, in `__init__` too, on the clock `per_call_us`
    reads: the steps of a call that marks them by setting `attr`."""

    class Stamped(cls):
        def __setattr__(self, name, value):
            if name == attr:
                marks.append((value, perf_counter()))
            super().__setattr__(name, value)

    return Stamped


def in_turn(run: int, sides):
    """`sides` in order on even runs and reversed on odd ones, so the drift of
    a shared host falls on every side alike."""
    return sides if run % 2 == 0 else reversed(sides)


def summary(samples: list[float], unit: str = "us") -> dict:
    """Median and quartiles of per-run figures in `unit` (timings in
    microseconds unless said otherwise), with the runs."""
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {f"median_{unit}": median, f"q1_{unit}": q1, f"q3_{unit}": q3, f"runs_{unit}": samples}


def write_result(out: Path, fields: dict, **machine) -> dict:
    """Write the machine record, with `machine`'s extra entries, and then
    `fields` to `out` as JSON; return what was written.  `cpus` counts the
    CPUs this process may run on."""
    result = {
        "machine": {
            "machine": platform.machine(),
            "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            **machine,
        },
        **fields,
    }
    out.write_text(json.dumps(result, indent=2) + "\n")
    return result
