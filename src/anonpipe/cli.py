"""Batch CLI: key generation, corpus generation, per-stage subcommands over
batch files, whole-scenario runs, and the shuffle parameter calculator."""

from __future__ import annotations

import os
from pathlib import Path

import click

from anonpipe import harness
from anonpipe import stash_shuffle as ss
from anonpipe.crypto.group import GROUPS
from anonpipe.errors import BadInput, BudgetExceeded
from anonpipe.harness import PipelineKeys, RngTape, ScenarioConfig

# each path option's kind, so a path of the other kind is a usage error
_FILE_IN = click.Path(exists=True, dir_okay=False)
_FILE_OUT = click.Path(dir_okay=False)
_DIRECTORY = click.Path(file_okay=False)


def _load_config(path: str) -> ScenarioConfig:
    try:
        return ScenarioConfig.from_text(Path(path).read_text())
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="'--config'") from exc


def _stage(fn, config: ScenarioConfig, keys_path: str, src: str, out: str, hint="'--in'"):
    """Stage `fn` under the keys in `keys_path`; bad keys or `src` are usage errors."""
    try:
        keys = PipelineKeys.from_json(Path(keys_path).read_text(), GROUPS[config.group_id])
    except (KeyError, TypeError, ValueError) as exc:
        raise click.BadParameter(
            f"not a keys file from `keygen` ({type(exc).__name__}: {exc})", param_hint="'--keys'"
        ) from exc
    try:
        return fn(config, keys, src, out)
    except BadInput as exc:
        raise click.BadParameter(str(exc), param_hint=hint) from exc


@click.group()
def main():
    """Privacy-preserving collection pipeline: encode, shuffle, analyze."""


@main.command()
@click.option("--config", "config_path", type=_FILE_IN, required=True)
@click.option("--workspace", type=_DIRECTORY, default=".", show_default=True)
@click.option(
    "--seed", type=int, default=None,
    help="Evaluation only: derive every key, and every draw of the stage commands "
    "that use these keys, from this seed, as `run` does. Without it, all of them "
    "come from the operating system's secure RNG.",
)
def keygen(config_path, workspace, seed):
    """Generate key material in the config's group into keys.json."""
    # the config's seed never seeds keys: anyone who has the config knows it
    keys = harness.derive_keys(_load_config(config_path).group_id, RngTape(seed))
    out = Path(workspace) / "keys.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    # every party's secrets: the owner's alone, also when an older file was not
    with open(os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600), "w") as f:
        os.fchmod(f.fileno(), 0o600)  # os.open's mode applies only to a new file
        f.write(keys.to_json() + "\n")
    click.echo(f"wrote {out}")


@main.command()
@click.option("--config", "config_path", type=_FILE_IN, required=True)
@click.option("--out", type=_FILE_OUT, required=True)
def generate(config_path, out):
    """Generate the config's synthetic long-tail corpus file, as `run` does."""
    corpus = _load_config(config_path).corpus()
    harness.save_corpus(out, corpus)
    click.echo(f"wrote {len(corpus)} samples to {out}")


@main.command()
@click.option("--config", "config_path", type=_FILE_IN, required=True)
@click.option("--corpus", "corpus_path", type=_FILE_IN, required=True)
@click.option("--keys", "keys_path", type=_FILE_IN, required=True)
@click.option("--out", type=_FILE_OUT, required=True)
def encode(config_path, corpus_path, keys_path, out):
    """Encode a corpus into a batch file of wire reports."""
    config = _load_config(config_path)
    count = _stage(harness.encode_file, config, keys_path, corpus_path, out, "'--corpus'")
    click.echo(f"wrote {count} reports to {out}")


@main.command()
@click.option("--config", "config_path", type=_FILE_IN, required=True)
@click.option("--keys", "keys_path", type=_FILE_IN, required=True)
@click.option("--in", "in_path", type=_FILE_IN, required=True)
@click.option("--out", type=_FILE_OUT, required=True)
def shuffle(config_path, keys_path, in_path, out):
    """First shuffler stage: the final batch, with selectivity.json beside it,
    or for blinded configs the intermediate batch for `shuffle2`."""
    config = _load_config(config_path)
    count = _stage(harness.shuffle_file, config, keys_path, in_path, out)
    click.echo(f"wrote {count} records to {out}")


@main.command()
@click.option("--config", "config_path", type=_FILE_IN, required=True)
@click.option("--keys", "keys_path", type=_FILE_IN, required=True)
@click.option("--in", "in_path", type=_FILE_IN, required=True)
@click.option("--out", type=_FILE_OUT, required=True)
def shuffle2(config_path, keys_path, in_path, out):
    """Second shuffler stage: unblind crowd pseudonyms and threshold."""
    config = _load_config(config_path)
    if not config.two_shufflers:
        raise click.BadParameter(
            f"crowd_mode is {config.crowd_mode}; only blinded configs have a second shuffler",
            param_hint="'--config'",
        )
    count = _stage(harness.shuffle2_file, config, keys_path, in_path, out)
    click.echo(f"wrote {count} records to {out}")


@main.command()
@click.option("--config", "config_path", type=_FILE_IN, required=True)
@click.option("--keys", "keys_path", type=_FILE_IN, required=True)
@click.option("--in", "in_path", type=_FILE_IN, required=True)
@click.option("--out-dir", type=_DIRECTORY, default=".", show_default=True)
def analyze(config_path, keys_path, in_path, out_dir):
    """Decrypt and decode an inner-envelope batch into histogram.csv and its stats."""
    config = _load_config(config_path)
    hist, stats = _stage(harness.analyze_file, config, keys_path, in_path, out_dir)
    click.echo(f"unique values: {hist.unique_count} (stats: {stats})")


@main.command()
@click.option("--config", "config_path", type=_FILE_IN, required=True)
@click.option("--workspace", type=_DIRECTORY, default="run", show_default=True)
def run(config_path, workspace):
    """Run a whole scenario end to end and print the utility report."""
    report = harness.run_scenario(_load_config(config_path), workspace)
    click.echo(report.table())
    click.echo(report.to_json())


@main.command()
@click.option("--n-items", type=int, default=None)
@click.option("--buckets", type=int, default=None)
@click.option("--chunk-cap", type=int, default=None)
@click.option("--window", type=int, default=4, show_default=True)
@click.option("--stash", type=int, default=0, show_default=True)
@click.option("--record-len", type=int, default=ss.DEFAULT_RECORD_LEN, show_default=True)
@click.option("--budget", type=int, default=None, help="private-memory budget, bytes")
@click.option("--reference", is_flag=True, help="print the built-in parameter scenarios")
@click.option("--prior-art", is_flag=True, help="include sort-based shuffle overheads")
def params(n_items, buckets, chunk_cap, window, stash, record_len, budget, reference, prior_art):
    """Shuffle parameter and overhead calculator."""
    header = f"{'N':>12} {'B':>6} {'C':>5} {'W':>3} {'S':>9} {'K':>5} {'alpha':>7} {'overhead':>9}"

    def row(p: ss.ShuffleParams) -> str:
        return (
            f"{p.n_items:>12} {p.num_buckets:>6} {p.chunk_cap:>5} {p.window:>3} "
            f"{p.stash_cap:>9} {p.drain_per_bucket:>5} {p.alpha:>7.2f} "
            f"{ss.analytic_overhead(p):>8.2f}x"
        )

    rows, prior = [], []
    try:
        if reference:
            for n, b, c, w, s in ss.REFERENCE_SCENARIOS:
                rows.append(ss.make_params(n, b, c, s, w, item_len=record_len))
        one_row = {"--n-items": n_items, "--buckets": buckets, "--chunk-cap": chunk_cap}
        missing = [name for name, value in one_row.items() if value is None]
        if 0 < len(missing) < len(one_row):
            raise click.UsageError(f"one row needs {', '.join(missing)} too")
        if not missing:
            rows.append(
                ss.make_params(
                    n_items, buckets, chunk_cap, stash, window,
                    item_len=record_len, private_mem_budget=budget,
                )
            )
        if prior_art:
            pm_budget = budget if budget is not None else 2 * 152_000 * record_len
            prior = [ss.prior_art_overheads(p.n_items, record_len, pm_budget) for p in rows]
    except (ValueError, BudgetExceeded) as exc:
        raise click.UsageError(str(exc)) from exc
    if not rows:
        raise click.UsageError("give --reference or --n-items/--buckets/--chunk-cap")
    click.echo(header)
    for p in rows:
        click.echo(row(p))
    for p, rep in zip(rows, prior):
        feasible = "yes" if rep.columnsort_feasible else "no"
        click.echo(
            f"N={p.n_items}: batcher {rep.batcher_multiplier}x "
            f"(b={rep.batcher_bucket_items}), columnsort 8x "
            f"(max {rep.columnsort_max_items} items, feasible: {feasible})"
        )


if __name__ == "__main__":
    main()
