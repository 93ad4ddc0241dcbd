"""Batch CLI: key generation, corpus generation, per-stage subcommands over
batch files, whole-scenario runs, and the shuffle parameter calculator."""

from __future__ import annotations

import json
from pathlib import Path

import click

from anonpipe import analyzer as analyzer_mod
from anonpipe import formats
from anonpipe import harness
from anonpipe import shuffler as shuffler_mod
from anonpipe import stash_shuffle as ss
from anonpipe.crypto.group import GROUPS
from anonpipe.errors import BudgetExceeded, DecryptionError
from anonpipe.harness import PipelineKeys, RngTape, ScenarioConfig


def _load_config(path: str) -> ScenarioConfig:
    try:
        return ScenarioConfig.from_text(Path(path).read_text())
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="'--config'") from exc


def _load_keys(path: str, config: ScenarioConfig) -> PipelineKeys:
    try:
        return PipelineKeys.from_json(Path(path).read_text(), GROUPS[config.group_id])
    except (KeyError, TypeError, ValueError) as exc:
        raise click.BadParameter(
            f"not a keys file from `keygen` ({type(exc).__name__}: {exc})", param_hint="'--keys'"
        ) from exc


def _read_batch(path: str) -> list[bytes]:
    try:
        return formats.read_batch(path)
    except DecryptionError as exc:
        raise click.BadParameter(f"not a batch file ({exc})", param_hint="'--in'") from exc


def _out_file(path: str | Path) -> Path:
    """`path`, once its directory exists."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return Path(path)


@click.group()
def main():
    """Privacy-preserving collection pipeline: encode, shuffle, analyze."""


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--workspace", type=click.Path(), default=".", show_default=True)
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
    out = _out_file(Path(workspace) / "keys.json")
    out.write_text(keys.to_json() + "\n")
    click.echo(f"wrote {out}")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
def generate(config_path, out):
    """Generate the config's synthetic long-tail corpus file, as `run` does."""
    corpus = _load_config(config_path).corpus()
    harness.save_corpus(_out_file(out), corpus)
    click.echo(f"wrote {len(corpus)} samples to {out}")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--corpus", "corpus_path", type=click.Path(exists=True), required=True)
@click.option("--keys", "keys_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
def encode(config_path, corpus_path, keys_path, out):
    """Encode a corpus into a batch file of wire reports."""
    config = _load_config(config_path)
    keys = _load_keys(keys_path, config)
    try:
        corpus = harness.load_corpus(corpus_path, config.vocab_size)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="'--corpus'") from exc
    blobs = harness.encode_corpus(
        config, corpus, RngTape(keys.seed), keys.analyzer.public_bytes,
        keys.shuffler.public_bytes, keys.shuffler2, hash_key=keys.crowd_hash,
    )
    formats.write_batch(_out_file(out), blobs)
    click.echo(f"wrote {len(blobs)} reports to {out}")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--keys", "keys_path", type=click.Path(exists=True), required=True)
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
def shuffle(config_path, keys_path, in_path, out):
    """First shuffler stage.

    Single-shuffler configs write the final inner-envelope batch; blinded
    configs write the blinded intermediate batch for `shuffle2`.
    """
    config = _load_config(config_path)
    keys = _load_keys(keys_path, config)
    batch = harness.first_shuffler_stage(
        config, _read_batch(in_path), RngTape(keys.seed), keys.shuffler,
        keys.blinding,
    )
    if config.two_shufflers:
        formats.write_batch(_out_file(out), [crowd + inner for crowd, inner in batch.records])
        click.echo(f"wrote blinded intermediate batch ({len(batch.records)} records)")
    else:
        formats.write_batch(_out_file(out), [inner for _, inner in batch.records])
        click.echo(json.dumps(shuffler_mod.selectivity_record(batch)))


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--keys", "keys_path", type=click.Path(exists=True), required=True)
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
def shuffle2(config_path, keys_path, in_path, out):
    """Second shuffler stage: unblind crowd pseudonyms and threshold."""
    config = _load_config(config_path)
    if not config.two_shufflers:
        raise click.BadParameter(
            f"crowd_mode is {config.crowd_mode}; only blinded configs have a second shuffler",
            param_hint="'--config'",
        )
    keys = _load_keys(keys_path, config)
    crowd_width = formats.crowd_id_width(formats.KIND_BLINDED, GROUPS[config.group_id])
    records = [
        (blob[:crowd_width], blob[crowd_width:]) for blob in _read_batch(in_path)
    ]
    batch = harness.second_shuffler_stage(
        config, shuffler_mod.Batch(epoch_id="epoch-0", records=records),
        RngTape(keys.seed), keys.shuffler2,
    )
    formats.write_batch(_out_file(out), [inner for _, inner in batch.records])
    click.echo(json.dumps(shuffler_mod.selectivity_record(batch)))


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--keys", "keys_path", type=click.Path(exists=True), required=True)
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--out-dir", type=click.Path(), default=".", show_default=True)
def analyze(config_path, keys_path, in_path, out_dir):
    """Decrypt and decode an inner-envelope batch into a histogram."""
    config = _load_config(config_path)
    keys = _load_keys(keys_path, config)
    inner_blobs = _read_batch(in_path)
    hist, stats = harness.analyze_stage(config, inner_blobs, keys.analyzer)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "histogram.csv").write_text(analyzer_mod.histogram_csv(hist))
    (out_dir / "analyzer_stats.json").write_text(json.dumps(stats) + "\n")
    click.echo(f"unique values: {hist.unique_count} (stats: {stats})")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--workspace", type=click.Path(), default="run", show_default=True)
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
        if n_items and buckets and chunk_cap:
            rows.append(
                ss.make_params(
                    n_items, buckets, chunk_cap, stash, window,
                    item_len=record_len, private_mem_budget=budget,
                )
            )
        if prior_art:
            pm_budget = budget if budget else 2 * 152_000 * record_len
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
