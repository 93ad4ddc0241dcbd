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
from anonpipe.harness import PipelineKeys, RngTape, ScenarioConfig


def _load_config(path: str) -> ScenarioConfig:
    try:
        return ScenarioConfig.from_text(Path(path).read_text())
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="'--config'") from exc


def _load_keys(path: str) -> PipelineKeys:
    return PipelineKeys.from_json(Path(path).read_text())


@click.group()
def main():
    """Privacy-preserving collection pipeline: encode, shuffle, analyze."""


@main.command()
@click.option("--workspace", type=click.Path(), default=".", show_default=True)
@click.option(
    "--seed", type=int, default=None,
    help="Evaluation only: derive every key from this seed, as `run` does. "
    "Without it, keys are drawn from the operating system's secure RNG.",
)
@click.option(
    "--group", "group_id", type=click.Choice(sorted(GROUPS)), default=harness.DEFAULT_GROUP,
    show_default=True,
)
def keygen(workspace, seed, group_id):
    """Generate analyzer/shuffler key material into keys.json."""
    keys = harness.derive_keys(group_id, RngTape(seed) if seed is not None else None)
    out = Path(workspace) / "keys.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(keys.to_json() + "\n")
    click.echo(f"wrote {out}")


@main.command()
@click.option("--vocab-size", type=int, default=100_000, show_default=True)
@click.option("--exponent", type=float, default=1.1, show_default=True)
@click.option("--n-samples", type=int, default=100_000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def generate(vocab_size, exponent, n_samples, seed, out):
    """Generate a synthetic long-tail corpus file."""
    corpus = harness.generate_zipf_corpus(vocab_size, exponent, n_samples, seed)
    harness.save_corpus(out, corpus)
    click.echo(f"wrote {len(corpus)} samples to {out}")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--corpus", "corpus_path", type=click.Path(exists=True), required=True)
@click.option("--keys", "keys_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
def encode(config_path, corpus_path, keys_path, out):
    """Encode a corpus into a batch file of wire reports."""
    config = _load_config(config_path)
    keys = _load_keys(keys_path)
    corpus = harness.load_corpus(corpus_path)
    blobs = harness.encode_corpus(
        config, corpus, RngTape(config.seed), keys.analyzer.public_bytes,
        keys.shuffler.public_bytes, keys.shuffler2,
    )
    formats.write_batch(out, blobs)
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
    keys = _load_keys(keys_path)
    batch = harness.first_shuffler_stage(
        config, formats.read_batch(in_path), RngTape(config.seed), keys.shuffler,
        keys.blinding,
    )
    if config.two_shufflers:
        formats.write_batch(out, [crowd + inner for crowd, inner in batch.records])
        click.echo(f"wrote blinded intermediate batch ({len(batch.records)} records)")
    else:
        formats.write_batch(out, [inner for _, inner in batch.records])
        click.echo(json.dumps(shuffler_mod.selectivity_record(batch)))


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--keys", "keys_path", type=click.Path(exists=True), required=True)
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
def shuffle2(config_path, keys_path, in_path, out):
    """Second shuffler stage: unblind crowd pseudonyms and threshold."""
    config = _load_config(config_path)
    keys = _load_keys(keys_path)
    crowd_width = 2 * GROUPS[config.group_id].element_len
    records = [
        (blob[:crowd_width], blob[crowd_width:]) for blob in formats.read_batch(in_path)
    ]
    batch = harness.second_shuffler_stage(
        config, shuffler_mod.Batch(epoch_id="epoch-0", records=records),
        RngTape(config.seed), keys.shuffler2,
    )
    formats.write_batch(out, [inner for _, inner in batch.records])
    click.echo(json.dumps(shuffler_mod.selectivity_record(batch)))


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--keys", "keys_path", type=click.Path(exists=True), required=True)
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--out-dir", type=click.Path(), default=".", show_default=True)
def analyze(config_path, keys_path, in_path, out_dir):
    """Decrypt and decode an inner-envelope batch into a histogram."""
    config = _load_config(config_path)
    keys = _load_keys(keys_path)
    inner_blobs = formats.read_batch(in_path)
    hist, stats = harness.analyze_stage(config, inner_blobs, keys.analyzer)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "histogram.csv").write_text(analyzer_mod.histogram_csv(hist))
    (out_dir / "analyzer_stats.json").write_text(json.dumps(stats) + "\n")
    click.echo(f"unique values: {hist.unique_count} (stats: {stats})")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--workspace", type=click.Path(), default="run", show_default=True)
@click.option("--seed", type=int, default=None, help="override the config seed")
def run(config_path, workspace, seed):
    """Run a whole scenario end to end and print the utility report."""
    config = _load_config(config_path)
    if seed is not None:
        config.seed = seed
    report = harness.run_scenario(config, workspace)
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

    rows = []
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
    if not rows:
        raise click.UsageError("give --reference or --n-items/--buckets/--chunk-cap")
    click.echo(header)
    for p in rows:
        click.echo(row(p))
    if prior_art:
        pm_budget = budget if budget else 2 * 152_000 * record_len
        for p in rows:
            rep = ss.prior_art_overheads(p.n_items, record_len, pm_budget)
            feasible = "yes" if rep.columnsort_feasible else "no"
            click.echo(
                f"N={p.n_items}: batcher {rep.batcher_multiplier}x "
                f"(b={rep.batcher_bucket_items}), columnsort 8x "
                f"(max {rep.columnsort_max_items} items, feasible: {feasible})"
            )


if __name__ == "__main__":
    main()
