"""Command-line pipeline: pool extraction, training, signing, scanning,
evaluation, and synthetic corpus generation."""

from __future__ import annotations

import argparse
import random
import sys
import time
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .evaluate import (
    SyntheticCorpusSpec,
    confusion_from_hits,
    cross_validate,
    dnd_scan,
    generate_synthetic_corpus,
    mae,
    prf,
)
from .ga import DEFAULT_SEED, GaConfig
from .gramio import read_lines
from .reference import (
    SIGN_BLOCK,
    ClassifierConfig,
    SignatureMismatchError,
    Verdict,
    load_reference,
    save_reference,
    signature_matrix,
)
from .store import SCORE_DTYPE, SignatureDb, db_read, db_write, ingest, iter_documents
from .tfidf import save_pool, score_grams, top_k

_REPORT_COLUMNS = (
    "dataset",
    "ref_len",
    "partitions",
    "population",
    "generations",
    "mae",
    "precision",
    "recall",
    "f1",
    "runtime_s",
)


def _write_tsv(path: str | Path, header: tuple[str, ...], rows: Iterable[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(str(cell) for cell in row) + "\n")


# Hits that `dedup` turns into Python rows at a time: it bounds their memory.
TSV_SLICE = 65536


def _pair_rows(ids: tuple[str, ...], hits: np.ndarray) -> Iterator[tuple[str, str, str, str]]:
    """The ``pairs.tsv`` rows of :func:`dnd_scan` hits, one slice of hits at a time."""
    labels = (Verdict.NEAR_DUPLICATE.value, Verdict.DUPLICATE.value)
    for lo in range(0, len(hits), TSV_SLICE):
        for i, j, similarity, duplicate in hits[lo : lo + TSV_SLICE].tolist():
            yield ids[i], ids[j], f"{similarity:.9f}", labels[duplicate]


def cmd_topk(args: argparse.Namespace) -> int:
    docs = ingest(args.corpus, args.html_strip)
    pool = top_k(score_grams(docs), args.k)
    save_pool(pool, args.out)
    note = " (corpus exhausted)" if pool.underfilled else ""
    print(f"wrote {len(pool)} grams to {args.out}{note}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    docs = ingest(args.corpus, args.html_strip)
    cfg = GaConfig(
        population_size=args.population,
        ref_len=args.ref_len,
        partitions=args.partitions,
        pool_size=args.pool_size,
        max_generations=args.generations,
        sample_size=args.sample,
        rng_seed=args.seed,
    )
    result = cross_validate(docs, cfg, runs=args.runs)
    for report in result.reports:
        marker = " <- winner" if report.run == result.winner_run else ""
        print(
            f"run {report.run}: train={report.train_size} test={report.test_size} "
            f"train_mae={report.train_mae:.6f} holdout_mae={report.holdout_mae:.6f}{marker}"
        )
    save_reference(result.reference, args.out)
    print(f"wrote reference ({len(result.reference)} grams, "
          f"P={result.reference.partitions}) to {args.out}")
    if args.history:
        winner = result.reports[result.winner_run]
        rows = [
            (s.generation, f"{s.best_mae:.6f}", f"{s.mean_mae:.6f}", f"{s.elapsed_s:.3f}")
            for s in winner.history
        ]
        _write_tsv(args.history, ("generation", "best_mae", "mean_mae", "elapsed_s"), rows)
        print(f"wrote training history to {args.history}")
    return 0


def cmd_sign(args: argparse.Namespace) -> int:
    ref = load_reference(args.ref)
    docs = iter_documents(args.corpus, args.html_strip)
    # Only one block of documents is held at a time; their signature rows are kept.
    ids: list[str] = []
    blocks = [np.empty((0, ref.partitions), SCORE_DTYPE)]
    while block := list(islice(docs, SIGN_BLOCK)):
        ids.extend(doc.id for doc in block)
        blocks.append(signature_matrix(block, ref).astype(SCORE_DTYPE))
    db_write(args.out, ref, ids, np.concatenate(blocks))
    print(f"signed {len(ids)} documents into {args.out}")
    return 0


def cmd_dedup(args: argparse.Namespace) -> int:
    cfg = ClassifierConfig(t1=args.t1, t2=args.t2)
    db = db_read(args.db)
    if args.ref:
        ref = load_reference(args.ref)
        if ref.fingerprint != db.fingerprint:
            raise SignatureMismatchError(
                f"database {args.db} was signed with a different reference text"
            )
    hits = dnd_scan(db, cfg)
    _write_tsv(args.out, ("id_a", "id_b", "similarity", "label"), _pair_rows(db.ids, hits))
    duplicates = int(hits["duplicate"].sum())
    print(f"found {duplicates} duplicate and {len(hits) - duplicates} "
          f"near-duplicate pairs; wrote {args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    ref = load_reference(args.ref)
    docs = ingest(args.corpus, args.html_strip)
    if args.sample < len(docs):
        docs_sample = random.Random(args.seed).sample(docs, args.sample)
    else:
        docs_sample = docs
    start = time.perf_counter()
    error = mae(ref, docs_sample)
    precision_s = recall_s = f1_s = ""
    if args.labels:
        cfg = ClassifierConfig(t1=args.t1, t2=args.t2)
        # The float32 rows that sign -> db_write -> dedup classifies.
        rows = signature_matrix(docs, ref).astype(SCORE_DTYPE)
        ids = tuple(d.id for d in docs)
        hits = dnd_scan(SignatureDb(ref.fingerprint, ids, rows), cfg)
        report = prf(confusion_from_hits(hits, ids, _read_label_pairs(args.labels)))
        precision_s = f"{report.precision:.6f}"
        recall_s = f"{report.recall:.6f}"
        f1_s = f"{report.f1:.6f}"
        print(f"precision={precision_s} recall={recall_s} f1={f1_s}")
    runtime = time.perf_counter() - start
    row = (
        args.corpus,
        len(ref),
        ref.partitions,
        "",
        "",
        f"{error:.6f}",
        precision_s,
        recall_s,
        f1_s,
        f"{runtime:.3f}",
    )
    _write_tsv(args.out, _REPORT_COLUMNS, [row])
    print(f"mae={error:.6f} over {len(docs_sample)} documents; wrote {args.out}")
    return 0


def _read_label_pairs(path: str) -> list[tuple[str, str]]:
    """The positive pairs of an ``id_a id_b label`` TSV; ``distinct`` rows are skipped."""
    pairs = []
    for line in islice(read_lines(path), 1, None):
        parts = line.split("\t")
        if len(parts) < 3 or parts[2] not in {v.value for v in Verdict}:
            raise ValueError(f"{path}: bad label line {line!r}")
        if parts[2] != Verdict.DISTINCT.value:
            pairs.append((parts[0], parts[1]))
    return pairs


def cmd_synth(args: argparse.Namespace) -> int:
    spec = SyntheticCorpusSpec(
        base_doc_count=args.bases,
        near_dup_count=args.near_dups,
        dup_count=args.dups,
        edit_fraction=args.edit_fraction,
        rng_seed=args.seed,
        words_per_doc=args.words,
    )
    docs, pairs = generate_synthetic_corpus(spec)
    out = Path(args.out)
    docs_dir = out / "docs"
    docs_dir.mkdir(parents=True, exist_ok=True)
    for doc in docs:
        (docs_dir / doc.id).write_text(doc.text, encoding="utf-8", newline="\n")
    rows = [(p.id_a, p.id_b, p.label.value) for p in pairs]
    rows.sort()
    _write_tsv(out / "labels.tsv", ("id_a", "id_b", "label"), rows)
    print(f"wrote {len(docs)} documents to {docs_dir} and {len(rows)} "
          f"labeled pairs to {out / 'labels.tsv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refsig",
        description="Reference-text cosine signatures for duplicate and "
        "near-duplicate document detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_corpus(p: argparse.ArgumentParser) -> None:
        p.add_argument("--corpus", required=True,
                       help="directory of text files, or a line-delimited records file")
        p.add_argument("--html-strip", action="store_true",
                       help="strip HTML tags and decode entities before normalizing")

    p = sub.add_parser("topk", help="extract the top-K tf-idf gram pool")
    add_corpus(p)
    p.add_argument("--k", type=int, default=9000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_topk)

    p = sub.add_parser("train", help="evolve a reference text with cross-validation")
    add_corpus(p)
    p.add_argument("--pool-size", type=int, default=GaConfig.pool_size)
    p.add_argument("--ref-len", type=int, default=GaConfig.ref_len)
    p.add_argument("--partitions", type=int, default=GaConfig.partitions)
    p.add_argument("--population", type=int, default=GaConfig.population_size)
    p.add_argument("--generations", type=int, default=GaConfig.max_generations)
    p.add_argument("--sample", type=int, default=GaConfig.sample_size,
                   help="documents in the fitness sample")
    p.add_argument("--runs", type=int, default=10,
                   help="cross-validation repetitions")
    p.add_argument("--seed", type=int, default=GaConfig.rng_seed)
    p.add_argument("--out", required=True, help="reference text output file")
    p.add_argument("--history", help="training-history TSV output file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sign", help="sign a corpus into a signature database")
    p.add_argument("--ref", required=True)
    add_corpus(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sign)

    p = sub.add_parser("dedup", help="scan a signature database for DND pairs")
    p.add_argument("--db", required=True)
    p.add_argument("--t1", type=float, default=ClassifierConfig.t1)
    p.add_argument("--t2", type=float, default=ClassifierConfig.t2)
    p.add_argument("--ref", help="verify the database against this reference file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dedup)

    p = sub.add_parser("eval", help="measure signature error on a corpus")
    p.add_argument("--ref", required=True)
    add_corpus(p)
    p.add_argument("--sample", type=int, default=100)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--labels", help="ground-truth pairs TSV; adds precision/recall/F1")
    p.add_argument("--t1", type=float, default=ClassifierConfig.t1)
    p.add_argument("--t2", type=float, default=ClassifierConfig.t2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a labeled synthetic corpus")
    p.add_argument("--bases", type=int, default=100)
    p.add_argument("--near-dups", type=int, default=20)
    p.add_argument("--dups", type=int, default=10)
    p.add_argument("--edit-fraction", type=float, default=0.10)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--words", type=int, default=160, help="words per document")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
