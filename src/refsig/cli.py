"""Command-line pipeline: pool extraction, training, signing, scanning,
evaluation, and synthetic corpus generation."""

from __future__ import annotations

import argparse
import random
import sys
import time
import warnings
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .evaluate import (
    SyntheticCorpusSpec,
    confusion_from_hits,
    cross_validate,
    dnd_scan,
    mae,
    prf,
    synthetic_texts,
)
from .ga import DEFAULT_SEED, GaConfig
from .gramio import read_lines, write_whole
from .reference import (
    ClassifierConfig,
    Verdict,
    load_reference,
    save_reference,
)
from .store import db_read, db_write, ingest, iter_documents, sign_documents
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
    with write_whole(path) as fh:
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


def _check_outputs(args: argparse.Namespace, *flags: str) -> None:
    """Reject an output path that is a directory, whose directory is
    missing, or that resolves to one of the command's inputs or its other
    output, before any work is done."""
    taken = {
        Path(path).resolve(): flag
        for flag in ("corpus", "ref", "db", "labels")
        if (path := getattr(args, flag, None)) is not None
    }
    for flag in flags:
        if (path := getattr(args, flag)) is None:
            continue
        if Path(path).is_dir():
            raise ValueError(f"--{flag} {path}: is a directory")
        if not Path(path).parent.is_dir():
            raise ValueError(f"--{flag} {path}: directory {Path(path).parent} does not exist")
        if (other := taken.setdefault(Path(path).resolve(), flag)) != flag:
            raise ValueError(f"--{flag} {path}: is the same file as --{other}")


def cmd_topk(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise ValueError(f"--k must be at least 1, got {args.k}")
    _check_outputs(args, "out")
    pool = top_k(score_grams(iter_documents(args.corpus, args.html_strip)), args.k)
    save_pool(pool, args.out)
    note = " (corpus exhausted)" if pool.underfilled else ""
    print(f"wrote {len(pool)} grams to {args.out}{note}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    if args.runs < 1:
        raise ValueError(f"--runs must be at least 1, got {args.runs}")
    cfg = GaConfig(
        population_size=args.population,
        ref_len=args.ref_len,
        partitions=args.partitions,
        pool_size=args.pool_size,
        max_generations=args.generations,
        sample_size=args.sample,
        rng_seed=args.seed,
    )
    _check_outputs(args, "out", "history")
    docs = ingest(args.corpus, args.html_strip)
    result = cross_validate(docs, cfg, runs=args.runs)
    for run, report in enumerate(result.reports):
        marker = " <- winner" if run == result.winner_run else ""
        print(
            f"run {run}: train={report.train_size} test={report.test_size} "
            f"train_mae={report.history[-1].best_mae:.6f} "
            f"holdout_mae={report.holdout_mae:.6f}{marker}"
        )
    save_reference(result.reference, args.out)
    print(f"wrote reference ({len(result.reference)} grams, "
          f"P={result.reference.partitions}) to {args.out}")
    if args.history:
        winner = result.reports[result.winner_run]
        rows = [
            (generation, f"{s.best_mae:.6f}", f"{s.mean_mae:.6f}", f"{s.elapsed_s:.3f}")
            for generation, s in enumerate(winner.history)
        ]
        _write_tsv(args.history, ("generation", "best_mae", "mean_mae", "elapsed_s"), rows)
        print(f"wrote training history to {args.history}")
    return 0


def cmd_sign(args: argparse.Namespace) -> int:
    _check_outputs(args, "out")
    db = sign_documents(iter_documents(args.corpus, args.html_strip), load_reference(args.ref))
    db_write(args.out, db)
    print(f"signed {db.record_count} documents into {args.out}")
    return 0


def cmd_dedup(args: argparse.Namespace) -> int:
    cfg = ClassifierConfig(t1=args.t1, t2=args.t2)
    _check_outputs(args, "out")
    db = db_read(args.db)
    if args.ref:
        ref = load_reference(args.ref)
        # Rows of another width were not signed with ref, whatever their header's fingerprint.
        if (ref.fingerprint, ref.partitions) != (db.fingerprint, db.partitions):
            raise ValueError(f"database {args.db} was signed with a different reference text")
    hits = dnd_scan(db, cfg)
    _write_tsv(args.out, ("id_a", "id_b", "similarity", "label"), _pair_rows(db.ids, hits))
    duplicates = int(hits["duplicate"].sum())
    print(f"found {duplicates} duplicate and {len(hits) - duplicates} "
          f"near-duplicate pairs; wrote {args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if args.sample < 2:
        raise ValueError(f"--sample must be at least 2, got {args.sample}")
    cfg = ClassifierConfig(t1=args.t1, t2=args.t2)
    _check_outputs(args, "out")
    label_pairs = _read_label_pairs(args.labels) if args.labels else None
    ref = load_reference(args.ref)
    docs = ingest(args.corpus, args.html_strip)
    if args.sample < len(docs):
        docs_sample = random.Random(args.seed).sample(docs, args.sample)
    else:
        docs_sample = docs
    start = time.perf_counter()
    error = mae(ref, docs_sample)
    precision_s = recall_s = f1_s = ""
    if label_pairs is not None:
        db = sign_documents(docs, ref)
        report = prf(confusion_from_hits(dnd_scan(db, cfg), db.ids, label_pairs))
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
    """The positive pairs of an ``id_a id_b label`` TSV after its header, less ``distinct``.
    A row pairing an id with itself is rejected: no scan pairs a row with itself."""
    labels = {v.value for v in Verdict}
    lines = read_lines(path)
    if (header := next(lines, "")) != "id_a\tid_b\tlabel":
        raise ValueError(f"{path}:1: expected the header 'id_a\\tid_b\\tlabel', not {header!r}")
    pairs = []
    for number, line in enumerate(lines, 2):
        parts = line.split("\t")
        if len(parts) != 3 or parts[2] not in labels:
            raise ValueError(f"{path}:{number}: bad label line {line!r}")
        if parts[0] == parts[1]:
            raise ValueError(f"{path}:{number}: label line pairs {parts[0]!r} with itself")
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
    texts, pairs = synthetic_texts(spec)
    out = Path(args.out)
    docs_dir = out / "docs"
    # A stale document would join the corpus unlabelled, so refuse before writing any.
    written = {doc_id for doc_id, _ in texts}
    stale = sorted({p.name for p in docs_dir.iterdir()} - written) if docs_dir.is_dir() else []
    if stale:
        raise ValueError(f"{docs_dir} holds {len(stale)} entries that this corpus does not "
                         f"write, the first {stale[0]!r}")
    docs_dir.mkdir(parents=True, exist_ok=True)
    for doc_id, text in texts:
        (docs_dir / doc_id).write_text(text, encoding="utf-8", newline="\n")
    rows = [(p.id_a, p.id_b, p.label.value) for p in pairs]
    rows.sort()
    _write_tsv(out / "labels.tsv", ("id_a", "id_b", "label"), rows)
    print(f"wrote {len(texts)} documents to {docs_dir} and {len(rows)} "
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
    p.add_argument("--k", type=int, default=GaConfig.pool_size)
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
    p.add_argument("--bases", type=int, default=SyntheticCorpusSpec.base_doc_count)
    p.add_argument("--near-dups", type=int, default=SyntheticCorpusSpec.near_dup_count)
    p.add_argument("--dups", type=int, default=SyntheticCorpusSpec.dup_count)
    p.add_argument("--edit-fraction", type=float, default=SyntheticCorpusSpec.edit_fraction)
    p.add_argument("--seed", type=int, default=SyntheticCorpusSpec.rng_seed)
    p.add_argument("--words", type=int, default=SyntheticCorpusSpec.words_per_doc,
                   help="words per document")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    return parser


def _format_warning(message: Warning | str, *location: object) -> str:
    return f"warning: {message}\n"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Library warnings print as one line; showwarning stays, so they can still be caught.
    formatwarning = warnings.formatwarning
    warnings.formatwarning = _format_warning
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    raise SystemExit(main())
