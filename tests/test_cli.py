from dataclasses import fields

import numpy as np
import pytest

from refsig import cli
from refsig.cli import build_parser, main
from refsig.evaluate import dnd_scan
from refsig.ga import GaConfig
from refsig.reference import (
    SIGN_BLOCK,
    ReferenceText,
    save_reference,
    signature_matrix,
)
from refsig.store import db_read, db_write, ingest
from refsig.text import gram_keys
from refsig.tfidf import load_pool


def _keys(grams):
    return gram_keys("".join(grams))[::3]


def _run(*argv):
    return main([str(a) for a in argv])


def _make_corpus(tmp_path, *texts):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i, text in enumerate(texts):
        (corpus / f"doc-{i}.txt").write_text(text, encoding="utf-8")
    return corpus


def test_train_defaults_mirror_standard_configuration():
    parser = build_parser()
    args = parser.parse_args(["train", "--corpus", "x", "--out", "ref.txt"])
    assert args.pool_size == 9000
    assert args.ref_len == 1000
    assert args.partitions == 150
    assert args.population == 100
    assert args.generations == 50
    assert args.runs == 10
    assert args.sample == 100


class _Captured(Exception):
    pass


def _train_config(monkeypatch, corpus, *flags):
    """The GaConfig that ``refsig train`` hands to cross_validate."""

    def capture(docs, cfg, *rest, **options):
        raise _Captured(cfg)

    monkeypatch.setattr(cli, "cross_validate", capture)
    with pytest.raises(_Captured) as caught:
        _run("train", "--corpus", corpus, "--out", "ref.txt", *flags)
    return caught.value.args[0]


def test_every_ga_config_field_has_a_train_flag_with_its_default(tmp_path, monkeypatch):
    corpus = _make_corpus(tmp_path, "one small document")
    assert _train_config(monkeypatch, corpus) == GaConfig()
    flags = ("--population", 7, "--ref-len", 11, "--partitions", 3, "--pool-size", 13,
             "--generations", 2, "--sample", 5, "--seed", 9)
    cfg = _train_config(monkeypatch, corpus, *flags)
    unset = [f.name for f in fields(GaConfig) if getattr(cfg, f.name) == getattr(GaConfig(), f.name)]
    assert unset == []


def test_synth_layout(tmp_path, capsys):
    out = tmp_path / "synthetic"
    assert _run("synth", "--bases", 6, "--near-dups", 2, "--dups", 2,
                "--edit-fraction", 0.1, "--seed", 4, "--out", out) == 0
    docs = sorted(p.name for p in (out / "docs").iterdir())
    assert len(docs) == 10
    labels = (out / "labels.tsv").read_text(encoding="utf-8").strip().split("\n")
    assert labels[0] == "id_a\tid_b\tlabel"
    assert len(labels) == 5


def test_topk_writes_pool(tmp_path):
    corpus = _make_corpus(tmp_path, "the quick brown fox", "lazy dogs sleep", "quick quick fox")
    out = tmp_path / "pool.txt"
    assert _run("topk", "--corpus", corpus, "--k", 12, "--out", out) == 0
    assert len(load_pool(out)) == 12


def test_full_pipeline(tmp_path, capsys):
    synth_dir = tmp_path / "synthetic"
    assert _run("synth", "--bases", 30, "--near-dups", 8, "--dups", 6,
                "--edit-fraction", 0.1, "--seed", 21, "--words", 80, "--out", synth_dir) == 0
    corpus = synth_dir / "docs"
    ref_path = tmp_path / "ref.txt"
    hist_path = tmp_path / "hist.tsv"
    assert _run("train", "--corpus", corpus, "--pool-size", 400, "--ref-len", 60,
                "--partitions", 10, "--population", 8, "--generations", 4,
                "--sample", 20, "--runs", 2, "--seed", 3,
                "--out", ref_path, "--history", hist_path) == 0
    assert ref_path.exists()
    header = hist_path.read_text(encoding="utf-8").split("\n")[0]
    assert header == "generation\tbest_mae\tmean_mae\telapsed_s"

    db_path = tmp_path / "sigs.db"
    assert _run("sign", "--ref", ref_path, "--corpus", corpus, "--out", db_path) == 0
    assert db_read(db_path).record_count == 44

    pairs_path = tmp_path / "pairs.tsv"
    assert _run("dedup", "--db", db_path, "--t1", 0.999, "--t2", 0.93,
                "--ref", ref_path, "--out", pairs_path) == 0
    lines = pairs_path.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "id_a\tid_b\tsimilarity\tlabel"
    assert any("duplicate" in line for line in lines[1:])

    report_path = tmp_path / "report.tsv"
    assert _run("eval", "--ref", ref_path, "--corpus", corpus, "--sample", 25,
                "--labels", synth_dir / "labels.tsv", "--t1", 0.999, "--t2", 0.93,
                "--out", report_path) == 0
    header, row = report_path.read_text(encoding="utf-8").strip().split("\n")
    assert header.split("\t") == [
        "dataset", "ref_len", "partitions", "population", "generations",
        "mae", "precision", "recall", "f1", "runtime_s",
    ]
    cells = row.split("\t")
    assert cells[1] == "60" and cells[2] == "10"
    assert 0.0 <= float(cells[5]) <= 1.0


def test_dedup_two_identical_docs(tmp_path):
    corpus = _make_corpus(tmp_path, "same content here", "same content here")
    ref_grams = sorted({"sam", "ame", "me ", "e c", " co", "con", "ont", "nte", "ten",
                        "ent", "nt ", "t h", " he", "her", "ere"})
    ref = ReferenceText(_keys(ref_grams), 5)
    ref_path = tmp_path / "ref.txt"
    save_reference(ref, ref_path)
    db_path = tmp_path / "sigs.db"
    assert _run("sign", "--ref", ref_path, "--corpus", corpus, "--out", db_path) == 0
    pairs_path = tmp_path / "pairs.tsv"
    assert _run("dedup", "--db", db_path, "--t1", 0.95, "--t2", 0.8, "--out", pairs_path) == 0
    lines = pairs_path.read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 2
    assert lines[1].split("\t") == ["doc-0.txt", "doc-1.txt", "1.000000000", "duplicate"]


def test_dedup_mismatched_reference_fails(tmp_path, capsys):
    corpus = _make_corpus(tmp_path, "first document text", "second document text")
    ref_a = ReferenceText(_keys(["fir", "irs", "rst", "doc"]), 2)
    ref_b = ReferenceText(_keys(["sec", "eco", "con", "doc"]), 2)
    path_a, path_b = tmp_path / "a.ref", tmp_path / "b.ref"
    save_reference(ref_a, path_a)
    save_reference(ref_b, path_b)
    db_path = tmp_path / "sigs.db"
    assert _run("sign", "--ref", path_a, "--corpus", corpus, "--out", db_path) == 0
    assert _run("dedup", "--db", db_path, "--t1", 0.95, "--t2", 0.8,
                "--ref", path_b, "--out", tmp_path / "pairs.tsv") == 1
    assert "different reference" in capsys.readouterr().err


def test_reference_errors_name_the_file_and_line(tmp_path, capsys):
    corpus = _make_corpus(tmp_path, "abc bcd cde")
    ref = tmp_path / "ref.txt"
    save_reference(ReferenceText(_keys(["abc", "bcd", "cde"]), 3), ref)
    good = ref.read_text(encoding="utf-8")
    for old, new, message in [
        ("P=3\n", "P=9\n", f"{ref}: partition count must be in 1..3, got 9"),
        ("\nbcd\n", "\nbc\n", f"{ref}:3: line 'bc' decodes to 2 characters, expected 3"),
    ]:
        ref.write_text(good.replace(old, new), encoding="utf-8")
        assert _run("sign", "--ref", ref, "--corpus", corpus, "--out", tmp_path / "s.db") == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_invalid_thresholds_rejected_before_work(tmp_path, capsys):
    # the database path does not even exist: validation must fire first
    assert _run("dedup", "--db", tmp_path / "missing.db", "--t1", 0.5, "--t2", 0.9,
                "--out", tmp_path / "pairs.tsv") == 1
    err = capsys.readouterr().err
    assert "thresholds" in err


def test_missing_corpus_fails_cleanly(tmp_path, capsys):
    assert _run("topk", "--corpus", tmp_path / "nope", "--k", 5,
                "--out", tmp_path / "pool.txt") == 1
    assert "error:" in capsys.readouterr().err


def test_eval_one_document_corpus_fails_with_one_error_line(tmp_path, capsys):
    corpus = _make_corpus(tmp_path, "the only document")
    ref = tmp_path / "ref.txt"
    save_reference(ReferenceText(_keys(["the", "onl", "doc"]), 3), ref)
    assert _run("eval", "--ref", ref, "--corpus", corpus, "--out", tmp_path / "r.tsv") == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: need at least 2 documents")
    assert not (tmp_path / "r.tsv").exists()


def test_eval_and_dedup_detect_the_same_pairs(tmp_path, monkeypatch):
    synthetic = tmp_path / "synthetic"
    assert _run("synth", "--bases", 40, "--near-dups", 12, "--dups", 8,
                "--seed", 9, "--words", 90, "--out", synthetic) == 0
    docs = synthetic / "docs"
    pool = tmp_path / "pool.txt"
    assert _run("topk", "--corpus", docs, "--k", 400, "--out", pool) == 0
    ref = tmp_path / "ref.txt"
    save_reference(ReferenceText(load_pool(pool).keys[:150], 15), ref)
    db, pairs = tmp_path / "sigs.db", tmp_path / "pairs.tsv"
    assert _run("sign", "--ref", ref, "--corpus", docs, "--out", db) == 0
    assert _run("dedup", "--db", db, "--t1", 0.999, "--t2", 0.93, "--out", pairs) == 0

    scans = []

    def recording_scan(db, cfg):
        scans.append((db.ids, dnd_scan(db, cfg)))
        return scans[-1][1]

    monkeypatch.setattr("refsig.cli.dnd_scan", recording_scan)
    assert _run("eval", "--ref", ref, "--corpus", docs, "--labels", synthetic / "labels.tsv",
                "--t1", 0.999, "--t2", 0.93, "--out", tmp_path / "report.tsv") == 0
    ids, hits = scans[0]
    eval_rows = [
        f"{ids[i]}\t{ids[j]}\t{s:.9f}\t{'duplicate' if d else 'near-duplicate'}"
        for i, j, s, d in hits.tolist()
    ]
    dedup_rows = pairs.read_text(encoding="utf-8").split("\n")[1:-1]
    labels = {row.split("\t")[3] for row in dedup_rows}
    assert labels == {"duplicate", "near-duplicate"}
    assert eval_rows == dedup_rows


def test_dedup_default_thresholds_are_the_tuned_ones(tmp_path, monkeypatch):
    synthetic = tmp_path / "synthetic"
    assert _run("synth", "--bases", 30, "--near-dups", 8, "--dups", 6,
                "--seed", 4, "--words", 90, "--out", synthetic) == 0
    docs = synthetic / "docs"
    pool = tmp_path / "pool.txt"
    assert _run("topk", "--corpus", docs, "--k", 300, "--out", pool) == 0
    ref = tmp_path / "ref.txt"
    save_reference(ReferenceText(load_pool(pool).keys[:150], 15), ref)
    db = tmp_path / "sigs.db"
    assert _run("sign", "--ref", ref, "--corpus", docs, "--out", db) == 0
    default, explicit = tmp_path / "default.tsv", tmp_path / "explicit.tsv"
    assert _run("dedup", "--db", db, "--out", default) == 0
    assert _run("dedup", "--db", db, "--t1", 0.999, "--t2", 0.93, "--out", explicit) == 0
    assert default.read_bytes() == explicit.read_bytes()
    labels = {row.split("\t")[3] for row in explicit.read_text().split("\n")[1:-1]}
    assert labels == {"duplicate", "near-duplicate"}
    # Rows are written a slice of hits at a time; the slice size is invisible.
    monkeypatch.setattr("refsig.cli.TSV_SLICE", 7)
    sliced = tmp_path / "sliced.tsv"
    assert _run("dedup", "--db", db, "--out", sliced) == 0
    assert sliced.read_bytes() == explicit.read_bytes()


def test_eval_skips_distinct_label_rows(tmp_path, capsys):
    synthetic = tmp_path / "synthetic"
    assert _run("synth", "--bases", 20, "--near-dups", 6, "--dups", 4,
                "--seed", 5, "--words", 60, "--out", synthetic) == 0
    docs = synthetic / "docs"
    pool = tmp_path / "pool.txt"
    assert _run("topk", "--corpus", docs, "--k", 200, "--out", pool) == 0
    ref = tmp_path / "ref.txt"
    save_reference(ReferenceText(load_pool(pool).keys[:100], 10), ref)
    labels = (synthetic / "labels.tsv").read_text(encoding="utf-8")
    assert "base-0000.txt\tbase-0001.txt" not in labels

    def scores(rows):
        path = tmp_path / "labels.tsv"
        path.write_text(labels + rows, encoding="utf-8")
        code = _run("eval", "--ref", ref, "--corpus", docs, "--labels", path,
                    "--out", tmp_path / "report.tsv")
        report = (tmp_path / "report.tsv").read_text(encoding="utf-8").split("\n")[1]
        return code, report.split("\t")[6:9]

    assert scores("base-0000.txt\tbase-0001.txt\tdistinct\n") == scores("")
    capsys.readouterr()
    assert scores("base-0000.txt\tbase-0001.txt\tsimilar\n")[0] == 1
    assert "'base-0000.txt\\tbase-0001.txt\\tsimilar'" in capsys.readouterr().err


def _sign_reference(tmp_path):
    grams = ["the", "he ", " qu", "qui", "uic", "ick", "ck ", "fox", "dog", "laz"]
    ref = ReferenceText(_keys(grams), 4)
    path = tmp_path / "ref.txt"
    save_reference(ref, path)
    return ref, path


def test_sign_streams_blocks_byte_identical(tmp_path, monkeypatch):
    ref, ref_path = _sign_reference(tmp_path)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    n = 2 * SIGN_BLOCK + 5
    empty = {SIGN_BLOCK - 1, SIGN_BLOCK, 2 * SIGN_BLOCK}  # both sides of a block edge
    for i in range(n):
        text = "" if i in empty else f"The quick fox {i} jumps over the lazy dog {i * i}"
        (corpus / f"doc-{i:03d}.txt").write_text(text, encoding="utf-8")
    block_sizes = []

    def recording_matrix(docs, reference):
        block_sizes.append(len(docs))
        return signature_matrix(docs, reference)

    monkeypatch.setattr(cli, "signature_matrix", recording_matrix)
    db_path = tmp_path / "sigs.db"
    with pytest.warns(UserWarning, match="3 documents are empty") as caught:
        assert _run("sign", "--ref", ref_path, "--corpus", corpus, "--out", db_path) == 0
    assert len(caught) == 1
    assert block_sizes == [SIGN_BLOCK, SIGN_BLOCK, 5]

    with pytest.warns(UserWarning):
        docs = ingest(corpus)
    rows = signature_matrix(docs, ref)
    expected = tmp_path / "expected.db"
    db_write(expected, ref, [d.id for d in docs], rows)
    assert db_path.read_bytes() == expected.read_bytes()
    assert not rows[sorted(empty)].any()


def test_sign_empty_corpus_writes_empty_db(tmp_path):
    ref, ref_path = _sign_reference(tmp_path)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    db_path = tmp_path / "sigs.db"
    assert _run("sign", "--ref", ref_path, "--corpus", corpus, "--out", db_path) == 0
    expected = tmp_path / "expected.db"
    db_write(expected, ref, [], np.empty((0, ref.partitions)))
    assert db_path.read_bytes() == expected.read_bytes()
    assert db_read(db_path).record_count == 0
