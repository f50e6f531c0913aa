import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from refsig import cli, text
from refsig.cli import build_parser, main
from refsig.evaluate import SyntheticCorpusSpec, dnd_scan, synthetic_texts
from refsig.ga import GaConfig
from refsig.reference import (
    SIGN_BLOCK,
    ReferenceText,
    save_reference,
    signature_matrix,
)
from refsig.store import SignatureDb, db_read, db_write, ingest
from refsig.tfidf import load_pool

from helpers import _keys


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


def _synth_spec(monkeypatch, *flags):
    """The SyntheticCorpusSpec that ``refsig synth`` hands to the generator."""

    def capture(spec):
        raise _Captured(spec)

    monkeypatch.setattr(cli, "synthetic_texts", capture)
    with pytest.raises(_Captured) as caught:
        _run("synth", "--out", "synthetic", *flags)
    return caught.value.args[0]


def test_every_synth_spec_field_has_a_synth_flag_with_its_default(monkeypatch):
    assert _synth_spec(monkeypatch) == SyntheticCorpusSpec()
    flags = ("--bases", 7, "--near-dups", 3, "--dups", 2, "--edit-fraction", 0.25,
             "--seed", 9, "--words", 40)
    spec = _synth_spec(monkeypatch, *flags)
    default = SyntheticCorpusSpec()
    unset = [f.name for f in fields(spec) if getattr(spec, f.name) == getattr(default, f.name)]
    assert unset == []


def test_topk_default_k_is_the_pool_size():
    args = build_parser().parse_args(["topk", "--corpus", "x", "--out", "pool.txt"])
    assert args.k == GaConfig.pool_size


def test_synth_layout(tmp_path, capsys):
    out = tmp_path / "synthetic"
    assert _run("synth", "--bases", 6, "--near-dups", 2, "--dups", 2,
                "--edit-fraction", 0.1, "--seed", 4, "--out", out) == 0
    docs = sorted(p.name for p in (out / "docs").iterdir())
    assert len(docs) == 10
    labels = (out / "labels.tsv").read_text(encoding="utf-8").strip().split("\n")
    assert labels[0] == "id_a\tid_b\tlabel"
    assert len(labels) == 6  # 4 (base, copy) pairs, and the two dups of one base


def test_synth_refuses_a_docs_dir_holding_what_it_does_not_write(tmp_path, capsys):
    out = tmp_path / "synthetic"
    big = ("--bases", 30, "--near-dups", 4, "--dups", 2, "--words", 5, "--out", out)
    assert _run("synth", *big) == 0

    def files():
        return {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}

    before = files()
    assert len(before) == 36 + 1  # the documents and labels.tsv
    capsys.readouterr()
    assert _run("synth", "--bases", 10, "--near-dups", 2, "--dups", 1, "--words", 5,
                "--out", out) == 1
    assert capsys.readouterr().err == (
        f"error: {out / 'docs'} holds 23 entries that this corpus does not write, "
        "the first 'base-0010.txt'\n"
    )
    assert files() == before
    assert _run("synth", *big) == 0  # the same corpus again writes the same bytes
    assert files() == before


def test_synth_writes_its_texts_without_vectorizing(tmp_path, monkeypatch):
    def refuse(cls, doc_id, raw):
        raise AssertionError(f"synth vectorized {doc_id!r}")

    monkeypatch.setattr(text.Document, "from_raw", classmethod(refuse))
    out = tmp_path / "synthetic"
    assert _run("synth", "--bases", 6, "--near-dups", 2, "--dups", 2,
                "--edit-fraction", 0.3, "--seed", 4, "--out", out) == 0
    texts, _ = synthetic_texts(SyntheticCorpusSpec(
        base_doc_count=6, near_dup_count=2, dup_count=2, edit_fraction=0.3, rng_seed=4))
    assert sorted(p.name for p in (out / "docs").iterdir()) == [doc_id for doc_id, _ in texts]
    for doc_id, expected in texts:
        assert (out / "docs" / doc_id).read_bytes() == expected.encode("utf-8")


def _files(root):
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


def test_synth_keeps_each_document_whole_when_a_write_fails(tmp_path, monkeypatch, capsys):
    out = tmp_path / "synthetic"
    flags = ("--bases", 6, "--near-dups", 2, "--dups", 2, "--seed", 4, "--out", out)
    assert _run("synth", *flags) == 0
    before = _files(out)
    texts, pairs = synthetic_texts(SyntheticCorpusSpec(
        base_doc_count=6, near_dup_count=2, dup_count=2, rng_seed=4))
    # New texts, the k-th holding a lone surrogate, which UTF-8 cannot encode.
    k = 4
    edited = [(doc_id, f"new text {i}" if i != k else "new text \ud800")
              for i, (doc_id, _) in enumerate(texts)]
    monkeypatch.setattr(cli, "synthetic_texts", lambda spec: (edited, pairs))
    capsys.readouterr()
    assert _run("synth", *flags) == 1
    assert "surrogates not allowed" in capsys.readouterr().err
    after = _files(out)
    assert after.keys() == before.keys()  # no temporary file is left
    for i, (doc_id, _) in enumerate(texts):
        path = out / "docs" / doc_id
        assert after[path] == (f"new text {i}".encode() if i < k else before[path])
    assert after[out / "labels.tsv"] == before[out / "labels.tsv"]


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
        "dataset", "ref_len", "partitions", "mae", "precision", "recall", "f1", "runtime_s",
    ]
    cells = row.split("\t")
    assert cells[1] == "60" and cells[2] == "10"
    assert 0.0 <= float(cells[3]) <= 1.0


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


@pytest.mark.parametrize("width, code", [(2, 1), (4, 0)], ids=["other-width", "control"])
def test_dedup_ref_rejects_db_of_another_width(tmp_path, capsys, width, code):
    # The header carries the reference's fingerprint either way; rows of
    # another width than its P=4 were still not signed with it.
    ref, ref_path = _sign_reference(tmp_path)
    db_path, pairs = tmp_path / "sigs.db", tmp_path / "pairs.tsv"
    db_write(db_path, SignatureDb(ref.fingerprint, ("a", "b"), np.ones((2, width))))
    assert _run("dedup", "--db", db_path, "--ref", ref_path, "--out", pairs) == code
    if code:
        assert capsys.readouterr().err == (
            f"error: database {db_path} was signed with a different reference text\n"
        )
    assert pairs.exists() == (not code)


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
    # nor do the corpus, the reference or the labels file
    missing = {"--corpus": tmp_path / "nope", "--ref": tmp_path / "ref.txt",
               "--labels": tmp_path / "labels.tsv", "--out": tmp_path / "out.tsv"}
    cases = [
        (["eval", "--t1", 0.5, "--t2", 0.9], ["--ref"], "thresholds"),
        (["eval", "--t1", 0.5, "--t2", 0.9], ["--ref", "--labels"], "thresholds"),
        (["eval"], ["--ref", "--labels"], str(missing["--labels"])),
        (["train", "--population", 0], [], "population_size"),
        # a population of one has no pair to cross, so no generation after 0 could breed
        (["train", "--population", 1], [], "population_size must be >= 2"),
        (["train", "--runs", 0], [], "--runs must be at least 1, got 0"),
        (["topk", "--k", 0], [], "--k must be at least 1, got 0"),
    ]
    for command, flags, named in cases:
        paths = [arg for flag in [*flags, "--corpus", "--out"] for arg in (flag, missing[flag])]
        assert _run(*command, *paths) == 1
        err = capsys.readouterr().err
        assert named in err and str(missing["--corpus"]) not in err, command


def test_missing_corpus_fails_cleanly(tmp_path, capsys):
    assert _run("topk", "--corpus", tmp_path / "nope", "--k", 5,
                "--out", tmp_path / "pool.txt") == 1
    assert "error:" in capsys.readouterr().err


def test_train_rejects_a_split_it_cannot_use_before_training(tmp_path, capsys):
    # 5 documents split 4 to train on and 1 held out: sample 4 fits, the holdout does not
    corpus = _make_corpus(tmp_path, *(f"document number {i} has words" for i in range(5)))
    ref = tmp_path / "ref.txt"
    assert _run("train", "--corpus", corpus, "--sample", 4, "--runs", 2, "--population", 4,
                "--ref-len", 10, "--partitions", 2, "--pool-size", 50, "--generations", 1,
                "--out", ref) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: a corpus of 5 documents splits into 4 to train on and 1 held out; "
                   "training needs sample_size=4 and the holdout at least 2\n")
    assert not ref.exists()


_OUTPUT_ARGVS = {
    "topk": ("topk", "--corpus", "{tmp}/corpus", "--out", "{out}"),
    "train-out": ("train", "--corpus", "{tmp}/corpus", "--out", "{out}"),
    "train-history": ("train", "--corpus", "{tmp}/corpus", "--out", "{tmp}/ref.txt",
                      "--history", "{out}"),
    "sign": ("sign", "--ref", "{tmp}/ref.txt", "--corpus", "{tmp}/corpus", "--out", "{out}"),
    "dedup": ("dedup", "--db", "{tmp}/sigs.db", "--out", "{out}"),
    "eval": ("eval", "--ref", "{tmp}/ref.txt", "--corpus", "{tmp}/corpus", "--out", "{out}"),
}


@pytest.mark.parametrize(
    "argv, is_dir",
    [pytest.param(argv, False, id=name) for name, argv in _OUTPUT_ARGVS.items()]
    + [pytest.param(argv, True, id=f"{name}-is-a-directory")
       for name, argv in _OUTPUT_ARGVS.items()],
)
def test_every_command_checks_its_output_directory_before_reading(
    tmp_path, capsys, monkeypatch, argv, is_dir
):
    def unread(*args, **kwargs):
        raise AssertionError("input read before the output directory was checked")

    for reader in ("ingest", "iter_documents", "db_read", "load_reference"):
        monkeypatch.setattr(cli, reader, unread)
    # An output that is an existing directory, or a file in a missing one.
    output = tmp_path / "existing" if is_dir else tmp_path / "missing" / "out.txt"
    if is_dir:
        output.mkdir()
    argv = [arg.format(tmp=tmp_path, out=output) for arg in argv]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    reason = "is a directory" if is_dir else f"directory {output.parent} does not exist"
    assert err == f"error: {argv[-2]} {output}: {reason}\n"
    assert list(tmp_path.iterdir()) == ([output] if is_dir else [])
    if is_dir:
        assert list(output.iterdir()) == []


# Each command given an output path that is one of its inputs or its other
# output, or that lies inside its --corpus directory, where the next read of
# the corpus would take it for a document: the flag named, that path, and why.
_IN_CORPUS = "lies inside the --corpus directory {tmp}/corpus"
_COLLIDING_ARGVS = {
    "topk": (("topk", "--corpus", "{tmp}/records.txt", "--out", "{tmp}/records.txt"),
             "--out", "is the same file as --corpus"),
    "train": (("train", "--corpus", "{tmp}/corpus", "--runs", 1, "--sample", 4,
               "--population", 4, "--ref-len", 10, "--partitions", 2, "--pool-size", 50,
               "--generations", 1, "--out", "{tmp}/ref.txt", "--history", "{tmp}/ref.txt"),
              "--history", "is the same file as --out"),
    "sign": (("sign", "--ref", "{tmp}/ref.txt", "--corpus", "{tmp}/corpus",
              "--out", "{tmp}/ref.txt"), "--out", "is the same file as --ref"),
    # The same file by another spelling.
    "dedup": (("dedup", "--db", "{tmp}/sigs.db", "--out", "{tmp}/corpus/../sigs.db"),
              "--out", "is the same file as --db"),
    "eval": (("eval", "--ref", "{tmp}/ref.txt", "--corpus", "{tmp}/corpus",
              "--labels", "{tmp}/labels.tsv", "--out", "{tmp}/labels.tsv"),
             "--out", "is the same file as --labels"),
    "topk-in-corpus": (("topk", "--corpus", "{tmp}/corpus", "--k", 5,
                        "--out", "{tmp}/corpus/pool.txt"), "--out", _IN_CORPUS),
    "train-in-corpus": (("train", "--corpus", "{tmp}/corpus", "--runs", 1, "--sample", 4,
                         "--population", 4, "--ref-len", 10, "--partitions", 2,
                         "--pool-size", 50, "--generations", 1, "--out", "{tmp}/trained.txt",
                         "--history", "{tmp}/corpus/history.tsv"), "--history", _IN_CORPUS),
    # The corpus by another spelling.
    "sign-in-corpus": (("sign", "--ref", "{tmp}/ref.txt", "--corpus", "{tmp}/corpus",
                        "--out", "{tmp}/corpus/../corpus/sigs.db"), "--out", _IN_CORPUS),
    "eval-in-corpus": (("eval", "--ref", "{tmp}/ref.txt", "--corpus", "{tmp}/corpus",
                        "--out", "{tmp}/corpus/report.tsv"), "--out", _IN_CORPUS),
}


@pytest.mark.parametrize("argv, flag, reason", _COLLIDING_ARGVS.values(),
                         ids=list(_COLLIDING_ARGVS))
def test_every_command_rejects_an_output_that_is_an_input(tmp_path, capsys, argv, flag, reason):
    corpus = _make_corpus(tmp_path, *(f"document {i} about {w} and more {w}"
                                      for i, w in enumerate("abcdefghijkl")))
    (tmp_path / "records.txt").write_text("one record\nanother record\n", encoding="utf-8")
    save_reference(ReferenceText(_keys(["doc", "ocu", "abo", "mor"]), 2), tmp_path / "ref.txt")
    assert _run("sign", "--ref", tmp_path / "ref.txt", "--corpus", corpus,
                "--out", tmp_path / "sigs.db") == 0
    (tmp_path / "labels.tsv").write_text("id_a\tid_b\tlabel\ndoc-0.txt\tdoc-1.txt\tdistinct\n",
                                         encoding="utf-8")
    capsys.readouterr()
    before = _files(tmp_path)
    argv = [str(arg).format(tmp=tmp_path) for arg in argv]
    assert main(argv) == 1
    path = argv[argv.index(flag) + 1]
    assert capsys.readouterr() == ("", f"error: {flag} {path}: {reason.format(tmp=tmp_path)}\n")
    assert _files(tmp_path) == before


def test_eval_report_holds_only_the_columns_it_measures(tmp_path):
    corpus = _make_corpus(tmp_path, "the first document", "the second document", "the third")
    ref = tmp_path / "ref.txt"
    save_reference(ReferenceText(_keys(["the", "doc", "ume"]), 3), ref)
    labels = tmp_path / "labels.tsv"
    labels.write_text("id_a\tid_b\tlabel\ndoc-0.txt\tdoc-1.txt\tnear-duplicate\n",
                      encoding="utf-8")
    columns = ["dataset", "ref_len", "partitions", "mae", "precision", "recall", "f1",
               "runtime_s"]

    def report(*flags):
        out = tmp_path / "report.tsv"
        assert _run("eval", "--ref", ref, "--corpus", corpus, *flags, "--out", out) == 0
        header, row = out.read_text(encoding="utf-8").split("\n")[:2]
        assert header.split("\t") == columns
        cells = row.split("\t")
        assert len(cells) == len(columns)
        return [name for name, cell in zip(columns, cells) if not cell]

    assert report("--labels", labels) == []
    assert report() == ["precision", "recall", "f1"]


def test_eval_one_document_corpus_fails_with_one_error_line(tmp_path, capsys):
    corpus = _make_corpus(tmp_path, "the only document")
    ref = tmp_path / "ref.txt"
    save_reference(ReferenceText(_keys(["the", "onl", "doc"]), 3), ref)
    assert _run("eval", "--ref", ref, "--corpus", corpus, "--out", tmp_path / "r.tsv") == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: need at least 2 documents")
    assert not (tmp_path / "r.tsv").exists()


@pytest.mark.parametrize("sample", [1, 0, -1])
def test_eval_sample_below_two_fails_naming_the_flag(tmp_path, capsys, sample):
    corpus = _make_corpus(tmp_path, *(f"document number {i}" for i in range(5)))
    ref = tmp_path / "ref.txt"
    save_reference(ReferenceText(_keys(["doc", "ume", "num"]), 3), ref)
    assert _run("eval", "--ref", ref, "--corpus", corpus, "--sample", sample,
                "--out", tmp_path / "r.tsv") == 1
    assert capsys.readouterr().err == f"error: --sample must be at least 2, got {sample}\n"
    assert not (tmp_path / "r.tsv").exists()


def test_eval_bad_label_line_is_named_by_file_and_line(tmp_path, capsys):
    corpus = _make_corpus(tmp_path, "the first document", "the second document")
    ref = tmp_path / "ref.txt"
    save_reference(ReferenceText(_keys(["the", "doc", "ume"]), 3), ref)
    labels = tmp_path / "labels.tsv"
    labels.write_text("id_a\tid_b\tlabel\ndoc-0.txt\tdoc-1.txt\tdistinct\n"
                      "doc-0.txt\tdoc-1.txt\tduplicate\ndoc-0.txt\tdoc-1.txt\tsame\n",
                      encoding="utf-8")
    assert _run("eval", "--ref", ref, "--corpus", corpus, "--labels", labels,
                "--out", tmp_path / "r.tsv") == 1
    assert capsys.readouterr().err == (
        f"error: {labels}:4: bad label line 'doc-0.txt\\tdoc-1.txt\\tsame'\n"
    )


def test_eval_label_row_pairing_an_id_with_itself_is_named_by_file_and_line(tmp_path, capsys):
    # dnd_scan never pairs a row with itself, so no scan could find such a pair.
    corpus = _make_corpus(tmp_path, "the first document", "the second document", "the third")
    ref = tmp_path / "ref.txt"
    save_reference(ReferenceText(_keys(["the", "doc", "ume"]), 3), ref)
    labels = tmp_path / "labels.tsv"
    labels.write_text("id_a\tid_b\tlabel\ndoc-0.txt\tdoc-1.txt\tduplicate\n"
                      "doc-0.txt\tdoc-0.txt\tduplicate\n", encoding="utf-8")
    assert _run("eval", "--ref", ref, "--corpus", corpus, "--labels", labels,
                "--out", tmp_path / "r.tsv") == 1
    assert capsys.readouterr().err == (
        f"error: {labels}:3: label line pairs 'doc-0.txt' with itself\n"
    )
    assert not (tmp_path / "r.tsv").exists()


@pytest.mark.parametrize(
    "text, error",
    [
        ("doc-0.txt\tdoc-1.txt\tduplicate\ndoc-1.txt\tdoc-2.txt\tduplicate\n",
         ":1: expected the header 'id_a\\tid_b\\tlabel', not 'doc-0.txt\\tdoc-1.txt\\tduplicate'"),
        ("id_a\tid_b\tlabel\ndoc-0.txt\tdoc-1.txt\tduplicate\textra\n",
         ":2: bad label line 'doc-0.txt\\tdoc-1.txt\\tduplicate\\textra'"),
    ],
    ids=["headerless", "four-columns"],
)
def test_eval_label_file_needs_its_header_and_three_columns(tmp_path, capsys, text, error):
    corpus = _make_corpus(tmp_path, "the first document", "the second document", "the third")
    ref = tmp_path / "ref.txt"
    save_reference(ReferenceText(_keys(["the", "doc", "ume"]), 3), ref)
    labels = tmp_path / "labels.tsv"
    labels.write_text(text, encoding="utf-8")
    assert _run("eval", "--ref", ref, "--corpus", corpus, "--labels", labels,
                "--out", tmp_path / "r.tsv") == 1
    assert capsys.readouterr().err == f"error: {labels}{error}\n"


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
        return code, report.split("\t")[4:7]

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


@pytest.mark.parametrize(
    "name, named",
    [
        ("a\tb.txt", "a tab"),
        ("a\nb.txt", "a newline"),
        # The file name's byte 0xff, which is not UTF-8, reaches the id as a lone surrogate.
        ("b\udcff.txt", "a lone surrogate, which UTF-8 cannot encode"),
    ],
)
def test_sign_rejects_an_id_that_pairs_tsv_cannot_hold(tmp_path, capsys, name, named):
    _, ref = _sign_reference(tmp_path)
    corpus = _make_corpus(tmp_path, "the quick fox", "the lazy dog")
    (corpus / name).write_text("the quick dog", encoding="utf-8")
    assert _run("sign", "--ref", ref, "--corpus", corpus, "--out", tmp_path / "s.db") == 1
    assert capsys.readouterr().err == f"error: document id {name!r} contains {named}\n"
    assert not (tmp_path / "s.db").exists()


def test_sign_rejects_a_bad_id_before_signing_its_block(tmp_path, capsys, monkeypatch):
    _, ref = _sign_reference(tmp_path)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(2 * SIGN_BLOCK + 5):
        (corpus / f"doc-{i:03d}.txt").write_text(f"the quick fox {i}", encoding="utf-8")
    (corpus / "a\tb.txt").write_text("the lazy dog", encoding="utf-8")  # sorts first
    block_sizes = []

    def recording_matrix(docs, reference):
        block_sizes.append(len(docs))
        return signature_matrix(docs, reference)

    monkeypatch.setattr("refsig.store.signature_matrix", recording_matrix)
    assert _run("sign", "--ref", ref, "--corpus", corpus, "--out", tmp_path / "s.db") == 1
    assert capsys.readouterr().err == "error: document id 'a\\tb.txt' contains a tab\n"
    assert len(block_sizes) <= 1
    assert not (tmp_path / "s.db").exists()


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

    monkeypatch.setattr("refsig.store.signature_matrix", recording_matrix)
    db_path = tmp_path / "sigs.db"
    with pytest.warns(UserWarning, match="3 documents have no 3-gram") as caught:
        assert _run("sign", "--ref", ref_path, "--corpus", corpus, "--out", db_path) == 0
    assert len(caught) == 1
    assert block_sizes == [SIGN_BLOCK, SIGN_BLOCK, 5]

    with pytest.warns(UserWarning):
        docs = ingest(corpus)
    rows = signature_matrix(docs, ref)
    expected = tmp_path / "expected.db"
    db_write(expected, SignatureDb(ref.fingerprint, tuple(d.id for d in docs), rows))
    assert db_path.read_bytes() == expected.read_bytes()
    assert not rows[sorted(empty)].any()


def test_eval_labels_signs_in_blocks_as_sign_does(tmp_path, monkeypatch):
    _, ref = _sign_reference(tmp_path)
    corpus = _make_corpus(tmp_path, *(f"the quick fox {i} and the lazy dog {i * i}"
                                      for i in range(2 * SIGN_BLOCK + 5)))
    labels = tmp_path / "labels.tsv"
    labels.write_text("id_a\tid_b\tlabel\ndoc-0.txt\tdoc-1.txt\tnear-duplicate\n",
                      encoding="utf-8")
    block_sizes = []

    def recording_matrix(docs, reference):
        block_sizes.append(len(docs))
        return signature_matrix(docs, reference)

    scanned = []

    def recording_scan(db, cfg):
        scanned.append(db)
        return dnd_scan(db, cfg)

    monkeypatch.setattr("refsig.store.signature_matrix", recording_matrix)
    monkeypatch.setattr("refsig.cli.dnd_scan", recording_scan)
    db_path = tmp_path / "sigs.db"
    assert _run("sign", "--ref", ref, "--corpus", corpus, "--out", db_path) == 0
    assert _run("eval", "--ref", ref, "--corpus", corpus, "--labels", labels,
                "--out", tmp_path / "report.tsv") == 0
    assert block_sizes == [SIGN_BLOCK, SIGN_BLOCK, 5] * 2
    (db,) = scanned
    signed = db_read(db_path)
    assert db.fingerprint == signed.fingerprint
    assert db.ids == signed.ids
    assert db.scores.dtype == signed.scores.dtype
    assert db.scores.tobytes() == signed.scores.tobytes()


def test_sign_warns_of_every_document_that_signs_all_zero(tmp_path):
    # Two identical 2-character files have no 3-gram, so they sign all-zero
    # and score 0.0 against each other, as a whitespace-only file does.
    ref, ref_path = _sign_reference(tmp_path)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, content in [("a.txt", "ok"), ("b.txt", "ok"), ("blank.txt", " \n\t"),
                          ("full.txt", "the quick fox")]:
        (corpus / name).write_text(content, encoding="utf-8")
    db_path = tmp_path / "sigs.db"
    with pytest.warns(UserWarning) as caught:
        assert _run("sign", "--ref", ref_path, "--corpus", corpus, "--out", db_path) == 0
    assert [str(w.message) for w in caught] == [
        "3 documents have no 3-gram after normalization: 'a.txt', 'b.txt', 'blank.txt'"
    ]
    db = db_read(db_path)
    assert db.ids == ("a.txt", "b.txt", "blank.txt", "full.txt")
    assert not db.scores[:3].any() and db.scores[3].any()


def test_sign_empty_corpus_writes_empty_db(tmp_path):
    ref, ref_path = _sign_reference(tmp_path)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    db_path = tmp_path / "sigs.db"
    assert _run("sign", "--ref", ref_path, "--corpus", corpus, "--out", db_path) == 0
    expected = tmp_path / "expected.db"
    db_write(expected, SignatureDb(ref.fingerprint, (), np.empty((0, ref.partitions))))
    assert db_path.read_bytes() == expected.read_bytes()
    assert db_read(db_path).record_count == 0


@pytest.mark.parametrize("command", ["topk", "sign"])
def test_cli_prints_a_library_warning_as_one_line(tmp_path, command):
    # In a fresh interpreter: pytest records warnings in-process instead of printing them.
    _, ref_path = _sign_reference(tmp_path)
    records = tmp_path / "records.txt"
    records.write_text("the quick fox\n\nthe lazy dog\n", encoding="utf-8")
    argv = {
        "topk": ["--k", "5000", "--out", tmp_path / "pool.txt"],
        "sign": ["--ref", ref_path, "--out", tmp_path / "sigs.db"],
    }[command]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env.pop("PYTHONWARNINGS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "refsig", command, "--corpus", records, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    empty = "warning: 1 document has no 3-gram after normalization: '1'\n"
    assert done.stderr == {
        "topk": empty + "warning: corpus has only 19 distinct 3-grams, requested 5000\n",
        "sign": empty,
    }[command]
