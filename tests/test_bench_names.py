"""The benchmark traces refsig by name: every name it wraps must still exist,
and the program must still reach it through that name, or its per-layer
metrics silently read zero."""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from refsig.cli import main
from refsig.evaluate import split_corpus
from refsig.reference import SIGN_BLOCK, ReferenceText, save_reference
from refsig.store import ingest

from helpers import _keys


TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _tracing()
    for home in tracing.MODULES:
        importlib.import_module(f"refsig.{home}")
    for home, names in tracing.FUNCTIONS.items():
        module = importlib.import_module(f"refsig.{home}")
        for name in names:
            assert callable(getattr(module, name, None)), f"refsig.{home}.{name}"
    for home, cls_name, attr, span_name in tracing.METHODS:
        cls = getattr(importlib.import_module(f"refsig.{home}"), cls_name)
        assert attr in cls.__dict__, f"{span_name}: {cls_name}.{attr}"


def test_traced_sign_reaches_the_per_document_layers(tmp_path):
    docs = SIGN_BLOCK + 6
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for k in range(docs):
        (corpus / f"{k:03d}.html").write_text(f"<p>Document {k}: caf&eacute; &amp; Tea</p>\n")
    ref = tmp_path / "ref.txt"
    save_reference(ReferenceText(_keys(["doc", "cum", "ent", "caf", "tea", "é &"]), 3), ref)
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = main(["sign", "--ref", str(ref), "--corpus", str(corpus), "--html-strip",
                     "--out", str(tmp_path / "sigs.db")])
    finally:
        tracer.uninstall()
    assert code == 0
    calls = {name: entry["calls"] for name, entry in tracing.summarize(tracer.spans).items()}
    for name in ("text.normalize", "text.extract_3grams", "text.Document.from_raw",
                 "store.strip_html"):
        assert calls.get(name) == docs, name
    assert calls.get("reference.signature_matrix") == math.ceil(docs / SIGN_BLOCK)
    assert calls.get("cli.cmd_sign") == 1


def test_traced_dedup_counts_the_scan(tmp_path):
    # The scan's work counts are read off its SignatureDb argument, so a change
    # to that class must keep them, or `--trace 1` loses the dnd_scan metrics.
    texts = ["the quick brown fox", "the quick brown fox", "the quick brown fax",
             "lazy dogs sleep all day", "a different sentence here"]
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for k, text in enumerate(texts):
        (corpus / f"{k}.txt").write_text(text)
    ref = tmp_path / "ref.txt"
    grams = ["the", "qui", "bro", "fox", "fax", "laz", "dog", "dif"]
    save_reference(ReferenceText(_keys(grams), 4), ref)
    db, pairs = tmp_path / "sigs.db", tmp_path / "pairs.tsv"
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["sign", "--ref", str(ref), "--corpus", str(corpus), "--out", str(db)]) == 0
        assert main(["dedup", "--db", str(db), "--t1", "0.999", "--t2", "0.9",
                     "--out", str(pairs)]) == 0
    finally:
        tracer.uninstall()
    calls = {name: entry["calls"] for name, entry in tracing.summarize(tracer.spans).items()}
    assert calls.get("store.db_write") == 1
    assert calls.get("store.db_read") == 1
    n = len(texts)
    work = tracer.work["evaluate.dnd_scan"]
    assert work["pairs"] == n * (n - 1) // 2
    rows = pairs.read_text().splitlines()[1:]
    assert rows and work["hits"] == len(rows)


def test_traced_train_counts_the_ga_and_the_pool(tmp_path):
    # The train workload's per-layer metrics read the tf-idf and fitness spans
    # and top_k's work counts; none of them may silently fall to zero.
    synth = tmp_path / "synthetic"
    assert main(["synth", "--bases", "14", "--near-dups", "3", "--dups", "2",
                 "--seed", "2", "--words", "30", "--out", str(synth)]) == 0
    corpus = synth / "docs"
    runs, population, generations, k, seed = 2, 6, 3, 5000, 4
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with pytest.warns(UserWarning, match="distinct 3-grams"):
            assert main(["train", "--corpus", str(corpus), "--pool-size", str(k),
                         "--ref-len", "30", "--partitions", "5",
                         "--population", str(population), "--generations", str(generations),
                         "--sample", "8", "--runs", str(runs), "--seed", str(seed),
                         "--out", str(tmp_path / "ref.txt")]) == 0
    finally:
        tracer.uninstall()
    calls = {name: entry["calls"] for name, entry in tracing.summarize(tracer.spans).items()}
    assert calls.get("ga.evolve") == runs
    assert calls.get("tfidf.score_grams") == runs
    assert calls.get("tfidf.top_k") == runs
    # One fitness call scores a whole generation's offspring.
    assert calls.get("ga.fitness") == runs * (generations + 1)
    # k exceeds every training split's distinct grams, so each pool holds them all.
    docs = ingest(str(corpus))
    distinct = 0
    for run in range(runs):
        train, _ = split_corpus(docs, seed + run)
        distinct += len(np.unique(np.concatenate([d.keys for d in train])))
    work = tracer.work["tfidf.top_k"]
    assert work["requested"] == runs * k
    assert work["grams"] == distinct
    assert 0 < work["grams"] / work["requested"] < 1
