"""The benchmark traces refsig by name: every name it wraps must still exist,
and the program must still reach it through that name, or its per-layer
metrics silently read zero."""

import importlib
import importlib.util
import math
from pathlib import Path

from refsig.cli import main
from refsig.reference import SIGN_BLOCK, ReferenceText, save_reference

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
    save_reference(ReferenceText(["doc", "cum", "ent", "caf", "tea", "é &"], 3), ref)
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
    save_reference(ReferenceText(["the", "qui", "bro", "fox", "fax", "laz", "dog", "dif"], 4), ref)
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
