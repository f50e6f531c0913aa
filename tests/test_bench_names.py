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
