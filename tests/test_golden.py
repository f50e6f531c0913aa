"""Golden outputs: `refsig topk`, a small `refsig train` (its files and its
per-run stdout), and `refsig sign`, `refsig dedup` and `refsig eval --labels`
with that reference, at fixed seeds, must keep producing the same bytes from
one commit to the next.

The pool, reference and history digests were recorded before grams became
packed keys between the tf-idf ranking and the reference file; the db and
pairs digests before a reference held packed keys instead of str grams. A
representation change that alters a tie order, an RNG draw, the reference
fingerprint in the db header or a file byte shows up here. The history is
compared without its ``elapsed_s`` column, which is wall time, the eval
report without its ``dataset`` (the corpus path) and ``runtime_s`` cells,
and the train stdout with its ``--out`` path masked and without the line
naming the history file.
"""

import hashlib

from refsig.cli import main

POOL_SHA256 = "d50ed27e8d8b9a713bd25f4fd89134a7ba56faf4cd625fc46201f31237d740e1"
# Recorded while `score_grams` still counted the whole corpus in one pass.
BLOCKS_POOL_SHA256 = "e2fe2711c5f74c9d36b97de3c9f0573f188ce0033801700925e83d5b8194c280"
REF_SHA256 = "8543c41f27c5f63a464fc0757ebbeacd5232e59219a5a22f446110e655dbefb5"
HISTORY_SHA256 = "19a8550b751a48444a36a65ee8cadf223f6a2ccaae5c48e360df6a2fd6569e54"
DB_SHA256 = "dd3e4b67cc562fbfdee11cee3ae9bcdb69a6d5c9a41d44b43e33e1e395cf1398"
PAIRS_SHA256 = "ff8590740403502318104b2dcfce0679201832cae7cd5641b6fdb57a145e948a"
# Recorded when the report lost its never-filled `population` and `generations` columns.
EVAL_SHA256 = "5e9fea93d1824f08e82827288c87ed5e05c6fcc1c4c05faf46616cf3fae7fb43"
# Recorded while `cross_validate` still tracked its own running best and
# each run report carried its index and train MAE.
TRAIN_STDOUT_SHA256 = "f17e3580e0a29c2be74b2f2513c2f984f8b71185a8be1c3802ed5956e7e7835a"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _corpus(tmp_path):
    out = tmp_path / "synthetic"
    assert main(["synth", "--bases", "24", "--near-dups", "6", "--dups", "4",
                 "--edit-fraction", "0.1", "--seed", "5", "--words", "60",
                 "--out", str(out)]) == 0
    return out / "docs"


def test_topk_pool_bytes_are_pinned(tmp_path):
    corpus = _corpus(tmp_path)
    pool = tmp_path / "pool.txt"
    # k = 700 cuts through a group of tied scores on this corpus.
    assert main(["topk", "--corpus", str(corpus), "--k", "700", "--out", str(pool)]) == 0
    assert _sha256(pool.read_bytes()) == POOL_SHA256


def test_topk_pool_bytes_over_several_blocks_are_pinned(tmp_path):
    # 210 documents: `score_grams` counts them in four blocks of SIGN_BLOCK.
    out = tmp_path / "synthetic"
    assert main(["synth", "--bases", "150", "--near-dups", "40", "--dups", "20",
                 "--edit-fraction", "0.1", "--seed", "9", "--words", "40",
                 "--out", str(out)]) == 0
    pool = tmp_path / "pool.txt"
    # k = 2000 cuts through a group of tied scores on this corpus.
    assert main(["topk", "--corpus", str(out / "docs"), "--k", "2000", "--out", str(pool)]) == 0
    assert _sha256(pool.read_bytes()) == BLOCKS_POOL_SHA256


def _train(tmp_path, corpus):
    ref, history = tmp_path / "ref.txt", tmp_path / "history.tsv"
    assert main(["train", "--corpus", str(corpus), "--pool-size", "300", "--ref-len", "60",
                 "--partitions", "10", "--population", "8", "--generations", "3",
                 "--sample", "12", "--runs", "2", "--seed", "11",
                 "--out", str(ref), "--history", str(history)]) == 0
    return ref, history


def test_train_reference_and_history_bytes_are_pinned(tmp_path):
    ref, history = _train(tmp_path, _corpus(tmp_path))
    rows = history.read_text(encoding="utf-8").splitlines()
    timeless = "".join("\t".join(row.split("\t")[:3]) + "\n" for row in rows)
    assert _sha256(ref.read_bytes()) == REF_SHA256
    assert _sha256(timeless.encode("utf-8")) == HISTORY_SHA256


def test_train_stdout_is_pinned(tmp_path, capsys):
    corpus = _corpus(tmp_path)
    capsys.readouterr()
    ref, _ = _train(tmp_path, corpus)
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("wrote training history")
    printed = "".join(line.replace(str(ref), "<out>") + "\n" for line in lines[:-1])
    assert _sha256(printed.encode("utf-8")) == TRAIN_STDOUT_SHA256


def test_sign_db_and_dedup_pairs_bytes_are_pinned(tmp_path):
    corpus = _corpus(tmp_path)
    ref, _ = _train(tmp_path, corpus)
    db, pairs = tmp_path / "sigs.db", tmp_path / "pairs.tsv"
    assert main(["sign", "--ref", str(ref), "--corpus", str(corpus), "--html-strip",
                 "--out", str(db)]) == 0
    assert main(["dedup", "--db", str(db), "--t1", "0.999", "--t2", "0.93",
                 "--out", str(pairs)]) == 0
    assert _sha256(db.read_bytes()) == DB_SHA256
    assert _sha256(pairs.read_bytes()) == PAIRS_SHA256


def test_eval_labels_report_bytes_are_pinned(tmp_path):
    corpus = _corpus(tmp_path)
    ref, _ = _train(tmp_path, corpus)
    report = tmp_path / "report.tsv"
    assert main(["eval", "--ref", str(ref), "--corpus", str(corpus), "--html-strip",
                 "--labels", str(corpus.parent / "labels.tsv"), "--sample", "20",
                 "--seed", "3", "--t1", "0.999", "--t2", "0.93", "--out", str(report)]) == 0
    header, row = report.read_text(encoding="utf-8").splitlines()
    cells = row.split("\t")
    cells[0] = cells[-1] = ""
    masked = header + "\n" + "\t".join(cells) + "\n"
    assert _sha256(masked.encode("utf-8")) == EVAL_SHA256
