"""Memory stays bounded as the input grows.

``refsig sign`` holds one block of documents at a time, from a directory
or a records file, so its peak grows with the signatures (P floats per
document), not with the documents' text and gram vectors. ``refsig topk``
reads its corpus the same way and keeps integer counts per distinct gram,
so its peak grows with the corpus vocabulary, not with the documents. ``refsig dedup``
keeps its hits as arrays and writes them a slice at a time, and ``refsig
eval --labels`` matches them against the labels as arrays of row pairs, so
their peaks grow by tens of bytes per hit, not by a Python object per hit.
``refsig eval`` compares every pair of its documents a row block at a time,
so the peak of its MAE grows linearly with the documents, not quadratically.
A document read by ``ingest`` keeps its 3-gram vector, not its text.

The peak is the ``VmHWM`` of a fresh interpreter, read from
``/proc/self/status``. ``ru_maxrss`` would not do: on Linux a child reports
at least its parent's resident size, carried across exec.
"""

import itertools
import os
import random
import string
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import refsig
from refsig import ga
from refsig.reference import ReferenceText, save_reference
from refsig.store import SignatureDb, db_write, ingest
from refsig.text import Document, gram_keys, normalize
from refsig.tfidf import score_grams, top_k


def _keys(grams):
    return gram_keys("".join(grams))[::3]

SMALL, LARGE = 300, 1300
# A records file is read whole if it is not streamed: its peak then grows by
# about 1.2 times the file, which at 3,300 documents (13 MB) passes the bound.
LARGE_RECORDS = 3300
DOC_CHARS = 4000
# Holding every document costs about 55 kB each at this size (55 MB over
# the 1,000 extra documents); holding their 10-float signatures, under 1 kB.
GROWTH_BOUND_KB = 8 * 1024

# Every pair of DEDUP_ROWS rows near one direction is a hit at low thresholds.
DEDUP_ROWS = 1000
# Python objects per hit cost about 400 B; the hit arrays, under 100 B.
DEDUP_BOUND_BYTES_PER_HIT = 150

MAE_SMALL, MAE_LARGE = 400, 1600
# One MAE_LARGE x MAE_LARGE float64 matrix: a reducer that holds N x N arrays
# grows by at least that. The pair kernel's row blocks and the oracle's column blocks
# cost a few SCAN_BLOCK x N and N x ORACLE_BLOCK arrays: about 14 kB per
# document, its own vector included.
MAE_BOUND_KB = MAE_LARGE * MAE_LARGE * 8 // 1024

# A fitness chunk of up to FITNESS_CELLS count-matrix cells gathers one
# chromosome's cells at a time (0.8 MB at sample 100 and ref_len 1000) beside
# the chunk's sums, signatures and pair blocks: under 8 bytes a cell. Scoring
# a 40-chromosome generation at sample 100 as one chunk takes 16 MB.
FITNESS_BYTES_PER_CELL = 8

needs_proc = pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="needs /proc/self/status"
)

_RUN_AND_REPORT_PEAK = """
import re, sys
from refsig.cli import main
assert main(sys.argv[1:]) == 0
status = open("/proc/self/status").read()
print(re.search(r"VmHWM:\\s+(\\d+) kB", status).group(1))
"""


def _peak_kb(*argv) -> int:
    """The VmHWM of a fresh interpreter that runs ``refsig *argv``."""
    src = str(Path(refsig.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _RUN_AND_REPORT_PEAK, *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return int(done.stdout.split()[-1])


def _texts(n: int, vocab: list[str], rng: random.Random):
    for _ in range(n):
        yield " ".join(rng.choices(vocab, k=DOC_CHARS // 6))


def _vocab(rng: random.Random) -> list[str]:
    return ["".join(rng.choices(string.ascii_lowercase, k=rng.randint(2, 8)))
            for _ in range(5000)]


def _sign_growth_kb(tmp_path: Path, write_corpus, large: int) -> int:
    rng = random.Random(0)
    vocab = _vocab(rng)
    ref = tmp_path / "ref.txt"
    grams = ["".join(rng.choices(string.ascii_lowercase, k=3)) for _ in range(200)]
    save_reference(ReferenceText(_keys(grams), 10), ref)
    peaks = []
    for n in (SMALL, large):
        corpus = tmp_path / f"corpus-{n}"
        write_corpus(corpus, _texts(n, vocab, rng))
        peaks.append(_peak_kb("sign", "--ref", ref, "--corpus", corpus,
                              "--out", tmp_path / f"sigs-{n}.db"))
    return peaks[1] - peaks[0]


def _write_directory(path: Path, texts) -> None:
    path.mkdir()
    for i, text in enumerate(texts):
        (path / f"{i:05d}.txt").write_text(text, encoding="utf-8")


def _write_records(path: Path, texts) -> None:
    path.write_text("".join(text + "\n" for text in texts))


@needs_proc
def test_sign_peak_memory_grows_with_signatures_not_documents(tmp_path):
    growth = _sign_growth_kb(tmp_path, _write_directory, LARGE)
    assert growth < GROWTH_BOUND_KB, f"peak grew {growth} kB from {SMALL} to {LARGE} documents"


@needs_proc
def test_sign_records_file_peak_memory_grows_with_signatures_not_file(tmp_path):
    growth = _sign_growth_kb(tmp_path, _write_records, LARGE_RECORDS)
    assert growth < GROWTH_BOUND_KB, (
        f"peak grew {growth} kB from {SMALL} to {LARGE_RECORDS} records"
    )


@needs_proc
def test_topk_peak_memory_grows_with_grams_not_documents(tmp_path):
    rng = random.Random(0)
    vocab = _vocab(rng)
    peaks = []
    for n in (SMALL, LARGE):
        corpus = tmp_path / f"corpus-{n}"
        _write_directory(corpus, _texts(n, vocab, rng))
        peaks.append(_peak_kb("topk", "--corpus", corpus, "--out", tmp_path / f"pool-{n}.txt"))
    growth = peaks[1] - peaks[0]
    assert growth < GROWTH_BOUND_KB, f"peak grew {growth} kB from {SMALL} to {LARGE} documents"


@needs_proc
def test_dedup_peak_memory_does_not_grow_per_hit(tmp_path):
    rng = np.random.default_rng(0)
    # Rows near one direction: every pair scores above 0.5, none reaches 0.9999.
    rows = 1.0 + 0.3 * rng.random((DEDUP_ROWS, 10))
    ref = ReferenceText(_keys([f"{c}ab" for c in string.ascii_lowercase[:10]]), 10)
    db = tmp_path / "sigs.db"
    ids = tuple(f"doc-{k:05d}" for k in range(len(rows)))
    db_write(db, SignatureDb(ref.fingerprint, ids, rows))
    few, many = tmp_path / "few.tsv", tmp_path / "many.tsv"
    base = _peak_kb("dedup", "--db", db, "--t1", 1.0, "--t2", 0.9999, "--out", few)
    peak = _peak_kb("dedup", "--db", db, "--t1", 0.99, "--t2", 0.5, "--out", many)
    hits = len(many.read_text().split("\n")) - 2
    assert hits == DEDUP_ROWS * (DEDUP_ROWS - 1) // 2
    assert len(few.read_text().split("\n")) - 2 <= 10
    per_hit = (peak - base) * 1024 / hits
    assert per_hit < DEDUP_BOUND_BYTES_PER_HIT, (
        f"peak grew {peak - base} kB for {hits} hits ({per_hit:.0f} B per hit)"
    )


@needs_proc
def test_eval_labels_peak_memory_does_not_grow_per_hit(tmp_path):
    rng = random.Random(0)
    # Words over five letters, against a reference of their 3-grams: every
    # pair of signatures scores above 0.6, none reaches 0.9999.
    letters = "abcde"
    vocab = ["".join(rng.choices(letters, k=rng.randint(2, 6))) for _ in range(200)]
    corpus = tmp_path / "corpus"
    _write_directory(corpus, (" ".join(rng.choices(vocab, k=60)) for _ in range(DEDUP_ROWS)))
    ref = tmp_path / "ref.txt"
    grams = ["".join(g) for g in itertools.product(letters, repeat=3)][:120]
    save_reference(ReferenceText(_keys(grams), 10), ref)
    labels = tmp_path / "labels.tsv"
    truth = ["00000.txt\t00001.txt\tduplicate", "00002.txt\t00003.txt\tnear-duplicate"]
    labels.write_text("id_a\tid_b\tlabel\n" + "".join(line + "\n" for line in truth))
    common = ("eval", "--ref", ref, "--corpus", corpus, "--sample", 10, "--labels", labels)
    few, many = tmp_path / "few.tsv", tmp_path / "many.tsv"
    base = _peak_kb(*common, "--t1", 1.0, "--t2", 0.9999, "--out", few)
    peak = _peak_kb(*common, "--t1", 0.99, "--t2", 0.5, "--out", many)
    hits = DEDUP_ROWS * (DEDUP_ROWS - 1) // 2
    # precision = 2 / hits and recall = 1 only if every pair is a hit.
    assert many.read_text().split("\n")[1].split("\t")[6:9] == [
        f"{2 / hits:.6f}", "1.000000", f"{2 * (2 / hits) / (2 / hits + 1):.6f}"
    ]
    assert few.read_text().split("\n")[1].split("\t")[7] == "0.000000"
    per_hit = (peak - base) * 1024 / hits
    assert per_hit < DEDUP_BOUND_BYTES_PER_HIT, (
        f"peak grew {peak - base} kB for {hits} hits ({per_hit:.0f} B per hit)"
    )


@needs_proc
def test_eval_mae_peak_memory_grows_linearly_with_documents(tmp_path):
    rng = random.Random(0)
    vocab = _vocab(rng)
    ref = tmp_path / "ref.txt"
    grams = ["".join(rng.choices(string.ascii_lowercase, k=3)) for _ in range(200)]
    save_reference(ReferenceText(_keys(grams), 10), ref)
    peaks = []
    for n in (MAE_SMALL, MAE_LARGE):
        # Short documents, so the peak is the pair kernel's, not the corpus's.
        corpus = tmp_path / f"corpus-{n}"
        _write_directory(corpus, (" ".join(rng.choices(vocab, k=12)) for _ in range(n)))
        peaks.append(_peak_kb("eval", "--ref", ref, "--corpus", corpus, "--sample", n,
                              "--out", tmp_path / f"eval-{n}.tsv"))
    growth = peaks[1] - peaks[0]
    assert growth < MAE_BOUND_KB, (
        f"peak grew {growth} kB from {MAE_SMALL} to {MAE_LARGE} documents"
    )


def test_ingest_retains_less_per_document_than_its_text(tmp_path):
    # One non-BMP character makes each text cost 4 bytes per character, and
    # a few repeated words keep each 3-gram vector to a few dozen grams.
    texts = [f"\U0001F600 {i} " + "alpha beta gamma delta " * 170 for i in range(200)]
    corpus = tmp_path / "corpus"
    _write_directory(corpus, texts)
    text_bytes = min(sys.getsizeof(normalize(text)) for text in texts)
    assert text_bytes > 15_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        docs = ingest(corpus)
        per_doc = (tracemalloc.get_traced_memory()[0] - before) / len(docs)
    finally:
        tracemalloc.stop()
    assert per_doc < text_bytes, f"{per_doc:.0f} B retained per document of {text_bytes} B text"


def test_fitness_peak_memory_is_bounded_by_its_chunk():
    rng = random.Random(1)
    vocab = _vocab(rng)
    docs = [Document.from_raw(str(k), " ".join(rng.choices(vocab, k=60))) for k in range(100)]
    pool = top_k(score_grams(docs), 3000)
    sample = ga.draw_fitness_sample(docs, pool, 100, random.Random(0))
    cfg = ga.GaConfig(population_size=40, ref_len=1000, partitions=150, sample_size=100)
    population = ga.init_population(pool, cfg, random.Random(2))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ga.fitness(population, sample, cfg.partitions)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    bound = FITNESS_BYTES_PER_CELL * ga.FITNESS_CELLS
    assert peak < bound, f"scoring 40 chromosomes peaked at {peak} B, bound {bound} B"
