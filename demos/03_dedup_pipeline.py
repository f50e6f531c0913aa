#!/usr/bin/env python3
"""End-to-end deduplication: train, sign, scan, and score against ground truth.

A reference trained on one synthetic corpus is used to fingerprint a
different corpus with planted duplicates and near-duplicates. The all-pairs
scan over signatures recovers the planted pairs, and the ground-truth
labels from the generator let us measure precision and recall.
"""

import tempfile
from pathlib import Path

from refsig import (
    ClassifierConfig,
    GaConfig,
    ReferenceText,
    SignatureDb,
    SyntheticCorpusSpec,
    Verdict,
    confusion_from_hits,
    db_read,
    db_write,
    dnd_scan,
    evolve,
    generate_synthetic_corpus,
    prf,
    signature_matrix,
)

# --- train on one corpus ------------------------------------------------------

train_docs, _ = generate_synthetic_corpus(
    SyntheticCorpusSpec(base_doc_count=120, near_dup_count=15, dup_count=8, rng_seed=202)
)
cfg = GaConfig(
    population_size=24, ref_len=150, partitions=15, pool_size=1500,
    max_generations=25, sample_size=60, rng_seed=5,
)
print(f"training on {len(train_docs)} documents...")
result = evolve(train_docs, cfg)
ref = ReferenceText(result.best.keys, cfg.partitions)
print(f"trained reference: {len(ref)} grams, {ref.partitions} partitions, "
      f"final MAE {result.history[-1].best_mae:.4f}")

# --- sign a different corpus with planted DND pairs ----------------------------

target_docs, truth_pairs = generate_synthetic_corpus(
    SyntheticCorpusSpec(base_doc_count=100, near_dup_count=20, dup_count=10,
                        edit_fraction=0.10, rng_seed=303)
)
print(f"\ntarget corpus: {len(target_docs)} documents, "
      f"{len(truth_pairs)} planted DND pairs")

with tempfile.TemporaryDirectory() as tmp:
    db_path = Path(tmp) / "signatures.db"
    ids = tuple(d.id for d in target_docs)
    db_write(db_path, SignatureDb(ref.fingerprint, ids, signature_matrix(target_docs, ref)))
    db = db_read(db_path)
    print(f"signature database: {db.record_count} records, "
          f"{db_path.stat().st_size} bytes on disk")

    hits = dnd_scan(db, ClassifierConfig(t1=0.999, t2=0.93))

# Hits are one array of db rows `first` and `second`, `similarity`, `duplicate`.
rows = [(db.ids[i], db.ids[j], s, d) for i, j, s, d in hits.tolist()]
duplicates = [row for row in rows if row[3]]
print(f"\nscan found {len(duplicates)} duplicate and "
      f"{len(rows) - len(duplicates)} near-duplicate pairs; a few of them:")
for id_a, id_b, similarity, duplicate in duplicates[:3] + [r for r in rows if "near" in r[1]][:3]:
    label = Verdict.DUPLICATE if duplicate else Verdict.NEAR_DUPLICATE
    print(f"  {id_a} ~ {id_b}: {label.value} ({similarity:.4f})")

# --- score against the generator's ground truth --------------------------------

counts = confusion_from_hits(hits, db.ids, [(p.id_a, p.id_b) for p in truth_pairs])
report = prf(counts)
print(f"\nprecision {report.precision:.2f}  recall {report.recall:.2f}  "
      f"F1 {report.f1:.2f}  over {report.pair_count} pairs")
print("(recall is the headline: the scan recovers the planted pairs; "
      "precision depends on how aggressively t2 is tuned)")
