import dataclasses
import itertools
import random

import numpy as np
import pytest

from refsig import evaluate, reference
from refsig.evaluate import (
    SCAN_HIT,
    ConfusionCounts,
    SyntheticCorpusSpec,
    confusion_from_hits,
    confusion_from_pairs,
    cross_validate,
    dnd_scan,
    f1_score,
    generate_synthetic_corpus,
    mae,
    prf,
    split_corpus,
    synthetic_texts,
)
from refsig.ga import GaConfig
from refsig.reference import (
    ClassifierConfig,
    ReferenceText,
    Verdict,
    classify,
    pairwise_signature_similarity,
    signature_matrix,
)
from refsig.store import SignatureDb, db_read, db_write
from refsig.text import Document, cosine, extract_3grams, gram_keys, gram_strings, normalize


def _keys(grams):
    return gram_keys("".join(grams))[::3]


def _corpus_grams(docs):
    """All distinct 3-grams of ``docs``, sorted."""
    return sorted({g for d in docs for g in gram_strings(d.keys)})


def _word_salad_docs(count, seed, length=120):
    rng = random.Random(seed)
    alphabet = "abcdefghij "
    return [
        Document.from_raw(str(i), "".join(rng.choice(alphabet) for _ in range(length)))
        for i in range(count)
    ]


def test_mae_full_vocabulary_reference_is_exact():
    docs = _word_salad_docs(8, seed=1, length=80)
    grams = _corpus_grams(docs)
    ref = ReferenceText(_keys(grams), len(grams))
    assert mae(ref, docs) <= 1e-9


def test_mae_requires_two_documents():
    ref = ReferenceText(_keys(["abc", "bcd"]), 2)
    with pytest.raises(ValueError):
        mae(ref, [Document.from_raw("0", "abc")])


def test_prf_examples():
    report = prf(ConfusionCounts(87, 13, 2))
    assert report.precision == pytest.approx(0.87)
    assert report.recall == pytest.approx(87 / 89)
    assert report.f1 == pytest.approx(f1_score(report.precision, report.recall))

    degenerate = prf(ConfusionCounts(0, 0, 0))
    assert degenerate.precision == 0.0
    assert degenerate.recall == 0.0
    assert degenerate.f1 == 0.0


def test_prf_property_identities():
    rng = random.Random(5)
    for _ in range(500):
        counts = ConfusionCounts(
            rng.randint(0, 50), rng.randint(0, 50), rng.randint(0, 50), rng.randint(0, 50)
        )
        report = prf(counts)
        assert 0.0 <= report.precision <= 1.0
        assert 0.0 <= report.recall <= 1.0
        if report.precision + report.recall > 0:
            expected = (
                2 * report.precision * report.recall / (report.precision + report.recall)
            )
            assert report.f1 == pytest.approx(expected, abs=1e-15)
        else:
            assert report.f1 == 0.0
        assert report.pair_count == (
            counts.true_positives
            + counts.false_positives
            + counts.false_negatives
            + counts.true_negatives
        )


def test_confusion_counts_reject_negative():
    names = [f.name for f in dataclasses.fields(ConfusionCounts)]
    assert len(names) == 4
    for name in names:
        counts = dict.fromkeys(names, 0) | {name: -1}
        with pytest.raises(ValueError) as exc:
            ConfusionCounts(**counts)
        assert str(exc.value) == f"{name} must be >= 0, got -1"


def test_split_is_exact_partition():
    docs = _word_salad_docs(23, seed=2)
    for seed in range(5):
        train, test = split_corpus(docs, seed)
        assert len(train) == int(len(docs) * evaluate.TRAIN_FRACTION)
        assert len(train) + len(test) == len(docs)
        assert {d.id for d in train} | {d.id for d in test} == {d.id for d in docs}
        assert not ({d.id for d in train} & {d.id for d in test})
        assert train and test


def test_split_small_corpus_keeps_both_sides():
    docs = _word_salad_docs(2, seed=3)
    train, test = split_corpus(docs, 0)
    assert len(train) == 1 and len(test) == 1
    with pytest.raises(ValueError):
        split_corpus(docs[:1], 0)


def _tiny_cfg(seed=0):
    return GaConfig(
        population_size=6,
        ref_len=16,
        partitions=4,
        pool_size=50,
        max_generations=3,
        sample_size=6,
        rng_seed=seed,
    )


def test_cross_validate_single_run():
    docs = _word_salad_docs(14, seed=4)
    result = cross_validate(docs, _tiny_cfg(seed=1), runs=1)
    assert result.winner_run == 0
    assert len(result.reports) == 1
    report = result.reports[0]
    assert report.train_size + report.test_size == 14
    assert result.reference.partitions == 4


def test_cross_validate_winner_is_argmin():
    docs = _word_salad_docs(14, seed=5)
    result = cross_validate(docs, _tiny_cfg(seed=2), runs=3)
    holdouts = [r.holdout_mae for r in result.reports]
    assert result.winner_run == holdouts.index(min(holdouts))
    assert all(holdouts[result.winner_run] <= h for h in holdouts)


def test_cross_validate_run_splits_and_evolves_with_seed_plus_run(monkeypatch):
    docs = _word_salad_docs(14, seed=7)
    seen = []
    original = evaluate.evolve

    def recording_evolve(train, cfg):
        seen.append(([d.id for d in train], cfg.rng_seed))
        return original(train, cfg)

    monkeypatch.setattr(evaluate, "evolve", recording_evolve)
    cross_validate(docs, _tiny_cfg(seed=5), runs=2)
    expected = [([d.id for d in split_corpus(docs, 5 + r)[0]], 5 + r) for r in range(2)]
    assert seen == expected


@pytest.mark.parametrize("count, sample", [(36, 30), (5, 4)], ids=["train-side", "holdout"])
def test_cross_validate_rejects_a_split_it_cannot_use_before_training(
    monkeypatch, count, sample
):
    # 36 documents split 28/8, short of a 30-document sample; 5 split 4/1, and 1 cannot be scored
    def unreachable(train, cfg):
        raise AssertionError("evolve ran on a split that cannot be used")

    monkeypatch.setattr(evaluate, "evolve", unreachable)
    train = int(count * 0.8)
    error = (f"a corpus of {count} documents splits into {train} to train on and "
             f"{count - train} held out; training needs sample_size={sample} ")
    cfg = dataclasses.replace(_tiny_cfg(), sample_size=sample)
    with pytest.raises(ValueError, match=error):
        cross_validate(_word_salad_docs(count, seed=9), cfg, runs=2)


def test_cross_validate_rejects_bad_runs():
    with pytest.raises(ValueError):
        cross_validate(_word_salad_docs(10, seed=6), _tiny_cfg(), runs=0)


def test_synthetic_corpus_structure():
    spec = SyntheticCorpusSpec(
        base_doc_count=10, near_dup_count=4, dup_count=3, edit_fraction=0.1, rng_seed=9
    )
    docs, pairs = generate_synthetic_corpus(spec)
    assert len(docs) == 17
    assert [d.id for d in docs] == sorted(d.id for d in docs)
    labels = [p.label for p in pairs]
    # 3 (base, dup) and 4 (base, near) pairs, and one pair of siblings of each kind
    assert labels.count(Verdict.DUPLICATE) == 4
    assert labels.count(Verdict.NEAR_DUPLICATE) == 5
    by_id = {d.id: d for d in docs}
    for pair in pairs:
        assert pair.id_a in by_id and pair.id_b in by_id


def test_synthetic_corpus_vectorizes_synthetic_texts():
    spec = SyntheticCorpusSpec(
        base_doc_count=10, near_dup_count=4, dup_count=3, edit_fraction=0.3, rng_seed=9
    )
    texts, pairs = synthetic_texts(spec)
    docs, doc_pairs = generate_synthetic_corpus(spec)
    assert doc_pairs == pairs
    assert [d.id for d in docs] == [doc_id for doc_id, _ in texts]
    for doc, (_, text) in zip(docs, texts):
        assert normalize(text) == text  # so `refsig synth` writes what signing reads
        assert np.array_equal((doc.keys, doc.counts), extract_3grams(text))


def test_synthetic_duplicates_are_identical():
    spec = SyntheticCorpusSpec(base_doc_count=5, near_dup_count=0, dup_count=1, rng_seed=1)
    texts, (pair,) = synthetic_texts(spec)
    assert dict(texts)[pair.id_a] == dict(texts)[pair.id_b]
    by_id = {d.id: d for d in generate_synthetic_corpus(spec)[0]}
    assert cosine(by_id[pair.id_a], by_id[pair.id_b]) == 1.0


def test_synthetic_zero_edit_fraction_is_identity():
    spec = SyntheticCorpusSpec(
        base_doc_count=4, near_dup_count=2, dup_count=0, edit_fraction=0.0, rng_seed=2
    )
    texts, pairs = synthetic_texts(spec)
    by_id = dict(texts)
    for pair in pairs:
        assert by_id[pair.id_a] == by_id[pair.id_b]


def test_synthetic_edit_budget_respected():
    spec = SyntheticCorpusSpec(
        base_doc_count=6, near_dup_count=6, dup_count=0, edit_fraction=0.1, rng_seed=3
    )
    texts, pairs = synthetic_texts(spec)
    by_id = dict(texts)
    for pair in pairs:
        if not pair.id_a.startswith("base-"):
            continue  # two copies of one base may each spend the budget
        base, near = by_id[pair.id_a], by_id[pair.id_b]
        assert len(base) == len(near)
        diffs = sum(1 for x, y in zip(base, near) if x != y)
        assert diffs <= int(len(base) * 0.1)


@pytest.mark.parametrize("seed", range(5))
def test_synthetic_pairs_label_every_equal_text_once(seed):
    texts, pairs = synthetic_texts(SyntheticCorpusSpec(rng_seed=seed))
    labels = {(p.id_a, p.id_b): p.label for p in pairs}
    assert len(labels) == len(pairs)
    assert all(id_a < id_b for id_a, id_b in labels)  # so no pair is listed reversed
    by_text = {}
    for doc_id, text in texts:
        by_text.setdefault(text, []).append(doc_id)
    equal = [pair for ids in by_text.values() for pair in itertools.combinations(ids, 2)]
    assert len(equal) >= SyntheticCorpusSpec.dup_count
    assert all(labels.get(pair) is Verdict.DUPLICATE for pair in equal)
    by_id = dict(texts)
    duplicates = {pair for pair, label in labels.items() if label is Verdict.DUPLICATE}
    assert duplicates == {(a, b) for a, b in labels if by_id[a] == by_id[b]}


def test_synthetic_deterministic():
    spec = SyntheticCorpusSpec(base_doc_count=6, near_dup_count=2, dup_count=2, rng_seed=12)
    assert synthetic_texts(spec) == synthetic_texts(spec)


def _db_from(ref, docs):
    scores = signature_matrix(docs, ref).astype("<f4")
    return SignatureDb(ref.fingerprint, tuple(d.id for d in docs), scores)


def _scan_rows(db, hits):
    """Scan hits as (id_a, id_b, similarity, label) tuples."""
    return [
        (db.ids[i], db.ids[j], s, Verdict.DUPLICATE if d else Verdict.NEAR_DUPLICATE)
        for i, j, s, d in hits.tolist()
    ]


def _loop_scan_rows(ids, scores, cfg):
    """The scalar reference: classify every pair of one full-matrix product."""
    sims = pairwise_signature_similarity(scores, scores)
    expected = []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            label = classify(float(sims[i, j]), cfg)
            if label is not Verdict.DISTINCT:
                expected.append((*sorted((ids[i], ids[j])), float(sims[i, j]), label))
    return sorted(expected)


def test_dnd_scan_identical_documents():
    docs = [Document.from_raw("a", "shared text body"), Document.from_raw("b", "shared text body")]
    ref = ReferenceText(_keys(_corpus_grams(docs)), 3)
    hits = dnd_scan(_db_from(ref, docs), ClassifierConfig(0.95, 0.80))
    assert hits.dtype == evaluate.SCAN_HIT
    assert hits.tolist() == [(0, 1, 1.0, True)]


def test_dnd_scan_orthogonal_signatures_empty():
    db = SignatureDb("f" * 64, ("x", "y"), np.eye(2, dtype="<f4"))
    hits = dnd_scan(db, ClassifierConfig(0.95, 0.80))
    assert len(hits) == 0 and hits.dtype == evaluate.SCAN_HIT


def test_dnd_scan_order_independent():
    docs = _word_salad_docs(8, seed=7)
    docs.append(Document("dup", docs[0].keys, docs[0].counts))
    ref = ReferenceText(_keys(_corpus_grams(docs)), 5)
    cfg = ClassifierConfig(0.95, 0.80)
    db_forward = _db_from(ref, docs)
    db_backward = _db_from(ref, list(reversed(docs)))
    forward = _scan_rows(db_forward, dnd_scan(db_forward, cfg))
    backward = _scan_rows(db_backward, dnd_scan(db_backward, cfg))
    assert forward == backward
    assert ("0", "dup", 1.0, Verdict.DUPLICATE) in forward


def test_dnd_scan_exact_duplicates_score_one_after_db_round_trip(tmp_path):
    docs, planted = generate_synthetic_corpus(
        SyntheticCorpusSpec(base_doc_count=60, near_dup_count=0, dup_count=30, rng_seed=3)
    )
    ref = ReferenceText(_keys(sorted(_corpus_grams(docs))[:1000]), 150)
    rows = signature_matrix(docs, ref)
    path = tmp_path / "sigs.db"
    db_write(path, SignatureDb(ref.fingerprint, tuple(d.id for d in docs), rows))
    db = db_read(path)
    scan = _scan_rows(db, dnd_scan(db, ClassifierConfig(1.0, 0.93)))
    hits = {(a, b): (s, label) for a, b, s, label in scan}
    for pair in planted:
        assert hits[tuple(sorted((pair.id_a, pair.id_b)))] == (1.0, Verdict.DUPLICATE)


@pytest.mark.parametrize("exact", [True, False], ids=["integer-scores", "float-scores"])
def test_dnd_scan_blocks_match_full_matrix_loop(exact):
    # Small-integer scores make every dot product and norm exact, so the blocked
    # products must equal the full N x N product bit for bit. Other scores may
    # round differently per block shape, because BLAS picks its summation
    # order by shape; there the similarities must agree within 1e-15.
    block = evaluate.SCAN_BLOCK
    rng = np.random.default_rng(4)
    size = (2 * block + 37, 5)
    scores = rng.integers(0, 4, size=size) if exact else rng.uniform(0, 1, size=size)
    scores = scores.astype("<f4")
    scores[[3, block + 1, 2 * block + 5]] = 0.0  # all-zero rows in every block
    scores[[block - 1, block, 2 * block + 36]] = scores[7]  # copies across block edges
    cfg = ClassifierConfig(0.95, 0.80)
    # Ids in row order, then in reverse row order, which the scan permutes.
    for names in (range(len(scores)), range(len(scores), 0, -1)):
        ids = tuple(f"doc-{k:04d}" for k in names)
        expected = _loop_scan_rows(ids, scores, cfg)
        db = SignatureDb("f" * 64, ids, scores)
        hits = _scan_rows(db, dnd_scan(db, cfg))
        if exact:
            assert hits == expected
        assert [(a, b, label) for a, b, _, label in hits] == [
            (a, b, label) for a, b, _, label in expected
        ]
        gaps = [abs(h[2] - e[2]) for h, e in zip(hits, expected)]
        assert max(gaps) <= 1e-15
        assert {h[3] for h in hits} == {Verdict.DUPLICATE, Verdict.NEAR_DUPLICATE}
        assert sum(h[2] == 1.0 for h in hits) >= 6  # the four copies of row 7


def test_dnd_scan_labels_equal_classify_at_threshold_boundaries():
    # One block, so the scan's similarities are the full product's bit for bit;
    # the thresholds are set to similarities the scan meets, and to their
    # nearest floats on either side.
    rng = np.random.default_rng(11)
    scores = rng.integers(0, 5, size=(60, 6)).astype("<f4")
    ids = tuple(f"{k:02d}" for k in range(len(scores)))
    db = SignatureDb("f" * 64, ids, scores)
    sims = np.unique(pairwise_signature_similarity(scores, scores)[np.triu_indices(60, k=1)])
    high, low = sims[-len(sims) // 10], sims[len(sims) // 2]
    for t1 in (np.nextafter(high, 0.0), high, np.nextafter(high, 2.0)):
        for t2 in (np.nextafter(low, 0.0), low, np.nextafter(low, 2.0)):
            cfg = ClassifierConfig(float(t1), float(t2))
            hits = _scan_rows(db, dnd_scan(db, cfg))
            assert hits == _loop_scan_rows(ids, scores, cfg)
            labels = {s: label for _, _, s, label in hits}
            assert labels[high] is (Verdict.DUPLICATE if t1 <= high else Verdict.NEAR_DUPLICATE)
            assert (low in labels) == (t2 <= low)


def test_dnd_scan_sorts_by_python_str_order():
    # Equal rows make every pair a hit; ids mix ASCII, Latin-1, fullwidth,
    # the last BMP code point and non-BMP code points, in no order.
    ids = ("z", "é", "\U0001f600", "a", "\uff41", "\U00010000", "\uffff", "Z", "ß", "a\u0301")
    db = SignatureDb("f" * 64, ids, np.ones((len(ids), 3), dtype="<f4"))
    hits = _scan_rows(db, dnd_scan(db, ClassifierConfig(0.95, 0.80)))
    pairs = [(a, b) for a, b, _, _ in hits]
    assert pairs == sorted(tuple(sorted(p)) for p in itertools.combinations(ids, 2))
    assert len(pairs) == len(ids) * (len(ids) - 1) // 2


def _rows_with_copies(count, seed):
    """Float32 signature-like rows with copies of row 7 across every block edge."""
    block = evaluate.SCAN_BLOCK
    scores = np.random.default_rng(seed).uniform(0, 1, size=(count, 150)).astype("<f4")
    scores[[block - 1, block, count - 1]] = scores[7]
    return scores


@pytest.mark.parametrize("count", [700, 2050])
def test_dnd_scan_equals_the_blocked_pairwise_loop_bit_for_bit(count):
    # The sizes at which BLAS block shapes were seen to round differently:
    # the scan must reproduce, bit for bit, a loop over the blocks it replaced.
    block = evaluate.SCAN_BLOCK
    scores = _rows_with_copies(count, seed=count)
    matrix = scores.astype(float)
    squares = np.einsum("ij,ij->i", matrix, matrix)
    cfg = ClassifierConfig(0.999, 0.8)
    expected = []
    for lo in range(0, count, block):
        # Norms taken once for the whole matrix equal the old per-block einsum.
        tail = matrix[lo:]
        assert squares[lo:].tobytes() == np.einsum("ij,ij->i", tail, tail).tobytes()
        sims = pairwise_signature_similarity(matrix[lo : lo + block], tail)
        rows, cols = np.nonzero(np.triu(sims >= cfg.t2, k=1))
        expected += zip((rows + lo).tolist(), (cols + lo).tolist(), sims[rows, cols].tolist())
    db = SignatureDb("f" * 64, tuple(f"doc-{k:04d}" for k in range(count)), scores)
    hits = dnd_scan(db, cfg)
    assert list(zip(*(hits[f].tolist() for f in ("first", "second", "similarity")))) == expected
    assert 1000 < len(hits) < count * (count - 1) // 20
    assert (hits["duplicate"] == (hits["similarity"] >= cfg.t1)).all()


def test_dnd_scan_emits_equal_rows_at_one_with_t2_above_the_probe_floor(monkeypatch):
    count = 2 * evaluate.SCAN_BLOCK + 37
    db = SignatureDb("f" * 64, tuple(f"{k:04d}" for k in range(count)), _rows_with_copies(count, 5))
    cfg = ClassifierConfig(t1=1.0, t2=1.0 - 1e-10)
    copies = [7, evaluate.SCAN_BLOCK - 1, evaluate.SCAN_BLOCK, count - 1]
    expected = [(i, j, 1.0, True) for i, j in itertools.combinations(copies, 2)]
    assert dnd_scan(db, cfg).tolist() == expected
    # Without the probe, some copies' cosines round below 1.0.
    monkeypatch.setattr(reference, "_exact_ones", lambda *args: None)
    assert (dnd_scan(db, cfg)["similarity"] < 1.0).any()


def test_dnd_scan_probe_never_reads_a_pair_with_i_at_or_above_j(monkeypatch):
    probed = []
    exact_ones = reference._exact_ones

    def spy(sims, a, b, rows, cols):
        near = sims[rows, cols] >= reference.EXACT_FLOOR
        probed.append((rows[near], cols[near]))
        exact_ones(sims, a, b, rows, cols)

    monkeypatch.setattr(reference, "_exact_ones", spy)
    count = 2 * evaluate.SCAN_BLOCK + 37
    db = SignatureDb("f" * 64, tuple(f"{k:04d}" for k in range(count)), _rows_with_copies(count, 5))
    for t2 in (0.8, 1.0 - 1e-10):
        probed.clear()
        hits = dnd_scan(db, ClassifierConfig(1.0, t2))
        assert len(probed) == 3  # one probe per row block
        assert all((cols > rows).all() for rows, cols in probed)
        # Only the six pairs of the four copies reach the probe.
        assert sum(len(rows) for rows, _ in probed) == 6
        assert (hits["similarity"] == 1.0).sum() == 6


def test_dnd_scan_rejects_empty_db():
    db = SignatureDb("f" * 64, (), np.empty((0, 2), dtype="<f4"))
    with pytest.raises(ValueError):
        dnd_scan(db, ClassifierConfig(0.95, 0.80))


def test_confusion_from_pairs():
    predicted = [("a", "b"), ("c", "d"), ("e", "f")]
    truth = [("b", "a"), ("x", "y")]
    counts = confusion_from_pairs(predicted, truth, total_pairs=10)
    assert counts.true_positives == 1
    assert counts.false_positives == 2
    assert counts.false_negatives == 1
    assert counts.true_negatives == 6
    with pytest.raises(ValueError):
        confusion_from_pairs(predicted, truth, total_pairs=3)


def test_confusion_from_hits_equals_confusion_from_pairs():
    rng = random.Random(5)
    ids = [f"d{k:02d}" for k in rng.sample(range(100), 30)]
    n = len(ids)
    for trial in range(40):
        chosen = rng.sample(list(itertools.combinations(range(n), 2)), rng.randint(0, 60))
        hits = np.zeros(len(chosen), dtype=SCAN_HIT)
        # dnd_scan puts the smaller id first, which is not always the smaller row.
        hits["first"] = [i if ids[i] < ids[j] else j for i, j in chosen]
        hits["second"] = [j if ids[i] < ids[j] else i for i, j in chosen]
        # Truth: some hits, either way round, repeated, self pairs and unknown ids.
        truth = [(ids[i], ids[j])[:: rng.choice((1, -1))] for i, j in chosen if rng.random() < 0.5]
        truth += [(ids[rng.randrange(n)], ids[rng.randrange(n)]) for _ in range(rng.randint(0, 20))]
        truth += [("gone", ids[0]), (ids[1], "gone"), ("gone", "gone"), ("x", "y"), ("y", "x")]
        truth += truth[: rng.randint(0, 5)]
        expected = confusion_from_pairs(
            [(ids[i], ids[j]) for i, j in chosen], truth, n * (n - 1) // 2
        )
        assert confusion_from_hits(hits, ids, truth) == expected, trial


def test_confusion_from_hits_rejects_more_pairs_than_rows_have():
    ids = ["a", "b"]
    hits = np.zeros(1, dtype=SCAN_HIT)
    hits["second"] = 1
    assert confusion_from_hits(hits, ids, [("a", "b")]) == ConfusionCounts(1, 0, 0, 0)
    with pytest.raises(ValueError):
        confusion_from_hits(hits, ids, [("a", "b"), ("a", "c")])
