import math
import random
from collections import Counter

import numpy as np
import pytest

from refsig.reference import (
    ClassifierConfig,
    ReferenceText,
    Verdict,
    classify,
    load_reference,
    mean_signature_error,
    pairwise_signature_similarity,
    partition_layout,
    partition_scores,
    partition_sizes,
    save_reference,
    signature_matrix,
)
from refsig.text import (
    Document,
    brute_force_pairwise,
    count_matrix,
    gram_keys,
    gram_strings,
    key_columns,
)


def _keys(grams):
    return gram_keys("".join(grams))[::3]


def _partition_counts(ref):
    """Each partition's gram counts, read back from the reference's layout."""
    grams = gram_strings(ref.columns)
    return [
        Counter(grams[row] for row in ref.slots[0, :, p] if row >= 0)
        for p in range(ref.partitions)
    ]


def test_partition_examples():
    ref = ReferenceText(_keys(["abc", "bcd", "cde", "def"]), 2)
    assert gram_strings(ref.columns) == ["abc", "bcd", "cde", "def"]
    assert ref.slots.tolist() == [[[0, 2], [1, 3]]]  # slot s of partition p
    assert _partition_counts(ref) == [{"abc": 1, "bcd": 1}, {"cde": 1, "def": 1}]
    assert ref.part_sq.tolist() == [[2.0, 2.0]]

    assert partition_sizes(5, 2) == [3, 2]
    assert partition_sizes(4, 2) == [2, 2]

    sizes = partition_sizes(1000, 150)
    assert sizes == [7] * 100 + [6] * 50
    assert sum(sizes) == 1000
    slots, part_sq = partition_layout(np.arange(1000)[None], 150)
    starts = [sum(sizes[:k]) for k in range(150)]
    assert slots[0].T.tolist() == [
        [start + s if s < size else -1 for s in range(7)] for start, size in zip(starts, sizes)
    ]
    assert part_sq.tolist() == [[float(size) for size in sizes]]


def test_partition_accumulates_duplicate_grams():
    ref = ReferenceText(_keys(["abc", "abc", "xyz"]), 2)
    assert gram_strings(ref.columns) == ["abc", "xyz"]
    assert ref.slots.tolist() == [[[0, 1], [0, -1]]]  # the pad, -1, reads the spare last row
    assert _partition_counts(ref) == [{"abc": 2}, {"xyz": 1}]
    assert ref.part_sq.tolist() == [[4.0, 1.0]]
    # a gram shared between partitions is counted in each; each sequence of a
    # stack is laid out on its own, here as codes that index a pool of grams
    keys = gram_keys("abcxyzabcabcqrs")[::3]
    pool = _keys(["abc", "xyz", "qrs"])
    codes = np.array([0, 1, 0, 0, 2])
    assert pool[codes].tolist() == keys.tolist()
    slots, part_sq = partition_layout(np.stack([codes, codes[::-1]]), 2)
    assert slots.tolist() == [[[0, 0], [1, 2], [0, -1]], [[2, 1], [0, 0], [0, -1]]]
    assert part_sq.tolist() == [[5.0, 2.0], [5.0, 2.0]]
    # over a vocabulary that lacks "qrs", one lookup sends that code and the
    # pad past the shorter partition to the spare row, 2
    vocab = _keys(["abc", "xyz"])
    rows = np.append(key_columns(vocab, pool), len(vocab))[slots]
    assert rows.tolist() == [[[0, 0], [1, 2], [0, 2]], [[2, 1], [0, 0], [0, 2]]]
    # over the documents' own vocabulary, the stack scores as each sequence's own reference
    docs = [Document("a", vocab, [2, 1]), Document("b", vocab[1:], [3]), Document("e", [], [])]
    scores = partition_scores(*count_matrix(docs, vocab), rows, part_sq)
    for seq, score in zip((keys, keys[::-1]), scores):
        assert score.tobytes() == signature_matrix(docs, ReferenceText(seq, 2)).tobytes()


def test_reference_validation():
    with pytest.raises(ValueError):
        ReferenceText(_keys([]), 1)
    with pytest.raises(ValueError):
        ReferenceText(_keys(["abc"]), 2)
    with pytest.raises(ValueError):
        ReferenceText(_keys(["abc", "bcd"]), 0)


def test_reference_keys_are_read_only():
    keys = _keys(["abc", "bcd", "cde"])
    ref = ReferenceText(keys, 3)
    with pytest.raises(ValueError, match="read-only"):
        ref.keys[0] = _keys(["zzz"])[0]
    keys[0] = _keys(["zzz"])[0]  # the caller's array is copied, not frozen
    assert gram_strings(ref.keys) == ["abc", "bcd", "cde"]


def test_sign_example():
    ref = ReferenceText(_keys(["abc", "bcd", "cde", "def"]), 2)
    doc = Document.from_raw("d", "abcde")
    (sig,) = signature_matrix([doc], ref)
    assert sig[0] == pytest.approx(2 / math.sqrt(6), abs=1e-15)
    assert sig[1] == pytest.approx(1 / math.sqrt(6), abs=1e-15)


def test_sign_disjoint_and_empty():
    ref = ReferenceText(_keys(["abc", "bcd"]), 2)
    docs = [Document.from_raw("d", "xyzw"), Document.from_raw("e", "")]
    assert signature_matrix(docs, ref).tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_sign_deterministic():
    ref = ReferenceText(_keys(["abc", "bcd", "cde"]), 3)
    doc1 = Document.from_raw("a", "some abc text")
    doc2 = Document.from_raw("b", "some abc text")
    rows = signature_matrix([doc1, doc2], ref)
    assert rows[0].tobytes() == rows[1].tobytes()


def _similarity(a, b):
    """Cosine of two 1-row signatures through the matrix kernel."""
    return pairwise_signature_similarity(np.array([a]), np.array([b]))[0, 0]


def test_signature_similarity_examples():
    a = [2 / math.sqrt(6), 1 / math.sqrt(6)]
    b = [1 / math.sqrt(6), 2 / math.sqrt(6)]
    assert _similarity(a, a) == 1.0
    assert _similarity(a, b) == pytest.approx(0.8, abs=1e-12)
    assert _similarity([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert _similarity([0.0, 0.0], a) == 0.0
    assert _similarity([0.0, 0.0], [0.0, 0.0]) == 0.0


def _row_cosine(a, b):
    """The scalar definition: dot over the product of norms, 0.0 for a zero row."""
    norms = math.sqrt(math.fsum(x * x for x in a)) * math.sqrt(math.fsum(y * y for y in b))
    return math.fsum(x * y for x, y in zip(a, b)) / norms if norms else 0.0


def test_pairwise_matches_scalar():
    rng = np.random.default_rng(8)
    matrix = rng.uniform(0, 1, size=(12, 9))
    matrix[3] = 0.0  # one all-zero signature
    matrix[[7, 10]] = matrix[5]  # three identical signatures
    matrix[11] = matrix[5]
    matrix[11, 0] += 1e-6  # near-identical: within 1e-9 of 1.0, but not equal
    sims = pairwise_signature_similarity(matrix, matrix)
    rows = matrix.tolist()
    for i in range(12):
        for j in range(12):
            scalar = _row_cosine(rows[i], rows[j])
            assert abs(sims[i, j] - scalar) <= 1e-12
            if i != 3 and rows[i] == rows[j]:
                assert sims[i, j] == 1.0
    assert 1.0 - 1e-9 < sims[5, 11] < 1.0


def test_full_vocabulary_exactness_small():
    rng = random.Random(5)
    texts = ["".join(rng.choice("abcde ") for _ in range(rng.randint(20, 80))) for _ in range(10)]
    docs = [Document.from_raw(str(i), t) for i, t in enumerate(texts)]
    grams = sorted({g for d in docs for g in gram_strings(d.keys)})
    ref = ReferenceText(_keys(grams), len(grams))
    sigs = signature_matrix(docs, ref)
    sims = pairwise_signature_similarity(sigs, sigs)
    (oracle,) = brute_force_pairwise(docs)
    assert np.max(np.abs(sims - oracle)) <= 1e-9


def test_permutation_within_partition_is_invisible():
    ref_a = ReferenceText(_keys(["abc", "bcd", "cde", "def"]), 2)
    ref_b = ReferenceText(_keys(["bcd", "abc", "def", "cde"]), 2)  # swapped inside slices
    doc = Document.from_raw("d", "abcdefg")
    assert signature_matrix([doc], ref_a).tolist() == signature_matrix([doc], ref_b).tolist()


def test_mean_signature_error_shapes():
    with pytest.raises(ValueError):
        mean_signature_error(np.zeros((1, 3)), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        mean_signature_error(np.zeros((3, 2)), np.zeros((2, 2)))


def test_classifier_config_validation():
    ClassifierConfig(0.95, 0.80)
    with pytest.raises(ValueError):
        ClassifierConfig(t1=0.8, t2=0.9)
    with pytest.raises(ValueError):
        ClassifierConfig(t1=1.2, t2=0.5)
    with pytest.raises(ValueError):
        ClassifierConfig(t1=0.9, t2=0.0)


def test_classify_boundaries():
    cfg = ClassifierConfig(t1=0.95, t2=0.80)
    assert classify(0.97, cfg) is Verdict.DUPLICATE
    assert classify(0.95, cfg) is Verdict.DUPLICATE
    assert classify(0.94, cfg) is Verdict.NEAR_DUPLICATE
    assert classify(0.80, cfg) is Verdict.NEAR_DUPLICATE
    assert classify(0.79, cfg) is Verdict.DISTINCT


def test_classify_rejects_nan():
    with pytest.raises(ValueError, match="not a number"):
        classify(float("nan"), ClassifierConfig(t1=0.95, t2=0.80))


def test_reference_file_round_trip(tmp_path):
    ref = ReferenceText(_keys(["abc", "a b", "x\ny", "\x00\x01\x02"]), 2)
    path = tmp_path / "ref.txt"
    save_reference(ref, path)
    loaded = load_reference(path)
    assert loaded == ref
    assert loaded.fingerprint == ref.fingerprint


def test_reference_file_deterministic_bytes(tmp_path):
    ref = ReferenceText(_keys(["abc", "bcd", "cde"]), 2)
    p1, p2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    save_reference(ref, p1)
    save_reference(ReferenceText(_keys(["abc", "bcd", "cde"]), 2), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_reference_file_detects_tampering(tmp_path):
    ref = ReferenceText(_keys(["abc", "bcd", "cde"]), 2)
    path = tmp_path / "ref.txt"
    save_reference(ref, path)
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[1] = "zzz"
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match="hash mismatch"):
        load_reference(path)


def test_reference_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("no header\nabc\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_reference(path)
