"""The integer-count kernels (signing, GA fitness, the exact-cosine oracle)
against the scalar definitions in ``text.cosine``, compared for equality,
not within a tolerance."""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from refsig import reference, text
from refsig.ga import Chromosome, _select, draw_fitness_sample, fitness
from refsig.reference import (
    ReferenceText,
    mean_signature_error,
    partition_sizes,
    sign,
    signature_matrix,
)
from refsig.text import (
    Document,
    SparseNGramVector,
    brute_force_pairwise,
    cosine,
    count_matrix,
    gram_keys,
    gram_strings,
)

TEXTS = [
    "",
    "a",
    "ab",
    "abc",
    "abcabcabc abc",
    "the cat sat on the mat",
    "😀😀😀😀 x😀 😀😀😀",
    "𝔘𝔫𝔦𝔠𝔬𝔡𝔢 abc 𝔘𝔫𝔦",
    "aaaa aaaa aaaa",
]
# repeated grams inside one partition and non-BMP grams
GRAMS = (
    "abc", "bca", "cab", "abc", "😀😀😀", " x😀", "the", "he ", "zzz", "𝔘𝔫𝔦", "aaa", "abc",
)


def _docs(texts):
    return [Document.from_raw(str(i), t) for i, t in enumerate(texts)]


def _keys(grams):
    return gram_keys("".join(grams))[::3]


def _chromosome(grams, fitness=None):
    return Chromosome(_keys(grams), fitness)


def _cosine_rows(docs, grams, partitions):
    """Signatures as one ``text.cosine`` call per document and partition."""
    parts, start = [], 0
    for size in partition_sizes(len(grams), partitions):
        keys = gram_keys("".join(grams[start : start + size]))[::3]
        parts.append(SparseNGramVector(*np.unique(keys, return_counts=True)))
        start += size
    return np.array([[cosine(doc.vector, part) for part in parts] for doc in docs])


def test_signature_matrix_and_sign_equal_cosine_loop(monkeypatch):
    docs = _docs(TEXTS)
    for partitions in (1, 3, 5, len(GRAMS)):
        ref = ReferenceText(_keys(GRAMS), partitions)
        expected = _cosine_rows(docs, GRAMS, partitions)
        assert signature_matrix(docs, ref).tobytes() == expected.tobytes()
        for doc, row in zip(docs, expected):
            assert sign(doc, ref).tobytes() == row.tobytes()
        # several count-matrix blocks give the same rows
        monkeypatch.setattr(reference, "SIGN_BLOCK", 2)
        assert signature_matrix(docs[::-1], ref).tobytes() == expected[::-1].tobytes()
        monkeypatch.undo()
    assert not signature_matrix(docs, ReferenceText(_keys(GRAMS), 3))[0].any()  # empty document


def test_fitness_equals_signature_matrix_error():
    rng = random.Random(4)
    corpus = _docs(
        ["".join(rng.choice("abcde 😀") for _ in range(rng.randint(0, 60))) for _ in range(12)]
        + TEXTS
    )
    sample = draw_fitness_sample(corpus, 15, random.Random(2))
    present = sorted({g for doc in sample.documents for g in gram_strings(doc.vector.keys)})
    absent = ["qqq", "𝔘𝔘𝔘", "zz "]  # no sample document contains these
    assert not set(absent) & set(present)
    for _ in range(30):
        grams = tuple(rng.choices(present + absent, k=rng.randint(1, 40)))
        partitions = rng.randint(1, len(grams))
        ref = ReferenceText(_keys(grams), partitions)
        expected = mean_signature_error(signature_matrix(sample.documents, ref), sample.oracle)
        assert fitness(_chromosome(grams), sample, partitions) == expected
    # a chromosome made only of absent grams signs every document all-zero
    expected = mean_signature_error(np.zeros((15, 2)), sample.oracle)
    assert fitness(_chromosome(absent * 2), sample, 2) == expected


def test_count_matrix_spare_column_is_zero():
    docs = _docs(TEXTS)
    every = np.unique(np.concatenate([d.vector.keys for d in docs]))
    vocab = every[::2]  # half the grams the documents hold are outside it
    counts, sq_norms = count_matrix(docs, vocab)
    assert counts.shape == (len(docs), len(vocab) + 1)
    assert not counts[:, -1].any()
    for row, doc in zip(counts, docs):
        held = dict(zip(doc.vector.keys.tolist(), doc.vector.counts.tolist()))
        assert row[:-1].tolist() == [held.get(key, 0) for key in vocab.tolist()]
    assert sq_norms.tolist() == [d.vector.sq_norm for d in docs]
    assert not counts[:, text.key_columns(vocab, every[1::2])].any()


def test_brute_force_pairwise_equals_cosine(monkeypatch):
    rng = random.Random(9)
    texts = ["".join(rng.choices("abcdefg 😀", k=rng.randint(0, 80))) for _ in range(15)]
    # A squared norm of 19998**2, whose square is above 2**53, and an empty text.
    docs = _docs(TEXTS + texts + ["a" * 20000, ""])
    expected = np.array([[cosine(a.vector, b.vector) for b in docs] for a in docs])
    np.fill_diagonal(expected, [0.0 if d.vector.is_empty else 1.0 for d in docs])
    assert brute_force_pairwise(docs).tobytes() == expected.tobytes()
    monkeypatch.setattr(text, "ORACLE_BLOCK", 7)  # many vocabulary blocks
    assert brute_force_pairwise(docs).tobytes() == expected.tobytes()


def test_select_matches_fitness_then_hash_order():
    rng = random.Random(3)
    population = []
    for _ in range(40):
        grams = tuple(rng.choices(["abc", "bcd", "cde"], k=3))
        population.append(_chromosome(grams, fitness=rng.choice([0.1, 0.2, 0.3, 0.25])))
    expected = sorted(population, key=lambda c: (c.fitness, c.content_hash()))
    for size in (1, 7, 20, 40, 60):
        assert [id(c) for c in _select(population, size)] == [id(c) for c in expected[:size]]


_CHARS = "ab c😀é"
_gram = st.text(alphabet=_CHARS, min_size=3, max_size=3)


@settings(max_examples=60, deadline=None)
@given(
    texts=st.lists(st.text(alphabet=_CHARS, max_size=30), min_size=2, max_size=8),
    grams=st.lists(_gram, min_size=1, max_size=25),
    data=st.data(),
)
def test_kernels_equal_cosine_property(texts, grams, data):
    docs = _docs(texts)
    partitions = data.draw(st.integers(1, len(grams)))
    ref = ReferenceText(_keys(grams), partitions)
    expected = _cosine_rows(docs, tuple(grams), partitions)
    assert signature_matrix(docs, ref).tobytes() == expected.tobytes()

    oracle = brute_force_pairwise(docs)
    for i, a in enumerate(docs):
        for j, b in enumerate(docs):
            if i != j:
                assert oracle[i, j] == cosine(a.vector, b.vector)

    sample = draw_fitness_sample(docs, len(docs), random.Random(0))
    assert sample.oracle.tobytes() == brute_force_pairwise(sample.documents).tobytes()
    direct = mean_signature_error(signature_matrix(sample.documents, ref), sample.oracle)
    assert fitness(_chromosome(grams), sample, partitions) == direct
