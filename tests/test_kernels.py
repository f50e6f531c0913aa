"""The integer-count kernels (signing, GA fitness, the exact-cosine oracle)
against the scalar definitions in ``text.cosine``, compared for equality,
not within a tolerance."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refsig import ga, reference, text
from refsig.ga import draw_fitness_sample, fitness
from refsig.reference import (
    EXACT_FLOOR,
    ReferenceText,
    mean_signature_error,
    pairwise_signature_similarity,
    partition_sizes,
    sign,
    signature_matrix,
    upper_blocks,
)
from refsig.text import (
    Document,
    brute_force_pairwise,
    cosine,
    count_matrix,
    gram_keys,
    gram_strings,
)
from refsig.tfidf import GramPool

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


def _pool_and_genes(population):
    """A pool of every gram of ``population``, and each member's genes over it."""
    grams = sorted({g for member in population for g in member})
    return GramPool(_keys(grams), len(grams)), [
        np.array([grams.index(g) for g in member]) for member in population
    ]


def _cosine_rows(docs, grams, partitions):
    """Signatures as one ``text.cosine`` call per document and partition."""
    parts, start = [], 0
    for size in partition_sizes(len(grams), partitions):
        keys = gram_keys("".join(grams[start : start + size]))[::3]
        parts.append(Document("part", *np.unique(keys, return_counts=True)))
        start += size
    return np.array([[cosine(doc, part) for part in parts] for doc in docs])


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


def test_fitness_equals_signature_matrix_error(monkeypatch):
    rng = random.Random(4)
    corpus = _docs(
        ["".join(rng.choice("abcde 😀") for _ in range(rng.randint(0, 60))) for _ in range(12)]
        + TEXTS
    )
    drawn = random.Random(2).sample(list(corpus), 15)  # the documents the sample holds
    present = sorted({g for doc in drawn for g in gram_strings(doc.keys)})
    absent = ["qqq", "𝔘𝔘𝔘", "zz "]  # no sample document contains these
    assert not set(absent) & set(present)
    pool = GramPool(_keys(present + absent), len(present + absent))
    sample = draw_fitness_sample(corpus, pool, 15, random.Random(2))
    for _ in range(30):
        length = rng.randint(1, 40)
        partitions = rng.randint(1, length)
        population = [np.array(rng.choices(range(len(pool)), k=length)) for _ in range(3)]
        refs = [ReferenceText(pool.keys[genes], partitions) for genes in population]
        expected = [mean_signature_error(signature_matrix(drawn, r), sample.oracle) for r in refs]
        assert fitness(population, sample, partitions) == expected
        # chunks of 2 and a last chunk of 1 give the same values
        monkeypatch.setattr(ga, "FITNESS_CELLS", 2 * 15 * length)
        assert fitness(population, sample, partitions) == expected
        monkeypatch.undo()
    # genes of absent grams only sign every document all-zero
    expected = mean_signature_error(np.zeros((15, 2)), sample.oracle)
    assert fitness([np.arange(len(present), len(pool)).repeat(2)], sample, 2) == [expected]
    assert fitness([], sample, 2) == []


def test_count_matrix_spare_row_is_zero():
    docs = _docs(TEXTS)
    every = np.unique(np.concatenate([d.keys for d in docs]))
    vocab = every[::2]  # half the grams the documents hold are outside it
    counts, sq_norms = count_matrix(docs, vocab)
    assert counts.shape == (len(vocab) + 1, len(docs))
    assert not counts[-1].any()
    for column, doc in zip(counts.T, docs):
        held = dict(zip(doc.keys.tolist(), doc.counts.tolist()))
        assert column[:-1].tolist() == [held.get(key, 0) for key in vocab.tolist()]
    assert sq_norms.tolist() == [d.sq_norm for d in docs]
    assert not counts[text.key_columns(vocab, every[1::2])].any()


def test_brute_force_pairwise_equals_cosine(monkeypatch):
    rng = random.Random(9)
    texts = ["".join(rng.choices("abcdefg 😀", k=rng.randint(0, 80))) for _ in range(15)]
    # A squared norm of 19998**2, whose square is above 2**53, and an empty text.
    docs = _docs(TEXTS + texts + ["a" * 20000, ""])
    expected = np.array([[cosine(a, b) for b in docs] for a in docs])
    np.fill_diagonal(expected, [0.0 if d.sq_norm == 0 else 1.0 for d in docs])
    assert [block.tobytes() for block in brute_force_pairwise(docs)] == [expected.tobytes()]
    monkeypatch.setattr(text, "ORACLE_BLOCK", 7)  # many vocabulary blocks
    assert [block.tobytes() for block in brute_force_pairwise(docs)] == [expected.tobytes()]
    monkeypatch.setattr(text, "SCAN_BLOCK", 4)  # many row blocks: rows lo.. against lo..
    assert [block.tobytes() for block in brute_force_pairwise(docs)] == [
        expected[lo : lo + 4, lo:].tobytes() for lo in range(0, len(docs), 4)
    ]


def _set_row_block(monkeypatch, rows):
    """Make the pair kernel and the oracle both use row blocks of ``rows``."""
    monkeypatch.setattr(reference, "SCAN_BLOCK", rows)
    monkeypatch.setattr(text, "SCAN_BLOCK", rows)


def test_upper_blocks_are_the_pairwise_blocks_above_the_diagonal(monkeypatch):
    rng = np.random.default_rng(3)
    m = rng.uniform(0, 1, size=(23, 6))
    m[[5, 11]] = 0.0  # all-zero rows
    m[[9, 16, 22]] = m[2]  # copies within and across blocks
    _set_row_block(monkeypatch, 8)
    blocks = list(upper_blocks(m, floor=0.5))
    assert [lo for lo, *_ in blocks] == [0, 8, 16]
    for lo, sims, rows, cols in blocks:
        expected = pairwise_signature_similarity(m[lo : lo + 8], m[lo:])
        upper = ~np.tri(*expected.shape, dtype=bool)
        assert sims.shape == expected.shape
        assert sims[upper].tobytes() == expected[upper].tobytes()
        listed = np.nonzero(upper & (expected >= 0.5))
        assert (rows.tolist(), cols.tolist()) == (listed[0].tolist(), listed[1].tolist())
    # At the default floor of 1.0 they are the pairs of equal rows.
    listed = [(lo + r, lo + c) for lo, _, rows, cols in upper_blocks(m) for r, c in zip(rows, cols)]
    assert listed == [(2, 9), (2, 16), (2, 22), (9, 16), (9, 22), (16, 22)]


def test_mean_signature_error_sums_row_blocks(monkeypatch):
    rng = random.Random(6)
    docs = _docs(["".join(rng.choices("abcde ", k=rng.randint(0, 50))) for _ in range(21)] + TEXTS)
    docs.append(Document("copy", docs[3].keys, docs[3].counts))
    rows = signature_matrix(docs, ReferenceText(_keys(GRAMS), 4))
    (oracle,) = brute_force_pairwise(docs)
    iu = np.triu_indices(len(docs), k=1)
    # One block: np.mean over the full matrices' upper triangle, bit for bit.
    full = float(np.mean(np.abs(pairwise_signature_similarity(rows, rows)[iu] - oracle[iu])))
    assert mean_signature_error(rows, brute_force_pairwise(docs)) == full
    _set_row_block(monkeypatch, 5)
    blocks = list(brute_force_pairwise(docs))
    assert len(blocks) == 7
    assert abs(mean_signature_error(rows, blocks) - full) <= 1e-15
    for wrong in (blocks[:-1], blocks + blocks[-1:], blocks[:1] * 7):
        with pytest.raises(ValueError):
            mean_signature_error(rows, wrong)


def test_fitness_probe_never_reads_a_pair_with_i_at_or_above_j(monkeypatch):
    probed = []
    exact_ones = reference._exact_ones

    def spy(sims, a, b, *pairs):
        near = sims[pairs] >= EXACT_FLOOR
        probed.append(tuple(k[near] for k in pairs))
        exact_ones(sims, a, b, *pairs)

    monkeypatch.setattr(reference, "_exact_ones", spy)
    docs = _docs(["abcabc", "abcabc", "the cat sat", "xyz", "abcabc", ""])
    pool, population = _pool_and_genes([
        ("abc", "bca", "the", "cat"), ("cat", "the", "abc", "abc"), ("xyz", "sat", "bca", "cat")
    ])
    sample = draw_fitness_sample(docs, pool, len(docs), random.Random(0))
    fitness(population, sample, 2)
    [(stack, rows, cols)] = probed
    assert (cols > rows).all()
    # The three equal documents are three pairs per chromosome; no diagonal entry is probed.
    assert np.bincount(stack, minlength=len(population)).tolist() == [3] * len(population)


def test_stacked_pair_kernel_equals_each_matrix_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(8)
    stack = rng.uniform(0, 1, size=(5, 23, 6))
    stack[:, [5, 11]] = 0.0  # all-zero rows
    stack[:, [9, 16, 22]] = stack[:, [2]]  # copies within and across blocks
    stack[3] = 0.0  # a matrix of zero rows only
    exact = rng.uniform(0, 1, size=(23, 23))
    _set_row_block(monkeypatch, 8)
    oracle = [exact[lo : lo + 8, lo:] for lo in range(0, 23, 8)]
    each = [list(upper_blocks(m, floor=0.5)) for m in stack]
    for k, (lo, sims, where, rows, cols) in enumerate(upper_blocks(stack, floor=0.5)):
        assert lo == 8 * k
        for c in range(len(stack)):
            _, expected, *pairs = each[c][k]
            assert sims[c].tobytes() == expected.tobytes()
            mine = where == c
            assert [rows[mine].tolist(), cols[mine].tolist()] == [p.tolist() for p in pairs]
    errors = mean_signature_error(stack, oracle)
    assert errors.tolist() == [mean_signature_error(m, oracle) for m in stack]
    # A fitness population of 5 in chunks of 2 crosses a chunk boundary and 3 row blocks.
    docs = _docs(["".join(random.Random(k).choices("abcd ", k=30)) for k in range(19)] + TEXTS)
    pool, population = _pool_and_genes([random.Random(k).choices(GRAMS, k=9) for k in range(5)])
    sample = draw_fitness_sample(docs, pool, 20, random.Random(1))
    drawn = random.Random(1).sample(docs, 20)
    monkeypatch.setattr(ga, "FITNESS_CELLS", 2 * 20 * 9)
    assert len(sample.oracle) == 3
    assert fitness(population, sample, 4) == [
        mean_signature_error(signature_matrix(drawn, ReferenceText(pool.keys[g], 4)), sample.oracle)
        for g in population
    ]


_CHARS = "ab c😀é"
_gram = st.text(alphabet=_CHARS, min_size=3, max_size=3)


@settings(max_examples=60, deadline=None)
@given(
    texts=st.lists(st.text(alphabet=_CHARS, max_size=30), min_size=1, max_size=8),
    grams=st.lists(_gram, min_size=1, max_size=25),
    data=st.data(),
)
def test_kernels_equal_cosine_property(texts, grams, data):
    docs = _docs(texts + [""])  # and an empty document
    partitions = data.draw(st.integers(1, len(grams)))
    ref = ReferenceText(_keys(grams), partitions)
    expected = _cosine_rows(docs, tuple(grams), partitions)
    assert signature_matrix(docs, ref).tobytes() == expected.tobytes()

    (oracle,) = brute_force_pairwise(docs)
    for i, a in enumerate(docs):
        for j, b in enumerate(docs):
            if i != j:
                assert oracle[i, j] == cosine(a, b)

    # One population: the drawn grams, one of them repeated, and grams no document holds.
    repeated = [grams[0]] + grams[:-1]
    absent = data.draw(st.lists(st.sampled_from(["qqq", "xyz", "😀zz"]), min_size=len(grams),
                                max_size=len(grams)))
    pool, population = _pool_and_genes([grams, repeated, absent, grams[::-1], grams])
    sample = draw_fitness_sample(docs, pool, len(docs), random.Random(0))
    drawn = random.Random(0).sample(docs, len(docs))
    assert [b.tobytes() for b in sample.oracle] == [b.tobytes() for b in brute_force_pairwise(drawn)]
    scores = fitness(population, sample, partitions)
    for genes, score in zip(population, scores):
        direct = ReferenceText(pool.keys[genes], partitions)
        assert score == mean_signature_error(signature_matrix(drawn, direct), sample.oracle)
        assert score == fitness([genes], sample, partitions)[0]
