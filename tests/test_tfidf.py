import math
import random
from typing import NamedTuple

import numpy as np
import pytest

from refsig import tfidf
from refsig.reference import SIGN_BLOCK
from refsig.text import Document, count_cells, gram_strings
from refsig.tfidf import GramPool, load_pool, save_pool, score_grams, top_k

from helpers import _grams, _keys


class Entry(NamedTuple):
    gram: str
    score: float
    document_frequency: int


def _docs(*texts):
    return [Document.from_raw(str(i), t) for i, t in enumerate(texts)]


def _entries(ranked):
    """score_grams's columns as one (gram, score, df) row per gram."""
    keys, score, df = ranked
    return [Entry(*row) for row in zip(gram_strings(keys), score.tolist(), df.tolist())]


def test_single_document_scores():
    scores = _entries(score_grams(_docs("abcd")))
    by_gram = {s.gram: s for s in scores}
    # idf = ln(2/2) + 1 = 1 for both grams
    assert by_gram["abc"].score == pytest.approx(1.0)
    assert by_gram["bcd"].score == pytest.approx(1.0)
    assert by_gram["abc"].document_frequency == 1


def test_two_document_ranking():
    scores = _entries(score_grams(_docs("abcd", "abce")))
    by_gram = {s.gram: s for s in scores}
    assert by_gram["abc"].score == pytest.approx(2.0)  # tf 2, idf ln(3/3)+1
    expected_rare = math.log(3 / 2) + 1.0  # tf 1, df 1
    assert by_gram["bcd"].score == pytest.approx(expected_rare)
    assert scores[0].gram == "abc"


def test_identical_corpus_ties_break_lexicographically():
    scores = _entries(score_grams(_docs("abcd", "abcd", "abcd")))
    # every gram: df = 3 = N, idf = 1, tf = 3
    assert all(s.score == pytest.approx(3.0) for s in scores)
    assert [s.gram for s in scores] == ["abc", "bcd"]


def test_scores_match_direct_recomputation():
    rng = random.Random(31)
    alphabet = "abcdefg "
    texts = ["".join(rng.choice(alphabet) for _ in range(rng.randint(5, 60))) for _ in range(12)]
    docs = _docs(*texts)
    scores = _entries(score_grams(docs))
    n = len(docs)
    vectors = [dict(zip(gram_strings(d.keys), d.counts.tolist())) for d in docs]
    for entry in scores:
        tf = sum(v.get(entry.gram, 0) for v in vectors)
        df = sum(1 for v in vectors if entry.gram in v)
        assert entry.document_frequency == df
        assert entry.score == pytest.approx(tf * (math.log((1 + n) / (1 + df)) + 1.0), rel=1e-12)


def test_top_k_selection():
    scores = score_grams(_docs("abcd", "abce"))
    pool = top_k(scores, 1)
    assert _grams(pool) == ("abc",)
    assert not pool.underfilled
    # k cuts through tied scores: the pool is the ranking's first k, ties in gram order.
    # One document: every gram has tf 1 and df 1, so all scores tie.
    pool = top_k(score_grams(_docs("zyxwvu")), 2)
    assert _grams(pool) == ("wvu", "xwv")
    rng = random.Random(8)
    texts = ["".join(rng.choice("abc 😀") for _ in range(rng.randint(3, 40))) for _ in range(9)]
    ranked = score_grams(_docs(*texts))
    entries = _entries(ranked)
    expected = sorted(entries, key=lambda e: (-e.score, e.gram))
    assert entries == expected
    values = [e.score for e in entries]
    cuts = [k for k in range(1, len(entries)) if values[k - 1] == values[k]]
    assert cuts, "the corpus has no tied scores to cut through"
    for k in cuts:
        assert _grams(top_k(ranked, k)) == tuple(e.gram for e in expected[:k])


def test_top_k_saturation_warns():
    scores = score_grams(_docs("abcd"))
    with pytest.warns(UserWarning):
        pool = top_k(scores, 10)
    assert pool.underfilled
    assert set(_grams(pool)) == {"abc", "bcd"}


def test_top_k_validates_k():
    with pytest.raises(ValueError):
        top_k([], 0)


def test_score_grams_rejects_empty_corpus():
    with pytest.raises(ValueError, match="cannot score an empty corpus"):
        score_grams([])
    with pytest.raises(ValueError, match="cannot score an empty corpus"):
        score_grams(doc for doc in [])


def _one_shot_score_grams(corpus):
    """score_grams counted in one pass over every (document, gram) cell."""
    n = len(corpus)
    _, keys, counts = count_cells(corpus)
    grams, cols = np.unique(keys, return_inverse=True)
    tf = np.bincount(cols, weights=counts)
    df = np.bincount(cols)
    df_values, df_index = np.unique(df, return_inverse=True)
    idf = np.array([math.log((1 + n) / (1 + d)) + 1.0 for d in df_values.tolist()])
    score = tf * idf[df_index]
    order = np.lexsort((grams, -score))
    return grams[order], score[order], df[order]


def _assert_scores_one_shot(docs, stream):
    ranked = score_grams(iter(docs) if stream else docs)
    for got, want in zip(ranked, _one_shot_score_grams(docs)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, SIGN_BLOCK - 1, SIGN_BLOCK, SIGN_BLOCK + 1, 200])
@pytest.mark.parametrize("stream", [False, True])
def test_blocked_counts_equal_one_shot_counts(n, stream):
    rng = random.Random(n)
    texts = []
    for i in range(n):
        text = "".join(rng.choice("abcde ") for _ in range(rng.randint(0, 80)))
        if i >= 2 * SIGN_BLOCK:  # grams that no earlier block holds
            text += " " + "".join(rng.choice("xyzéü") for _ in range(rng.randint(3, 12)))
        texts.append(text)
    docs = _docs(*texts)
    _assert_scores_one_shot(docs, stream)


# 200 Cyrillic letters make nearly every gram new, so the vocabulary
# outgrows one block's cells and several blocks wait before a merge.
_WIDE_ALPHABET = "".join(chr(0x430 + i) for i in range(200)) + " "


@pytest.mark.parametrize("stream", [False, True])
def test_blocked_counts_merge_waiting_blocks_into_a_wide_vocabulary(stream, monkeypatch):
    rng = random.Random(7)
    texts = ["".join(rng.choice(_WIDE_ALPHABET) for _ in range(rng.randint(0, 40)))
             + " common words" for _ in range(8 * SIGN_BLOCK + 3)]
    docs = _docs(*texts)
    merges = []  # (grams already merged, blocks waiting) per merge
    merge = tfidf._merge_counts

    def recording_merge(merged, waiting):
        merges.append((len(merged[0]), len(waiting)))
        return merge(merged, waiting)

    monkeypatch.setattr(tfidf, "_merge_counts", recording_merge)
    _assert_scores_one_shot(docs, stream)
    assert any(grams > 0 and waiting >= 2 for grams, waiting in merges), merges


def test_pool_rejects_duplicates(tmp_path):
    with pytest.raises(ValueError):
        GramPool(_keys(["abc", "abc"]), 5)
    path = tmp_path / "pool.txt"
    path.write_text("abc\nbcd\nabc\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate"):
        load_pool(path)


def test_load_pool_names_the_file_in_every_rejection(tmp_path):
    path = tmp_path / "pool.txt"
    path.write_text("abc\nbcd\nabc\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_pool(path)
    assert str(exc.value) == f"{path}: gram pool contains the duplicate gram 'abc'"
    path.write_text("abc\nbc\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_pool(path)
    assert str(exc.value) == f"{path}:2: line 'bc' decodes to 2 characters, expected 3"


def test_pool_determinism(tmp_path):
    docs = _docs("the quick brown fox", "jumps over the lazy dog", "the fox again")
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_pool(top_k(score_grams(docs), 20), p1)
    save_pool(top_k(score_grams(list(docs)), 20), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_pool_file_round_trip(tmp_path):
    grams = ("abc", "a b", "x\ny", "z\\w", "\x00\x01\x02", "héz")
    pool = GramPool(_keys(grams), len(grams))
    path = tmp_path / "pool.txt"
    save_pool(pool, path)
    loaded = load_pool(path)
    assert _grams(loaded) == grams


def test_load_pool_rejects_bad_lines(tmp_path):
    path = tmp_path / "pool.txt"
    path.write_text("abcd\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_pool(path)
