import math
import random
from typing import NamedTuple

import pytest

from refsig.text import Document, gram_keys, gram_strings
from refsig.tfidf import GramPool, load_pool, save_pool, score_grams, top_k


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


def _keys(grams):
    return gram_keys("".join(grams))[::3]


def _grams(pool):
    return tuple(gram_strings(pool.keys))


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
    vectors = [dict(zip(gram_strings(d.vector.keys), d.vector.counts.tolist())) for d in docs]
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
    with pytest.raises(ValueError):
        score_grams([])


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
