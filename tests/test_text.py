import random
import unicodedata

import numpy as np
import pytest

from refsig.text import (
    Document,
    brute_force_pairwise,
    cosine,
    count_cells,
    extract_3grams,
    gram_keys,
    gram_strings,
    normalize,
)


def _vec(counts: dict[str, int]) -> Document:
    """A document from str gram counts."""
    grams = sorted(counts)
    return Document("v", gram_keys("".join(grams))[::3], [counts[g] for g in grams])


def _counts(keys: np.ndarray, counts: np.ndarray) -> dict[str, int]:
    return dict(zip(gram_strings(keys), counts.tolist()))


def test_normalize_examples():
    assert normalize("AB  cD\n") == "ab cd"
    assert normalize("") == ""
    assert normalize("x") == "x"


def test_normalize_strips_and_collapses():
    assert normalize("  a \t\n b  ") == "a b"
    assert normalize("Ångström") == "ångström"
    # decomposed input composes to the same result
    assert normalize("Ångström") == normalize("Ångström")


def _random_text(rng: random.Random, max_len: int = 60) -> str:
    chars = []
    for _ in range(rng.randrange(max_len)):
        kind = rng.random()
        if kind < 0.15:
            chars.append(rng.choice(" \t\n\r\x0b  "))
        elif kind < 0.3:
            chars.append(chr(rng.randrange(0x20, 0x250)))
        else:
            code = rng.randrange(0x20, 0x10000)
            if 0xD800 <= code <= 0xDFFF:
                code = 0x61
            chars.append(chr(code))
    return "".join(chars)


def test_normalize_idempotent_and_invariant():
    rng = random.Random(1234)
    for _ in range(400):
        text = normalize(_random_text(rng))
        assert normalize(text) == text
        assert text == text.strip()
        assert "  " not in text
        assert not any(ch.isspace() and ch != " " for ch in text)
        # case-folded up to canonical composition (some folds decompose, and
        # some scripts, e.g. Cherokee, fold toward their uppercase letters)
        assert unicodedata.normalize("NFC", text.casefold()) == text


def test_extract_3grams_examples():
    assert _counts(*extract_3grams("abcd")) == {"abc": 1, "bcd": 1}
    assert _counts(*extract_3grams("aaaa")) == {"aaa": 2}
    assert _counts(*extract_3grams("ab")) == {}
    assert len(extract_3grams("")[0]) == 0


def test_window_count_conservation():
    rng = random.Random(7)
    for _ in range(200):
        text = normalize(_random_text(rng, max_len=120))
        keys, counts = extract_3grams(text)
        if len(text) >= 3:
            assert counts.sum() == len(text) - 2
        else:
            assert len(keys) == 0


def test_vector_validation():
    with pytest.raises(ValueError):
        _vec({"ab": 1})  # "ab" packs to no key, so keys and counts no longer match
    with pytest.raises(ValueError):
        _vec({"abc": 0})
    keys = gram_keys("abcbcd")[::3]
    for bad_keys in (keys[::-1], keys[[0, 0]], keys - keys[1], keys[None]):
        with pytest.raises(ValueError):
            Document("v", bad_keys, [1, 1])


def test_vector_norm_cache():
    rng = random.Random(21)
    for _ in range(100):
        counts = {f"g{i:02d}": rng.randint(1, 40) for i in range(rng.randint(1, 30))}
        vec = _vec(counts)
        assert vec.sq_norm == sum(c * c for c in counts.values())


def test_cosine_examples():
    a = _vec({"abc": 1, "bcd": 1})
    b = _vec({"bcd": 1, "cde": 1})
    assert cosine(a, b) == pytest.approx(0.5, abs=1e-15)
    assert cosine(a, _vec({"abc": 1, "bcd": 1})) == 1.0
    assert cosine(_vec({"abc": 1}), _vec({"xyz": 1})) == 0.0
    assert cosine(_vec({}), a) == 0.0
    assert cosine(_vec({}), _vec({})) == 0.0


def _random_vector(rng: random.Random) -> Document:
    grams = [f"t{i:02d}" for i in range(12)]
    picked = rng.sample(grams, rng.randint(0, 8))
    return _vec({g: rng.randint(1, 9) for g in picked})


def test_cosine_properties():
    rng = random.Random(99)
    for _ in range(300):
        a, b = _random_vector(rng), _random_vector(rng)
        s = cosine(a, b)
        assert 0.0 <= s <= 1.0
        assert cosine(b, a) == s
        if a.sq_norm:
            k = rng.randint(2, 7)
            scaled = Document("scaled", a.keys, k * a.counts)
            assert abs(cosine(scaled, b) - s) <= 1e-12


def test_brute_force_pairwise():
    single = [Document.from_raw("0", "abcd")]
    assert [mat.tolist() for mat in brute_force_pairwise(single)] == [[[1.0]]]

    twins = [Document.from_raw("0", "same text"), Document.from_raw("1", "same text")]
    (mat,) = brute_force_pairwise(twins)
    assert mat[0, 1] == 1.0 and mat[1, 0] == 1.0

    docs = [Document.from_raw("0", "abcd"), Document.from_raw("1", "bcde")]
    (mat,) = brute_force_pairwise(docs)
    assert mat[0, 1] == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(mat, mat.T)

    with_empty = [Document.from_raw("0", ""), Document.from_raw("1", "abcd")]
    (mat,) = brute_force_pairwise(with_empty)
    assert mat[0, 0] == 0.0 and mat[1, 1] == 1.0 and mat[0, 1] == 0.0

    with pytest.raises(ValueError):
        list(brute_force_pairwise([]))


def test_document_from_raw_consistency():
    doc = Document.from_raw("d", "The  QUICK fox")
    assert np.array_equal((doc.keys, doc.counts), extract_3grams("the quick fox"))


def test_count_cells_vocabulary_is_sorted_union():
    docs = [Document.from_raw("0", "abcd"), Document.from_raw("1", "bcde")]
    rows, keys, counts = count_cells(docs)
    assert gram_strings(np.unique(keys)) == ["abc", "bcd", "cde"]
    assert rows.tolist() == [0, 0, 1, 1] and counts.tolist() == [1, 1, 1, 1]
