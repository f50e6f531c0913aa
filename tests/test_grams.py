"""Packed int64 3-gram keys against the str grams they stand for.

The str-keyed implementations the packed keys replaced are kept here as
oracles: a ``Counter`` of string slices for extraction, and ``Counter``
tf/df sums for tf-idf scoring.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refsig.reference import ReferenceText
from refsig.text import Document, extract_3grams, gram_keys, gram_strings, sorted_counts
from refsig.tfidf import GramPool, score_grams

# Every code point, lone surrogates included, plus the characters the gram
# file format escapes and the ends of the code space.
_char = st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from(["\n", "\t", "\\", " ", "\x00", "\ud800", "\udfff", "\uffff", "\U0010ffff"]),
)
_gram = st.text(alphabet=_char, min_size=3, max_size=3)
_texts = st.text(alphabet=st.one_of(st.sampled_from("ab \n😀"), _char), max_size=40)


def _window_counts(text: str) -> Counter:
    return Counter(text[i : i + 3] for i in range(len(text) - 2))


@settings(max_examples=200, deadline=None)
@given(_gram)
def test_pack_unpack_round_trip(gram):
    keys = gram_keys(gram)
    assert keys.dtype == np.int64 and len(keys) == 1 and keys[0] >= 0
    assert gram_strings(keys) == [gram]
    assert gram_keys(gram)[::3].tolist() == keys.tolist()  # one window, as a gram list


@settings(max_examples=100, deadline=None)
@given(st.lists(_gram, max_size=12))
def test_sequence_packing_round_trip(grams):
    assert gram_strings(gram_keys("".join(grams))[::3]) == grams


def test_keys_that_pack_no_3_gram_are_rejected_by_name():
    top = gram_keys("\U0010ffff" * 3)
    assert gram_strings(top) == ["\U0010ffff" * 3]  # the largest packed key
    abc = gram_keys("abc")[0]
    for bad in (-1, 0x110000, 0x110000 << 21, 0x110000 << 42, 2**63 - 1):
        keys = np.array([abc, bad])
        for build in (gram_strings, lambda k: GramPool(k, 2), lambda k: ReferenceText(k, 1)):
            with pytest.raises(ValueError, match=f"key {bad} at position 1 "):
                build(keys)
    # Random 40-bit keys: about half have a last field above 0x10FFFF.
    with pytest.raises(ValueError, match="is not a packed 3-gram"):
        GramPool(np.random.default_rng(0).integers(0, 2**40, 30), 30)


@settings(max_examples=200, deadline=None)
@given(_gram, _gram)
def test_key_order_is_str_order(a, b):
    (ka,), (kb,) = gram_keys(a), gram_keys(b)
    assert (ka < kb) == (a < b)
    assert (ka == kb) == (a == b)


@settings(max_examples=150, deadline=None)
@given(_texts)
def test_extract_3grams_equals_counter_of_slices(text):
    expected = _window_counts(text)
    vec = extract_3grams(text)
    assert gram_strings(vec.keys) == sorted(expected)
    assert vec.counts.tolist() == [expected[g] for g in sorted(expected)]
    assert vec.sq_norm == sum(c * c for c in expected.values())
    assert vec.is_empty == (len(text) < 3)


@pytest.mark.parametrize("text", ["", "ab", "aaaa", "abc", "x😀yx😀y\U0010ffff x😀y"])
def test_extract_3grams_equals_np_unique(text):
    # Counts come from one sort and its run lengths, not from np.unique.
    vec = extract_3grams(text)
    keys, counts = np.unique(gram_keys(text), return_counts=True)
    assert vec.keys.dtype == vec.counts.dtype == np.int64
    assert np.array_equal(vec.keys, keys) and np.array_equal(vec.counts, counts)


@pytest.mark.parametrize("keys", [
    np.array([], dtype=np.int64),
    np.array([5, 5, 5, -2, 5, -2, 0], dtype=np.int64),
    np.random.default_rng(3).integers(-(2**62), 2**62, 2000),
    np.random.default_rng(4).integers(0, 50, 2000),
], ids=["empty", "repeated", "random", "random-repeated"])
def test_sorted_counts_equals_np_unique(keys):
    values, counts = sorted_counts(keys)
    expected_values, expected_counts = np.unique(keys, return_counts=True)
    assert values.dtype == expected_values.dtype == np.int64
    assert np.array_equal(values, expected_values)
    assert np.array_equal(counts, expected_counts)


def _score_grams_reference(texts):
    """tf-idf scores as str-keyed Counter sums, ordered by (-score, gram)."""
    n = len(texts)
    total_tf: Counter = Counter()
    df: Counter = Counter()
    for text in texts:
        for gram, count in _window_counts(text).items():
            total_tf[gram] += count
            df[gram] += 1
    scores = [
        (gram, tf * (math.log((1 + n) / (1 + df[gram])) + 1.0), df[gram])
        for gram, tf in total_tf.items()
    ]
    scores.sort(key=lambda s: (-s[1], s[0]))
    return scores


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet=st.one_of(st.sampled_from("abc "), _char), max_size=30),
                min_size=1, max_size=8))
def test_score_grams_equals_str_keyed_reference(texts):
    docs = [Document(str(i), extract_3grams(t)) for i, t in enumerate(texts)]
    keys, score, df = score_grams(docs)
    ranked = list(zip(gram_strings(keys), score.tolist(), df.tolist()))
    assert ranked == _score_grams_reference(texts)
