"""Text normalization, character 3-grams, and exact cosine similarity.

Grams are counted as packed int64 keys (:func:`gram_keys`) and are str only
in files and on display. Exact cosine over sparse 3-gram count vectors is the
ground truth that signature-space similarity is trained and evaluated against.
"""

from __future__ import annotations

import math
import unicodedata
from typing import Iterator, Sequence

import numpy as np

NGRAM_SIZE = 3

# Case folding of some code points decomposes; a couple of passes reach a
# fixed point, which is what makes normalize() idempotent.
_MAX_FOLD_PASSES = 8


def _fold_pass(text: str) -> tuple[str, bool]:
    """One NFC, casefold, NFC, whitespace-collapse pass, and whether the
    second NFC left casefold's output unchanged. Casefolding is idempotent
    code point by code point and collapsing whitespace neither composes nor
    casefolds, so when it did, the pass's output is a fixed point."""
    text = unicodedata.normalize("NFC", text)
    folded = text.casefold()
    text = unicodedata.normalize("NFC", folded)
    return " ".join(text.split()), text == folded


def normalize(raw: str) -> str:
    """Return a lowercase, whitespace-collapsed, NFC-composed copy of ``raw``.

    All whitespace runs become a single ASCII space and leading/trailing
    whitespace is dropped. The pipeline is applied until it stops changing
    the string, so normalize(normalize(t)) == normalize(t).
    """
    text, settled = _fold_pass(raw)
    for _ in range(_MAX_FOLD_PASSES):
        if settled:  # a fixed point: skip the confirming pass
            break
        again, settled = _fold_pass(text)
        if again == text:
            break
        text = again
    return text


# A code point fits in 21 bits, so a 3-gram packs exactly into one int64 as
# (c0 << 42) | (c1 << 21) | c2, and key order is str order.
_CODE_BITS = 21
_CODE_MASK = (1 << _CODE_BITS) - 1
_MAX_CODE = 0x10FFFF


def gram_keys(text: str) -> np.ndarray:
    """The packed key of each 3-character window of ``text``. The keys of a
    list of 3-grams are ``gram_keys("".join(grams))[::NGRAM_SIZE]``."""
    code = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), "<u4").astype(np.int64)
    n = max(len(code) - NGRAM_SIZE + 1, 0)
    c0, c1, c2 = (code[k : k + n] for k in range(NGRAM_SIZE))
    keys = c0 << 2 * _CODE_BITS
    keys |= c1 << _CODE_BITS
    keys |= c2
    return keys


def check_keys(keys: np.ndarray) -> None:
    """Raise ValueError naming the first key that :func:`gram_keys` cannot
    have packed: a negative one, or one with a field above 0x10FFFF."""
    bad = (keys < 0) | (keys >> 2 * _CODE_BITS > _MAX_CODE)
    bad |= (keys >> _CODE_BITS & _CODE_MASK) > _MAX_CODE
    bad |= (keys & _CODE_MASK) > _MAX_CODE
    if bad.any():
        at = int(bad.argmax())
        raise ValueError(f"key {int(keys[at])} at position {at} is not a packed 3-gram")


def gram_strings(keys: np.ndarray) -> list[str]:
    """The 3-gram of each packed key: the inverse of :func:`gram_keys`."""
    check_keys(keys)
    code = np.stack([keys >> 2 * _CODE_BITS, keys >> _CODE_BITS, keys], -1) & _CODE_MASK
    flat = code.astype("<u4").tobytes().decode("utf-32-le", "surrogatepass")
    return [flat[i : i + NGRAM_SIZE] for i in range(0, len(flat), NGRAM_SIZE)]


def run_bounds(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values in sorted ``keys`` starts, and then
    ``len(keys)``: run i is ``keys[bounds[i]:bounds[i + 1]]``."""
    # edges[i] marks where a run starts (or, at len(keys), where the last ends).
    edges = np.empty(len(keys) + 1, bool)
    edges[0] = edges[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=edges[1:-1])
    return edges.nonzero()[0]


def sorted_counts(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``keys``, ascending, and how often each occurs:
    ``np.unique(keys, return_counts=True)`` as one sort and its run lengths."""
    keys = np.sort(keys)
    bounds = run_bounds(keys)
    return keys[bounds[:-1]], bounds[1:] - bounds[:-1]


def extract_3grams(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Count every 3-character window of ``text`` (stride 1, spaces included)
    as sorted, unique packed keys and their counts.

    Text shorter than 3 characters yields no keys.
    """
    return sorted_counts(gram_keys(text))


class Document:
    """A corpus entry: an opaque id and the 3-gram counts of its normalized
    text, as sorted, unique packed ``keys`` and their ``counts``, with the
    exact integer squared norm. The text itself is not kept: every
    comparison reads the counts."""

    __slots__ = ("id", "keys", "counts", "sq_norm")

    def __init__(self, doc_id: str, keys: np.ndarray, counts: np.ndarray):
        keys = np.asarray(keys, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if keys.ndim != 1 or keys.shape != counts.shape:
            raise ValueError(f"keys {keys.shape} and counts {counts.shape} are not one row each")
        if len(keys) and (keys[0] < 0 or (keys[1:] <= keys[:-1]).any()):
            raise ValueError("keys must be non-negative, sorted and unique")
        if (counts < 1).any():
            raise ValueError(f"counts must be >= 1, got {counts.min()}")
        self.id, self.keys, self.counts = doc_id, keys, counts
        self.sq_norm: int = int(counts @ counts)

    @classmethod
    def from_raw(cls, doc_id: str, raw: str) -> "Document":
        return cls(doc_id, *extract_3grams(normalize(raw)))

    def __repr__(self) -> str:
        return f"Document({self.id!r}, {len(self.keys)} grams, sq_norm={self.sq_norm})"


def cosine(a: Document, b: Document) -> float:
    """Cosine similarity of two documents' 3-gram counts; 0.0 when either is empty.

    The denominator is sqrt of the exact integer product of squared norms,
    so documents with the same counts score exactly 1.0.
    """
    if not (a.sq_norm and b.sq_norm):
        return 0.0
    _, ia, ib = np.intersect1d(a.keys, b.keys, assume_unique=True, return_indices=True)
    dot = int(a.counts[ia] @ b.counts[ib])
    return min(1.0, dot / math.sqrt(a.sq_norm * b.sq_norm))


def count_cosine(dots: np.ndarray, sq_a: np.ndarray, sq_b: np.ndarray) -> np.ndarray:
    """Cosines from integer dot products and squared norms held in float64.

    ``dots[..., i, j]`` pairs ``sq_a[..., i]`` with ``sq_b[..., j]``, leading
    axes broadcasting as a stack; a zero squared norm (an empty vector)
    scores 0.0. Integers below 2**53 are exact in float64 whatever order
    they were summed in, and sqrt(float(a) * float(b)) rounds as
    math.sqrt(a * b) does, so every entry is bit-identical to :func:`cosine`. The signature pair kernel
    (``reference.upper_blocks``) feeds it float dots and squared norms of
    signature rows.
    """
    denom = np.sqrt(sq_a[..., :, None] * sq_b[..., None, :])
    np.divide(dots, denom, out=denom, where=denom > 0)  # a zero denominator stays 0.0
    return np.minimum(denom, 1.0, out=denom)


def gram_cells(docs: Sequence[Document]) -> tuple[np.ndarray, np.ndarray]:
    """The packed key and count of each (document, gram) cell of ``docs``,
    document by document: :func:`count_cells` without the rows, which would
    raise a streaming tf-idf pass's peak memory by the size of the keys."""
    return np.concatenate([doc.keys for doc in docs]), np.concatenate([doc.counts for doc in docs])


def count_cells(docs: Sequence[Document]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row, packed key and count of each (document, gram) cell of ``docs``."""
    rows = np.repeat(np.arange(len(docs)), [len(doc.keys) for doc in docs])
    return rows, *gram_cells(docs)


def key_columns(vocab: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The column of each key in the sorted ``vocab``; ``len(vocab)`` where absent."""
    cols = np.searchsorted(vocab, keys)
    cols[np.append(vocab, -1)[cols] != keys] = len(vocab)
    return cols


def count_matrix(docs: Sequence[Document], vocab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float64 counts of ``docs`` over the sorted packed keys ``vocab``, one row
    per key, so that looking up grams gathers whole rows, and the documents'
    squared norms. A spare last row stays all zero: :func:`key_columns` sends a
    gram outside ``vocab`` there, so looking one up reads a count of 0."""
    rows, keys, cells = count_cells(docs)
    counts = np.zeros((len(vocab) + 1, len(docs)))
    counts[key_columns(vocab, keys), rows] = cells
    counts[-1] = 0.0
    return counts, np.array([doc.sq_norm for doc in docs], dtype=float)


SCAN_BLOCK = 256  # rows per block of the pair kernel and the oracle: SCAN_BLOCK x N arrays

# Vocabulary columns per dense block of the exact-cosine oracle: memory is
# O(N * block) instead of O(N * V).
ORACLE_BLOCK = 512


def brute_force_pairwise(corpus: Sequence[Document]) -> Iterator[np.ndarray]:
    """The ground-truth oracle in the row blocks of ``reference.upper_blocks``:
    for each block of :data:`SCAN_BLOCK` documents from ``lo``, their exact
    cosines against documents ``lo`` onwards. Dot products are exact integer
    count-matrix products, so every entry is bit-identical to :func:`cosine`.
    A diagonal entry is its squared norm x over sqrt(fl(x * x)), which is x
    in IEEE binary64: 1.0, or 0.0 for an empty document."""
    if len(corpus) == 0:
        raise ValueError("corpus must not be empty")
    n = len(corpus)
    cells, edges, width = _cells_by_vocabulary_block(corpus)
    sq = np.array([doc.sq_norm for doc in corpus], dtype=float)
    for lo in range(0, n, SCAN_BLOCK):
        hi = min(lo + SCAN_BLOCK, n)
        yield count_cosine(_block_dots(*cells, edges, width, lo, hi, n), sq[lo:hi], sq[lo:])


def _cells_by_vocabulary_block(docs: Sequence[Document]) -> tuple[tuple, np.ndarray, int]:
    """Each (document, gram) cell's row, vocabulary column and count, ordered by
    vocabulary block of :data:`ORACLE_BLOCK` columns with rows ascending inside
    each, so that a row block's cells in one vocabulary block are a slice. Also
    returns the bounds of each block's cells, block b's being ``edges[b]`` to
    ``edges[b + 1]``, and the vocabulary's width."""
    rows, keys, counts = count_cells(docs)  # by row
    vocab = sorted_counts(keys)[0]  # one sort, where np.unique would argsort or hash
    width, cols = len(vocab), np.searchsorted(vocab, keys)
    # The peak grows with the cells, so hold as few copies of them as may be.
    del keys, vocab
    order = np.argsort(cols // ORACLE_BLOCK, kind="stable")
    rows = rows[order]
    counts = counts[order]
    cols = cols[order]
    edges = np.searchsorted(cols // ORACLE_BLOCK, range(-(-width // ORACLE_BLOCK) + 1))
    return (rows, cols, counts), edges, width


def _block_dots(rows, cols, counts, edges, width: int, lo: int, hi: int, n: int) -> np.ndarray:
    """Exact dot products of documents lo..hi-1 against lo..n-1, from the cells
    of :func:`_cells_by_vocabulary_block`."""
    dots = np.zeros((hi - lo, n - lo))
    dense = np.empty((n - lo, min(ORACLE_BLOCK, width)))
    for c, start, end in zip(range(0, width, ORACLE_BLOCK), edges[:-1], edges[1:]):
        start += np.searchsorted(rows[start:end], lo)
        dense[:] = 0.0
        dense[rows[start:end] - lo, cols[start:end] - c] = counts[start:end]
        dots += dense[: hi - lo] @ dense.T
    return dots
