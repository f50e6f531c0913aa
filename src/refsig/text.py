"""Text normalization, character 3-grams, and exact cosine similarity.

Exact cosine over sparse 3-gram count vectors is the ground truth that
signature-space similarity is trained and evaluated against.
"""

from __future__ import annotations

import itertools
import math
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

NGRAM_SIZE = 3

# Case folding of some code points decomposes; a couple of passes reach a
# fixed point, which is what makes normalize() idempotent.
_MAX_FOLD_PASSES = 8


def _fold_pass(text: str) -> str:
    text = unicodedata.normalize("NFC", text)
    text = text.casefold()
    text = unicodedata.normalize("NFC", text)
    return " ".join(text.split())


def normalize(raw: str) -> str:
    """Return a lowercase, whitespace-collapsed, NFC-composed copy of ``raw``.

    All whitespace runs become a single ASCII space and leading/trailing
    whitespace is dropped. The pipeline is applied until it stops changing
    the string, so normalize(normalize(t)) == normalize(t).
    """
    text = _fold_pass(raw)
    for _ in range(_MAX_FOLD_PASSES):
        again = _fold_pass(text)
        if again == text:
            break
        text = again
    return text


class SparseNGramVector:
    """Sparse counts of 3-gram tokens with a cached Euclidean norm."""

    __slots__ = ("counts", "sq_norm", "norm")

    def __init__(self, counts: Mapping[str, int]):
        for gram, count in counts.items():
            if len(gram) != NGRAM_SIZE:
                raise ValueError(f"token {gram!r} is not {NGRAM_SIZE} characters long")
            if count < 1:
                raise ValueError(f"count for {gram!r} must be >= 1, got {count}")
        self.counts: dict[str, int] = dict(counts)
        # Exact integer sum of squares; norm is its (float) square root.
        self.sq_norm: int = sum(c * c for c in self.counts.values())
        self.norm: float = math.sqrt(self.sq_norm)

    @property
    def is_empty(self) -> bool:
        return not self.counts

    def dot(self, other: "SparseNGramVector") -> int:
        a, b = self.counts, other.counts
        if len(b) < len(a):
            a, b = b, a
        return sum(count * b.get(gram, 0) for gram, count in a.items())

    def __len__(self) -> int:
        return len(self.counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseNGramVector):
            return NotImplemented
        return self.counts == other.counts

    def __repr__(self) -> str:
        return f"SparseNGramVector({len(self.counts)} grams, norm={self.norm:.4f})"


def extract_3grams(text: str) -> SparseNGramVector:
    """Count every 3-character window of ``text`` (stride 1, spaces included).

    Text shorter than 3 characters yields an empty vector.
    """
    counts = Counter(text[i : i + NGRAM_SIZE] for i in range(len(text) - NGRAM_SIZE + 1))
    return SparseNGramVector(counts)


@dataclass(frozen=True)
class Document:
    """A corpus entry: opaque id, normalized text, and its 3-gram vector."""

    id: str
    text: str
    vector: SparseNGramVector

    @classmethod
    def from_raw(cls, doc_id: str, raw: str) -> "Document":
        text = normalize(raw)
        return cls(doc_id, text, extract_3grams(text))


def cosine(a: SparseNGramVector, b: SparseNGramVector) -> float:
    """Cosine similarity of two count vectors; 0.0 when either is empty.

    The denominator is sqrt of the exact integer product of squared norms,
    so identical vectors score exactly 1.0.
    """
    if a.is_empty or b.is_empty:
        return 0.0
    return min(1.0, a.dot(b) / math.sqrt(a.sq_norm * b.sq_norm))


def count_cosine(dots: np.ndarray, sq_a: np.ndarray, sq_b: np.ndarray) -> np.ndarray:
    """Cosines from integer dot products and squared norms held in float64.

    ``dots[i, j]`` pairs row ``i`` of ``sq_a`` with column ``j`` of
    ``sq_b``; a zero squared norm (an empty vector) scores 0.0. Integers
    below 2**53 are exact in float64 whatever order they were summed in,
    and sqrt(float(a) * float(b)) rounds as math.sqrt(a * b) does, so every
    entry is bit-identical to :func:`cosine`.
    """
    denom = np.sqrt(np.multiply.outer(sq_a, sq_b))
    out = np.zeros(denom.shape)
    np.divide(dots, denom, out=out, where=denom > 0)
    return np.minimum(out, 1.0, out=out)


def count_columns(
    docs: Sequence[Document],
) -> tuple[dict[str, int], list[tuple[np.ndarray, np.ndarray]]]:
    """A column per distinct 3-gram of ``docs`` (first-seen order), and for
    each document the columns and counts of its grams."""
    vectors = [doc.vector.counts for doc in docs]
    vocab = {g: k for k, g in enumerate(dict.fromkeys(itertools.chain.from_iterable(vectors)))}
    cells = [
        (
            np.fromiter(map(vocab.__getitem__, counts), dtype=np.intp, count=len(counts)),
            np.fromiter(counts.values(), dtype=float, count=len(counts)),
        )
        for counts in vectors
    ]
    return vocab, cells


# Vocabulary columns per dense block of the exact-cosine oracle: memory is
# O(N * block) instead of O(N * V).
ORACLE_BLOCK = 512


def brute_force_pairwise(corpus: Sequence[Document]) -> np.ndarray:
    """Exact cosine between every document pair; the ground-truth oracle.

    Returns a symmetric N x N float matrix. The diagonal is 1.0 for
    non-empty documents and 0.0 for empty ones. Dot products are summed
    as count-matrix products over blocks of vocabulary columns, so they
    are exact integers and every entry is bit-identical to :func:`cosine`.
    """
    if len(corpus) == 0:
        raise ValueError("corpus must not be empty")
    n = len(corpus)
    vocab, cells = count_columns(corpus)
    dots = np.zeros((n, n))
    block = np.empty((n, min(ORACLE_BLOCK, len(vocab))))
    for lo in range(0, len(vocab), ORACLE_BLOCK):
        block[:] = 0.0
        for row, (cols, vals) in zip(block, cells):
            inside = (cols >= lo) & (cols < lo + ORACLE_BLOCK)
            row[cols[inside] - lo] = vals[inside]
        dots += block @ block.T
    sq = np.array([doc.vector.sq_norm for doc in corpus], dtype=float)
    out = count_cosine(dots, sq, sq)
    np.fill_diagonal(out, sq > 0)
    return out


def corpus_grams(corpus: Iterable[Document]) -> list[str]:
    """All distinct 3-grams appearing in ``corpus``, sorted."""
    seen: set[str] = set()
    for doc in corpus:
        seen.update(doc.vector.counts)
    return sorted(seen)
