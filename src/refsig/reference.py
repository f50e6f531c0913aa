"""Reference texts, document signatures, and DND classification.

A reference text is a fixed sequence of 3-grams split into P contiguous
partitions. A document's signature is the vector of its cosine scores
against each partition; two documents are compared by the cosine of their
signatures and classified against a pair of thresholds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .gramio import key_lines, line_keys, read_lines
from .text import Document, count_cosine, count_matrix


class SignatureMismatchError(ValueError):
    """A signature matrix or database does not match its reference text."""


def partition_sizes(length: int, parts: int) -> list[int]:
    """Near-equal contiguous slice sizes: the remainder goes to the first slices."""
    base, rem = divmod(length, parts)
    return [base + 1] * rem + [base] * (parts - rem)


def partition_layout(
    keys: np.ndarray, partitions: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The integer-count layout of the packed gram sequence ``keys`` split
    into ``partitions`` slices.

    Returns the sorted distinct keys (the columns), the column of each
    position, the start offset of each partition, and each partition's exact
    squared norm as a float64. A gram repeated in a slice counts its multiplicity.
    """
    if not 1 <= partitions <= len(keys):
        raise ValueError(f"partition count must be in 1..{len(keys)}, got {partitions}")
    columns, positions = np.unique(keys, return_inverse=True)
    sizes = partition_sizes(len(keys), partitions)
    starts = np.zeros(partitions, dtype=np.intp)
    np.cumsum(sizes[:-1], out=starts[1:])
    owner = np.repeat(np.arange(partitions), sizes)
    cells, multiplicity = np.unique(owner * len(columns) + positions, return_counts=True)
    part_sq = np.bincount(
        cells // len(columns), weights=multiplicity.astype(float) ** 2, minlength=partitions
    )
    return columns, positions, starts, part_sq


def partition_scores(
    counts: np.ndarray,
    sq_norms: np.ndarray,
    positions: np.ndarray,
    starts: np.ndarray,
    part_sq: np.ndarray,
) -> np.ndarray:
    """The signature rows of document counts laid out by :func:`partition_layout`.

    ``counts[i, positions[k]]`` is document i's count of the gram at
    reference position k, and ``sq_norms`` are the documents' squared
    norms. A partition's dot product is the sum of those counts over its
    positions, so one ``reduceat`` gives them all.
    """
    dots = np.add.reduceat(counts[:, positions], starts, axis=1)
    return count_cosine(dots, sq_norms, part_sq)


class ReferenceText:
    """An ordered sequence of packed 3-gram keys with a fixed partition count.

    The partition layout (see :func:`partition_layout`) is computed once.
    The fingerprint is a content hash over the grams and the partition
    count; a signature database records it so that scores produced against
    different references can never be compared silently.
    """

    __slots__ = ("keys", "partitions", "columns", "positions", "starts", "part_sq", "fingerprint")

    def __init__(self, keys: np.ndarray, partitions: int):
        self.keys = np.array(keys, dtype=np.int64)
        self.keys.flags.writeable = False  # the layout and fingerprint below are built once
        if not len(self.keys):
            raise ValueError("reference text needs at least one 3-gram")
        self.partitions = partitions
        layout = partition_layout(self.keys, partitions)
        self.columns, self.positions, self.starts, self.part_sq = layout
        self.fingerprint = hashlib.sha256(_serialize(self).encode("utf-8")).hexdigest()

    def __len__(self) -> int:
        return len(self.keys)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReferenceText):
            return NotImplemented
        return self.fingerprint == other.fingerprint

    def __repr__(self) -> str:
        return f"ReferenceText({len(self.keys)} grams, {self.partitions} partitions)"


def _serialize(ref: ReferenceText) -> str:
    return f"P={ref.partitions}\n" + key_lines(ref.keys)


# Documents per count matrix in signature_matrix, and per block that
# `refsig sign` reads and signs: it bounds the memory of both.
SIGN_BLOCK = 64


def signature_matrix(docs: Sequence[Document], ref: ReferenceText) -> np.ndarray:
    """Stack the signatures of ``docs`` into an N x P matrix.

    Each row equals ``text.cosine`` of the document against each partition
    bit for bit: counts, dots and squared norms are exact integers.
    """
    out = np.empty((len(docs), ref.partitions))
    for lo in range(0, len(docs), SIGN_BLOCK):
        counts, sq_norms = count_matrix(docs[lo : lo + SIGN_BLOCK], ref.columns)
        scores = partition_scores(counts, sq_norms, ref.positions, ref.starts, ref.part_sq)
        out[lo : lo + SIGN_BLOCK] = scores
    return out


# Kept because the benchmark's tracer wraps it by name; the program signs with signature_matrix.
def sign(doc: Document, ref: ReferenceText) -> np.ndarray:
    """Score ``doc`` against every partition; empty documents sign all-zero."""
    return signature_matrix([doc], ref)[0]


def pairwise_signature_similarity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine of each row of ``a`` against each row of ``b``: 0.0 where either
    row is all-zero, exactly 1.0 where two non-zero rows are equal."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    sims = count_cosine(a @ b.T, np.einsum("ij,ij->i", a, a), np.einsum("ij,ij->i", b, b))
    # Equal rows land within a few ulps of 1.0, so only those entries are compared.
    rows, cols = np.nonzero(sims >= 1.0 - 1e-9)
    equal = (a[rows] == b[cols]).all(axis=1)
    sims[rows[equal], cols[equal]] = 1.0
    return sims


def mean_signature_error(sig_matrix: np.ndarray, oracle: np.ndarray) -> float:
    """Mean absolute gap between signature similarity and exact cosine.

    Averages |sims[i, j] - oracle[i, j]| over the N(N-1)/2 unordered pairs,
    where ``sims`` is :func:`pairwise_signature_similarity` of the rows.
    """
    n = sig_matrix.shape[0]
    if n < 2:
        raise ValueError("need at least 2 documents to compare")
    if oracle.shape != (n, n):
        raise ValueError(f"oracle shape {oracle.shape} does not match {n} documents")
    sims = pairwise_signature_similarity(sig_matrix, sig_matrix)
    iu = np.triu_indices(n, k=1)
    return float(np.mean(np.abs(sims[iu] - oracle[iu])))


class Verdict(Enum):
    DUPLICATE = "duplicate"
    NEAR_DUPLICATE = "near-duplicate"
    DISTINCT = "distinct"


@dataclass(frozen=True)
class ClassifierConfig:
    """Inclusive similarity thresholds: t1 bounds duplicates, t2 near-duplicates.

    The defaults are where the bundled synthetic benchmark separates planted
    pairs from unrelated ones; unrelated documents there mostly score above
    0.80. Thresholds are application-specific and should be tuned per corpus.
    """

    t1: float = 0.999
    t2: float = 0.93

    def __post_init__(self) -> None:
        if not (0.0 < self.t2 < self.t1 <= 1.0):
            raise ValueError(
                f"thresholds must satisfy 0 < t2 < t1 <= 1, got t1={self.t1}, t2={self.t2}"
            )


def classify(similarity: float, cfg: ClassifierConfig) -> Verdict:
    """Map a similarity in [0, 1] to duplicate / near-duplicate / distinct;
    raises ValueError on NaN."""
    if similarity >= cfg.t1:
        return Verdict.DUPLICATE
    if similarity >= cfg.t2:
        return Verdict.NEAR_DUPLICATE
    if similarity < cfg.t2:
        return Verdict.DISTINCT
    raise ValueError(f"similarity {similarity!r} is not a number")


def save_reference(ref: ReferenceText, path: str | Path) -> None:
    """Write the exchange file: P header, escaped gram lines, hash trailer."""
    text = _serialize(ref) + f"sha256={ref.fingerprint}\n"
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def load_reference(path: str | Path) -> ReferenceText:
    lines = list(read_lines(path))
    if len(lines) < 3:
        raise ValueError(f"{path}: not a reference file (too few lines)")
    header, trailer = lines[0], lines[-1]
    if not header.startswith("P="):
        raise ValueError(f"{path}: missing P= header")
    try:
        partitions = int(header[2:])
    except ValueError:
        raise ValueError(f"{path}: bad partition count {header[2:]!r}") from None
    if not trailer.startswith("sha256="):
        raise ValueError(f"{path}: missing sha256= trailer")
    keys = line_keys(lines[1:-1], path, first=2)
    try:
        ref = ReferenceText(keys, partitions)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if ref.fingerprint != trailer[len("sha256=") :]:
        raise ValueError(f"{path}: content hash mismatch, file is corrupt or edited")
    return ref
