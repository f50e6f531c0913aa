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
from typing import Iterable, Iterator, Sequence

import numpy as np

from .gramio import key_lines, line_keys, read_lines, write_whole
from .text import SCAN_BLOCK, Document, count_cosine, count_matrix, sorted_counts


def partition_sizes(length: int, parts: int) -> list[int]:
    """Near-equal contiguous slice sizes: the remainder goes to the first slices."""
    base, rem = divmod(length, parts)
    return [base + 1] * rem + [base] * (parts - rem)


def partition_layout(codes: np.ndarray, partitions: int) -> tuple[np.ndarray, np.ndarray]:
    """The slots of a (C, L) stack of non-negative codes, equal where their
    grams are equal (a :class:`ReferenceText`'s column positions, a GA
    genome's pool indices), each sequence split into ``partitions`` slices:
    slot ``[c, s, p]`` is the s-th code of sequence c's partition p, and -1
    past a shorter partition's end. Also returns each (C, P) partition's
    exact squared norm as a float64, from the runs of equal codes in its
    sorted slots: a run of m counts m * m."""
    if not 1 <= partitions <= codes.shape[-1]:
        raise ValueError(f"partition count must be in 1..{codes.shape[-1]}, got {partitions}")
    sizes = np.array(partition_sizes(codes.shape[-1], partitions))
    at = np.arange(sizes[0])[:, None]  # slot s of each partition, as an (S, 1) column
    position = np.cumsum(sizes) - sizes + at
    slots = np.where(at < sizes, codes[:, np.minimum(position, codes.shape[-1] - 1)], -1)
    # Within its run, the k-th equal code adds 2k + 1, and 1 + 3 + ... + (2m - 1) = m * m.
    ordered = np.sort(slots, axis=1)
    run_start = np.ones(ordered.shape, bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=run_start[:, 1:])
    k = at - np.maximum.accumulate(np.where(run_start, at, 0), axis=1)
    part_sq = np.where(ordered >= 0, 2 * k + 1, 0).sum(axis=1).astype(float)
    return slots, part_sq


def partition_scores(
    counts: np.ndarray, sq_norms: np.ndarray, slots: np.ndarray, part_sq: np.ndarray
) -> np.ndarray:
    """The (C, N, P) signature rows of N documents against a stack of C
    references laid out by :func:`partition_layout`.

    ``counts`` is a :func:`~refsig.text.count_matrix`, and ``slots`` hold
    its rows: ``counts[slots[c, s, p], i]`` is document i's count of the
    key in that slot, and a -1 pad reads the spare zero row. ``sq_norms``
    are the documents' squared norms. A partition's dot product is the sum
    of its slots' counts, an integer whatever order they are added in.
    """
    dots = np.empty((len(slots), slots.shape[-1], len(sq_norms)))  # (C, P, N)
    for sums, rows in zip(dots, slots):  # one reference's rows at a time bound the gather
        counts[rows].sum(axis=0, out=sums)
    return count_cosine(np.swapaxes(dots, -1, -2), sq_norms, part_sq)


class ReferenceText:
    """An ordered sequence of packed 3-gram keys with a fixed partition count.

    The partition layout is computed once, as :func:`partition_layout` of a
    stack of one holding each key's position in ``columns``, the sorted
    distinct keys: ``slots`` are rows of a count matrix over ``columns``,
    and a -1 pad reads its spare last row. The fingerprint is a content
    hash over the grams and the partition count; a signature database
    records it so that scores produced against different references can
    never be compared silently.
    """

    __slots__ = ("keys", "partitions", "columns", "slots", "part_sq", "fingerprint")

    def __init__(self, keys: np.ndarray, partitions: int):
        self.keys = np.array(keys, dtype=np.int64)
        self.keys.flags.writeable = False  # the layout and fingerprint below are built once
        if not len(self.keys):
            raise ValueError("reference text needs at least one 3-gram")
        self.partitions = partitions
        self.columns = sorted_counts(self.keys)[0]
        codes = np.searchsorted(self.columns, self.keys)
        self.slots, self.part_sq = partition_layout(codes[None], partitions)
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


# Documents per count matrix in signature_matrix, per block that
# store.sign_documents reads and signs, and per block that tfidf.score_grams
# reads and counts: it bounds the memory of all three.
SIGN_BLOCK = 64


def signature_matrix(docs: Sequence[Document], ref: ReferenceText) -> np.ndarray:
    """Stack the signatures of ``docs`` into an N x P matrix.

    Each row equals ``text.cosine`` of the document against each partition
    bit for bit: counts, dots and squared norms are exact integers.
    """
    out = np.empty((len(docs), ref.partitions))
    for lo in range(0, len(docs), SIGN_BLOCK):
        counts, sq_norms = count_matrix(docs[lo : lo + SIGN_BLOCK], ref.columns)
        out[lo : lo + SIGN_BLOCK] = partition_scores(counts, sq_norms, ref.slots, ref.part_sq)[0]
    return out


# Kept because the benchmark's tracer wraps it by name; the program signs with signature_matrix.
def sign(doc: Document, ref: ReferenceText) -> np.ndarray:
    """Score ``doc`` against every partition; empty documents sign all-zero."""
    return signature_matrix([doc], ref)[0]


EXACT_FLOOR = 1.0 - 1e-9  # equal rows land within a few ulps of 1.0


def _exact_ones(sims: np.ndarray, a: np.ndarray, b: np.ndarray, *pairs: np.ndarray) -> None:
    """The probe: equal rows at or above EXACT_FLOOR score 1.0. ``pairs`` index
    ``sims``, the last two arrays giving rows of ``a`` and of ``b`` and any before
    them the stack entry; ``a[rows]``, ``b[cols]`` is the pair for 2-D inputs."""
    near = sims[pairs] >= EXACT_FLOOR
    *stack, rows, cols = (k[near] for k in pairs)
    equal = (a[(*stack, rows)] == b[(*stack, cols)]).all(axis=-1)
    sims[tuple(k[equal] for k in (*stack, rows, cols))] = 1.0


def pairwise_signature_similarity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine of each row of ``a`` against each row of ``b``: 0.0 where either
    row is all-zero, exactly 1.0 where two non-zero rows are equal."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    sims = count_cosine(a @ b.T, np.einsum("ij,ij->i", a, a), np.einsum("ij,ij->i", b, b))
    _exact_ones(sims, a, b, *np.nonzero(sims >= EXACT_FLOOR))
    return sims


def upper_blocks(m: np.ndarray, floor: float = 1.0) -> Iterator[tuple]:
    """The pair kernel: ``(lo, sims, *pairs)`` for each block of
    :data:`SCAN_BLOCK` rows from ``lo``. ``sims[r, c]`` is the similarity of
    rows ``lo + r`` and ``lo + c``, read only for pairs ``c > r``; ``pairs``
    are ``(rows, cols)`` of the pairs scoring at least ``floor``, in
    row-major order. Only pairs at or above ``min(floor, EXACT_FLOOR)`` are
    probed for equal rows.

    ``m`` may also be a stack (C, N, P) of matrices: then ``sims`` is (C, r, c)
    and ``pairs`` is ``(stack, rows, cols)``. Each matrix's blocks are
    bit-identical to its own 2-D call's."""
    m = np.asarray(m, dtype=float)
    sq = np.einsum("...ij,...ij->...i", m, m)  # once: a row's norm is the same in every block
    for lo in range(0, m.shape[-2], SCAN_BLOCK):
        block, rest = m[..., lo : lo + SCAN_BLOCK, :], m[..., lo:, :]
        sims = count_cosine(
            block @ np.swapaxes(rest, -1, -2), sq[..., lo : lo + SCAN_BLOCK], sq[..., lo:]
        )
        pairs = np.nonzero(sims >= min(floor, EXACT_FLOOR))
        pairs = tuple(k[pairs[-1] > pairs[-2]] for k in pairs)
        _exact_ones(sims, block, rest, *pairs)
        hit = sims[pairs] >= floor
        yield (lo, sims, *(k[hit] for k in pairs))


def mean_signature_error(sigs: np.ndarray, oracle: Iterable[np.ndarray]) -> float | np.ndarray:
    """Mean absolute gap between signature similarity and exact cosine over
    the N(N-1)/2 pairs i < j: :func:`upper_blocks` beside ``oracle``'s blocks,
    as :func:`~refsig.text.brute_force_pairwise` yields them. Up to
    :data:`SCAN_BLOCK` rows this is ``np.mean`` over ``triu_indices`` bit for bit.

    ``sigs`` is an N x P matrix, or a (C, N, P) stack of them against one
    oracle: then the result is an array of C errors, each bit-identical to
    its matrix's own."""
    sigs = np.asarray(sigs, dtype=float)
    n = sigs.shape[-2]
    if n < 2:
        raise ValueError(f"need at least 2 documents to compare, got {n}")
    totals, exact_blocks = np.zeros(sigs.shape[:-2]), iter(oracle)
    for lo, sims, *_ in upper_blocks(sigs):
        exact = next(exact_blocks, None)
        if np.shape(exact) != sims.shape[-2:]:
            raise ValueError(f"oracle block {np.shape(exact)} does not match rows {lo}.. of {n}")
        np.abs(np.subtract(sims, exact, out=sims), out=sims)
        upper = ~np.tri(*exact.shape, dtype=bool)
        # One 1-D sum per matrix: a stacked sum may add in another order.
        totals.flat[:] += [gaps[upper].sum() for gaps in sims.reshape(-1, *exact.shape)]
        del sims, exact  # free this block before the next one is computed
    if next(exact_blocks, None) is not None:
        raise ValueError(f"oracle has more row blocks than {n} documents")
    errors = totals / (n * (n - 1) // 2)
    return errors if errors.ndim else float(errors)


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
    with write_whole(path) as fh:
        fh.write(text)


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
