"""Tf-idf scoring of corpus 3-grams and top-K pool selection.

The pool of highest-scoring grams is the alphabet from which reference
texts are seeded and mutated.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable

import numpy as np

from .gramio import key_lines, line_keys, read_lines, write_whole
from .reference import SIGN_BLOCK
from .text import Document, check_keys, run_bounds


@dataclass(frozen=True, eq=False)
class GramPool:
    """Distinct 3-grams as packed keys, in descending tf-idf order."""

    keys: np.ndarray
    requested: int

    def __post_init__(self) -> None:
        check_keys(self.keys)
        distinct, first = np.unique(self.keys, return_index=True)
        if len(distinct) != len(self.keys):
            repeat = np.ones(len(self.keys), bool)
            repeat[first] = False
            gram = key_lines(self.keys[repeat][:1])[:-1]
            raise ValueError(f"gram pool contains the duplicate gram {gram!r}")
        if len(self.keys) > self.requested:
            raise ValueError("gram pool is larger than the requested size")

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def underfilled(self) -> bool:
        """The corpus had fewer distinct grams than were requested."""
        return len(self.keys) < self.requested


def score_grams(corpus: Iterable[Document]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score every distinct 3-gram of ``corpus`` by aggregate tf-idf.

    score(g) = total_count(g) * (ln((1 + N) / (1 + df(g))) + 1), where N is
    the corpus size and df the number of documents containing g. Returns
    the packed keys, scores and document frequencies as columns sorted by
    descending score, ties broken by gram order.

    ``corpus`` is read once, ``SIGN_BLOCK`` documents at a time, so a
    stream is never held whole. The blocks' (document, gram) cells wait
    until they are at least twice as many as the running columns hold
    grams, and are then counted into those columns: a merge re-sorts the
    merged grams only for at least twice as many new cells, and the waiting
    cells stay within twice the vocabulary plus a block.
    """
    docs = iter(corpus)
    n = 0
    merged = (np.empty(0, np.int64),) * 3  # keys, tf, df
    cells: list[np.ndarray] = []  # the cell keys of blocks not yet merged
    counts: list[np.ndarray] = []  # and each cell's count
    while block := list(islice(docs, SIGN_BLOCK)):
        n += len(block)
        cells.append(np.concatenate([doc.vector.keys for doc in block]))
        counts.append(np.concatenate([doc.vector.counts for doc in block]))
        if sum(map(len, cells)) >= 2 * len(merged[0]):
            merged = _merge_counts(merged, cells, counts)
            cells, counts = [], []
    if n == 0:
        raise ValueError("cannot score an empty corpus")
    grams, tf, df = _merge_counts(merged, cells, counts) if cells else merged
    # math.log per distinct df: np.log may differ in the last bit and reorder ties.
    df_values, df_index = np.unique(df, return_inverse=True)
    idf = np.array([math.log((1 + n) / (1 + d)) + 1.0 for d in df_values.tolist()])
    score = tf * idf[df_index]
    order = np.lexsort((grams, -score))  # packed-key order is gram order
    return grams[order], score[order], df[order]


def _merge_counts(
    merged: tuple[np.ndarray, ...], cells: list[np.ndarray], counts: list[np.ndarray]
) -> tuple[np.ndarray, ...]:
    """The sorted (keys, tf, df) columns of ``merged`` plus more (document,
    gram) cells and their counts, all int64. One argsort lays the merged
    keys and the cells out by key, and tf sums each run's counts. A
    document lists each gram once, so df is a run's length, which counts
    a merged key once too often, plus that key's merged df."""
    keys, tf, df = merged
    joined = np.concatenate([keys, *cells])
    order = np.argsort(joined)
    joined = joined[order]
    bounds = run_bounds(joined)
    grams = joined[bounds[:-1]]
    tf_sum = np.add.reduceat(np.concatenate([tf, *counts])[order], bounds[:-1])
    df_sum = bounds[1:] - bounds[:-1]
    df_sum[np.searchsorted(grams, keys)] += df - 1
    return grams, tf_sum, df_sum


def top_k(ranked: tuple[np.ndarray, ...], k: int) -> GramPool:
    """The first k grams of :func:`score_grams`'s ranking as a pool; all of
    them if fewer exist."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    pool = GramPool(ranked[0][:k], k)
    if pool.underfilled:
        warnings.warn(
            f"corpus has only {len(pool)} distinct 3-grams, requested {k}",
            stacklevel=2,
        )
    return pool


def save_pool(pool: GramPool, path: str | Path) -> None:
    """Write one escaped gram per line, rank order."""
    with write_whole(path) as fh:
        fh.write(key_lines(pool.keys))


def load_pool(path: str | Path) -> GramPool:
    keys = line_keys(read_lines(path), path)
    try:
        return GramPool(keys, requested=max(len(keys), 1))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
