"""Tf-idf scoring of corpus 3-grams and top-K pool selection.

The pool of highest-scoring grams is the alphabet from which reference
texts are seeded and mutated.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .gramio import key_lines, line_keys, read_lines
from .text import Document, check_keys, count_cells


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


def score_grams(corpus: Sequence[Document]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score every distinct 3-gram of ``corpus`` by aggregate tf-idf.

    score(g) = total_count(g) * (ln((1 + N) / (1 + df(g))) + 1), where N is
    the corpus size and df the number of documents containing g. Returns
    the packed keys, scores and document frequencies as columns sorted by
    descending score, ties broken by gram order.
    """
    if len(corpus) == 0:
        raise ValueError("cannot score an empty corpus")
    n = len(corpus)
    _, keys, counts = count_cells(corpus)
    grams, cols = np.unique(keys, return_inverse=True)
    tf = np.bincount(cols, weights=counts)
    df = np.bincount(cols)
    # math.log per distinct df: np.log may differ in the last bit and reorder ties.
    df_values, df_index = np.unique(df, return_inverse=True)
    idf = np.array([math.log((1 + n) / (1 + d)) + 1.0 for d in df_values.tolist()])
    score = tf * idf[df_index]
    order = np.lexsort((grams, -score))  # packed-key order is gram order
    return grams[order], score[order], df[order]


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
    Path(path).write_text(key_lines(pool.keys), encoding="utf-8", newline="\n")


def load_pool(path: str | Path) -> GramPool:
    keys = line_keys(read_lines(path), path)
    try:
        return GramPool(keys, requested=max(len(keys), 1))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
