"""Evaluation: held-out MAE, detection metrics, cross-validation, synthetic
corpora with planted duplicates, and all-pairs DND scans."""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, fields, replace
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .ga import DEFAULT_SEED, EvolveResult, GaConfig, GenerationStats, evolve
from .reference import (
    ClassifierConfig,
    ReferenceText,
    Verdict,
    mean_signature_error,
    signature_matrix,
    upper_blocks,
)
from .store import SignatureDb
from .text import Document, brute_force_pairwise, key_columns, sorted_counts


def mae(ref: ReferenceText, docs: Sequence[Document]) -> float:
    """Mean absolute error of signature similarity vs exact cosine over all
    pairs of ``docs``."""
    return mean_signature_error(signature_matrix(docs, ref), brute_force_pairwise(docs))


@dataclass(frozen=True)
class ConfusionCounts:
    true_positives: int
    false_positives: int
    false_negatives: int
    true_negatives: int = 0

    def __post_init__(self) -> None:
        for field in fields(self):
            if (value := getattr(self, field.name)) < 0:
                raise ValueError(f"{field.name} must be >= 0, got {value}")


@dataclass(frozen=True)
class MetricsReport:
    precision: float
    recall: float
    f1: float
    pair_count: int = 0


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def prf(counts: ConfusionCounts) -> MetricsReport:
    """Precision, recall, and F1 from confusion counts; 0 on empty denominators."""
    tp = counts.true_positives
    predicted = tp + counts.false_positives
    actual = tp + counts.false_negatives
    precision = tp / predicted if predicted else 0.0
    recall = tp / actual if actual else 0.0
    total = predicted + counts.false_negatives + counts.true_negatives
    return MetricsReport(precision, recall, f1_score(precision, recall), pair_count=total)


TRAIN_FRACTION = 0.80  # share of a shuffled corpus that split_corpus trains on


def split_corpus(
    corpus: Sequence[Document], seed: int
) -> tuple[list[Document], list[Document]]:
    """Shuffle with ``seed`` and split off the first :data:`TRAIN_FRACTION`
    to train on; both sides are non-empty for corpora of size >= 2."""
    docs = list(corpus)
    if len(docs) < 2:
        raise ValueError("need at least 2 documents to split")
    order = list(range(len(docs)))
    random.Random(seed).shuffle(order)
    cut = min(max(int(len(docs) * TRAIN_FRACTION), 1), len(docs) - 1)
    train = [docs[i] for i in order[:cut]]
    test = [docs[i] for i in order[cut:]]
    return train, test


@dataclass(frozen=True)
class RunReport:
    train_size: int
    test_size: int
    holdout_mae: float
    history: tuple[GenerationStats, ...]


@dataclass(frozen=True)
class CrossValidationResult:
    reference: ReferenceText
    winner_run: int
    reports: tuple[RunReport, ...]


def cross_validate(
    corpus: Sequence[Document], cfg: GaConfig, runs: int
) -> CrossValidationResult:
    """Repeat split-train-evaluate and keep the reference of the first run
    with the least held-out MAE.

    Run r both splits and evolves with seed ``cfg.rng_seed + r``, so the
    whole procedure is reproducible from one seed. A split whose training
    side holds fewer than ``cfg.sample_size`` documents, or whose held-out
    side holds fewer than 2, is rejected before anything is trained.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    corpus = list(corpus)
    refs: list[ReferenceText] = []
    reports: list[RunReport] = []
    for run in range(runs):
        seed = cfg.rng_seed + run
        train, test = split_corpus(corpus, seed)
        if len(train) < cfg.sample_size or len(test) < 2:
            raise ValueError(
                f"a corpus of {len(corpus)} documents splits into {len(train)} to train on "
                f"and {len(test)} held out; training needs sample_size={cfg.sample_size} "
                "and the holdout at least 2"
            )
        result: EvolveResult = evolve(train, replace(cfg, rng_seed=seed))
        refs.append(ReferenceText(result.best.keys, cfg.partitions))
        reports.append(RunReport(len(train), len(test), mae(refs[-1], test), result.history))
    winner = min(range(runs), key=lambda run: reports[run].holdout_mae)
    return CrossValidationResult(refs[winner], winner, tuple(reports))


# ---------------------------------------------------------------------------
# Synthetic corpora with planted duplicates and near-duplicates.

_LETTERS = string.ascii_lowercase
_VOCAB_SEED = 93
_VOCAB_SIZE = 1200


def _make_vocabulary() -> tuple[str, ...]:
    # One shared pseudo-language for every generated corpus, so that corpora
    # produced from different seeds still share 3-gram statistics the way
    # same-language document collections do.
    rng = random.Random(_VOCAB_SEED)
    onsets = [
        "b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s",
        "t", "v", "w", "z", "br", "ch", "cl", "cr", "dr", "fl", "fr", "gl",
        "gr", "pl", "pr", "sh", "sk", "sl", "sm", "sn", "sp", "st", "str",
        "sw", "th", "tr", "tw",
    ]
    vowels = ["a", "e", "i", "o", "u", "ai", "ea", "ee", "ia", "io", "oo", "ou"]
    codas = ["", "", "", "b", "ck", "d", "g", "k", "l", "ll", "m", "n", "nd",
             "ng", "nt", "p", "r", "rd", "s", "ss", "st", "t", "x"]
    words: set[str] = set()
    while len(words) < _VOCAB_SIZE:
        syllables = rng.randint(1, 3)
        word = "".join(rng.choice(onsets) + rng.choice(vowels) for _ in range(syllables))
        word += rng.choice(codas)
        if 3 <= len(word) <= 12:
            words.add(word)
    return tuple(sorted(words))


_VOCABULARY = _make_vocabulary()


@dataclass(frozen=True)
class SyntheticCorpusSpec:
    """Parameters of a generated corpus: random base documents, byte-identical
    duplicates, and near-duplicates with at most ``edit_fraction`` of their
    characters replaced."""

    base_doc_count: int = 100
    near_dup_count: int = 20
    dup_count: int = 10
    edit_fraction: float = 0.10
    rng_seed: int = DEFAULT_SEED
    words_per_doc: int = 160

    def __post_init__(self) -> None:
        if self.base_doc_count < 1:
            raise ValueError("base_doc_count must be >= 1")
        if self.near_dup_count < 0 or self.dup_count < 0:
            raise ValueError("duplicate counts must be >= 0")
        if not 0.0 <= self.edit_fraction < 1.0:
            raise ValueError("edit_fraction must be in [0, 1)")
        if self.words_per_doc < 3:
            raise ValueError("words_per_doc must be >= 3")


@dataclass(frozen=True)
class LabeledPair:
    id_a: str
    id_b: str
    label: Verdict


def _edit_text(text: str, edit_fraction: float, rng: random.Random) -> str:
    limit = int(len(text) * edit_fraction)
    if limit < 1:
        return text
    count = rng.randint(1, limit)
    chars = list(text)
    for pos in rng.sample(range(len(chars)), count):
        chars[pos] = rng.choice(_LETTERS)
    return "".join(chars)


def synthetic_texts(
    spec: SyntheticCorpusSpec,
) -> tuple[list[tuple[str, str]], list[LabeledPair]]:
    """Build a labeled corpus's texts: bases, exact copies, and edited copies.

    Returns the (id, text) of each document, sorted by id, and the planted
    ground-truth pairs. Near-duplicates replace between 1 and
    ``edit_fraction * len(text)`` characters of their base, at random
    positions, with random letters. A base and the copies drawn from it form
    a group, and every pair within a group is planted, the smaller id first:
    ``duplicate`` where the two texts are equal, ``near-duplicate`` otherwise.
    Each text is lowercase words joined by single spaces, with letters
    replaced by letters, so it is its own :func:`~refsig.text.normalize`.
    """
    rng = random.Random(spec.rng_seed)
    texts: dict[str, str] = {}
    for i in range(spec.base_doc_count):
        words = rng.choices(_VOCABULARY, k=spec.words_per_doc)
        texts[f"base-{i:04d}.txt"] = " ".join(words)
    groups = {doc_id: [doc_id] for doc_id in texts}  # each base, then its copies
    for i in range(spec.dup_count):
        src = f"base-{rng.randrange(spec.base_doc_count):04d}.txt"
        dup_id = f"dup-{i:04d}.txt"
        texts[dup_id] = texts[src]
        groups[src].append(dup_id)
    for i in range(spec.near_dup_count):
        src = f"base-{rng.randrange(spec.base_doc_count):04d}.txt"
        near_id = f"near-{i:04d}.txt"
        texts[near_id] = _edit_text(texts[src], spec.edit_fraction, rng)
        groups[src].append(near_id)
    pairs = [
        LabeledPair(a, b, Verdict.DUPLICATE if texts[a] == texts[b] else Verdict.NEAR_DUPLICATE)
        for group in groups.values()
        for a, b in combinations(group, 2)
    ]
    return sorted(texts.items()), pairs


def generate_synthetic_corpus(
    spec: SyntheticCorpusSpec,
) -> tuple[list[Document], list[LabeledPair]]:
    """:func:`synthetic_texts` as documents (sorted by id) and the planted pairs."""
    texts, pairs = synthetic_texts(spec)
    return [Document.from_raw(doc_id, text) for doc_id, text in texts], pairs


# ---------------------------------------------------------------------------
# All-pairs DND scan over a signature database.

# One scan hit: the db rows of a pair, the smaller id's row first.
SCAN_HIT = np.dtype(
    [("first", np.intp), ("second", np.intp), ("similarity", float), ("duplicate", bool)]
)


def dnd_scan(db: SignatureDb, cfg: ClassifierConfig) -> np.ndarray:
    """Every duplicate and near-duplicate pair in the database, as one
    :data:`SCAN_HIT` array sorted by (id of ``first``, id of ``second``),
    read from :func:`upper_blocks` :data:`~refsig.text.SCAN_BLOCK` rows at a time.

    ``duplicate`` is ``similarity >= cfg.t1`` on the same float64 values
    compared with ``cfg.t2``, so each hit's label equals :func:`classify`'s.
    """
    if db.record_count == 0:
        raise ValueError("signature database is empty")
    # Rows are scanned in id order, so each hit's first row has the smaller
    # id and the blocks emit the hits already sorted.
    by_id = np.argsort(np.array(db.ids))
    matrix = db.scores[by_id].astype(float)
    firsts, seconds, sims_kept = [], [], []
    for lo, sims, rows, cols in upper_blocks(matrix, cfg.t2):
        firsts.append(by_id[rows + lo])
        seconds.append(by_id[cols + lo])
        sims_kept.append(sims[rows, cols])
    hits = np.empty(sum(map(len, firsts)), dtype=SCAN_HIT)
    hits["first"] = np.concatenate(firsts)
    hits["second"] = np.concatenate(seconds)
    hits["similarity"] = np.concatenate(sims_kept)
    hits["duplicate"] = hits["similarity"] >= cfg.t1
    return hits


def confusion_from_pairs(
    predicted: Iterable[tuple[str, str]],
    truth: Iterable[tuple[str, str]],
    total_pairs: int,
) -> ConfusionCounts:
    """Pairwise confusion counts for a detection run against ground truth."""
    predicted_set = {tuple(sorted(p)) for p in predicted}
    truth_set = {tuple(sorted(p)) for p in truth}
    tp = len(predicted_set & truth_set)
    fp = len(predicted_set - truth_set)
    fn = len(truth_set - predicted_set)
    tn = total_pairs - tp - fp - fn
    if tn < 0:
        raise ValueError("total_pairs is smaller than the observed pair sets")
    return ConfusionCounts(tp, fp, fn, tn)


def confusion_from_hits(
    hits: np.ndarray, ids: Sequence[str], truth: Iterable[tuple[str, str]]
) -> ConfusionCounts:
    """:func:`confusion_from_pairs` of :func:`dnd_scan` hits over rows with
    ``ids``, against ground-truth id pairs, over every pair of the rows.

    Truth ids are mapped to rows and each unordered row pair to one int64
    code, so the hits are matched as arrays: memory grows by a few words per
    hit, not by a Python tuple. A truth pair naming an id outside ``ids``
    can never be predicted and counts as a false negative.
    """
    n = len(ids)
    row = {doc_id: index for index, doc_id in enumerate(ids)}
    codes, outside = [], set()
    for a, b in truth:
        if a in row and b in row:
            i, j = sorted((row[a], row[b]))
            codes.append(i * n + j)
        else:
            outside.add(tuple(sorted((a, b))))
    truth_codes = sorted_counts(np.array(codes, dtype=np.int64))[0]
    predicted = np.minimum(hits["first"], hits["second"], dtype=np.int64)
    predicted *= n
    predicted += np.maximum(hits["first"], hits["second"])
    tp = int(np.count_nonzero(key_columns(truth_codes, predicted) < len(truth_codes)))
    fp = len(hits) - tp
    fn = len(truth_codes) + len(outside) - tp
    tn = n * (n - 1) // 2 - tp - fp - fn
    if tn < 0:
        raise ValueError("the rows have fewer pairs than the observed pair sets")
    return ConfusionCounts(tp, fp, fn, tn)
