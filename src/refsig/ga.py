"""Genetic-algorithm search for reference texts that minimize signature error.

Fitness of a candidate is the mean absolute error between signature-space
similarity and exact cosine over a fixed sample of document pairs (lower
is better). A candidate's genes index the top tf-idf pool; only the winner
becomes gram keys. Selection is elitist truncation: one stable sort of
survivors then offspring by fitness, cut to the population size, so the best
fitness never worsens between generations and a tie keeps the earlier one.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gramio import key_lines
from .reference import mean_signature_error, partition_layout, partition_scores
from .text import (
    Document,
    brute_force_pairwise,
    count_matrix,
    gram_cells,
    key_columns,
    sorted_counts,
)
from .tfidf import GramPool, score_grams, top_k

DEFAULT_SEED = 0
MUTATION_FRACTION = 0.10  # share of a chromosome's positions each mutation replaces


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 100
    ref_len: int = 1000
    partitions: int = 150
    pool_size: int = 9000
    max_generations: int = 50
    sample_size: int = 100
    rng_seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2: each generation crosses pairs")
        if self.ref_len < 1:
            raise ValueError("ref_len must be >= 1")
        if not 1 <= self.partitions <= self.ref_len:
            raise ValueError("partitions must be in 1..ref_len")
        if self.pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")
        if self.sample_size < 2:
            raise ValueError("sample_size must be >= 2")


@dataclass(eq=False)
class Chromosome:
    """The winning reference sequence as packed gram keys, with its fitness."""

    keys: np.ndarray
    fitness: float

    def content_hash(self) -> str:
        return hashlib.sha256(key_lines(self.keys).encode("utf-8")).hexdigest()


@dataclass(frozen=True, eq=False)
class FitnessSample:
    """The fixed documents every candidate is scored on: their exact cosines in
    :func:`~refsig.text.brute_force_pairwise`'s row blocks, and their counts
    over every gram they hold. ``rows[i]`` is the count-matrix row of pool
    gram i, the spare zero row if the sample lacks it, as is a -1 pad's."""

    oracle: tuple[np.ndarray, ...]
    rows: np.ndarray
    counts: np.ndarray
    sq_norms: np.ndarray


@dataclass(frozen=True)
class GenerationStats:
    """One generation's survivors; its generation number is its index in the history."""

    best_mae: float
    mean_mae: float
    elapsed_s: float


@dataclass(frozen=True)
class EvolveResult:
    best: Chromosome
    history: tuple[GenerationStats, ...]
    pool: GramPool


def draw_fitness_sample(
    corpus: Sequence[Document], pool: GramPool, size: int, rng: random.Random
) -> FitnessSample:
    """Pick ``size`` documents without replacement, with their exact cosines
    and the count-matrix row of each ``pool`` gram."""
    if size < 2:
        raise ValueError("fitness sample needs at least 2 documents")
    if len(corpus) < size:
        raise ValueError(f"corpus has {len(corpus)} documents, sample needs {size}")
    docs = rng.sample(list(corpus), size)
    # One sort: np.unique's hash set raised train's peak RSS by 0.6 MB.
    vocab = sorted_counts(gram_cells(docs)[0])[0]
    counts, sq_norms = count_matrix(docs, vocab)
    rows = np.append(key_columns(vocab, pool.keys), len(vocab))
    return FitnessSample(tuple(brute_force_pairwise(docs)), rows, counts, sq_norms)


def init_population(pool: GramPool, cfg: GaConfig, rng: random.Random) -> list[np.ndarray]:
    """Genes of uniform draws with replacement from the pool, ``ref_len`` each."""
    if len(pool) == 0:
        raise ValueError("cannot initialize a population from an empty gram pool")
    indices = list(range(len(pool)))  # rng.choices indexes a list faster than a range
    return [
        np.fromiter(rng.choices(indices, k=cfg.ref_len), np.intp, cfg.ref_len)
        for _ in range(cfg.population_size)
    ]


def crossover(a: np.ndarray, b: np.ndarray, rng: random.Random) -> tuple[np.ndarray, np.ndarray]:
    """Single-cut crossover: one shared cut point, tails swapped."""
    if len(a) != len(b):
        raise ValueError("parents must have the same length")
    if len(a) < 2:
        return a, b
    cut = rng.randint(1, len(a) - 1)
    return np.concatenate((a[:cut], b[cut:])), np.concatenate((b[:cut], a[cut:]))


def mutation_count(ref_len: int) -> int:
    """Positions to replace: MUTATION_FRACTION of the length, half-up, never zero."""
    return max(1, math.floor(MUTATION_FRACTION * ref_len + 0.5))


def mutate(genes: np.ndarray, pool: GramPool, rng: random.Random) -> np.ndarray:
    """A copy of ``genes`` with a fixed number of distinct positions redrawn from the pool."""
    size = len(pool)
    if size == 0:
        raise ValueError("cannot mutate with an empty gram pool")
    positions = rng.sample(range(len(genes)), mutation_count(len(genes)))
    genes = genes.copy()
    genes[positions] = [rng.randrange(size) for _ in positions]
    return genes


# Count-matrix cells a fitness chunk gathers, candidates x sample x ref_len:
# it sets the chunk size, 6 candidates at sample 40 and ref_len 1000 and 2 at
# sample 100, and so bounds the chunk's sums, signatures and pair blocks.
# Chunks of 6 scored a generation as fast as chunks of 8 or 12, and raised
# train's peak RSS by under 0.5 MB where chunks of 8 raised it by 0.7 MB.
FITNESS_CELLS = 240_000


def fitness(genes: Sequence[np.ndarray], sample: FitnessSample, partitions: int) -> list[float]:
    """Mean absolute error of signature similarity against the sample oracle,
    one per candidate's genes.

    Candidates are scored in slices of at most :data:`FITNESS_CELLS`
    count-matrix cells, each laid out, turned into count-matrix rows through
    ``sample.rows``, signed and compared as one stack. Each value is equal
    bit for bit to scoring ``signature_matrix`` of the sample against the
    ``ReferenceText`` of that candidate's grams, without building one.
    """
    errors: list[float] = []
    if not genes:
        return errors
    most = max(1, FITNESS_CELLS // (len(sample.sq_norms) * len(genes[0])))
    for lo in range(0, len(genes), most):
        slots, part_sq = partition_layout(np.stack(genes[lo : lo + most]), partitions)
        sigs = partition_scores(sample.counts, sample.sq_norms, sample.rows[slots], part_sq)
        errors.extend(mean_signature_error(sigs, sample.oracle).tolist())
    return errors


def evolve(corpus: Sequence[Document], cfg: GaConfig) -> EvolveResult:
    """Run the full search and return the best reference plus history.

    All randomness comes from one sequential stream seeded by
    ``cfg.rng_seed``: the fitness sample is drawn once, generation 0's
    offspring are seeded from the top tf-idf pool, and each later generation
    pairs the survivors at random, crosses every pair and mutates every
    offspring. Each generation keeps the best ``population_size`` of
    survivors plus offspring by one stable sort on fitness: on a tie,
    survivors stay ahead of offspring and offspring keep their breeding
    order. History records generation 0 onward; the run stops after
    ``max_generations`` more generations, or earlier once the best MAE is
    0.0, which no candidate can improve on.
    """
    corpus = list(corpus)
    rng = random.Random(cfg.rng_seed)
    pool = top_k(score_grams(corpus), cfg.pool_size)
    sample = draw_fitness_sample(corpus, pool, cfg.sample_size, rng)

    population: list[np.ndarray] = []
    fits: list[float] = []
    history: list[GenerationStats] = []
    for _ in range(cfg.max_generations + 1):
        start = time.perf_counter()
        if not population:
            offspring = init_population(pool, cfg, rng)
        else:
            parents = population.copy()
            rng.shuffle(parents)
            offspring = [
                mutate(child, pool, rng)
                for pair in zip(parents[::2], parents[1::2])
                for child in crossover(*pair, rng)
            ]
        candidates = population + offspring
        errors = fits + fitness(offspring, sample, cfg.partitions)
        keep = np.argsort(errors, kind="stable")[: cfg.population_size]
        population, fits = [candidates[k] for k in keep], [errors[k] for k in keep]
        history.append(
            GenerationStats(fits[0], math.fsum(fits) / len(fits), time.perf_counter() - start)
        )
        if fits[0] == 0.0:
            break

    return EvolveResult(Chromosome(pool.keys[population[0]], fits[0]), tuple(history), pool)
