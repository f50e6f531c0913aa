"""Genetic-algorithm search for reference texts that minimize signature error.

Fitness of a candidate is the mean absolute error between signature-space
similarity and exact cosine over a fixed sample of document pairs (lower
is better). Selection is elitist truncation over parents plus offspring,
so the best fitness never worsens between generations.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gramio import key_lines
from .reference import mean_signature_error, partition_layout, partition_scores
from .text import Document, brute_force_pairwise, count_matrix, gram_cells, sorted_counts
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
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
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
    """A candidate reference sequence of packed gram keys with its cached fitness."""

    keys: np.ndarray
    fitness: float | None = None

    def content_hash(self) -> str:
        return hashlib.sha256(key_lines(self.keys).encode("utf-8")).hexdigest()


@dataclass(frozen=True, eq=False)
class FitnessSample:
    """The fixed documents every candidate is scored on: their exact cosines in
    :func:`~refsig.text.brute_force_pairwise`'s row blocks, and their counts
    over ``keys``, the sorted packed keys of every gram they hold."""

    oracle: tuple[np.ndarray, ...]
    keys: np.ndarray
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
    corpus: Sequence[Document], size: int, rng: random.Random
) -> FitnessSample:
    """Pick ``size`` documents without replacement, with their exact cosines."""
    if size < 2:
        raise ValueError("fitness sample needs at least 2 documents")
    if len(corpus) < size:
        raise ValueError(f"corpus has {len(corpus)} documents, sample needs {size}")
    docs = rng.sample(list(corpus), size)
    # One sort: np.unique's hash set raised train's peak RSS by 0.6 MB.
    vocab = sorted_counts(gram_cells(docs)[0])[0]
    counts, sq_norms = count_matrix(docs, vocab)
    return FitnessSample(tuple(brute_force_pairwise(docs)), vocab, counts, sq_norms)


def init_population(pool: GramPool, cfg: GaConfig, rng: random.Random) -> list[Chromosome]:
    """Uniform draws with replacement from the pool, ``ref_len`` grams each."""
    if len(pool) == 0:
        raise ValueError("cannot initialize a population from an empty gram pool")
    keys = pool.keys.tolist()  # rng.choices indexes a list faster than a range or an array
    return [
        Chromosome(np.fromiter(rng.choices(keys, k=cfg.ref_len), np.int64, cfg.ref_len))
        for _ in range(cfg.population_size)
    ]


def crossover(
    a: Chromosome, b: Chromosome, rng: random.Random
) -> tuple[Chromosome, Chromosome]:
    """Single-cut crossover: one shared cut point, tails swapped."""
    if len(a.keys) != len(b.keys):
        raise ValueError("parents must have the same length")
    length = len(a.keys)
    if length < 2:
        return Chromosome(a.keys), Chromosome(b.keys)
    cut = rng.randint(1, length - 1)
    return (
        Chromosome(np.concatenate((a.keys[:cut], b.keys[cut:]))),
        Chromosome(np.concatenate((b.keys[:cut], a.keys[cut:]))),
    )


def mutation_count(ref_len: int) -> int:
    """Positions to replace: MUTATION_FRACTION of the length, half-up, never zero."""
    return max(1, math.floor(MUTATION_FRACTION * ref_len + 0.5))


def mutate(chromosome: Chromosome, pool: GramPool, rng: random.Random) -> Chromosome:
    """Replace a fixed number of distinct positions with fresh pool draws."""
    size = len(pool)
    if size == 0:
        raise ValueError("cannot mutate with an empty gram pool")
    length = len(chromosome.keys)
    positions = rng.sample(range(length), mutation_count(length))
    keys = chromosome.keys.copy()
    keys[positions] = pool.keys[[rng.randrange(size) for _ in positions]]
    return Chromosome(keys)


# Count-matrix cells a fitness chunk gathers, chromosomes x sample x ref_len:
# it sets the chunk size, 6 chromosomes at sample 40 and ref_len 1000 and 2 at
# sample 100, and so bounds the chunk's sums, signatures and pair blocks.
# Chunks of 6 scored a generation as fast as chunks of 8 or 12, and raised
# train's peak RSS by under 0.5 MB where chunks of 8 raised it by 0.7 MB.
FITNESS_CELLS = 240_000


def fitness(
    chromosomes: Sequence[Chromosome], sample: FitnessSample, partitions: int
) -> list[float]:
    """Mean absolute error of signature similarity against the sample oracle,
    one per chromosome.

    Chromosomes are scored in slices of at most :data:`FITNESS_CELLS`
    count-matrix cells, each laid out over ``sample.keys``, signed and
    compared as one stack. Each value is equal bit for bit to scoring
    ``signature_matrix`` of the sample against that chromosome's
    ``ReferenceText``, without building one.
    """
    errors: list[float] = []
    if not chromosomes:
        return errors
    most = max(1, FITNESS_CELLS // (len(sample.sq_norms) * len(chromosomes[0].keys)))
    for lo in range(0, len(chromosomes), most):
        keys = np.stack([c.keys for c in chromosomes[lo : lo + most]])
        rows, part_sq = partition_layout(keys, partitions, sample.keys)
        sigs = partition_scores(sample.counts, sample.sq_norms, rows, part_sq)
        errors.extend(mean_signature_error(sigs, sample.oracle).tolist())
    return errors


def _select(chromosomes: list[Chromosome], size: int) -> list[Chromosome]:
    """The ``size`` best by (fitness, content_hash); only ties are hashed."""
    ranked: list[Chromosome] = []
    for _, group in itertools.groupby(
        sorted(chromosomes, key=lambda c: c.fitness), key=lambda c: c.fitness
    ):
        tied = list(group)
        if len(tied) > 1:
            tied.sort(key=Chromosome.content_hash)
        ranked.extend(tied)
        if len(ranked) >= size:
            break
    return ranked[:size]


def evolve(corpus: Sequence[Document], cfg: GaConfig) -> EvolveResult:
    """Run the full search and return the best chromosome plus history.

    All randomness comes from one sequential stream seeded by
    ``cfg.rng_seed``: the fitness sample is drawn once, generation 0's
    offspring are seeded from the top tf-idf pool, and each later generation
    pairs the survivors at random, crosses every pair and mutates every
    offspring. Each generation keeps the best ``population_size`` of
    survivors plus offspring. History records generation 0 onward; the run
    stops after ``max_generations`` more generations, or earlier once the
    best MAE is 0.0, which no candidate can improve on.
    """
    corpus = list(corpus)
    rng = random.Random(cfg.rng_seed)
    pool = top_k(score_grams(corpus), cfg.pool_size)
    sample = draw_fitness_sample(corpus, cfg.sample_size, rng)

    population: list[Chromosome] = []
    history: list[GenerationStats] = []
    for _ in range(cfg.max_generations + 1):
        start = time.perf_counter()
        if not population:
            offspring = init_population(pool, cfg, rng)
        else:
            order = list(range(len(population)))
            rng.shuffle(order)
            offspring = []
            for k in range(0, len(order) - 1, 2):
                first, second = crossover(population[order[k]], population[order[k + 1]], rng)
                offspring.append(mutate(first, pool, rng))
                offspring.append(mutate(second, pool, rng))
        for chromosome, error in zip(offspring, fitness(offspring, sample, cfg.partitions)):
            chromosome.fitness = error
        population = _select(population + offspring, cfg.population_size)
        fits = [c.fitness for c in population]
        history.append(
            GenerationStats(fits[0], math.fsum(fits) / len(fits), time.perf_counter() - start)
        )
        if fits[0] == 0.0:
            break

    return EvolveResult(population[0], tuple(history), pool)
