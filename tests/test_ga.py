import itertools
import math
import random
from dataclasses import fields

import numpy as np
import pytest

from refsig.ga import (
    MUTATION_FRACTION,
    Chromosome,
    GaConfig,
    GenerationStats,
    crossover,
    draw_fitness_sample,
    evolve,
    fitness,
    init_population,
    mutate,
    mutation_count,
)
from refsig.reference import ReferenceText, pairwise_signature_similarity, signature_matrix
from refsig.text import Document, brute_force_pairwise, cosine, gram_strings
from refsig.tfidf import GramPool

from helpers import _grams, _keys, _word_salad_docs


def _gene_grams(genes, pool):
    return tuple(gram_strings(pool.keys[genes]))


def _pool_of(grams):
    return GramPool(_keys(grams), len(grams))


def test_config_defaults():
    cfg = GaConfig()
    assert cfg.population_size == 100
    assert cfg.ref_len == 1000
    assert cfg.partitions == 150
    assert cfg.pool_size == 9000
    assert MUTATION_FRACTION == 0.10
    assert cfg.max_generations == 50
    assert cfg.sample_size == 100


def test_config_validation():
    with pytest.raises(ValueError):
        GaConfig(partitions=20, ref_len=10)
    with pytest.raises(ValueError):
        GaConfig(sample_size=1)
    with pytest.raises(ValueError, match="population_size must be >= 2"):
        GaConfig(population_size=1)  # no pair to cross


def test_init_population_degenerate_pool():
    pool = _pool_of(["abc"])
    cfg = GaConfig(population_size=3, ref_len=5, partitions=2, pool_size=1, sample_size=2)
    population = init_population(pool, cfg, random.Random(0))
    assert len(population) == 3
    assert all(_gene_grams(genes, pool) == ("abc",) * 5 for genes in population)


def test_init_population_deterministic():
    pool = _pool_of(["abc", "bcd", "cde", "def"])
    cfg = GaConfig(population_size=4, ref_len=6, partitions=2, pool_size=4, sample_size=2)
    first = init_population(pool, cfg, random.Random(42))
    second = init_population(pool, cfg, random.Random(42))
    assert [genes.tolist() for genes in first] == [genes.tolist() for genes in second]
    # each gene picks the gram that drawing from the pool's grams themselves picks
    rng = random.Random(42)
    drawn = [tuple(rng.choices(_grams(pool), k=6)) for _ in range(4)]
    assert [_gene_grams(genes, pool) for genes in first] == drawn


def test_init_population_rejects_empty_pool():
    cfg = GaConfig(population_size=2, ref_len=4, partitions=2, sample_size=2)
    with pytest.raises(ValueError):
        init_population(GramPool(_keys([]), 1), cfg, random.Random(0))


def test_array_holders_compare_and_hash_by_identity():
    docs = _word_salad_docs(3, seed=1)
    holders = [
        (_pool_of(["abc", "bcd"]), _pool_of(["abc", "bcd"])),
        (Chromosome(_keys(["abc", "bcd"]), 0.5), Chromosome(_keys(["abc", "bcd"]), 0.5)),
        (draw_fitness_sample(docs, _pool_of(["abc"]), 3, random.Random(0)),
         draw_fitness_sample(docs, _pool_of(["abc"]), 3, random.Random(0))),
    ]
    for a, b in holders:
        assert a == a and a != b
        assert len({a, b, a}) == 2


def test_crossover_is_single_shared_cut():
    a, b = np.arange(4), np.arange(4, 8)
    for seed in range(25):
        c1, c2 = crossover(a, b, random.Random(seed))
        assert len(c1) == len(c2) == 4
        cuts = [
            cut
            for cut in range(1, 4)
            if c1.tolist() == a[:cut].tolist() + b[cut:].tolist()
            and c2.tolist() == b[:cut].tolist() + a[cut:].tolist()
        ]
        assert cuts, "offspring are not a single shared cut of the parents"
        # every offspring mixes both parents
        assert set(c1.tolist()) & set(a.tolist()) and set(c1.tolist()) & set(b.tolist())


def test_crossover_identical_parents_fixed_point():
    a = np.array([0, 1, 2])
    b = np.array([0, 1, 2])
    for seed in range(10):
        c1, c2 = crossover(a, b, random.Random(seed))
        assert c1.tolist() == a.tolist() and c2.tolist() == a.tolist()


def test_crossover_rejects_length_mismatch():
    with pytest.raises(ValueError):
        crossover(np.array([0]), np.array([0, 1]), random.Random(0))


def test_mutation_count_rule():
    assert mutation_count(1000) == 100
    assert mutation_count(10) == 1
    assert mutation_count(5) == 1  # floor of one replacement
    assert mutation_count(15) == 2  # half-up rounding
    assert mutation_count(14) == 1


def test_mutate_replaces_exact_positions():
    original = np.full(1000, 7)
    pool = _pool_of(["bbb", "ccc"])  # no draw from it is index 7
    mutated = mutate(original, pool, random.Random(3))
    assert np.count_nonzero(original != mutated) == 100
    assert set(mutated[original != mutated].tolist()) <= {0, 1}
    assert len(mutated) == 1000
    assert (original == 7).all()  # input untouched


def test_mutate_short_chromosome_and_degenerate_pool():
    original = np.full(10, 7)
    mutated = mutate(original, _pool_of(["bbb"]), random.Random(1))
    assert np.count_nonzero(original != mutated) == 1
    # pool containing only the existing gram: content may be unchanged
    zeros = np.zeros(10, int)
    unchanged = mutate(zeros, _pool_of(["aaa"]), random.Random(1))
    assert unchanged.tolist() == zeros.tolist()


def test_pool_closure_through_operators():
    pool = _pool_of(["abc", "bcd", "cde", "def", "efg"])
    cfg = GaConfig(population_size=6, ref_len=8, partitions=2, pool_size=5, sample_size=2)
    rng = random.Random(11)
    population = init_population(pool, cfg, rng)
    for _ in range(5):
        a, b = rng.sample(population, 2)
        c1, c2 = crossover(a, b, rng)
        population.extend([mutate(c1, pool, rng), mutate(c2, pool, rng)])
    assert all(set(genes.tolist()) <= set(range(len(pool))) for genes in population)


def test_fitness_single_pair_formula():
    docs = (Document.from_raw("0", "abcd"), Document.from_raw("1", "bcde"))
    pool = _pool_of(("abc", "bcd", "cde", "def"))
    sample = draw_fitness_sample(docs, pool, 2, random.Random(0))
    [got] = fitness([np.arange(4)], sample, partitions=2)
    ref = ReferenceText(pool.keys, 2)
    rows = signature_matrix(docs, ref)
    sim = pairwise_signature_similarity(rows[:1], rows[1:])[0, 0]
    oracle = cosine(docs[0], docs[1])
    assert got == pytest.approx(abs(sim - oracle), abs=1e-15)


def test_fitness_zero_for_full_vocabulary_reference():
    docs = _word_salad_docs(10, seed=2, length=60)
    grams = sorted({g for d in docs for g in gram_strings(d.keys)})
    sample = draw_fitness_sample(docs, _pool_of(grams), 10, random.Random(0))
    assert fitness([np.arange(len(grams))], sample, partitions=len(grams))[0] <= 1e-9


def test_draw_fitness_sample_contract():
    docs = _word_salad_docs(6, seed=3)
    pool = _pool_of(["zzz", *gram_strings(docs[0].keys[:5])])  # no salad holds "zzz"
    sample = draw_fitness_sample(docs, pool, 4, random.Random(9))
    drawn = random.Random(9).sample(docs, 4)
    assert len({d.id for d in drawn}) == 4
    (oracle,) = brute_force_pairwise(drawn)
    assert [block.tobytes() for block in sample.oracle] == [oracle.tobytes()]
    assert sample.sq_norms.tolist() == [d.sq_norm for d in drawn]
    # each pool gram's row holds its counts; "zzz" and a -1 pad read the spare zero row
    assert len(sample.rows) == len(pool) + 1
    assert sample.rows[0] == sample.rows[-1] == len(sample.counts) - 1
    assert not sample.counts[-1].any()
    # the matrix holds only rows that a pool gram reads
    assert np.array_equal(np.unique(sample.rows), np.arange(len(sample.counts)))
    for key, row in zip(pool.keys.tolist(), sample.rows.tolist()):
        held = [dict(zip(d.keys.tolist(), d.counts.tolist())).get(key, 0) for d in drawn]
        assert sample.counts[row].tolist() == held
    # no document is drawn twice: distinct word salads never score 1.0
    assert (oracle[~np.eye(4, dtype=bool)] < 1.0).all()
    with pytest.raises(ValueError):
        draw_fitness_sample(docs, pool, 7, random.Random(0))


def _small_cfg(**overrides):
    base = dict(
        population_size=8,
        ref_len=20,
        partitions=4,
        pool_size=60,
        max_generations=6,
        sample_size=8,
        rng_seed=13,
    )
    base.update(overrides)
    return GaConfig(**base)


def test_evolve_deterministic():
    docs = _word_salad_docs(16, seed=4)
    first = evolve(docs, _small_cfg())
    second = evolve(docs, _small_cfg())
    assert _grams(first.best) == _grams(second.best)
    assert first.best.fitness == second.best.fitness
    # wall-clock differs; every recorded MAE must match bit for bit
    assert [(s.best_mae, s.mean_mae) for s in first.history] == [
        (s.best_mae, s.mean_mae) for s in second.history
    ]


def test_evolve_history_monotone_and_complete():
    docs = _word_salad_docs(16, seed=5)
    result = evolve(docs, _small_cfg())
    history = result.history
    # a record's generation is its index in history, so it stores none
    assert [f.name for f in fields(GenerationStats)] == ["best_mae", "mean_mae", "elapsed_s"]
    assert len(history) == 7  # generation 0 plus max_generations
    for earlier, later in zip(history, history[1:]):
        assert later.best_mae <= earlier.best_mae
    assert result.best.fitness == history[-1].best_mae


def test_evolve_length_conservation_and_pool_closure():
    docs = _word_salad_docs(16, seed=6)
    result = evolve(docs, _small_cfg())
    assert len(_grams(result.best)) == 20
    assert set(_grams(result.best)) <= set(_grams(result.pool))


def _traced_evolve(monkeypatch, values, **overrides):
    """Run evolve with fitness drawn from ``values``; return the result, each
    generation's offspring, each later generation's survivors as evolve
    hands them to the shuffle that pairs them, and each genome's fitness by
    its ``id``."""
    offspring, survivors, scored = [], [], {}

    def scripted_fitness(genes, sample, partitions):
        offspring.append(list(genes))
        scored.update((id(g), next(values)) for g in genes)
        return [scored[id(g)] for g in genes]

    def recording_init(pool, cfg, rng):
        shuffle = rng.shuffle

        def recording_shuffle(parents):
            survivors.append(list(parents))
            shuffle(parents)

        rng.shuffle = recording_shuffle
        return init_population(pool, cfg, rng)

    monkeypatch.setattr("refsig.ga.fitness", scripted_fitness)
    monkeypatch.setattr("refsig.ga.init_population", recording_init)
    result = evolve(_word_salad_docs(16, seed=4), _small_cfg(**overrides))
    return result, offspring, survivors, scored


def test_evolve_ties_keep_survivors_ahead_of_offspring(monkeypatch):
    result, offspring, survivors, _ = _traced_evolve(monkeypatch, itertools.repeat(0.25))
    first = [id(g) for g in offspring[0]]
    assert len(offspring) == 7 and len(survivors) == 6
    # Every offspring ties every survivor, so generation 0 survives whole,
    # as the same objects in the same order, whatever its grams.
    assert result.best.keys.tolist() == result.pool.keys[offspring[0][0]].tolist()
    assert result.best.fitness == 0.25
    assert all([id(g) for g in generation] == first for generation in survivors)
    assert [(s.best_mae, s.mean_mae) for s in result.history] == [(0.25, 0.25)] * 7


def test_evolve_keeps_the_lowest_fitnesses_in_ascending_order(monkeypatch):
    values = iter(random.Random(7).random, None)
    result, offspring, survivors, scored = _traced_evolve(monkeypatch, values, population_size=7)
    assert len(set(scored.values())) == len(scored) == 7 + 6 * 6
    population = []
    for generation, stats in enumerate(result.history):
        kept = sorted(scored[id(g)] for g in population + offspring[generation])[:7]
        assert (stats.best_mae, stats.mean_mae) == (kept[0], math.fsum(kept) / 7)
        if generation < len(survivors):
            population = survivors[generation]
            assert [scored[id(g)] for g in population] == kept


def test_evolve_early_stop():
    # Identical documents give identical signature rows, which score exactly
    # the oracle's 1.0: the initial best MAE is 0.0 and nothing can beat it.
    docs = [Document.from_raw(str(i), "the same words in every document") for i in range(16)]
    result = evolve(docs, _small_cfg(pool_size=20))
    assert result.history[0].best_mae == 0.0
    assert len(result.history) == 1


def test_evolve_rejects_small_corpus():
    docs = _word_salad_docs(4, seed=8)
    with pytest.raises(ValueError):
        evolve(docs, _small_cfg())
