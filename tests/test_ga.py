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
from refsig.text import Document, brute_force_pairwise, cosine, gram_keys, gram_strings
from refsig.tfidf import GramPool


def _word_salad_docs(count, seed, length=120):
    rng = random.Random(seed)
    alphabet = "abcdefghij "
    return [
        Document.from_raw(str(i), "".join(rng.choice(alphabet) for _ in range(length)))
        for i in range(count)
    ]


def _keys(grams):
    return gram_keys("".join(grams))[::3]


def _grams(chromosome_or_pool):
    return tuple(gram_strings(chromosome_or_pool.keys))


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


def test_init_population_degenerate_pool():
    pool = _pool_of(["abc"])
    cfg = GaConfig(population_size=3, ref_len=5, partitions=2, pool_size=1, sample_size=2)
    population = init_population(pool, cfg, random.Random(0))
    assert len(population) == 3
    assert all(_grams(c) == ("abc",) * 5 for c in population)


def test_init_population_deterministic():
    pool = _pool_of(["abc", "bcd", "cde", "def"])
    cfg = GaConfig(population_size=4, ref_len=6, partitions=2, pool_size=4, sample_size=2)
    first = init_population(pool, cfg, random.Random(42))
    second = init_population(pool, cfg, random.Random(42))
    assert [_grams(c) for c in first] == [_grams(c) for c in second]
    assert all(set(_grams(c)) <= set(_grams(pool)) for c in first)


def test_init_population_rejects_empty_pool():
    cfg = GaConfig(population_size=2, ref_len=4, partitions=2, sample_size=2)
    with pytest.raises(ValueError):
        init_population(GramPool(_keys([]), 1), cfg, random.Random(0))


def test_array_holders_compare_and_hash_by_identity():
    docs = _word_salad_docs(3, seed=1)
    holders = [
        (_pool_of(["abc", "bcd"]), _pool_of(["abc", "bcd"])),
        (Chromosome(_keys(["abc", "bcd"])), Chromosome(_keys(["abc", "bcd"]))),
        (draw_fitness_sample(docs, 3, random.Random(0)),
         draw_fitness_sample(docs, 3, random.Random(0))),
    ]
    for a, b in holders:
        assert a == a and a != b
        assert len({a, b, a}) == 2


def test_crossover_is_single_shared_cut():
    a = Chromosome(_keys(("g1.", "g2.", "g3.", "g4.")))
    b = Chromosome(_keys(("h1.", "h2.", "h3.", "h4.")))
    for seed in range(25):
        c1, c2 = crossover(a, b, random.Random(seed))
        assert len(_grams(c1)) == len(_grams(c2)) == 4
        cuts = [
            cut
            for cut in range(1, 4)
            if _grams(c1) == _grams(a)[:cut] + _grams(b)[cut:]
            and _grams(c2) == _grams(b)[:cut] + _grams(a)[cut:]
        ]
        assert cuts, "offspring are not a single shared cut of the parents"
        # every offspring mixes both parents
        assert set(_grams(c1)) & set(_grams(a)) and set(_grams(c1)) & set(_grams(b))


def test_crossover_identical_parents_fixed_point():
    a = Chromosome(_keys(("abc", "bcd", "cde")))
    b = Chromosome(_keys(("abc", "bcd", "cde")))
    for seed in range(10):
        c1, c2 = crossover(a, b, random.Random(seed))
        assert _grams(c1) == _grams(a) and _grams(c2) == _grams(a)


def test_crossover_rejects_length_mismatch():
    with pytest.raises(ValueError):
        crossover(Chromosome(_keys(("abc",))), Chromosome(_keys(("abc", "bcd"))), random.Random(0))


def test_mutation_count_rule():
    assert mutation_count(1000) == 100
    assert mutation_count(10) == 1
    assert mutation_count(5) == 1  # floor of one replacement
    assert mutation_count(15) == 2  # half-up rounding
    assert mutation_count(14) == 1


def test_mutate_replaces_exact_positions():
    original = Chromosome(_keys(("aaa",) * 1000))
    pool = _pool_of(["bbb", "ccc"])  # disjoint from the chromosome
    mutated = mutate(original, pool, random.Random(3))
    diffs = sum(1 for x, y in zip(_grams(original), _grams(mutated)) if x != y)
    assert diffs == 100
    assert len(_grams(mutated)) == 1000
    assert _grams(original) == ("aaa",) * 1000  # input untouched


def test_mutate_short_chromosome_and_degenerate_pool():
    original = Chromosome(_keys(("aaa",) * 10))
    mutated = mutate(original, _pool_of(["bbb"]), random.Random(1))
    assert sum(1 for x, y in zip(_grams(original), _grams(mutated)) if x != y) == 1
    # pool containing only the existing gram: content may be unchanged
    unchanged = mutate(original, _pool_of(["aaa"]), random.Random(1))
    assert _grams(unchanged) == _grams(original)


def test_pool_closure_through_operators():
    pool = _pool_of(["abc", "bcd", "cde", "def", "efg"])
    cfg = GaConfig(population_size=6, ref_len=8, partitions=2, pool_size=5, sample_size=2)
    rng = random.Random(11)
    population = init_population(pool, cfg, rng)
    for _ in range(5):
        a, b = rng.sample(population, 2)
        c1, c2 = crossover(a, b, rng)
        population.extend([mutate(c1, pool, rng), mutate(c2, pool, rng)])
    allowed = set(_grams(pool))
    assert all(set(_grams(c)) <= allowed for c in population)


def test_fitness_single_pair_formula():
    docs = (Document.from_raw("0", "abcd"), Document.from_raw("1", "bcde"))
    sample = draw_fitness_sample(docs, 2, random.Random(0))
    chromosome = Chromosome(_keys(("abc", "bcd", "cde", "def")))
    [got] = fitness([chromosome], sample, partitions=2)
    ref = ReferenceText(chromosome.keys, 2)
    rows = signature_matrix(docs, ref)
    sim = pairwise_signature_similarity(rows[:1], rows[1:])[0, 0]
    oracle = cosine(docs[0].vector, docs[1].vector)
    assert got == pytest.approx(abs(sim - oracle), abs=1e-15)


def test_fitness_zero_for_full_vocabulary_reference():
    docs = _word_salad_docs(10, seed=2, length=60)
    sample = draw_fitness_sample(docs, 10, random.Random(0))
    grams = sorted({g for d in docs for g in gram_strings(d.vector.keys)})
    chromosome = Chromosome(_keys(grams))
    assert fitness([chromosome], sample, partitions=len(grams))[0] <= 1e-9


def test_draw_fitness_sample_contract():
    docs = _word_salad_docs(6, seed=3)
    sample = draw_fitness_sample(docs, 4, random.Random(9))
    drawn = random.Random(9).sample(docs, 4)
    assert len({d.id for d in drawn}) == 4
    (oracle,) = brute_force_pairwise(drawn)
    assert [block.tobytes() for block in sample.oracle] == [oracle.tobytes()]
    assert sample.sq_norms.tolist() == [d.vector.sq_norm for d in drawn]
    # no document is drawn twice: distinct word salads never score 1.0
    assert (oracle[~np.eye(4, dtype=bool)] < 1.0).all()
    with pytest.raises(ValueError):
        draw_fitness_sample(docs, 7, random.Random(0))


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
