#!/usr/bin/env python3
"""Evolve a reference text on a synthetic corpus and watch the error fall.

The trainer seeds a population of candidate references from the corpus's
top tf-idf grams, then repeatedly crosses, mutates, and keeps the best
candidates. Fitness is the mean absolute gap between signature similarity
and exact cosine over a fixed sample of document pairs, so lower is better
and the best value can never rise between generations.
"""

import random

from refsig import (
    GaConfig,
    ReferenceText,
    SyntheticCorpusSpec,
    evolve,
    generate_synthetic_corpus,
    mae,
    synthetic_texts,
)

spec = SyntheticCorpusSpec(base_doc_count=150, near_dup_count=15, dup_count=10, rng_seed=11)
corpus, _ = generate_synthetic_corpus(spec)
texts, _ = synthetic_texts(spec)  # documents keep only their 3-gram vectors
print(f"training corpus: {len(corpus)} documents, ~{len(texts[0][1])} chars each")

cfg = GaConfig(
    population_size=20,
    ref_len=120,
    partitions=15,
    pool_size=1500,
    max_generations=30,
    sample_size=50,
    rng_seed=1,
)
result = evolve(corpus, cfg)

print("\ngeneration   best MAE   mean MAE")
for generation, stats in enumerate(result.history):
    if generation % 5 == 0 or generation == len(result.history) - 1:
        print(f"{generation:10d}   {stats.best_mae:.4f}     {stats.mean_mae:.4f}")

baseline = result.history[0].mean_mae
final = result.history[-1].best_mae
print(f"\nbest MAE fell from a population mean of {baseline:.4f} "
      f"to {final:.4f} ({(baseline - final) / baseline:.0%} lower)")

# --- compare against an untrained reference on fresh documents ---------------

holdout, _ = generate_synthetic_corpus(
    SyntheticCorpusSpec(base_doc_count=40, near_dup_count=5, dup_count=5, rng_seed=99)
)
trained = ReferenceText(result.best.keys, cfg.partitions)
rng = random.Random(0)
pool = result.pool.keys.tolist()
random_ref = ReferenceText(rng.choices(pool, k=cfg.ref_len), cfg.partitions)

print(f"\nheld-out MAE, trained reference:  {mae(trained, holdout):.4f}")
print(f"held-out MAE, random reference:   {mae(random_ref, holdout):.4f}")
