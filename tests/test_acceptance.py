"""Acceptance suite: one verdict line per criterion (run with -s to see them).

Each test computes its check, prints "acceptance N: PASS/FAIL (detail)", and
then asserts. GA-based criteria share one batch of training runs.
"""

import math
import random
import statistics
import time

import numpy as np
import pytest

from refsig.cli import main as cli_main
from refsig.evaluate import (
    ConfusionCounts,
    SyntheticCorpusSpec,
    dnd_scan,
    f1_score,
    generate_synthetic_corpus,
    prf,
)
from refsig.ga import GaConfig, draw_fitness_sample, evolve, fitness
from refsig.reference import (
    ClassifierConfig,
    ReferenceText,
    load_reference,
    pairwise_signature_similarity,
    signature_matrix,
)
from refsig.store import SignatureDb, db_read, db_write
from refsig.text import brute_force_pairwise, cosine, gram_keys, gram_strings
from refsig.tfidf import score_grams, top_k


def _keys(grams):
    return gram_keys("".join(grams))[::3]


def _verdict(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {number}: {status} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


# -- criterion 1: full-vocabulary oracle equivalence ------------------------

def test_criterion_1_full_vocabulary_equivalence():
    start = time.perf_counter()
    docs, _ = generate_synthetic_corpus(
        SyntheticCorpusSpec(base_doc_count=50, near_dup_count=0, dup_count=0, rng_seed=71)
    )
    grams = sorted({g for d in docs for g in gram_strings(d.keys)})
    ref = ReferenceText(_keys(grams), len(grams))  # one gram per partition
    sigs = signature_matrix(docs, ref)
    sims = pairwise_signature_similarity(sigs, sigs)
    (oracle,) = brute_force_pairwise(docs)  # 50 documents: one row block, the whole matrix
    n = len(docs)
    iu = np.triu_indices(n, k=1)
    gap = float(np.max(np.abs(sims[iu] - oracle[iu])))
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        gap <= 1e-9 and len(iu[0]) == 1225,
        f"max |signature_sim - cosine| = {gap:.2e} over {len(iu[0])} pairs, "
        f"{len(grams)} grams, {elapsed:.1f}s",
    )


# -- criteria 2 and 3: shared GA runs ----------------------------------------

TRAIN_CFG = dict(
    population_size=20,
    ref_len=120,
    partitions=15,
    pool_size=1500,
    max_generations=50,
    sample_size=50,
)


@pytest.fixture(scope="module")
def ga_runs():
    docs, _ = generate_synthetic_corpus(
        SyntheticCorpusSpec(
            base_doc_count=170, near_dup_count=20, dup_count=10,
            edit_fraction=0.10, rng_seed=11,
        )
    )
    assert len(docs) == 200
    runs = []
    for seed in range(5):
        start = time.perf_counter()
        result = evolve(docs, GaConfig(rng_seed=seed, **TRAIN_CFG))
        runs.append((seed, result, time.perf_counter() - start))
    return runs


def test_criterion_2_elitism_monotonicity(ga_runs):
    worst_violation = 0.0
    slowest = 0.0
    for _, result, elapsed in ga_runs:
        history = result.history
        assert len(history) == 51  # generation 0 plus 50 generations
        for earlier, later in zip(history, history[1:]):
            worst_violation = max(worst_violation, later.best_mae - earlier.best_mae)
        slowest = max(slowest, elapsed)
    _verdict(
        2,
        worst_violation <= 0.0,
        f"best-MAE never increased across 5 seeds x 50 generations "
        f"(max delta {worst_violation:.1e}), slowest run {slowest:.1f}s",
    )


def test_criterion_3_training_improves_fitness(ga_runs):
    reductions = []
    ok = True
    for _, result, _ in ga_runs:
        baseline = result.history[0].mean_mae
        final = result.history[-1].best_mae
        reduction = (baseline - final) / baseline
        reductions.append(reduction)
        ok = ok and final < baseline and reduction >= 0.10
    _verdict(
        3,
        ok,
        "relative MAE reduction per seed: "
        + ", ".join(f"{r:.0%}" for r in reductions)
        + " (required >= 10%)",
    )


# -- criterion 4: planted-DND detection --------------------------------------

def test_criterion_4_planted_dnd_recall(tmp_path):
    train_docs, _ = generate_synthetic_corpus(
        SyntheticCorpusSpec(
            base_doc_count=120, near_dup_count=15, dup_count=8,
            edit_fraction=0.10, rng_seed=202,
        )
    )
    cfg = GaConfig(
        population_size=24, ref_len=150, partitions=15, pool_size=1500,
        max_generations=25, sample_size=60, rng_seed=5,
    )
    result = evolve(train_docs, cfg)
    ref = ReferenceText(result.best.keys, cfg.partitions)

    test_docs, pairs = generate_synthetic_corpus(
        SyntheticCorpusSpec(
            base_doc_count=100, near_dup_count=20, dup_count=10,
            edit_fraction=0.10, rng_seed=303,
        )
    )
    by_id = {d.id: d for d in test_docs}
    planted_cosines = [
        cosine(by_id[p.id_a], by_id[p.id_b]) for p in pairs
    ]
    assert min(planted_cosines) >= 0.85, "generator precondition violated"

    db_path = tmp_path / "sigs.db"
    rows = signature_matrix(test_docs, ref)
    db_write(db_path, SignatureDb(ref.fingerprint, tuple(d.id for d in test_docs), rows))
    db = db_read(db_path)
    hits = dnd_scan(db, ClassifierConfig(t1=0.999, t2=0.93))
    detected = {(db.ids[i], db.ids[j]) for i, j in zip(hits["first"], hits["second"])}
    truth = {tuple(sorted((p.id_a, p.id_b))) for p in pairs}
    recall = len(detected & truth) / len(truth)
    _verdict(
        4,
        recall >= 0.90,
        f"recall {recall:.2f} over {len(truth)} planted pairs at t1=0.999 t2=0.93; "
        f"planted exact cosine >= {min(planted_cosines):.3f}",
    )


# -- criterion 5: metric identities ------------------------------------------

def test_criterion_5_metric_identities():
    headline_f1 = f1_score(0.87, 0.98)
    arithmetic_ok = abs(headline_f1 - 0.92) <= 0.005

    rng = random.Random(55)
    property_ok = True
    for _ in range(2000):
        counts = ConfusionCounts(
            rng.randint(0, 99), rng.randint(0, 99), rng.randint(0, 99), rng.randint(0, 99)
        )
        report = prf(counts)
        tp, fp, fn = counts.true_positives, counts.false_positives, counts.false_negatives
        expected_p = tp / (tp + fp) if tp + fp else 0.0
        expected_r = tp / (tp + fn) if tp + fn else 0.0
        expected_f1 = (
            2 * expected_p * expected_r / (expected_p + expected_r)
            if expected_p + expected_r
            else 0.0
        )
        property_ok = property_ok and (
            report.precision == pytest.approx(expected_p, abs=1e-15)
            and report.recall == pytest.approx(expected_r, abs=1e-15)
            and report.f1 == pytest.approx(expected_f1, abs=1e-15)
        )
    _verdict(
        5,
        arithmetic_ok and property_ok,
        f"F1(0.87, 0.98) = {headline_f1:.4f} (target 0.92 +/- 0.005); "
        f"2000 random confusion tables satisfied the identities",
    )


# -- criterion 6: fitness/MAE oracle consistency ------------------------------

def _naive_cosine(a: dict, b: dict) -> float:
    if not a or not b:
        return 0.0
    dot = sum(count * b.get(gram, 0) for gram, count in a.items())
    sq_a = sum(c * c for c in a.values())
    sq_b = sum(c * c for c in b.values())
    return min(1.0, dot / math.sqrt(sq_a * sq_b))


def _naive_fitness(keys, docs, partitions) -> float:
    grams = gram_strings(keys)
    base, rem = divmod(len(grams), partitions)
    slices, start = [], 0
    for k in range(partitions):
        size = base + 1 if k < rem else base
        part: dict = {}
        for gram in grams[start : start + size]:
            part[gram] = part.get(gram, 0) + 1
        slices.append(part)
        start += size
    counts = [dict(zip(gram_strings(d.keys), d.counts.tolist())) for d in docs]
    signatures = [[_naive_cosine(doc, part) for part in slices] for doc in counts]

    def sig_sim(x, y):
        sx = math.fsum(v * v for v in x)
        sy = math.fsum(v * v for v in y)
        if sx == 0.0 or sy == 0.0:
            return 0.0
        return min(1.0, math.fsum(p * q for p, q in zip(x, y)) / math.sqrt(sx * sy))

    errors = []
    for i in range(len(docs)):
        for j in range(i + 1, len(docs)):
            oracle = _naive_cosine(counts[i], counts[j])
            errors.append(abs(sig_sim(signatures[i], signatures[j]) - oracle))
    return math.fsum(errors) / len(errors)


def test_criterion_6_fitness_oracle_consistency():
    docs, _ = generate_synthetic_corpus(
        SyntheticCorpusSpec(
            base_doc_count=30, near_dup_count=0, dup_count=0, rng_seed=77, words_per_doc=60
        )
    )
    pool = top_k(score_grams(docs), 600)
    sample = draw_fitness_sample(docs, pool, 30, random.Random(0))
    drawn = random.Random(0).sample(docs, 30)  # the documents the sample holds
    rng = random.Random(123)
    partitions = 10
    population = [np.array(rng.choices(range(len(pool)), k=60)) for _ in range(100)]
    worst = 0.0
    for genes, ga_value in zip(population, fitness(population, sample, partitions)):
        naive_value = _naive_fitness(pool.keys[genes], drawn, partitions)
        worst = max(worst, abs(ga_value - naive_value))
    _verdict(
        6,
        worst <= 1e-12,
        f"max |GA fitness - independent recomputation| = {worst:.2e} "
        f"over 100 random chromosomes",
    )


# -- criterion 7: end-to-end determinism and formats --------------------------

def _run_pipeline(base_dir):
    corpus_dir = base_dir / "synthetic"
    ref = base_dir / "ref.txt"
    hist = base_dir / "hist.tsv"
    db = base_dir / "sigs.db"
    pairs = base_dir / "pairs.tsv"
    assert cli_main([
        "synth", "--bases", "40", "--near-dups", "12", "--dups", "8",
        "--edit-fraction", "0.1", "--seed", "9", "--words", "90",
        "--out", str(corpus_dir),
    ]) == 0
    assert cli_main([
        "train", "--corpus", str(corpus_dir / "docs"), "--pool-size", "800",
        "--ref-len", "80", "--partitions", "10", "--population", "10",
        "--generations", "6", "--sample", "30", "--runs", "2", "--seed", "9",
        "--out", str(ref), "--history", str(hist),
    ]) == 0
    assert cli_main([
        "sign", "--ref", str(ref), "--corpus", str(corpus_dir / "docs"),
        "--out", str(db),
    ]) == 0
    assert cli_main([
        "dedup", "--db", str(db), "--t1", "0.999", "--t2", "0.93",
        "--out", str(pairs),
    ]) == 0
    return ref.read_bytes(), db.read_bytes(), pairs.read_bytes()


def test_criterion_7_determinism_and_format(tmp_path):
    run_a = tmp_path / "run_a"
    run_b = tmp_path / "run_b"
    run_a.mkdir()
    run_b.mkdir()
    ref_a, db_a, pairs_a = _run_pipeline(run_a)
    ref_b, db_b, pairs_b = _run_pipeline(run_b)
    identical = ref_a == ref_b and db_a == db_b and pairs_a == pairs_b

    # database round trip is bit-exact
    loaded = db_read(run_a / "sigs.db")
    ref_obj = load_reference(run_a / "ref.txt")
    rewritten = run_a / "rewritten.db"
    db_write(rewritten, SignatureDb(ref_obj.fingerprint, loaded.ids, loaded.scores))
    round_trip = rewritten.read_bytes() == db_a

    _verdict(
        7,
        identical and round_trip,
        f"two pipeline runs byte-identical (ref {len(ref_a)}B, db {len(db_a)}B, "
        f"pairs {len(pairs_a)}B); db rewrite bit-exact",
    )


# -- criterion 8: runtime scales with population size -------------------------

def test_criterion_8_population_runtime_trend():
    docs, _ = generate_synthetic_corpus(
        SyntheticCorpusSpec(
            base_doc_count=130, near_dup_count=12, dup_count=8,
            edit_fraction=0.10, rng_seed=17,
        )
    )

    def generation_times(population: int) -> list[float]:
        cfg = GaConfig(
            population_size=population, ref_len=120, partitions=15, pool_size=1500,
            max_generations=10, sample_size=60, rng_seed=3,
        )
        return [s.elapsed_s for s in evolve(docs, cfg).history[1:]]

    # The two sizes run in turn, six rounds each, so that a burst of load on
    # a shared host slows both. Each size keeps the lowest of its rounds'
    # median generation times: a burst must slow all six rounds of one size
    # to move the ratio.
    medians: dict[int, list[float]] = {50: [], 100: []}
    for _ in range(6):
        for population, rounds in medians.items():
            rounds.append(statistics.median(generation_times(population)))
    t50, t100 = (min(medians[p]) for p in (50, 100))
    ratio = t100 / t50
    _verdict(
        8,
        1.5 <= ratio <= 2.5,
        f"lowest round median per-generation time: pop50 {t50 * 1000:.0f}ms, "
        f"pop100 {t100 * 1000:.0f}ms, ratio {ratio:.2f} (bounds [1.5, 2.5])",
    )
