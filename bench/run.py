"""Benchmark of the refsig command line: the train and sign_dedup workloads.

Run from the repository root:

    python3 bench/run.py --workload {train,sign_dedup} --seed N --seconds S --trace {0,1}

One run builds the workload's inputs from the seed (the set-up, repeated
and timed), runs the measured CLI operation back to back for S seconds in a
fresh worker process, checks every output against the benchmark's own
oracle, and prints each metric by name with its unit. Times are normalized
for the host's speed around the moment they were taken (see calib.py). The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of one extra traced operation with --trace 1. See
bench/README.md.
"""

from __future__ import annotations

import os

# The program is single-threaded Python; only BLAS may use threads. Cap them
# at one before numpy is imported, here and in the worker: both processes
# are pinned to one core (see CPU), where a second thread could only compete.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import io
import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import calib
import gen
import oracle
from oracle import CheckError
from tracing import summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKER = Path(__file__).resolve().parent / "worker.py"

RUN_LIMIT_S = 170.0
CPU = min(os.sched_getaffinity(0))
SETUP_REPEATS = 5
POOL_K = 3000
REF_LEN = 1000
PARTITIONS = 150
T1, T2 = 0.999, 0.93
SIM_TOLERANCE = 1e-9
QUALITY_SAMPLE = 200

# Sized so that one operation takes 2 to 4 s and a 40 s run times 9 or more.
TRAIN_CORPUS = gen.CorpusSpec(bases=320, near_dups=64, dups=32)
HOLDOUT_CORPUS = gen.CorpusSpec(bases=280, near_dups=80, dups=40)
SIGN_DEDUP_CORPUS = gen.CorpusSpec(bases=960, near_dups=300, dups=140, markup=True)
POOL_CORPUS = gen.CorpusSpec(bases=400, near_dups=80, dups=40)
# The sign_dedup reference does not depend on the workload seed: drawn per
# seed, its signature error varied from 0.04 to 0.10 across seeds, which
# would drown any change the program makes. Only the documents vary.
REFERENCE_SEED = 0
# The held-out documents that score a trained reference are fixed too, so
# that only the reference varies with the seed.
HOLDOUT_SEED = 0
TRAIN_GA = {"population": 40, "generations": 2, "sample": 40, "runs": 1}

END_TO_END = (
    ("setup_s", "s"),
    ("op_s", "s"),
    ("peak_rss_mb", "MB"),
    ("signature_mae", "cosine"),
    ("f1", "ratio"),
)

PER_LAYER = (
    ("ga.fitness.calls", "count"),
    ("ga.fitness.ms_per_call", "ms"),
    ("ga.evals_per_s", "1/s"),
    ("reference.signature_matrix.self_s", "s"),
    ("reference.sign.self_s", "s"),
    ("reference.sign.calls", "count"),
    ("reference.ReferenceText.self_s", "s"),
    ("reference.ReferenceText.calls", "count"),
    ("reference.mean_signature_error.self_s", "s"),
    ("ga.evolve.self_s", "s"),
    ("ga.Chromosome.content_hash.self_s", "s"),
    ("ga.draw_fitness_sample.self_s", "s"),
    ("text.brute_force_pairwise.self_s", "s"),
    ("text.brute_force_pairwise.pairs_per_s", "1/s"),
    ("evaluate.mae.self_s", "s"),
    ("evaluate.cross_validate.self_s", "s"),
    ("tfidf.score_grams.self_s", "s"),
    ("tfidf.top_k.self_s", "s"),
    ("tfidf.pool_fill_ratio", "ratio"),
    ("store.ingest.self_s", "s"),
    ("store.ingest.docs_per_s", "1/s"),
    ("store.ingest.mb_per_s", "MB/s"),
    ("store.strip_html.self_s", "s"),
    ("text.Document.from_raw.self_s", "s"),
    ("text.normalize.self_s", "s"),
    ("text.extract_3grams.self_s", "s"),
    ("reference.sign.docs_per_s", "1/s"),
    ("store.db_write.self_s", "s"),
    ("store.db_write.mb_per_s", "MB/s"),
    ("store.db_bytes_per_doc", "B"),
    ("reference.load_reference.self_s", "s"),
    ("evaluate.dnd_scan.self_s", "s"),
    ("evaluate.dnd_scan.pairs_per_s", "1/s"),
    ("evaluate.dnd_scan.hit_ratio", "ratio"),
    ("reference.pairwise_signature_similarity.self_s", "s"),
    ("store.db_read.self_s", "s"),
    ("store.db_read.mb_per_s", "MB/s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class SetupError(RuntimeError):
    """The benchmark could not build its inputs."""


def refsig_cli(*argv) -> None:
    """Run one refsig command in this process for set-up; raise on failure."""
    import refsig.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = refsig.cli.main([str(a) for a in argv])
    if rc != 0:
        raise SetupError(f"refsig {argv[0]} exited {rc}: {out.getvalue()[-2000:]}")


# ---------------------------------------------------------------------------
# Set-up: the inputs of one operation


@dataclass
class Inputs:
    seed: int
    corpus: gen.Corpus
    corpus_bytes: int
    docs: Path
    ref: Path | None = None


def _write(spec: gen.CorpusSpec, seed: int, stream: str, into: Path) -> tuple[gen.Corpus, int]:
    corpus = gen.make_corpus(spec, seed, stream)
    return corpus, gen.write_corpus(corpus, into / "docs", into / "labels.tsv")


def setup_train(into: Path, seed: int) -> Inputs:
    """The corpus."""
    corpus, nbytes = _write(TRAIN_CORPUS, seed, "train", into)
    return Inputs(seed, corpus, nbytes, into / "docs")


def setup_sign_dedup(into: Path, seed: int) -> Inputs:
    """The corpus, and a reference drawn with a fixed seed from the top
    tf-idf pool of a fixed 520-document sample of the same language."""
    corpus, nbytes = _write(SIGN_DEDUP_CORPUS, seed, "sign_dedup", into)
    _write(POOL_CORPUS, REFERENCE_SEED, "pool", into / "pool")
    pool = into / "pool.txt"
    refsig_cli("topk", "--corpus", into / "pool" / "docs", "--html-strip", "--k", POOL_K, "--out", pool)
    lines = pool.read_text(encoding="utf-8").split("\n")[:-1]
    ref = into / "ref.txt"
    oracle.write_reference(ref, PARTITIONS, random.Random(REFERENCE_SEED).choices(lines, k=REF_LEN))
    return Inputs(seed, corpus, nbytes, into / "docs", ref)


# ---------------------------------------------------------------------------
# The measured operation: CLI steps run back to back ("{op}" is its index)


def steps_train(inp: Inputs, out: Path) -> list[list[str]]:
    ga = [str(a) for key, value in TRAIN_GA.items() for a in (f"--{key}", value)]
    return [["train", "--corpus", str(inp.docs), "--pool-size", str(POOL_K), "--ref-len", str(REF_LEN),
             "--partitions", str(PARTITIONS), *ga, "--seed", str(inp.seed),
             "--out", str(out / "ref-{op}.txt"), "--history", str(out / "history-{op}.tsv")]]


def steps_sign_dedup(inp: Inputs, out: Path) -> list[list[str]]:
    db = str(out / "sigs-{op}.db")
    return [["sign", "--ref", str(inp.ref), "--corpus", str(inp.docs), "--html-strip", "--out", db],
            ["dedup", "--db", db, "--t1", str(T1), "--t2", str(T2), "--ref", str(inp.ref),
             "--out", str(out / "pairs-{op}.tsv")]]


def outputs(steps: list[list[str]], index: int) -> list[Path]:
    """The files one operation writes, in order."""
    found = dict.fromkeys(a for argv in steps for a in argv if "{op}" in a)
    return [Path(a.replace("{op}", str(index))) for a in found]


def stable_bytes(path: Path) -> bytes:
    """An output's bytes, less the timing column of a training history."""
    data = path.read_bytes()
    if path.name.startswith("history-"):
        return b"\n".join(line.rpartition(b"\t")[0] for line in data.split(b"\n"))
    return data


# ---------------------------------------------------------------------------
# Checks: each raises CheckError and otherwise returns the quality metrics


def _truth(corpus: gen.Corpus) -> set[tuple[str, str]]:
    return {(a, b) for a, b, _ in corpus.labels}


def _mae(signatures: np.ndarray, counters) -> float:
    return oracle.signature_mae(signatures, oracle.exact_cosine_matrix(counters))


def check_train(inp: Inputs, outs: list[Path]) -> dict[str, float]:
    ref_path, history_path = outs
    ref = oracle.read_reference(ref_path)
    if (ref.partitions, len(ref.grams)) != (PARTITIONS, REF_LEN):
        raise CheckError(f"reference has P={ref.partitions} and {len(ref.grams)} grams")
    counters = (oracle.document_grams(t) for t in inp.corpus.texts.values())
    pool = oracle.training_pool(len(inp.corpus.texts), counters, inp.seed, POOL_K)
    foreign = set(ref.grams) - pool
    if foreign:
        raise CheckError(f"{len(foreign)} reference grams are not in the training pool")
    rows = history_path.read_text(encoding="utf-8").split("\n")[1:-1]
    best = [float(row.split("\t")[1]) for row in rows]
    if len(best) != TRAIN_GA["generations"] + 1 or any(b > a for a, b in zip(best, best[1:])):
        raise CheckError(f"history best_mae {best} is not non-increasing over every generation")
    # Quality of the written reference on documents the trainer never saw.
    holdout = gen.make_corpus(HOLDOUT_CORPUS, HOLDOUT_SEED, "holdout")
    held = [oracle.document_grams(t) for t in holdout.texts.values()]
    sign = oracle.SignatureOracle(ref).sign
    signatures = np.array([sign(c) for c in held])
    return {
        "signature_mae": _mae(signatures, held),
        "f1": oracle.f1(oracle.scan_pairs(list(holdout.texts), signatures, T2), _truth(holdout)),
    }


def check_db(inp: Inputs, db_path: Path) -> tuple[oracle.Db, float]:
    """Every record against the pure-Python signature of its document;
    returns the db and the signature MAE of a seeded sample of it."""
    db = oracle.read_db(db_path)
    ref = oracle.read_reference(inp.ref)
    if db.fingerprint != ref.fingerprint or db.partitions != PARTITIONS:
        raise CheckError("database is not bound to the reference")
    if db.ids != tuple(inp.corpus.texts):
        raise CheckError(f"database holds {len(db.ids)} records whose ids differ from the corpus")
    sign = oracle.SignatureOracle(ref).sign
    sample = oracle.sample_indices(len(db.ids), QUALITY_SAMPLE, f"quality:{inp.seed}")
    wanted, sampled, expected = set(sample), [], []
    for k, text in enumerate(inp.corpus.texts.values()):
        counts = oracle.document_grams(text, html_strip=True)
        expected.append(sign(counts))
        if k in wanted:
            sampled.append(counts)
    expected = np.array(expected)
    bad = ~np.isclose(db.rows, expected, rtol=2.0**-23, atol=0.0)
    if bad.any():
        k = int(np.nonzero(bad.any(axis=1))[0][0])
        worst = float(np.max(np.abs(db.rows[k] - expected[k])))
        raise CheckError(f"signature of {db.ids[k]} differs from the oracle by {worst:.3g}")
    return db, _mae(db.rows[sample].astype(np.float64), sampled)


def read_pairs(path: Path) -> list[tuple[str, str, float, str]]:
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[0] != "id_a\tid_b\tsimilarity\tlabel" or lines[-1] != "":
        raise CheckError(f"{path.name}: bad header or missing final newline")
    rows = []
    for line in lines[1:-1]:
        a, b, sim, lab = line.split("\t")
        rows.append((a, b, float(sim), lab))
    keys = [r[:2] for r in rows]
    if keys != sorted(set(keys)) or any(a >= b for a, b in keys):
        raise CheckError(f"{path.name}: pairs are not canonical, unique and sorted")
    return rows


def check_pairs(db: oracle.Db, pairs_path: Path) -> tuple[set[tuple[str, str]], int]:
    """The emitted pairs against all pairs recomputed from the db's float32
    rows; returns the emitted pairs and the count of borderline ones."""
    emitted = {(a, b): (sim, lab) for a, b, sim, lab in read_pairs(pairs_path)}
    expected = oracle.scan_pairs(db.ids, db.rows, T2 - SIM_TOLERANCE)
    borderline = 0
    for key in emitted.keys() | expected.keys():
        want = expected.get(key)
        got = emitted.get(key)
        near = want is not None and min(abs(want - T1), abs(want - T2)) <= SIM_TOLERANCE
        borderline += near
        if want is None or got is None:
            if near:
                continue
            raise CheckError(f"pair {key} is {'missing' if got is None else 'not a hit'}")
        if abs(got[0] - want) > SIM_TOLERANCE:
            raise CheckError(f"pair {key}: similarity {got[0]} vs recomputed {want}")
        if not near and got[1] != oracle.label(want, T1, T2):
            raise CheckError(f"pair {key}: label {got[1]} vs recomputed {oracle.label(want, T1, T2)}")
    return set(emitted), borderline


def check_sign_dedup(inp: Inputs, outs: list[Path]) -> dict[str, float]:
    db_path, pairs_path = outs
    db, mae = check_db(inp, db_path)
    emitted, borderline = check_pairs(db, pairs_path)
    return {"signature_mae": mae, "f1": oracle.f1(emitted, _truth(inp.corpus)),
            "borderline_pairs": borderline}


@dataclass(frozen=True)
class Workload:
    setup: Callable[[Path, int], Inputs]
    steps: Callable[[Inputs, Path], list[list[str]]]
    check: Callable[[Inputs, list[Path]], dict[str, float]]


WORKLOADS = {
    "train": Workload(setup_train, steps_train, check_train),
    "sign_dedup": Workload(setup_sign_dedup, steps_sign_dedup, check_sign_dedup),
}


# ---------------------------------------------------------------------------
# Metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(result: dict, summary: dict, inp: Inputs, steps: list[list[str]]) -> dict[str, float]:
    """Per-layer metrics of the traced operation; 0 for a layer it did not reach."""

    def span(name: str) -> dict[str, float]:
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def work(name: str, key: str) -> float:
        return result["work"].get(name, {}).get(key, 0.0)

    m: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        if name.endswith(".self_s"):
            m[name] = span(name[: -len(".self_s")])["self_s"]
        elif name.endswith(".calls"):
            m[name] = span(name[: -len(".calls")])["calls"]
    fitness, sign = span("ga.fitness"), span("reference.sign")
    ingest, write, read = span("store.ingest"), span("store.db_write"), span("store.db_read")
    m["ga.fitness.ms_per_call"] = 1000.0 * _ratio(fitness["total_s"], fitness["calls"])
    m["ga.evals_per_s"] = _ratio(fitness["calls"], span("ga.evolve")["total_s"])
    m["text.brute_force_pairwise.pairs_per_s"] = _ratio(
        work("text.brute_force_pairwise", "pairs"), span("text.brute_force_pairwise")["total_s"])
    m["tfidf.pool_fill_ratio"] = _ratio(work("tfidf.top_k", "grams"), work("tfidf.top_k", "requested"))
    m["store.ingest.docs_per_s"] = _ratio(len(inp.corpus.texts) * ingest["calls"], ingest["total_s"])
    m["store.ingest.mb_per_s"] = _ratio(inp.corpus_bytes * ingest["calls"] / 1e6, ingest["total_s"])
    m["reference.sign.docs_per_s"] = _ratio(sign["calls"], sign["total_s"])
    written = [p for p in outputs(steps, len(result["ops"])) if p.suffix == ".db"]
    db_bytes = written[0].stat().st_size if written else 0
    m["store.db_bytes_per_doc"] = _ratio(db_bytes, len(inp.corpus.texts))
    m["store.db_write.mb_per_s"] = _ratio(db_bytes * write["calls"] / 1e6, write["total_s"])
    m["store.db_read.mb_per_s"] = _ratio(db_bytes * read["calls"] / 1e6, read["total_s"])
    m["evaluate.dnd_scan.pairs_per_s"] = _ratio(work("evaluate.dnd_scan", "pairs"), span("evaluate.dnd_scan")["total_s"])
    m["evaluate.dnd_scan.hit_ratio"] = _ratio(work("evaluate.dnd_scan", "hits"), work("evaluate.dnd_scan", "pairs"))
    m["cli.self_s"] = sum(v["self_s"] for k, v in summary.items() if k.startswith("cli."))
    untraced = statistics.median(op["seconds"] for op in result["ops"][1:])
    m["trace.overhead_s"] = result["traced"]["seconds"] - untraced
    return m


def named_figures(name: str, inp: Inputs, quality: dict | None, ops: list[dict]):
    """The workload's own figures (train_s, sign_docs_per_s, ...), from the
    operations that exited 0; none when no output passed its check."""
    if not ops or quality is None:
        return []
    if name == "train":
        return [("train_s", statistics.median(op["seconds"] for op in ops), "s"),
                ("holdout_mae", quality["signature_mae"], "cosine")]
    n = len(inp.corpus.texts)
    sign_s, dedup_s = (statistics.median(op["steps_s"][k] for op in ops) for k in (0, 1))
    return [("sign_docs_per_s", n / sign_s, "1/s"), ("dedup_pairs_per_s", n * (n - 1) / 2 / dedup_s, "1/s"),
            ("borderline_pairs", quality["borderline_pairs"], "count")]


def environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python {sys.version.split()[0]}, numpy {np.__version__}, "
            f"BLAS {blas['name']} {blas['version']}, nproc {os.cpu_count()}, "
            f"BLAS thread cap {BLAS_THREADS}")


# ---------------------------------------------------------------------------
# One run


def _check_ops(workload: Workload, inp: Inputs, steps: list[list[str]], ops: list[dict]):
    """Check every operation: the first that exits 0 against the oracle, the
    rest for byte-identical outputs. Returns (failures, quality)."""
    problems: list[str] = []
    quality = None
    first_bytes = None
    for index, op in enumerate(ops):
        paths = outputs(steps, index)
        try:
            if op["rc"] != 0:
                raise CheckError(f"exit code {op['rc']}: {op['error'] or op['output'][-800:]}")
            data = [stable_bytes(p) for p in paths]
            if quality is None:
                quality = workload.check(inp, paths)
                first_bytes = data
            elif data != first_bytes:
                raise CheckError("outputs differ from those of the first operation")
        except Exception as exc:  # any defect in an output fails that operation
            problems.append(f"operation {index}: {type(exc).__name__}: {exc}")
    return problems, quality


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()

    if not (SRC / "refsig" / "__init__.py").is_file():
        print(f"error: refsig sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import refsig

    if Path(refsig.__file__).resolve().parent != (SRC / "refsig").resolve():
        print(f"error: imported refsig from {refsig.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # Operations and calibration rounds run on one core, so that both see
    # the same neighbours; set-up runs there too.
    os.sched_setaffinity(0, {CPU})
    workload = WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    # Every set-up regenerates all inputs from the seed into the same
    # directory, so only the first creates the files; later ones rewrite them.
    # Creating the same thousand files took 0.03 to 0.6 s from one moment to
    # the next on a shared disk, a cost of the host, which the median leaves out.
    # Each set-up is normalized by the calibration rounds around it.
    (work / "inputs").mkdir(parents=True)
    setup_s = []
    try:
        before = calib.host_factor()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            inp = workload.setup(work / "inputs", args.seed)
            seconds = time.perf_counter() - start
            after = calib.host_factor()
            setup_s.append(seconds / ((before + after) / 2))
            before = after
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1

    (work / "out").mkdir()
    steps = workload.steps(inp, work / "out")
    plan = {"cpu": CPU, "src": str(SRC), "steps": steps, "seconds": args.seconds,
            "trace": bool(args.trace), "spans": str(work / "spans.json")}
    (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), str(work / "plan.json"), str(work / "result.json")],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, RUN_LIMIT_S - (time.perf_counter() - began)))
    except subprocess.TimeoutExpired:
        print("error: the measured operations did not finish in time", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: worker exited {proc.returncode}:\n{proc.stderr[-4000:]}", file=sys.stderr)
        return 1
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    ops = result["ops"] + ([result["traced"]] if args.trace else [])

    problems, quality = _check_ops(workload, inp, steps, ops)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    timed = result["ops"][1:]  # the first is the untimed warm-up
    times = [op["seconds"] for op in timed]
    factors = [op["host_factor"] for op in timed]
    e2e = {
        "setup_s": statistics.median(setup_s),
        "op_s": statistics.median(t / f for t, f in zip(times, factors)),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    # With no output that passed its check there is no quality to report:
    # the result line leaves these metrics out rather than show a best case.
    if quality is not None:
        e2e.update(signature_mae=quality["signature_mae"], f1=quality["f1"])
    print(f"# {args.workload} seed {args.seed}: {environment()}")
    print(f"# operation wall seconds: {', '.join(f'{t:.3f}' for t in times)}")
    print(f"# host factors: {', '.join(f'{f:.3f}' for f in factors)}")
    print(f"# {len(times)} timed untraced operations in {sum(times):.2f} s after one warm-up, "
          f"closed loop, one client; op_s is the median of wall seconds / host factor (no high "
          f"percentile: under 10 samples beyond it), raw median {statistics.median(times):.4g} s; "
          f"setup_s is the median of {SETUP_REPEATS} normalized set-ups")
    if args.trace:
        spans = json.loads(Path(plan["spans"]).read_text(encoding="utf-8"))
        summary = summarize(spans)
        metrics = layer_metrics(result, summary, inp, steps)
        units = PER_LAYER
        root = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
        print(f"# traced operation {result['traced']['seconds']:.3f} s, root spans cover {root:.3f} s; "
              f"{len(spans)} spans in {plan['spans']}")
        for name in sorted(summary, key=lambda k: -summary[k]["self_s"])[:5]:
            parents = {spans[s[3]][0] for s in spans if s[0] == name and s[3] >= 0} or {"-"}
            print(f"# self {summary[name]['self_s']:.3f} s in {name} (under {', '.join(sorted(parents))})")
    else:
        metrics, units = e2e, END_TO_END
    succeeded = [op for op in timed if op["rc"] == 0]
    for name, unit in END_TO_END:
        print(f"{name} = {e2e[name]:.6g} {unit}" if name in e2e else f"{name} = n/a (no output passed)")
    for name, value, unit in named_figures(args.workload, inp, quality, succeeded):
        print(f"{name} = {value:.6g} {unit}")
    if args.trace:
        for name, unit in PER_LAYER:
            print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"ops_failed = {len(problems)}/{len(ops)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(problems),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
