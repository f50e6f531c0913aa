"""Self-tests of the benchmark: the input generator, the output checks and
the tracer. They run the real refsig CLI on small inputs.

Run from the repository root:

    python3 bench/selftest.py

Prints one line per test and exits nonzero at the first failure.
"""

from __future__ import annotations

import contextlib
import hashlib
import re
import shutil
import sys
from pathlib import Path

import run  # first: caps BLAS threads before numpy loads
import gen
import numpy as np
import oracle
from oracle import CheckError
from tracing import Tracer, self_times

SEED = 11

SMALL = {
    "TRAIN_CORPUS": gen.CorpusSpec(bases=60, near_dups=10, dups=6),
    "HOLDOUT_CORPUS": gen.CorpusSpec(bases=30, near_dups=6, dups=4),
    "SIGN_DEDUP_CORPUS": gen.CorpusSpec(bases=40, near_dups=8, dups=6, markup=True),
    "POOL_CORPUS": gen.CorpusSpec(bases=60, near_dups=10, dups=6),
    "POOL_K": 400,
    "REF_LEN": 60,
    "PARTITIONS": 10,
    "TRAIN_GA": {"population": 8, "generations": 2, "sample": 20, "runs": 1},
}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def expect_check_error(check, *args) -> str:
    try:
        check(*args)
    except CheckError as exc:
        return str(exc)
    raise AssertionError(f"{check.__name__} accepted a corrupted output")


@contextlib.contextmanager
def small_workloads():
    saved = {name: getattr(run, name) for name in SMALL}
    for name, value in SMALL.items():
        setattr(run, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(run, name, value)


def operation(name: str, tmp: Path):
    """Set up one small workload and run its operation once; (inputs, outputs)."""
    workload = run.WORKLOADS[name]
    inp = workload.setup(tmp / name / "inputs", SEED)
    (tmp / name / "out").mkdir()
    steps = workload.steps(inp, tmp / name / "out")
    for argv in steps:
        run.refsig_cli(*(a.replace("{op}", "0") for a in argv))
    return inp, run.outputs(steps, 0)


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def test_generator(tmp: Path) -> None:
    spec = gen.CorpusSpec(bases=200, near_dups=20, dups=20, markup=True)
    digests = []
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        corpus = gen.make_corpus(spec, seed, "sign_dedup")
        gen.write_corpus(corpus, tmp / label / "docs", tmp / label / "labels.tsv")
        digests.append(tree_digest(tmp / label))
    expect(digests[0] == digests[1], "the same seed gave different files")
    expect(digests[0] != digests[2], "different seeds gave the same files")
    text = "".join(gen.make_corpus(spec, 5, "sign_dedup").texts.values())
    for feature, present in (("non-BMP code point", any(ord(c) > 0xFFFF for c in text)),
                             ("tab", "\t" in text), ("newline", "\n" in text),
                             ("double space", "  " in text), ("tag", "<b>" in text),
                             ("upper case", any(c.isupper() for c in text))):
        expect(present, f"generated text has no {feature}")


def test_checks_catch_corruption(tmp: Path) -> None:
    with small_workloads():
        # train: an edited gram, with and without a matching sha256 trailer
        inp, (ref_path, history) = operation("train", tmp)
        run.check_train(inp, [ref_path, history])
        lines = ref_path.read_text(encoding="utf-8").split("\n")
        edited = tmp / "ref-edited.txt"
        oracle.write_reference(edited, run.PARTITIONS, lines[1:-2][:-1] + ["☃☃☃"])
        expect_check_error(run.check_train, inp, [edited, history])
        edited.write_text("\n".join(lines[:5] + ["☃☃☃"] + lines[6:]), encoding="utf-8")
        expect_check_error(run.check_train, inp, [edited, history])

        # sign_dedup: one score moved by 1e-6 in the db, checksum recomputed
        inp, (db_path, pairs_path) = operation("sign_dedup", tmp)
        run.check_sign_dedup(inp, [db_path, pairs_path])
        db = oracle.read_db(db_path)
        data = bytearray(db_path.read_bytes()[: -oracle.DIGEST_BYTES])
        payload = data.find(b"%%\n") + 3
        id_bytes = int(re.search(rb"id_bytes=(\d+)", data).group(1))
        offset = payload + 7 * (id_bytes + 4 * db.partitions) + id_bytes + 4 * 3
        value = db.rows[7, 3] + np.float32(1e-6)
        data[offset : offset + 4] = value.astype("<f4").tobytes()
        corrupted = tmp / "sigs-corrupted.db"
        corrupted.write_bytes(bytes(data) + hashlib.sha256(bytes(data)).digest())
        expect(oracle.read_db(corrupted).rows[7, 3] == value, "the corruption landed elsewhere")
        expect_check_error(run.check_sign_dedup, inp, [corrupted, pairs_path])

        # sign_dedup: one flipped label in pairs.tsv
        rows = pairs_path.read_text(encoding="utf-8").split("\n")
        expect(len(rows) > 2, "the small dedup run found no pairs")
        a, b, sim, label = rows[1].split("\t")
        flipped = "near-duplicate" if label == "duplicate" else "duplicate"
        corrupted = tmp / "pairs-flipped.tsv"
        corrupted.write_text("\n".join([rows[0], f"{a}\t{b}\t{sim}\t{flipped}"] + rows[2:]), encoding="utf-8")
        expect_check_error(run.check_sign_dedup, inp, [db_path, corrupted])


def test_failed_operations_are_counted(tmp: Path) -> None:
    with small_workloads():
        inp, first = operation("sign_dedup", tmp)
        steps = run.WORKLOADS["sign_dedup"].steps(inp, tmp / "sign_dedup" / "out")
        for src, dst in zip(first, run.outputs(steps, 1)):
            shutil.copy(src, dst)
        shutil.copy(first[0], run.outputs(steps, 2)[0])
        run.outputs(steps, 2)[1].write_text("id_a\tid_b\tsimilarity\tlabel\n", encoding="utf-8")
        ops = [{"rc": 0}, {"rc": 0}, {"rc": 0}, {"rc": 1, "error": None, "output": "boom"}]
        problems, quality = run._check_ops(run.WORKLOADS["sign_dedup"], inp, steps, ops)
        expect(len(problems) == 2, f"expected operations 2 and 3 to fail, got {problems}")
        expect(quality is not None and 0.0 < quality["f1"] <= 1.0, f"bad quality {quality}")


def test_span_self_times(tmp: Path) -> None:
    import refsig.ga

    original = refsig.ga.fitness
    with small_workloads():
        inp = run.WORKLOADS["train"].setup(tmp / "traced" / "inputs", SEED)
        (argv,) = run.WORKLOADS["train"].steps(inp, tmp / "traced")
        tracer = Tracer()
        tracer.install()
        try:
            run.refsig_cli(*(a.replace("{op}", "0") for a in argv))
        finally:
            tracer.uninstall()
    expect(refsig.ga.fitness is original, "uninstall left a wrapper behind")
    spans = tracer.spans
    roots = [k for k, s in enumerate(spans) if s[3] < 0]
    expect([spans[k][0] for k in roots] == ["cli.main"], f"roots are {[spans[k][0] for k in roots]}")
    names = {s[0] for s in spans}
    for name in ("cli.cmd_train", "ga.fitness", "reference.signature_matrix", "reference.sign",
                 "text.brute_force_pairwise", "store.ingest", "ga.Chromosome.content_hash"):
        expect(name in names, f"no span for {name}")
    own = self_times(spans)
    expect(min(own) >= 0.0, f"negative self time {min(own)}")
    root_s = spans[roots[0]][2] - spans[roots[0]][1]
    expect(abs(sum(own) - root_s) <= 1e-9 * max(1.0, root_s), f"self times sum to {sum(own)}, root {root_s}")


TESTS = (test_generator, test_checks_catch_corruption, test_failed_operations_are_counted,
         test_span_self_times)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    for test in TESTS:
        tmp = run.WORK / "selftest" / test.__name__
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        try:
            test(tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        print(f"ok {test.__name__}")
    print(f"selftest: {len(TESTS)} passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
