"""The benchmark's own implementation of the refsig spec, used to check outputs.

Nothing here imports refsig: a check that reused the code under test would
agree with any defect in it. The definitions follow the README and the
module docstrings of the program:

- normalize: NFC, casefold, NFC, whitespace runs to one space, repeated
  until the text stops changing; ``--html-strip`` replaces tags with a
  space and decodes entities first;
- a document vector counts every 3-character window of the normalized text;
- cosine is dot / sqrt(|a|^2 |b|^2) on exact integer counts, capped at 1.0;
- a signature is the cosine against each of P contiguous, near-equal
  reference partitions, the remainder going to the first partitions;
- files: reference (``P=`` header, escaped gram lines, ``sha256=`` trailer)
  and signature database (text header, fixed-width records, SHA-256 tail).
"""

from __future__ import annotations

import hashlib
import html
import math
import random
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

NGRAM = 3
DIGEST_BYTES = 32
SCAN_BLOCK = 512

_TAG_RE = re.compile(r"<[^>]*>")
_UNESCAPES = {"n": 0x0A, "t": 0x09, "\\": 0x5C}


class CheckError(ValueError):
    """An output of the program disagrees with the spec."""


# ---------------------------------------------------------------------------
# Text


def normalize(raw: str) -> str:
    def fold(text: str) -> str:
        text = unicodedata.normalize("NFC", text).casefold()
        return " ".join(unicodedata.normalize("NFC", text).split())

    text = fold(raw)
    for _ in range(16):
        again = fold(text)
        if again == text:
            return text
        text = again
    raise CheckError("normalization does not reach a fixed point")


def strip_html(raw: str) -> str:
    return html.unescape(_TAG_RE.sub(" ", raw))


def grams(text: str) -> Counter:
    return Counter(text[i : i + NGRAM] for i in range(len(text) - NGRAM + 1))


def document_grams(raw: str, html_strip: bool = False) -> Counter:
    return grams(normalize(strip_html(raw) if html_strip else raw))


# ---------------------------------------------------------------------------
# Reference file and signatures


def unescape_gram(line: str) -> str:
    buf = bytearray()
    i = 0
    while i < len(line):
        ch = line[i]
        if ch != "\\":
            buf += ch.encode("utf-8")
            i += 1
        elif line[i + 1 : i + 2] in _UNESCAPES:
            buf.append(_UNESCAPES[line[i + 1]])
            i += 2
        elif line[i + 1 : i + 2] == "x" and len(line[i + 2 : i + 4]) == 2:
            buf.append(int(line[i + 2 : i + 4], 16))
            i += 4
        else:
            raise CheckError(f"bad escape in gram line {line!r}")
    gram = buf.decode("utf-8")
    if len(gram) != NGRAM:
        raise CheckError(f"gram line {line!r} decodes to {len(gram)} characters")
    return gram


def write_reference(path: Path, partitions: int, gram_lines: Sequence[str]) -> None:
    """Write a reference file from already-escaped gram lines."""
    body = f"P={partitions}\n" + "".join(line + "\n" for line in gram_lines)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    path.write_bytes(f"{body}sha256={digest}\n".encode("utf-8"))


@dataclass(frozen=True)
class Reference:
    partitions: int
    grams: tuple[str, ...]
    fingerprint: str


def read_reference(path: Path) -> Reference:
    text = path.read_bytes().decode("utf-8")
    if not text.endswith("\n"):
        raise CheckError(f"{path.name}: missing final newline")
    lines = text[:-1].split("\n")
    if len(lines) < 3 or not lines[0].startswith("P=") or not lines[-1].startswith("sha256="):
        raise CheckError(f"{path.name}: not a reference file")
    body = text[: text.rindex("sha256=")]
    fingerprint = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if lines[-1] != f"sha256={fingerprint}":
        raise CheckError(f"{path.name}: sha256 trailer does not match the content")
    return Reference(int(lines[0][2:]), tuple(unescape_gram(l) for l in lines[1:-1]), fingerprint)


class SignatureOracle:
    """Pure-Python signing: one Counter per partition, exact integer dots."""

    def __init__(self, ref: Reference):
        base, rem = divmod(len(ref.grams), ref.partitions)
        self.parts: list[Counter] = []
        start = 0
        for k in range(ref.partitions):
            size = base + (1 if k < rem else 0)
            self.parts.append(Counter(ref.grams[start : start + size]))
            start += size
        self.part_sq = [sum(c * c for c in part.values()) for part in self.parts]

    def sign(self, counts: Counter) -> list[float]:
        if not counts:
            return [0.0] * len(self.parts)
        sq = sum(c * c for c in counts.values())
        return [
            min(1.0, sum(c * counts.get(g, 0) for g, c in part.items()) / math.sqrt(sq * psq))
            for part, psq in zip(self.parts, self.part_sq)
        ]


# ---------------------------------------------------------------------------
# Signature database


@dataclass(frozen=True)
class Db:
    fingerprint: str
    partitions: int
    ids: tuple[str, ...]
    rows: np.ndarray  # (N, P) float32 as stored


def read_db(path: Path) -> Db:
    data = path.read_bytes()
    body, digest = data[:-DIGEST_BYTES], data[-DIGEST_BYTES:]
    if len(data) < DIGEST_BYTES or hashlib.sha256(body).digest() != digest:
        raise CheckError(f"{path.name}: checksum mismatch")
    sep = body.find(b"%%\n")
    lines = body[:sep].decode("ascii").split("\n") if sep >= 0 else []
    if not lines or lines[0] != "refsig-db 1":
        raise CheckError(f"{path.name}: not a signature database")
    fields = dict(line.split("=", 1) for line in lines[1:] if line)
    partitions, count, id_bytes = (int(fields[k]) for k in ("partitions", "records", "id_bytes"))
    record = np.dtype([("id", f"S{id_bytes}"), ("scores", "<f4", (partitions,))])
    payload = body[sep + 3 :]
    if len(payload) != count * record.itemsize:
        raise CheckError(f"{path.name}: payload does not hold {count} records")
    records = np.frombuffer(payload, dtype=record)
    ids = tuple(raw.decode("utf-8") for raw in records["id"])
    return Db(fields["fingerprint"], partitions, ids, records["scores"].copy())


# ---------------------------------------------------------------------------
# Similarities, pair scans, quality


def exact_cosine_matrix(counters: Sequence[Counter]) -> np.ndarray:
    """All-pairs exact 3-gram cosine. Counts are small integers, so float64
    dot products are exact and the result equals the scalar definition."""
    vocab: dict[str, int] = {}
    for c in counters:
        for g in c:
            vocab.setdefault(g, len(vocab))
    dense = np.zeros((len(counters), max(len(vocab), 1)))
    for i, c in enumerate(counters):
        dense[i, [vocab[g] for g in c]] = list(c.values())
    return _cosine_rows(dense, dense)


def _cosine_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    dots = a @ b.T
    denom = np.sqrt(np.outer(np.einsum("ij,ij->i", a, a), np.einsum("ij,ij->i", b, b)))
    sims = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)
    return np.minimum(sims, 1.0)


def signature_mae(signatures: np.ndarray, exact: np.ndarray) -> float:
    """Mean |signature cosine - exact cosine| over the unordered pairs."""
    sims = _cosine_rows(signatures, signatures)
    iu = np.triu_indices(len(signatures), k=1)
    return float(np.mean(np.abs(sims[iu] - exact[iu])))


def scan_pairs(ids: Sequence[str], rows: np.ndarray, floor: float) -> dict[tuple[str, str], float]:
    """Every pair whose signature cosine is >= ``floor``, keyed by sorted ids.

    Rows are compared in blocks, so memory is O(SCAN_BLOCK * N).
    """
    m = np.asarray(rows, dtype=np.float64)
    found: dict[tuple[str, str], float] = {}
    for start in range(0, len(m), SCAN_BLOCK):
        sims = _cosine_rows(m[start : start + SCAN_BLOCK], m)
        for i, j in zip(*np.nonzero(sims >= floor)):
            a, b = start + int(i), int(j)
            if b > a:
                found[tuple(sorted((ids[a], ids[b])))] = float(sims[i, j])
    return found


def label(similarity: float, t1: float, t2: float) -> str:
    if similarity >= t1:
        return "duplicate"
    return "near-duplicate" if similarity >= t2 else "distinct"


def f1(predicted: Iterable[tuple[str, str]], truth: Iterable[tuple[str, str]]) -> float:
    predicted, truth = set(predicted), set(truth)
    tp = len(predicted & truth)
    if tp == 0:
        return 0.0
    precision, recall = tp / len(predicted), tp / len(truth)
    return 2.0 * precision * recall / (precision + recall)


def sample_indices(n: int, k: int, seed: str) -> list[int]:
    return sorted(random.Random(seed).sample(range(n), min(n, k)))


# ---------------------------------------------------------------------------
# Training pool


def training_pool(n: int, counters: Iterable[Counter], split_seed: int, k: int) -> set[str]:
    """Top-k tf-idf grams of the training split that ``refsig train`` uses,
    from the ``n`` document vectors in id order.

    The split is the documented one: ids in sorted order, shuffled with
    ``random.Random(seed)``, the first 80% train. The score is
    tf * (ln((1 + N) / (1 + df)) + 1), ties broken by gram.
    """
    order = list(range(n))
    random.Random(split_seed).shuffle(order)
    cut = min(max(int(n * 0.80), 1), n - 1)
    train = set(order[:cut])
    tf: Counter = Counter()
    df: Counter = Counter()
    for i, counts in enumerate(counters):
        if i in train:
            tf.update(counts)
            df.update(counts.keys())
    ranked = sorted((-(count * (math.log((1 + cut) / (1 + df[g])) + 1.0)), g) for g, count in tf.items())
    return {g for _, g in ranked[:k]}
