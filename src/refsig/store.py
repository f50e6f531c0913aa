"""Corpus ingestion and the persistent signature database.

The database file is a short human-readable header, fixed-width binary
records (NUL-padded UTF-8 id, then P little-endian 32-bit floats), and a
trailing SHA-256 of everything before it.
"""

from __future__ import annotations

import hashlib
import html
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .reference import ReferenceText, Signature, SignatureMismatchError
from .text import Document

_DB_MAGIC = "refsig-db 1"
_WRITER = "refsig/0.1.0"
_DIGEST_BYTES = 32

KIND_DIRECTORY = "directory"
KIND_RECORDS = "records"

_TAG_RE = re.compile(r"<[^>]*>")
_FINGERPRINT_RE = re.compile(r"[0-9a-f]{64}")


class CorruptDbError(ValueError):
    """The signature database file is truncated or fails its checksum."""


def strip_html(text: str) -> str:
    """Naive tag removal plus entity decoding; not a real HTML parser."""
    return html.unescape(_TAG_RE.sub(" ", text))


@dataclass(frozen=True)
class CorpusSource:
    kind: str
    path: Path
    html_strip: bool = False

    def __post_init__(self) -> None:
        if self.kind not in (KIND_DIRECTORY, KIND_RECORDS):
            raise ValueError(f"unknown corpus kind {self.kind!r}")

    @classmethod
    def detect(cls, path: str | Path, html_strip: bool = False) -> "CorpusSource":
        path = Path(path)
        if path.is_dir():
            return cls(KIND_DIRECTORY, path, html_strip)
        if path.is_file():
            return cls(KIND_RECORDS, path, html_strip)
        raise FileNotFoundError(f"corpus path does not exist: {path}")


def _make_document(doc_id: str, raw: str, html_strip: bool) -> Document:
    if html_strip:
        raw = strip_html(raw)
    doc = Document.from_raw(doc_id, raw)
    if doc.text == "":
        warnings.warn(f"document {doc_id!r} is empty after normalization", stacklevel=3)
    return doc


def ingest(source: CorpusSource | str | Path) -> list[Document]:
    """Read a corpus into normalized, vectorized documents.

    Directories yield one document per file, id = relative POSIX path,
    sorted. A plain file is read as line-delimited records with ids
    "0", "1", ... Files must decode as UTF-8; decode errors carry the
    offending byte offset.
    """
    if not isinstance(source, CorpusSource):
        source = CorpusSource.detect(source)
    docs: list[Document] = []
    if source.kind == KIND_DIRECTORY:
        paths = sorted(
            (p for p in source.path.rglob("*") if p.is_file()),
            key=lambda p: p.relative_to(source.path).as_posix(),
        )
        for p in paths:
            doc_id = p.relative_to(source.path).as_posix()
            raw = p.read_bytes().decode("utf-8")
            docs.append(_make_document(doc_id, raw, source.html_strip))
    else:
        text = source.path.read_bytes().decode("utf-8")
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        for index, line in enumerate(lines):
            docs.append(_make_document(str(index), line, source.html_strip))
    ids = [d.id for d in docs]
    if len(set(ids)) != len(ids):
        raise ValueError("corpus produced duplicate document ids")
    return docs


@dataclass(frozen=True)
class SignatureDb:
    """In-memory view of a signature database file."""

    fingerprint: str
    partitions: int
    writer: str
    records: tuple[tuple[str, np.ndarray], ...]

    @property
    def record_count(self) -> int:
        return len(self.records)


def db_write(
    path: str | Path, ref: ReferenceText, sigs: Sequence[tuple[str, Signature]]
) -> None:
    """Persist signatures bound to ``ref``; rejects foreign fingerprints."""
    encoded: list[tuple[bytes, np.ndarray]] = []
    seen: set[str] = set()
    for doc_id, sig in sigs:
        if sig.ref_fingerprint != ref.fingerprint:
            raise SignatureMismatchError(
                f"signature for {doc_id!r} was generated with a different reference text"
            )
        if len(sig.scores) != ref.partitions:
            raise ValueError(f"signature for {doc_id!r} has wrong length")
        if doc_id in seen:
            raise ValueError(f"duplicate document id {doc_id!r}")
        seen.add(doc_id)
        raw_id = doc_id.encode("utf-8")
        if b"\x00" in raw_id:
            raise ValueError(f"document id {doc_id!r} contains a NUL byte")
        scores = np.asarray(sig.scores, dtype="<f4")
        if not np.isfinite(scores).all():
            raise ValueError(f"signature for {doc_id!r} has a non-finite score")
        encoded.append((raw_id, scores))
    id_width = max((len(raw_id) for raw_id, _ in encoded), default=1)
    header = (
        f"{_DB_MAGIC}\n"
        f"fingerprint={ref.fingerprint}\n"
        f"partitions={ref.partitions}\n"
        f"records={len(encoded)}\n"
        f"id_bytes={id_width}\n"
        f"writer={_WRITER}\n"
        "%%\n"
    ).encode("ascii")
    buf = bytearray(header)
    for raw_id, scores in encoded:
        buf += raw_id.ljust(id_width, b"\x00")
        buf += scores.tobytes()
    buf += hashlib.sha256(bytes(buf)).digest()
    Path(path).write_bytes(bytes(buf))


def db_read(path: str | Path) -> SignatureDb:
    """Load and verify a signature database; raises CorruptDbError on damage."""
    data = Path(path).read_bytes()
    if len(data) < _DIGEST_BYTES:
        raise CorruptDbError(f"{path}: file too short to hold a checksum")
    body, digest = data[:-_DIGEST_BYTES], data[-_DIGEST_BYTES:]
    if hashlib.sha256(body).digest() != digest:
        raise CorruptDbError(f"{path}: checksum mismatch, file is corrupt or truncated")
    sep = body.find(b"%%\n")
    if sep < 0:
        raise CorruptDbError(f"{path}: missing header terminator")
    header_lines = body[:sep].decode("ascii", errors="replace").split("\n")
    if not header_lines or header_lines[0] != _DB_MAGIC:
        raise CorruptDbError(f"{path}: not a signature database")
    fields: dict[str, str] = {}
    for line in header_lines[1:]:
        if line == "":
            continue
        key, _, value = line.partition("=")
        fields[key] = value
    try:
        partitions = int(fields["partitions"])
        count = int(fields["records"])
        id_width = int(fields["id_bytes"])
        fingerprint = fields["fingerprint"]
        writer = fields.get("writer", "")
    except (KeyError, ValueError) as exc:
        raise CorruptDbError(f"{path}: bad header field ({exc})") from None
    if partitions < 1 or id_width < 1:
        raise CorruptDbError(f"{path}: bad header (partitions={partitions}, id_bytes={id_width})")
    if not _FINGERPRINT_RE.fullmatch(fingerprint):
        raise CorruptDbError(f"{path}: fingerprint {fingerprint!r} is not 64 lowercase hex digits")
    payload = body[sep + 3 :]
    record_size = id_width + 4 * partitions
    if len(payload) != count * record_size:
        raise CorruptDbError(
            f"{path}: expected {count} records of {record_size} bytes, "
            f"found {len(payload)} payload bytes"
        )
    records: list[tuple[str, np.ndarray]] = []
    for k in range(count):
        chunk = payload[k * record_size : (k + 1) * record_size]
        doc_id = chunk[:id_width].rstrip(b"\x00").decode("utf-8")
        scores = np.frombuffer(chunk[id_width:], dtype="<f4").copy()
        if not np.isfinite(scores).all():
            raise CorruptDbError(f"{path}: record {doc_id!r} has a non-finite score")
        records.append((doc_id, scores))
    ids = [doc_id for doc_id, _ in records]
    if len(set(ids)) != len(ids):
        raise CorruptDbError(f"{path}: duplicate document ids in records")
    return SignatureDb(fingerprint, partitions, writer, tuple(records))
