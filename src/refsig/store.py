"""Corpus ingestion and the persistent signature database.

The database file is a short human-readable header, fixed-width binary
records (NUL-padded UTF-8 id, then P little-endian 32-bit floats), and a
trailing SHA-256 of everything before it.
"""

from __future__ import annotations

import hashlib
import html
import os
import re
import warnings
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .gramio import read_lines, write_whole
from .reference import SIGN_BLOCK, ReferenceText, signature_matrix
from .text import Document

_DB_MAGIC = "refsig-db 1"
_WRITER = "refsig/0.1.0"
_DIGEST_BYTES = 32
# An id holds no NUL (it pads records) and no tab or newline (they delimit pairs.tsv).
_ID_FORBIDDEN = {"\x00": "a NUL byte", "\t": "a tab", "\n": "a newline"}
SCORE_DTYPE = "<f4"

_TAG_RE = re.compile(r"<[^>]*>")
_FINGERPRINT_RE = re.compile(r"[0-9a-f]{64}")
# Lone surrogates, such as a file name's undecodable bytes, are what UTF-8 cannot encode.
_SURROGATE_RE = re.compile("[\ud800-\udfff]")


class CorruptDbError(ValueError):
    """The signature database file is truncated or fails its checksum."""


def strip_html(text: str) -> str:
    """Naive tag removal plus entity decoding; not a real HTML parser."""
    return html.unescape(_TAG_RE.sub(" ", text))


def _list_directory(root: str | Path) -> list[tuple[str, str]]:
    """Each regular file under ``root`` as (relative POSIX path, path), sorted
    by the relative path. Symlinked files are listed, symlinked directories
    are not descended and broken links are skipped, as with ``Path.rglob``.
    The type of each entry comes from its directory listing, so only links
    cost a stat."""
    files = []
    pending = [(os.fspath(root), "")]
    while pending:
        dirpath, prefix = pending.pop()
        with os.scandir(dirpath) as entries:
            for entry in entries:
                if entry.is_dir(follow_symlinks=False):
                    pending.append((entry.path, prefix + entry.name + "/"))
                elif entry.is_file():
                    files.append((prefix + entry.name, entry.path))
    files.sort()
    return files


def _read_utf8(path: str) -> str:
    """The text of a UTF-8 file, read unbuffered in one presized call. A
    decode error's offsets are byte offsets in the file, and its reason
    names the file."""
    with open(path, "rb", buffering=0) as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        reason = f"{exc.reason} (in {path})"
        raise UnicodeDecodeError(exc.encoding, data, exc.start, exc.end, reason) from None


# Ids named in a warning that counts documents without a 3-gram.
_IDS_SHOWN = 3


def _warn_without_3grams(count: int, shown_ids: list[str], where: str) -> None:
    """One warning: ``count`` documents have no 3-gram ``where``, the first named."""
    more = ", ..." if count > _IDS_SHOWN else ""
    verb = "document has" if count == 1 else "documents have"
    shown = ", ".join(map(repr, shown_ids))
    warnings.warn(f"{count} {verb} no 3-gram {where}: {shown}{more}", stacklevel=3)


def iter_documents(path: str | Path, html_strip: bool = False) -> Iterator[Document]:
    """Read a corpus one normalized, 3-gram-counted document at a time.

    A directory yields one document per file, id = relative POSIX path,
    sorted. A plain file is read as line-delimited records with ids
    "0", "1", ... Files must decode as UTF-8; decode errors carry the
    offending byte offset. ``html_strip`` applies :func:`strip_html` before
    normalizing. Once the corpus is exhausted, one warning counts the
    documents without a 3-gram: those shorter than 3 characters after
    normalization, which sign all-zero and score 0.0 against every document.
    """
    if os.path.isdir(path):
        entries = ((doc_id, _read_utf8(file)) for doc_id, file in _list_directory(path))
    elif os.path.isfile(path):
        entries = ((str(index), line) for index, line in enumerate(read_lines(path)))
    else:
        raise FileNotFoundError(f"corpus path does not exist: {path}")
    empty = 0
    shown_ids: list[str] = []  # the first ids that the warning names
    for doc_id, raw in entries:
        if html_strip:
            raw = strip_html(raw)
        doc = Document.from_raw(doc_id, raw)
        if not doc.sq_norm:
            empty += 1
            if empty <= _IDS_SHOWN:
                shown_ids.append(doc_id)
        yield doc
    if empty:
        _warn_without_3grams(empty, shown_ids, "after normalization")


def ingest(path: str | Path, html_strip: bool = False) -> list[Document]:
    """All of :func:`iter_documents` as a list."""
    return list(iter_documents(path, html_strip))


@dataclass(frozen=True, eq=False)
class SignatureDb:
    """The signature rows of one reference: ids and a C-contiguous (N, P) float32 matrix.
    Building one checks its fingerprint, ids and rows: db_read loads what db_write writes."""

    fingerprint: str
    ids: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "scores", np.ascontiguousarray(self.scores, SCORE_DTYPE))
        if not _FINGERPRINT_RE.fullmatch(self.fingerprint):
            raise ValueError(f"fingerprint {self.fingerprint!r} is not 64 lowercase hex digits")
        check_ids(self.ids, set())
        if self.scores.ndim != 2 or len(self.scores) != len(self.ids) or not self.scores.shape[1]:
            raise ValueError(f"scores have shape {self.scores.shape}, not ({len(self.ids)}, P)")
        finite = np.isfinite(self.scores).all(axis=1)
        if not finite.all():
            raise ValueError(f"record {self.ids[int(np.argmin(finite))]!r} has a non-finite score")

    @property
    def partitions(self) -> int:
        return self.scores.shape[1]

    @property
    def record_count(self) -> int:
        return len(self.ids)


def _record_dtype(id_bytes: int, partitions: int) -> np.dtype:
    return np.dtype([("id", f"S{id_bytes}"), ("scores", SCORE_DTYPE, (partitions,))])


def check_ids(ids: Sequence[str], seen: set[str]) -> None:
    """Raise ValueError naming a bad id of ``ids``: an empty one, one holding
    a NUL, tab or newline, one UTF-8 cannot encode, or the least id that
    repeats within ``ids`` or is already in ``seen``. ``seen`` then gains
    ``ids``, so a corpus checked one block at a time is held to what one
    check of all its ids demands."""
    if "" in ids:
        raise ValueError("document id is empty")
    for char, name in _ID_FORBIDDEN.items():
        bad = next((doc_id for doc_id in ids if char in doc_id), None)
        if bad is not None:
            raise ValueError(f"document id {bad!r} contains {name}")
    bad = next((doc_id for doc_id in ids if _SURROGATE_RE.search(doc_id)), None)
    if bad is not None:
        raise ValueError(
            f"document id {bad!r} contains a lone surrogate, which UTF-8 cannot encode"
        )
    fresh = set(ids)
    if len(fresh) != len(ids) or not seen.isdisjoint(fresh):
        ordered = sorted(ids)
        repeats = {a for a, b in zip(ordered, ordered[1:]) if a == b} | (fresh & seen)
        raise ValueError(f"duplicate document id {min(repeats)!r}")
    seen |= fresh


def sign_documents(docs: Iterable[Document], ref: ReferenceText) -> SignatureDb:
    """The float32 signature rows of ``docs`` against ``ref``, as the db that
    ``sign`` writes and ``dedup`` scans. Only one block of documents is held
    at a time, and each block's ids are checked before it is signed. One
    warning counts documents with 3-grams that sign all-zero, which score
    0.0 against every document, even an identical one."""
    docs = iter(docs)
    ids: list[str] = []
    zero_ids: list[str] = []
    seen: set[str] = set()
    blocks = [np.empty((0, ref.partitions), SCORE_DTYPE)]
    while block := list(islice(docs, SIGN_BLOCK)):
        block_ids = [doc.id for doc in block]
        check_ids(block_ids, seen)
        ids.extend(block_ids)
        blocks.append(signature_matrix(block, ref).astype(SCORE_DTYPE))
        zero_ids += [block_ids[i] for i in np.flatnonzero(~blocks[-1].any(1)) if block[i].sq_norm]
    if zero_ids:
        where = "in common with the reference, so each signs all-zero"
        _warn_without_3grams(len(zero_ids), zero_ids[:_IDS_SHOWN], where)
    return SignatureDb(ref.fingerprint, tuple(ids), np.concatenate(blocks))


def db_write(path: str | Path, db: SignatureDb) -> None:
    """Persist ``db``: its header, one fixed-width record per row, and the checksum."""
    raw_ids = [doc_id.encode("utf-8") for doc_id in db.ids]
    id_bytes = max(map(len, raw_ids), default=1)
    records = np.zeros(db.record_count, dtype=_record_dtype(id_bytes, db.partitions))
    records["id"] = raw_ids
    records["scores"] = db.scores
    header = (
        f"{_DB_MAGIC}\n"
        f"fingerprint={db.fingerprint}\n"
        f"partitions={db.partitions}\n"
        f"records={db.record_count}\n"
        f"id_bytes={id_bytes}\n"
        f"writer={_WRITER}\n"
        "%%\n"
    ).encode("ascii")
    body = header + records.tobytes()
    with write_whole(path, "wb") as fh:
        fh.write(body + hashlib.sha256(body).digest())


def db_read(path: str | Path) -> SignatureDb:
    """Load and verify a signature database; raises CorruptDbError naming ``path`` on
    damage, a header it cannot lay out, an id that is not UTF-8, or a fingerprint,
    ids and rows :class:`SignatureDb` rejects."""
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
    except (KeyError, ValueError) as exc:
        raise CorruptDbError(f"{path}: bad header field ({exc})") from None
    try:
        record = _record_dtype(id_width, partitions) if min(partitions, id_width) > 0 else None
    except (TypeError, ValueError):  # a record too wide for numpy to lay out
        record = None
    if record is None:
        raise CorruptDbError(f"{path}: bad header (partitions={partitions}, id_bytes={id_width})")
    payload = body[sep + 3 :]
    if len(payload) != count * record.itemsize:
        raise CorruptDbError(
            f"{path}: expected {count} records of {record.itemsize} bytes, "
            f"found {len(payload)} payload bytes"
        )
    records = np.frombuffer(payload, dtype=record)
    try:
        ids = tuple(raw_id.decode("utf-8") for raw_id in records["id"])
        return SignatureDb(fingerprint, ids, records["scores"])
    except ValueError as exc:  # a UnicodeDecodeError too
        raise CorruptDbError(f"{path}: {exc}") from None
