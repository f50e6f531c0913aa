"""Escaped line format for 3-gram files, read and written as packed keys.

Pool and reference files store one 3-gram per line. Printable characters
are written literally; backslash, newline, and tab use two-character
escapes, and all other non-printables are written as ``\\xHH`` escapes of
their UTF-8 bytes. A line therefore decodes to exactly 3 characters.
A ``\\x`` escape takes exactly two hex digits, in either case; any other
use of a backslash is rejected with its column.

Pool and reference files, like every other output, are written through
:func:`write_whole`, so a failed write leaves the previous file in place.
"""

from __future__ import annotations

import os
import re
import secrets
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from .text import NGRAM_SIZE, gram_keys, gram_strings

_ESCAPES = {"\\": "\\\\", "\n": "\\n", "\t": "\\t"}
# A valid line: any character but a backslash, or an escape \\ \n \t \xHH.
_LINE = re.compile(r"(?:[^\\]|\\[\\nt]|\\x[0-9a-fA-F]{2})*")
_ESCAPE = re.compile(rb"\\(?:x..|.)")
# The byte of each escape, keyed in lower case: hex digits match in either case.
_ESCAPED_BYTES = {b"\\\\": b"\\", b"\\n": b"\n", b"\\t": b"\t"} | {
    b"\\x%02x" % byte: bytes([byte]) for byte in range(256)
}


def escape_gram(gram: str) -> str:
    out: list[str] = []
    for ch in gram:
        if ch in _ESCAPES:
            out.append(_ESCAPES[ch])
        elif ch.isprintable():
            out.append(ch)
        else:
            try:
                raw = ch.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(
                    f"gram {gram!r} holds a lone surrogate, which UTF-8 cannot encode"
                ) from None
            out.extend(f"\\x{byte:02x}" for byte in raw)
    return "".join(out)


def parse_gram_line(line: str) -> str:
    """Decode one escaped line and check it is exactly one 3-gram."""
    try:
        raw = line.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"lone surrogate at column {exc.start + 1} of line {line!r}") from None
    gram = line  # a line with no escape is its own gram
    if b"\\" in raw:
        valid = _LINE.match(line).end()
        if valid < len(line):
            raise ValueError(f"bad escape at column {valid + 1} of line {line!r}")
        try:
            gram = _ESCAPE.sub(lambda m: _ESCAPED_BYTES[m[0].lower()], raw).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"line {line!r} does not decode to UTF-8 text: {exc}") from None
    if len(gram) != NGRAM_SIZE:
        raise ValueError(f"line {line!r} decodes to {len(gram)} characters, expected {NGRAM_SIZE}")
    return gram


def key_lines(keys: np.ndarray) -> str:
    """The escaped line of the 3-gram of each packed key, each ending in a newline."""
    return "".join(escape_gram(gram) + "\n" for gram in gram_strings(keys))


def line_keys(lines: Iterable[str], path: str | Path, first: int = 1) -> np.ndarray:
    """The packed keys of escaped gram lines: the inverse of :func:`key_lines`.
    A bad line's error names ``path`` and its number, counted from ``first``."""
    grams = []
    for number, line in enumerate(lines, first):
        try:
            grams.append(parse_gram_line(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: {exc}") from None
    return gram_keys("".join(grams))[::NGRAM_SIZE]


def read_lines(path: str | Path) -> Iterator[str]:
    """The ``\\n``-split lines of a UTF-8 file, read one at a time, less the
    empty one after a final newline. A decode error's offsets are byte
    offsets in the file, and its reason names the file and line."""
    offset = 0
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                reason = f"{exc.reason} (line {number} of {path})"
                raise UnicodeDecodeError(
                    exc.encoding, line, offset + exc.start, offset + exc.end, reason
                ) from None
            yield text.removesuffix("\n")
            offset += len(line)


@contextmanager
def write_whole(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Write ``path`` whole or not at all: yield a new temporary file beside it
    (UTF-8 with ``\\n`` line ends, or bytes for mode ``"wb"``) and move that over
    ``path`` once the block completes. If the block or the move fails, the
    temporary file is removed and ``path`` keeps what it held."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
    try:
        with open(temp, mode.replace("w", "x"), **text) as fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
