"""Property tests for the file round trips (gram lines, reference files,
signature databases) and for the idempotence of ``normalize``."""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refsig.cli import _write_tsv
from refsig.gramio import escape_gram, parse_gram_line
from refsig.reference import ReferenceText, load_reference, save_reference
from refsig.store import SignatureDb, db_read, db_write
from refsig.text import normalize
from refsig.tfidf import GramPool, save_pool

from helpers import _keys


# Unicode scalar values: files are UTF-8, which cannot carry lone surrogates.
_char = st.one_of(
    st.characters(exclude_categories=("Cs",)),
    st.sampled_from(["\n", "\t", "\\", "\r", "\x00", "\x7f", "\u200b", "\U0010ffff"]),
)
_gram = st.text(alphabet=_char, min_size=3, max_size=3)


@settings(max_examples=200, deadline=None)
@given(_gram)
def test_gram_line_round_trip(gram):
    line = escape_gram(gram)
    assert "\n" not in line and "\t" not in line
    assert parse_gram_line(line) == gram


# Lines near the grammar: characters, escapes of one character each, and
# broken escapes, among them what a loose hex parse would take.
_line = st.lists(
    st.one_of(
        _char,
        st.sampled_from(["\\\\", "\\n", "\\t", "\\x00", "\\x7F", "\\xc3\\xA9", "\\xe4\\xb8\\xad"]),
        st.sampled_from(["\\", "\\x", "\\x+1", "\\x 1", "\\x-1", "\\q", "\\xff", "\\xc3"]),
    ),
    min_size=2,
    max_size=4,
).map("".join)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), _line))
def test_any_line_parses_to_a_gram_that_escapes_back_or_is_rejected(line):
    try:
        gram = parse_gram_line(line)
    except ValueError:
        return
    assert len(gram) == 3
    assert parse_gram_line(escape_gram(gram)) == gram


@settings(max_examples=40, deadline=None)
@given(st.lists(_gram, min_size=1, max_size=30), st.data())
def test_reference_file_round_trip(grams, data):
    ref = ReferenceText(_keys(grams), data.draw(st.integers(1, len(grams))))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ref.txt"
        save_reference(ref, path)
        loaded = load_reference(path)
    assert loaded == ref
    assert loaded.fingerprint == ref.fingerprint


# Ids a database can hold: no NUL, which pads them, and no tab or newline,
# which delimit pairs.tsv.
_id = st.text(alphabet=st.characters(exclude_categories=("Cs",), exclude_characters="\x00\t\n"),
              min_size=1, max_size=12)
_score = st.floats(allow_nan=False, allow_infinity=False, width=32)


@settings(max_examples=40, deadline=None)
@given(st.lists(_id, min_size=1, max_size=8, unique=True), st.integers(1, 5), st.data())
def test_db_round_trip(ids, partitions, data):
    ref = ReferenceText(_keys(["abc"] * partitions), partitions)
    rows = np.array(
        [data.draw(st.lists(_score, min_size=partitions, max_size=partitions)) for _ in ids]
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sigs.db"
        db_write(path, SignatureDb(ref.fingerprint, tuple(ids), rows))
        db = db_read(path)
    assert db.ids == tuple(ids)
    assert db.fingerprint == ref.fingerprint and db.partitions == partitions
    assert db.scores.tobytes() == rows.astype("<f4").tobytes()


# Each output writer, writing ``n`` rows, grams or records to ``path``.
WRITERS = {
    "tsv": lambda path, n: _write_tsv(path, ("k",), [(k,) for k in range(n)]),
    "db": lambda path, n: db_write(
        path, SignatureDb("f" * 64, tuple(map(str, range(n))), np.zeros((n, 2), "<f4"))
    ),
    "reference": lambda path, n: save_reference(ReferenceText(_keys(["abc"] * n), 1), path),
    "pool": lambda path, n: save_pool(GramPool(_keys(["abc", "bcd", "cde"][:n]), n), path),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_a_failed_write_leaves_the_previous_file_and_no_temporary(tmp_path, monkeypatch, writer):
    path = tmp_path / "out"
    WRITERS[writer](path, 2)
    before = path.read_bytes()

    def full_disk(*args):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", full_disk)  # fails once the new file is written
    with pytest.raises(OSError, match="no space"):
        WRITERS[writer](path, 3)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    monkeypatch.undo()
    WRITERS[writer](path, 3)
    assert path.read_bytes() != before


def test_a_tsv_writer_failing_midway_leaves_the_previous_file(tmp_path):
    path = tmp_path / "pairs.tsv"
    WRITERS["tsv"](path, 2)

    def rows():
        yield ("written",)
        raise RuntimeError("the scan failed")

    with pytest.raises(RuntimeError, match="scan failed"):
        _write_tsv(path, ("k",), rows())
    assert path.read_text() == "k\n0\n1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["pairs.tsv"]


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.one_of(st.characters(exclude_categories=()), st.sampled_from(" \t\n\r"))))
def test_normalize_idempotent(raw):
    text = normalize(raw)
    assert normalize(text) == text
