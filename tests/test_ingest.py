"""Ingest: ``normalize`` against the loop it replaced and the benchmark's
oracle, the directory listing against ``Path.rglob``, and the empty-document
warning."""

import importlib.util
import os
import string
import sys
import unicodedata
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from refsig.store import _list_directory, _read_utf8, ingest
from refsig.text import _fold_pass, normalize

ORACLE = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"


def _bench_oracle():
    spec = importlib.util.spec_from_file_location("bench_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


_oracle_normalize = _bench_oracle().normalize


def _fold(text):
    text = unicodedata.normalize("NFC", text).casefold()
    return " ".join(unicodedata.normalize("NFC", text).split())


def _confirming_normalize(raw):
    """The loop before the casefold check: every text takes one more pass to
    confirm its fixed point."""
    text = _fold(raw)
    for _ in range(8):
        again = _fold(text)
        if again == text:
            break
        text = again
    return text


# Code points whose case folding decomposes, composes, expands or depends on
# context, combining marks, Hangul jamo, and the whitespace str.split knows.
_TRICKY = (
    "aAzZ ß"
    + "".join(map(chr, range(0x300, 0x370)))
    + "ͅǰİẞσςΣᾳᾼ"
    + "".join(map(chr, [*range(0x1100, 0x1113), *range(0x1161, 0x1176), *range(0x11A8, 0x11C3)]))
    + "가\t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2000\u2028\u3000"
)


_SPACES = "".join(c for c in _TRICKY if c.isspace())
# Tokens ASCII in mixed case or drawn from _TRICKY, between runs of its whitespace.
_TOKENS = st.one_of(
    st.text(alphabet=string.ascii_letters, min_size=1, max_size=8),
    st.text(alphabet=[c for c in _TRICKY if not c.isspace()], min_size=1, max_size=6),
)
_MIXED_TEXTS = st.builds(
    lambda lead, words: lead + "".join(token + run for token, run in words),
    st.text(alphabet=_SPACES, max_size=2),
    st.lists(st.tuples(_TOKENS, st.text(alphabet=_SPACES, min_size=1, max_size=3)), max_size=12),
)


@settings(max_examples=1000, deadline=None)
@given(
    st.one_of(st.text(alphabet=st.sampled_from(_TRICKY), max_size=24), st.text(), _MIXED_TEXTS)
)
@example("\u212a")  # KELVIN SIGN: a non-ASCII token that NFC makes ASCII
@example("100\u212a Kelvin")
@example("a\u2000B\u2001c")  # NFC maps these separators to U+2002 and U+2003
@example("\u0130stanbul ISTANBUL")
@example("\u00e9t\u00e9 \u00c9T\u00c9")
@example("e\u0301te\u0301 E\u0301TE\u0301")
@example(" \t\u3000\u2001\n\x1c")
@example("")
def test_normalize_matches_confirming_loop_and_bench_oracle(raw):
    out = normalize(raw)
    assert out == _confirming_normalize(raw)
    assert out == _oracle_normalize(raw)


def test_normalize_fixed_point_that_casefolding_changes():
    # U+01F0 casefolds to j + U+030C, which NFC composes back.
    assert "ǰ".casefold() != "ǰ"
    assert normalize("ǰ X") == "ǰ x" == _confirming_normalize("ǰ X")


@pytest.mark.parametrize("raw", ["ǰ X", "ΐ\tΐ", "ẖ  Ẕ", "ǰΐẖ", " Ǯǰ\u0390 "])
def test_normalize_where_nfc_changes_casefolds_output(raw):
    # U+01F0, U+0390 and U+1E96 casefold to a base and combining marks that
    # NFC composes again: these texts do not settle in one pass and take
    # the confirming loop.
    assert not _fold_pass(raw)[1]
    assert normalize(raw) == _confirming_normalize(raw)
    assert _fold_pass(normalize(raw))[0] == normalize(raw)


def test_normalize_settles_in_one_pass_on_plain_text():
    raw = "Crème  Brûlée\tß ﬁ 😀 <b>x</b>"
    text, settled = _fold_pass(raw)
    assert settled
    assert text == normalize(raw) == _confirming_normalize(raw)


def test_casefold_is_idempotent_and_never_makes_whitespace():
    # What lets a pass whose second NFC changed nothing skip the confirming
    # casefold: casefolding its own output changes nothing, code point by
    # code point, and no non-whitespace code point folds to text holding
    # whitespace, which collapsing would then change. What lets normalize fold
    # token by token: splitting at whitespace also commutes with NFC, so each
    # token reaches its own fixed point.
    spaces, named = [], {}
    for code in range(sys.maxunicode + 1):
        char = chr(code)
        folded = char.casefold()
        if folded != char:
            assert folded.casefold() == folded, f"U+{code:04X}"
        for out in (folded, unicodedata.normalize("NFC", char)):
            if char.isspace():  # whitespace stays one whitespace code point
                assert len(out) == 1 and out.isspace(), f"U+{code:04X}"
            else:  # nothing else ever holds whitespace
                assert not any(c.isspace() for c in out), f"U+{code:04X}"
        if char.isspace():
            spaces.append(code)
            assert unicodedata.combining(char) == 0, f"U+{code:04X}"  # never reordered
        parts = unicodedata.decomposition(char).split()
        if parts and not parts[0].startswith("<"):  # a canonical decomposition
            if any(chr(int(part, 16)).isspace() for part in parts):
                named[code] = [int(part, 16) for part in parts]
    assert len(spaces) == 29
    # Only two singletons name whitespace, and singletons never compose.
    assert named == {0x2000: [0x2002], 0x2001: [0x2003]}


def _rglob_listing(root):
    """The listing before os.walk, kept as the oracle."""
    paths = sorted(
        (p for p in root.rglob("*") if p.is_file()),
        key=lambda p: p.relative_to(root).as_posix(),
    )
    return [p.relative_to(root).as_posix() for p in paths]


def test_directory_listing_matches_rglob(tmp_path):
    root = tmp_path / "corpus"
    files = {
        "a.txt": "A",
        "a-b.txt": "A-B",
        "a/b.txt": "A/B",
        "a0": "A0",
        ".hidden": "hidden",
        ".dot/inner.txt": "inner",
        "nested/deeper/x.txt": "deep",
    }
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text, encoding="utf-8")
    (root / "link-file").symlink_to(root / "a.txt")
    (root / "link-dir").symlink_to(root / "nested", target_is_directory=True)
    (root / "broken").symlink_to(root / "nowhere")
    (root / "link-link").symlink_to(root / "link-file")
    if hasattr(os, "mkfifo"):
        # Not a regular file, so not listed: reading it would block.
        os.mkfifo(root / "nested" / "fifo")

    expected = [
        ".dot/inner.txt", ".hidden", "a-b.txt", "a.txt", "a/b.txt", "a0",
        "link-file", "link-link", "nested/deeper/x.txt",
    ]
    assert _rglob_listing(root) == expected
    assert [doc_id for doc_id, _ in _list_directory(root)] == expected
    with pytest.warns(UserWarning, match="4 documents have no 3-gram"):
        docs = ingest(root)
    assert [d.id for d in docs] == expected
    listed = dict(_list_directory(root))
    assert _read_utf8(listed["link-file"]) == "A"
    assert _read_utf8(listed["link-link"]) == "A"


def test_three_empty_documents_warn_once(tmp_path):
    for name in ("e1.txt", "e2.txt", "e3.txt"):
        (tmp_path / name).write_text(" \n\t", encoding="utf-8")
    (tmp_path / "full.txt").write_text("content", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        docs = ingest(tmp_path)
    assert len(docs) == 4
    assert [str(w.message) for w in caught] == [
        "3 documents have no 3-gram after normalization: 'e1.txt', 'e2.txt', 'e3.txt'"
    ]
    assert all(w.category is UserWarning for w in caught)


def test_empty_document_warning_names_the_first_few(tmp_path):
    path = tmp_path / "records.txt"
    path.write_text("x\n\n\nabc\n\n\n\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ingest(path)
    assert [str(w.message) for w in caught] == [
        "6 documents have no 3-gram after normalization: '0', '1', '2', ..."
    ]
