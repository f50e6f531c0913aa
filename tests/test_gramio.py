import pytest

from refsig.gramio import escape_gram, parse_gram_line
from refsig.reference import ReferenceText

from helpers import _keys


TRICKY_GRAMS = [
    "abc",
    "a b",
    "ab ",
    " ab",
    "a\nb",
    "\t\t\t",
    "a\\b",
    "\x00\x01\x02",
    "héz",
    "​​​",  # zero-width space, non-printable above 0xff
    "中文x",
]


@pytest.mark.parametrize("gram", TRICKY_GRAMS)
def test_escape_round_trip(gram):
    line = escape_gram(gram)
    assert "\n" not in line and "\t" not in line
    assert parse_gram_line(line) == gram


def test_escaped_forms():
    assert escape_gram("a\nb") == "a\\nb"
    assert escape_gram("a\tb") == "a\\tb"
    assert escape_gram("a\\b") == "a\\\\b"
    assert escape_gram("\x00ab") == "\\x00ab"


def test_parse_rejects_wrong_length():
    with pytest.raises(ValueError):
        parse_gram_line("abcd")
    with pytest.raises(ValueError):
        parse_gram_line("ab")


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_gram_line("ab\\")
    with pytest.raises(ValueError):
        parse_gram_line("a\\qb")
    with pytest.raises(ValueError):
        parse_gram_line("a\\x1")
    with pytest.raises(ValueError):
        parse_gram_line("a\\xzz")


@pytest.mark.parametrize(
    "line, column",
    [("ab\\x+1", 3), ("ab\\x 1", 3), ("ab\\x-1", 3), ("ab\\", 3), ("a\\qb", 2), ("\\x4", 1)],
)
def test_bad_escape_is_rejected_with_its_column(line, column):
    with pytest.raises(ValueError) as excinfo:
        parse_gram_line(line)
    assert str(excinfo.value) == f"bad escape at column {column} of line {line!r}"


def test_parse_rejects_non_utf8_and_lone_surrogate():
    with pytest.raises(ValueError, match="does not decode to UTF-8"):
        parse_gram_line("ab\\xff")
    with pytest.raises(ValueError) as excinfo:
        parse_gram_line("a\ud800b")
    assert not isinstance(excinfo.value, UnicodeError)
    assert str(excinfo.value) == "lone surrogate at column 2 of line 'a\\ud800b'"


def test_hex_escape_takes_either_case():
    assert parse_gram_line("\\xC3\\xa9ab") == "éab"
    assert parse_gram_line("\\xc3\\xA9ab") == "éab"


def test_lone_surrogate_gram_is_rejected_by_name():
    for make in (lambda: escape_gram("\ud800ab"), lambda: ReferenceText(_keys(["\ud800ab"]), 1)):
        with pytest.raises(ValueError) as excinfo:
            make()
        assert not isinstance(excinfo.value, UnicodeError)
        assert repr("\ud800ab") in str(excinfo.value)
