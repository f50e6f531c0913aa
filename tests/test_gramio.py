import pytest

from refsig.gramio import escape_gram, parse_gram_line, unescape_gram
from refsig.reference import ReferenceText
from refsig.text import gram_keys


def _keys(grams):
    return gram_keys("".join(grams))[::3]

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
    assert unescape_gram(line) == gram
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


def test_unescape_rejects_malformed():
    with pytest.raises(ValueError):
        unescape_gram("ab\\")
    with pytest.raises(ValueError):
        unescape_gram("a\\qb")
    with pytest.raises(ValueError):
        unescape_gram("a\\x1")
    with pytest.raises(ValueError):
        unescape_gram("a\\xzz")


def test_lone_surrogate_gram_is_rejected_by_name():
    for make in (lambda: escape_gram("\ud800ab"), lambda: ReferenceText(_keys(["\ud800ab"]), 1)):
        with pytest.raises(ValueError) as excinfo:
            make()
        assert not isinstance(excinfo.value, UnicodeError)
        assert repr("\ud800ab") in str(excinfo.value)
