import hashlib
import re

import numpy as np
import pytest

from refsig import store
from refsig.cli import main
from refsig.reference import ReferenceText, signature_matrix
from refsig.store import (
    CorruptDbError,
    SignatureDb,
    check_ids,
    db_read,
    db_write,
    ingest,
    iter_documents,
    sign_documents,
    strip_html,
)
from refsig.text import Document, extract_3grams, gram_strings

from helpers import _keys


def test_ingest_directory(tmp_path):
    (tmp_path / "a.txt").write_text("Hello  World", encoding="utf-8")
    (tmp_path / "b.txt").write_text("second FILE", encoding="utf-8")
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "c.txt").write_text("nested", encoding="utf-8")
    docs = ingest(tmp_path)
    assert [d.id for d in docs] == ["a.txt", "b.txt", "sub/c.txt"]
    assert np.array_equal((docs[0].keys, docs[0].counts), extract_3grams("hello world"))


def test_ingest_records_file(tmp_path):
    path = tmp_path / "records.txt"
    path.write_text("First LINE\nsecond\nthird one\n", encoding="utf-8")
    docs = ingest(path)
    assert [d.id for d in docs] == ["0", "1", "2"]
    assert np.array_equal((docs[0].keys, docs[0].counts), extract_3grams("first line"))


def test_ingest_html_strip(tmp_path):
    (tmp_path / "page.html").write_text("<p>Hi</p><b>You</b>", encoding="utf-8")
    docs = ingest(tmp_path, html_strip=True)
    assert np.array_equal((docs[0].keys, docs[0].counts), extract_3grams("hi you"))


def test_strip_html_entities():
    assert strip_html("<b>a &amp; b</b>") == " a & b "
    assert strip_html("x &lt;tag&gt; y") == "x <tag> y"


def test_ingest_empty_file_warns(tmp_path):
    (tmp_path / "empty.txt").write_text("", encoding="utf-8")
    (tmp_path / "full.txt").write_text("content", encoding="utf-8")
    with pytest.warns(UserWarning, match="no 3-gram"):
        docs = ingest(tmp_path)
    assert len(docs) == 2
    assert docs[0].sq_norm == 0


def test_ingest_missing_path(tmp_path):
    with pytest.raises(FileNotFoundError):
        ingest(tmp_path / "nowhere")


def test_ingest_bad_encoding_reports_offset(tmp_path):
    (tmp_path / "bad.txt").write_bytes(b"fine until \xff\xfe here")
    with pytest.raises(UnicodeDecodeError) as excinfo:
        ingest(tmp_path)
    assert excinfo.value.start == 11
    assert excinfo.value.reason == f"invalid start byte (in {tmp_path / 'bad.txt'})"
    # An offset past the first read chunk is still an offset into the file.
    (tmp_path / "bad.txt").write_bytes(b"x" * 20000 + b"\xff")
    with pytest.raises(UnicodeDecodeError) as excinfo:
        ingest(tmp_path)
    assert excinfo.value.start == 20000
    assert excinfo.value.end == 20001
    assert excinfo.value.reason == f"invalid start byte (in {tmp_path / 'bad.txt'})"


def test_ingest_records_bad_encoding_reports_file_offset(tmp_path):
    # Records are read one line at a time; the offset still counts from the
    # start of the file, not of the line.
    path = tmp_path / "records.txt"
    first = "café first record\n".encode("utf-8")
    path.write_bytes(first + b"y" * 20000 + b"\xff tail\nthird\n")
    with pytest.raises(UnicodeDecodeError) as excinfo:
        ingest(path)
    assert excinfo.value.start == len(first) + 20000
    assert excinfo.value.end == len(first) + 20001
    assert excinfo.value.reason == f"invalid start byte (line 2 of {path})"


def _ref_and_db(doc_texts):
    """A reference over the docs' grams and the db of the docs' signature rows."""
    docs = [Document.from_raw(f"doc-{i}", t) for i, t in enumerate(doc_texts)]
    grams = sorted({g for d in docs for g in gram_strings(d.keys)})
    ref = ReferenceText(_keys(grams), min(4, len(grams)))
    ids = tuple(d.id for d in docs)
    return ref, SignatureDb(ref.fingerprint, ids, signature_matrix(docs, ref))


def test_sign_documents_warns_of_documents_sharing_no_gram_with_the_reference(
    tmp_path, monkeypatch
):
    # Identical documents that share no 3-gram with the reference sign
    # all-zero and score 0.0 against each other, so dedup pairs none of them.
    records = tmp_path / "records.txt"
    records.write_text("hello world\n" * 5 + "hi\nthe quick fox\n", encoding="utf-8")
    ref = ReferenceText(_keys(["the", "qui", "fox"]), 3)
    monkeypatch.setattr(store, "SIGN_BLOCK", 2)  # the count spans blocks
    with pytest.warns(UserWarning) as caught:
        db = sign_documents(iter_documents(records), ref)
    assert [str(w.message) for w in caught] == [
        "1 document has no 3-gram after normalization: '5'",
        "5 documents have no 3-gram in common with the reference, so each signs all-zero: "
        "'0', '1', '2', ...",
    ]
    assert not db.scores[:6].any() and db.scores[6].any()
    with pytest.warns(UserWarning, match="^1 document has no 3-gram in common"):
        sign_documents([Document.from_raw("x", "hello")], ref)


def test_db_round_trip_bit_exact(tmp_path):
    ref, db = _ref_and_db(["alpha beta gamma", "beta gamma delta", "unrelated words"])
    path = tmp_path / "sigs.db"
    db_write(path, db)
    read = db_read(path)
    assert read.fingerprint == ref.fingerprint
    assert read.partitions == ref.partitions
    assert read.record_count == 3
    assert read.ids == db.ids
    assert read.scores.dtype == np.dtype("<f4")
    assert read.scores.tobytes() == db.scores.tobytes()


def test_signature_dbs_compare_and_hash_by_identity():
    # Generated __eq__/__hash__ over the ndarray would raise for > 1 row.
    a = SignatureDb("f" * 64, ("x", "y"), np.eye(2, dtype="<f4"))
    b = SignatureDb("f" * 64, ("x", "y"), np.eye(2, dtype="<f4"))
    assert a == a and a != b
    assert hash(a) != hash(b) and len({a, b, a}) == 2


_RECORDS = np.zeros(3, dtype=[("id", "S3"), ("scores", "<f8", (2,))])
_RECORDS["scores"] = [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]


@pytest.mark.parametrize(
    "scores",
    [
        np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]),
        _RECORDS["scores"],
        [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]],
    ],
    ids=["float64", "strided-field", "nested-list"],
)
def test_signature_db_holds_contiguous_float32_rows(scores):
    db = SignatureDb("f" * 64, ("x", "y", "z"), scores)
    assert db.scores.dtype == np.dtype("<f4")
    assert db.scores.flags.c_contiguous
    assert db.scores.tolist() == np.float32([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]).tolist()


def test_db_write_rejects_empty_id(tmp_path):
    ref, db = _ref_and_db(["one doc here"])
    with pytest.raises(ValueError, match="empty"):
        db_write(tmp_path / "sigs.db", SignatureDb(ref.fingerprint, ("",), db.scores))


def test_db_write_idempotent(tmp_path):
    _, db = _ref_and_db(["one doc here", "another doc"])
    p1, p2 = tmp_path / "a.db", tmp_path / "b.db"
    db_write(p1, db)
    db_write(p2, db)
    assert p1.read_bytes() == p2.read_bytes()
    db_write(p1, db)  # overwrite in place
    assert p1.read_bytes() == p2.read_bytes()


def test_db_empty_is_valid(tmp_path):
    ref, _ = _ref_and_db(["some text"])
    path = tmp_path / "empty.db"
    db_write(path, SignatureDb(ref.fingerprint, (), np.empty((0, ref.partitions))))
    db = db_read(path)
    assert db.record_count == 0


def test_db_truncation_detected(tmp_path):
    _, db = _ref_and_db(["one doc here", "another doc"])
    path = tmp_path / "sigs.db"
    db_write(path, db)
    data = path.read_bytes()
    path.write_bytes(data[:-7])
    with pytest.raises(CorruptDbError):
        db_read(path)


def test_db_corruption_detected(tmp_path):
    _, db = _ref_and_db(["one doc here", "another doc"])
    path = tmp_path / "sigs.db"
    db_write(path, db)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptDbError, match="checksum"):
        db_read(path)


def test_db_rewrite_of_read_db_is_byte_identical(tmp_path):
    _, db = _ref_and_db(["alpha beta gamma", "beta gamma delta", "unrelated words"])
    p1, p2 = tmp_path / "a.db", tmp_path / "b.db"
    db_write(p1, db)
    db_write(p2, db_read(p1))
    assert p2.read_bytes() == p1.read_bytes()


def test_db_rejects_nul_in_id(tmp_path):
    ref, db = _ref_and_db(["one doc here"])
    with pytest.raises(ValueError, match="NUL"):
        db_write(tmp_path / "bad.db", SignatureDb(ref.fingerprint, ("evil\x00id",), db.scores))


def test_db_rejects_duplicate_ids(tmp_path):
    ref, db = _ref_and_db(["one doc here"])
    with pytest.raises(ValueError, match="duplicate"):
        db_write(tmp_path / "bad.db", SignatureDb(ref.fingerprint, db.ids * 2, db.scores[[0, 0]]))


@pytest.mark.parametrize("first, second, whole, blocked", [
    (["c", "a", "d"], ["b", "a", "e"], "duplicate document id 'a'", "duplicate document id 'a'"),
    (["ok"], ["x\x00"], *["document id 'x\\x00' contains a NUL byte"] * 2),
    # Where both blocks hold a bad id, one check of all ids names the empty
    # id or the least repeat, and a check per block the first bad block's
    # first problem.
    (["a\tb", "c"], ["", "d"], "document id is empty", "document id 'a\\tb' contains a tab"),
    (["b", "b"], ["a", "a"], "duplicate document id 'a'", "duplicate document id 'b'"),
])
def test_check_ids_block_by_block(first, second, whole, blocked):
    ids = first + second
    with pytest.raises(ValueError) as exc:
        SignatureDb("f" * 64, tuple(ids), np.zeros((len(ids), 1)))
    assert str(exc.value) == whole
    seen: set[str] = set()
    with pytest.raises(ValueError) as exc:
        check_ids(first, seen)
        check_ids(second, seen)
    assert str(exc.value) == blocked


def test_db_rejects_nondb_file(tmp_path):
    path = tmp_path / "junk.db"
    path.write_bytes(b"x" * 100)
    with pytest.raises(CorruptDbError):
        db_read(path)


def _forge_db(
    path, fingerprint="a" * 64, partitions=2, id_bytes=1, records=((b"x", (0.5, 0.25)),)
):
    """A database file with a valid checksum around an arbitrary header."""
    body = (
        f"refsig-db 1\nfingerprint={fingerprint}\npartitions={partitions}\n"
        f"records={len(records)}\nid_bytes={id_bytes}\nwriter=forged\n%%\n"
    ).encode("ascii")
    for raw_id, scores in records:
        body += raw_id + np.asarray(scores, dtype="<f4").tobytes()
    path.write_bytes(body + hashlib.sha256(body).digest())
    return path


@pytest.mark.parametrize(
    "raw_id, match",
    [
        (b"", "document id is empty"),
        (b"a\tb", "document id 'a\\tb' contains a tab"),
        (b"a\nb", "document id 'a\\nb' contains a newline"),
        (b"a\x00b", "document id 'a\\x00b' contains a NUL byte"),
        (b"\xffab", "can't decode byte 0xff"),
        (b"x", "duplicate document id 'x'"),
    ],
    ids=["empty", "tab", "newline", "NUL", "not-UTF-8", "duplicate"],
)
def test_db_read_rejects_bad_id(tmp_path, raw_id, match):
    # Each file has a valid checksum, so only the id check can reject it.
    records = ((b"x", (0.5, 0.25)), (raw_id, (0.5, 0.25)))
    path = _forge_db(tmp_path / "forged.db", id_bytes=3, records=[
        (raw_id.ljust(3, b"\x00"), scores) for raw_id, scores in records
    ])
    with pytest.raises(CorruptDbError, match=f"^{re.escape(str(path))}: .*{re.escape(match)}"):
        db_read(path)


def test_dedup_rejects_db_with_tab_in_id(tmp_path, capsys):
    path = _forge_db(tmp_path / "forged.db", id_bytes=3, records=(
        (b"a\tb", (0.5, 0.25)), (b"c\x00\x00", (0.5, 0.25)),
    ))
    pairs = tmp_path / "pairs.tsv"
    assert main(["dedup", "--db", str(path), "--out", str(pairs)]) == 1
    assert "contains a tab" in capsys.readouterr().err
    assert not pairs.exists()


@pytest.mark.parametrize(
    "ids, scores, message",
    [
        (("x", "a\nb"), np.zeros((2, 2)), "document id 'a\\nb' contains a newline"),
        (("x", "b\udcff.txt"), np.zeros((2, 2)),
         "document id 'b\\udcff.txt' contains a lone surrogate, which UTF-8 cannot encode"),
        (("x", "y"), np.array([[0.5, 0.25], [np.nan, 0.0]]), "record 'y' has a non-finite score"),
        (("x",), np.zeros((2, 2)), "scores have shape (2, 2), not (1, P)"),
        (("x", "y", "z"), np.zeros((2, 2)), "scores have shape (2, 2), not (3, P)"),
        (("x", "y"), np.zeros(2), "scores have shape (2,), not (2, P)"),
        (("x",), np.zeros((1, 0)), "scores have shape (1, 0), not (1, P)"),
    ],
    ids=["bad-id", "not-utf8", "non-finite", "fewer-ids", "more-ids", "1-D", "no-partitions"],
)
def test_signature_db_rejects_bad_ids_and_rows(ids, scores, message):
    with pytest.raises(ValueError) as exc:
        SignatureDb("f" * 64, ids, scores)
    assert str(exc.value) == message


def test_signature_db_rejects_a_fingerprint_db_read_would_reject():
    # db_write writes whatever SignatureDb it is given, so none may hold a header db_read refuses.
    with pytest.raises(ValueError, match="^fingerprint 'F+' is not 64 lowercase hex digits$"):
        SignatureDb("F" * 64, ("x",), np.zeros((1, 2)))


def test_forged_db_control_loads(tmp_path):
    db = db_read(_forge_db(tmp_path / "ok.db"))
    assert db.partitions == 2
    assert db.ids == ("x",)
    assert db.scores.tolist() == [[0.5, 0.25]]


@pytest.mark.parametrize(
    "header, match",
    [
        (dict(partitions=0, records=((b"x", ()),)), "partitions=0"),
        (dict(partitions=-1, records=()), "partitions=-1"),
        (dict(id_bytes=0, records=((b"", (0.5, 0.25)),)), "id_bytes=0"),
        (dict(fingerprint="A" * 64), "fingerprint"),
        (dict(fingerprint="a" * 63), "fingerprint"),
        (dict(fingerprint="g" * 64), "fingerprint"),
        # Headers numpy cannot lay out as a record, over an empty payload.
        (dict(partitions=10**15, records=()), "partitions=1000000000000000"),
        (dict(id_bytes=10**15, records=()), "id_bytes=1000000000000000"),
    ],
)
def test_db_read_rejects_bad_header(tmp_path, header, match):
    path = _forge_db(tmp_path / "forged.db", **header)
    with pytest.raises(CorruptDbError, match=f"^{re.escape(str(path))}: .*{match}"):
        db_read(path)


# 1e300 is finite in float64 and overflows the float32 rows a SignatureDb holds.
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 1e300])
@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
def test_db_rejects_non_finite_scores(tmp_path, bad):
    ref, db = _ref_and_db(["one doc here", "another doc"])
    scores = db.scores[[1, 0]].astype(float)
    scores[1, 0] = bad
    with pytest.raises(ValueError, match="'doc-0' has a non-finite"):
        SignatureDb(ref.fingerprint, db.ids[::-1], scores)
    path = _forge_db(tmp_path / "forged.db", records=((b"w", (0.5, 0.25)), (b"x", (0.5, bad))))
    with pytest.raises(CorruptDbError, match="'x' has a non-finite"):
        db_read(path)
