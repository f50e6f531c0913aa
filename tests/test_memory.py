"""Memory stays bounded as the corpus grows: ``refsig sign`` holds one block
of documents at a time, so its peak grows with the signatures (P floats per
document), not with the documents' text and gram vectors.

The peak is the ``VmHWM`` of a fresh interpreter, read from
``/proc/self/status``. ``ru_maxrss`` would not do: on Linux a child reports
at least its parent's resident size, carried across exec.
"""

import os
import random
import string
import subprocess
import sys
from pathlib import Path

import pytest

import refsig
from refsig.reference import ReferenceText, save_reference

SMALL, LARGE = 300, 1300
DOC_CHARS = 4000
# Holding every document costs about 55 kB each at this size (55 MB over
# the 1,000 extra documents); holding their 10-float signatures, under 1 kB.
GROWTH_BOUND_KB = 8 * 1024

_SIGN_AND_REPORT_PEAK = """
import re, sys
from refsig.cli import main
assert main(["sign", "--ref", sys.argv[1], "--corpus", sys.argv[2], "--out", sys.argv[3]]) == 0
status = open("/proc/self/status").read()
print(re.search(r"VmHWM:\\s+(\\d+) kB", status).group(1))
"""


def _write_corpus(path: Path, n: int, vocab: list[str], rng: random.Random) -> None:
    path.mkdir()
    for i in range(n):
        (path / f"{i:05d}.txt").write_text(" ".join(rng.choices(vocab, k=DOC_CHARS // 6)))


def _peak_kb(ref: Path, corpus: Path, out: Path) -> int:
    src = str(Path(refsig.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _SIGN_AND_REPORT_PEAK, str(ref), str(corpus), str(out)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return int(done.stdout.split()[-1])


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_sign_peak_memory_grows_with_signatures_not_documents(tmp_path):
    rng = random.Random(0)
    letters = string.ascii_lowercase
    vocab = ["".join(rng.choices(letters, k=rng.randint(2, 8))) for _ in range(5000)]
    ref = tmp_path / "ref.txt"
    save_reference(ReferenceText(["".join(rng.choices(letters, k=3)) for _ in range(200)], 10), ref)
    peaks = []
    for n in (SMALL, LARGE):
        corpus = tmp_path / f"corpus-{n}"
        _write_corpus(corpus, n, vocab, rng)
        peaks.append(_peak_kb(ref, corpus, tmp_path / f"sigs-{n}.db"))
    growth = peaks[1] - peaks[0]
    assert growth < GROWTH_BOUND_KB, f"peak grew {growth} kB from {SMALL} to {LARGE} documents"
