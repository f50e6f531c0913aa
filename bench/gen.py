"""Seeded corpus generator for the benchmark workloads.

Everything here is a pure function of its arguments: the same seed gives
byte-identical files. The generator does not import refsig, so the program
under test never shapes its own inputs.

Documents are drawn from one fixed pseudo-language, so corpora made from
different seeds share 3-gram statistics the way same-language collections
do. The raw text is deliberately messy (mixed case, tabs, newlines, double
spaces, precomposed and combining accents, ligatures, CJK and non-BMP code
points), so normalization does real work. With ``markup`` some words are
wrapped in ``<b>`` tags or followed by an HTML entity, for ``--html-strip``.

Every planted copy gets its own base document, so the planted pairs are the
complete ground truth: no two copies share a base.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from pathlib import Path

_VOCAB_SEED = 20181008
_VOCAB_SIZE = 1200
_WORDS_PER_DOC = 160
# A near-duplicate replaces up to this share of its base's characters.
_EDIT_FRACTION = 0.10

_EXOTIC = (
    "café", "naïve", "Straße", "ﬁnance", "Ωmega", "日本語", "😀", "𝔣𝔯𝔞𝔨",
    "été", "İstanbul", "ΣΟΦΙΑ", "Ærø", "𐍈𐌰𐌹", "ǅungla",
)
_SEPARATORS = (" ",) * 85 + ("  ",) * 6 + ("\t",) * 4 + ("\n",) * 4 + (" \n\n",)
_ENTITIES = ("&amp;", "&lt;", "&eacute;", "&#233;")

DUPLICATE = "duplicate"
NEAR_DUPLICATE = "near-duplicate"


def _make_vocabulary() -> tuple[str, ...]:
    rng = random.Random(_VOCAB_SEED)
    onsets = ("b c d f g h j k l m n p r s t v w z br ch cl cr dr fl fr gl gr "
              "pl pr sh sk sl sm sn sp st str sw th tr tw").split()
    vowels = "a e i o u ai ea ee ia io oo ou".split()
    codas = ["", "", ""] + "b ck d g k l ll m n nd ng nt p r rd s ss st t x".split()
    words: set[str] = set()
    while len(words) < _VOCAB_SIZE:
        syllables = rng.randint(1, 3)
        word = "".join(rng.choice(onsets) + rng.choice(vowels) for _ in range(syllables))
        word += rng.choice(codas)
        if 3 <= len(word) <= 12:
            words.add(word)
    return tuple(sorted(words))


_VOCABULARY = _make_vocabulary()


@dataclass(frozen=True)
class CorpusSpec:
    bases: int
    near_dups: int
    dups: int
    markup: bool = False


@dataclass(frozen=True)
class Corpus:
    texts: dict[str, str]
    labels: tuple[tuple[str, str, str], ...]


def _raw_document(rng: random.Random, markup: bool) -> str:
    out: list[str] = []
    for _ in range(_WORDS_PER_DOC):
        word = rng.choice(_EXOTIC) if rng.random() < 0.04 else rng.choice(_VOCABULARY)
        case = rng.random()
        if case < 0.08:
            word = word.capitalize()
        elif case < 0.10:
            word = word.upper()
        if markup:
            tag = rng.random()
            if tag < 0.05:
                word = f"<b>{word}</b>"
            elif tag < 0.06:
                word += rng.choice(_ENTITIES)
        out.append(word)
        out.append(rng.choice(_SEPARATORS))
    return "".join(out).rstrip()


def _edit(text: str, rng: random.Random) -> str:
    # Only lowercase ASCII letters are replaced, so tags and entities stay
    # intact and a near-duplicate differs from its base by letter edits alone.
    positions = [i for i, ch in enumerate(text) if "a" <= ch <= "z"]
    count = min(len(positions), rng.randint(1, max(1, int(len(text) * _EDIT_FRACTION))))
    chars = list(text)
    for pos in rng.sample(positions, count):
        chars[pos] = rng.choice(string.ascii_lowercase)
    return "".join(chars)


def make_corpus(spec: CorpusSpec, seed: int, stream: str) -> Corpus:
    """Build bases plus planted exact and edited copies, each of a distinct base.

    ``stream`` separates independent corpora drawn from one workload seed.
    """
    if spec.dups + spec.near_dups > spec.bases:
        raise ValueError("every planted copy needs its own base document")
    rng = random.Random(f"{stream}:{seed}")
    texts = {
        f"base-{i:05d}.txt": _raw_document(rng, spec.markup)
        for i in range(spec.bases)
    }
    sources = rng.sample(range(spec.bases), spec.dups + spec.near_dups)
    labels: list[tuple[str, str, str]] = []
    for i, src in enumerate(sources[: spec.dups]):
        base_id, copy_id = f"base-{src:05d}.txt", f"dup-{i:05d}.txt"
        texts[copy_id] = texts[base_id]
        labels.append((base_id, copy_id, DUPLICATE))
    for i, src in enumerate(sources[spec.dups :]):
        base_id, copy_id = f"base-{src:05d}.txt", f"near-{i:05d}.txt"
        texts[copy_id] = _edit(texts[base_id], rng)
        labels.append((base_id, copy_id, NEAR_DUPLICATE))
    return Corpus(dict(sorted(texts.items())), tuple(sorted(labels)))


def write_corpus(corpus: Corpus, docs_dir: Path, labels_path: Path) -> int:
    """Write one UTF-8 file per document plus ``labels.tsv``; returns bytes written."""
    docs_dir.mkdir(parents=True, exist_ok=True)
    total = 0
    for doc_id, text in corpus.texts.items():
        data = text.encode("utf-8")
        (docs_dir / doc_id).write_bytes(data)
        total += len(data)
    rows = ["id_a\tid_b\tlabel"] + ["\t".join(row) for row in corpus.labels]
    labels_path.write_bytes(("\n".join(rows) + "\n").encode("utf-8"))
    return total
