"""Helpers that several test modules share. pytest collects no test from this
module, since its name does not start with ``test_``; the test modules import
it by name, from the ``tests`` directory that pytest's default prepend import
mode puts on ``sys.path``."""

import random

from refsig.text import Document, gram_keys, gram_strings


def _keys(grams):
    return gram_keys("".join(grams))[::3]


def _grams(pool_or_chromosome):
    return tuple(gram_strings(pool_or_chromosome.keys))


def _word_salad_docs(count, seed, length=120):
    rng = random.Random(seed)
    alphabet = "abcdefghij "
    return [
        Document.from_raw(str(i), "".join(rng.choice(alphabet) for _ in range(length)))
        for i in range(count)
    ]
