"""Host-speed calibration: a fixed pure-Python round timed between operations.

The benchmark runs on shared virtual machines whose speed changes by up to
2x within a minute, for reasons outside the program. To keep that out of
the reported times, the benchmark times a block of ROUNDS fixed rounds
right before and right after each measured operation (and each set-up), on
the same core, and scales the operation's wall time by how fast the
rounds ran around it:

    normalized seconds = wall seconds / host factor
    host factor        = mean round seconds / REF_ROUND_S

averaging the factors of the blocks before and after. That is the seconds
the operation would take on a host where one round takes REF_ROUND_S. The round is the kind of work refsig spends its time
on: 3-gram counting into a dict and a sparse dot product over it. It does
not import refsig, so no change to the program can change it.
"""

from __future__ import annotations

import random
import time

# Seconds one round took on a quiet shared 2-core x86-64 virtual machine
# (Python 3.11). Only a scale: it makes normalized seconds read close to
# wall seconds there.
REF_ROUND_S = 0.006
# About 0.3 s of rounds. The host's speed swings within tenths of a
# second, so a block this long is needed to estimate the mean speed an
# operation of a few seconds sees; a few short rounds were noisier than
# the operations themselves.
ROUNDS = 50

_rng = random.Random(20181008)
_TEXT = " ".join(
    "".join(_rng.choice("abcdefghijklmnop") for _ in range(_rng.randint(2, 9)))
    for _ in range(1800)
)


def _grams(text: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for i in range(len(text) - 2):
        gram = text[i : i + 3]
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def _round() -> int:
    a, b = _grams(_TEXT), _grams(_TEXT[7:] + _TEXT[:7])
    return sum(v * b.get(k, 0) for k, v in a.items())


def host_factor() -> float:
    """How much slower than the reference the host runs right now: the
    mean time of ROUNDS rounds over REF_ROUND_S (above 1 is slower)."""
    start = time.perf_counter()
    for _ in range(ROUNDS):
        _round()
    return (time.perf_counter() - start) / ROUNDS / REF_ROUND_S
