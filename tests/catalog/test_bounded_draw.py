"""``bounded_draw``'s ``below`` returns what ``Random`` would.

Every draw of a TPC-D build (the statistics reservoirs, the generator)
goes through ``below``; it must return exactly the value
``randrange(n)`` returns on the running interpreter, leave the RNG in
the same state, and so equal ``randrange(a, b)``, ``randint`` and
``choice`` written through it. The bounds straddle every bit length up
to 71 bits (``2**k - 1``, ``2**k``, ``2**k + 1``), where the number of
bits a draw takes changes, and ``random()`` calls between the draws
show that the two RNGs stay in step.
"""

import random

import pytest

from repro.catalog.stats import bounded_draw

SEEDS = [0, 19960604, "orders"]
BOUNDS = [1, 2, 3] + [
    n
    for k in range(2, 71)
    for n in (2**k - 1, 2**k, 2**k + 1)
]


def _pair(seed):
    mine = random.Random(seed)
    return bounded_draw(mine), mine, random.Random(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_below_is_randrange(seed):
    below, mine, theirs = _pair(seed)
    for _round in range(3):
        for n in BOUNDS:
            assert below(n) == theirs.randrange(n), n
            assert mine.random() == theirs.random(), n


@pytest.mark.parametrize("seed", SEEDS)
def test_offsets_are_randrange_and_randint(seed):
    below, mine, theirs = _pair(seed)
    for n in BOUNDS:
        start = n // 3 - 7
        assert start + below(n) == theirs.randrange(start, start + n), n
        assert start + below(n) == theirs.randint(start, start + n - 1), n
        assert mine.random() == theirs.random(), n


@pytest.mark.parametrize("seed", SEEDS)
def test_indexing_is_choice(seed):
    below, mine, theirs = _pair(seed)
    for length in [1, 2, 3, 4, 5, 7, 8, 9, 25, 31, 32, 33, 1000]:
        sequence = [f"item {position}" for position in range(length)]
        for _draw in range(5):
            assert sequence[below(length)] == theirs.choice(sequence)
        assert mine.random() == theirs.random(), length
