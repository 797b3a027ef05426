"""A fixed pure-Python computation that times how fast the machine runs Python now.

The shared machines this benchmark runs on slow down by a quarter or more
for spells of tens of seconds to minutes (see README.md, Noise), which no
length of run averages away. The slowdowns hit the memory system: a
computation whose data fit in the processor's caches barely follows them,
while this one, which walks a dictionary and lists of some megabytes in a
shuffled order as the program walks its caches, follows the program's
times closely. A run times it in a fresh interpreter
(``python3 calibrate.py`` prints the seconds) before and after every
set-up and pass interpreter, and divides each time it measures by the
slowdown seen around it.

Nothing here imports adlvkit, so no change to the program can move it.
"""

from __future__ import annotations

import random
import time

# The median of calibrate() on the 2-CPU machine the benchmark was built on
# (Python 3.11), at a quiet moment. Scaled figures read as if measured on
# that machine at that speed.
REFERENCE_S = 0.3

KEYS = 60000


def _work():
    rng = random.Random(1)
    keys = [tuple(rng.randrange(1000) for _ in range(4)) for _ in range(KEYS)]
    index = {key: i for i, key in enumerate(keys)}
    rows = [[key, i] for i, key in enumerate(keys)]
    order = list(range(KEYS))
    rng.shuffle(order)
    return sum(index[rows[j][0]] & 7 for j in order)


def calibrate() -> float:
    """Seconds one run of the fixed computation takes."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


if __name__ == "__main__":
    print(calibrate())
