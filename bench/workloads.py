"""Workload definitions: names, inputs drawn from the workload seed, data to set up.

This module does not import adlvkit, so a pass interpreter can start its
set-up clock before the package is imported. README.md records why each
workload was chosen.
"""

from __future__ import annotations

import random

# The three examples of the paper, classified on every seed.
PAPER_EXAMPLES = (("A5:gl", "s4 tau3"), ("C2:sc", "s1 tau2"), ("2A4:sc", "s1 tau1"))

# The seeded classify-cold draw, stratified so that every seed draws work
# of about the same cost. Each rank-3 datum gets one Coxeter word (the
# affine simple reflections in a seeded order, 4 letters), two words of 1
# and 2 letters over all affine letters, and three words of 2 to 4 letters
# over the finite letters s1..s3. Rank-4 and rank-5 data get words of 1 or
# 2 letters over all letters; their Coxeter words cost 18-48 s each (see
# README.md). 6 * 4 + 5 + 4 + 4 = 37 words.
RANK3_DRAW = ("C3:sc", "B3:adj", "2A3:sc", "A3:gl")
SHORT_DRAW = (("A4:adj", 4, (1, 2, 1, 2, 2)), ("2A4:sc", 4, (1, 2, 1, 2)), ("A5:gl", 5, (1, 2, 1, 2)))

AUDIT_CORPORA = (("A1:adj", 8), ("A2:adj", 8), ("C2:sc", 8), ("G2:sc", 8), ("2A3:sc", 4))

SCAN = {"datum": "A3:gl", "max_length": 4, "jobs": 2}

# after the pool scan, the scan workload runs two scans sharing a result
# cache: the first length bound fills an empty cache, the second reads
# those entries back and adds the rest.
RESUME = {"datum": "2A3:sc", "max_lengths": (3, 4)}

# The seed whose outputs golden.json records byte for byte.
DEFAULT_SEED = 0


def strategy_seeds(seed: int) -> tuple:
    """The ten distinct strategy seeds of a workload seed; seed 0 gives 0..9."""
    return tuple(range(10 * seed, 10 * seed + 10))


def classify_calls(seed: int) -> list:
    """The 40 (datum, element text) calls of classify-cold for a workload seed."""
    rng = random.Random(seed)

    def word(letters):
        return " ".join(f"s{i}" for i in letters)

    calls = list(PAPER_EXAMPLES)
    for datum in RANK3_DRAW:
        calls.append((datum, word(rng.sample(range(4), 4))))
        for k in (1, 2):
            calls.append((datum, word(rng.choices(range(4), k=k))))
        for k in (2, 3, 4):
            calls.append((datum, word(rng.choices(range(1, 4), k=k))))
    for datum, rank, lengths in SHORT_DRAW:
        for k in lengths:
            calls.append((datum, word(rng.choices(range(rank + 1), k=k))))
    return calls


class Workload:
    def __init__(self, name, why, item, datums, in_process=True):
        self.name = name
        self.why = why
        self.item = item  # what items_per_s counts on this workload
        self.datums = datums  # built (with weyl_elements) during set-up
        # the pass does its work in its own interpreter; only then does the
        # single-threaded calibration around it follow its times (README.md)
        self.in_process = in_process

    def __repr__(self):
        return f"Workload({self.name!r})"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "audit",
            "checks.audit over the acceptance-style corpora: conjugation, shift classes and trees",
            "audit_elements_per_s",
            tuple(spec for spec, _ in AUDIT_CORPORA),
        ),
        Workload(
            "classify-cold",
            "40 single classify calls, each on a fresh datum: defect enumeration and datum build",
            "classify_calls_per_s",
            tuple(sorted({s for s, _ in PAPER_EXAMPLES} | set(RANK3_DRAW) | {s for s, _, _ in SHORT_DRAW})),
        ),
        Workload(
            "scan",
            "adlvkit scan of A3:gl on a cold 2-worker pool, then two 2A3:sc scans sharing a result cache",
            "rows_per_s",
            (SCAN["datum"], RESUME["datum"]),
            in_process=False,
        ),
    )
}
