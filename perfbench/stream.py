"""Input pools and the seeded query batch of the spot-checks workload.

Pure Python, so the client side never imports the package it measures.
Shapes travel as ``[kind, components]`` with each component a list of
parts, the form ``shapes.Shape(kind, components)`` takes.
"""

from __future__ import annotations

import random


def compositions(n: int) -> list[tuple[int, ...]]:
    """All compositions of n (the empty one for n = 0)."""
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(1, n + 1) for rest in compositions(n - first)]


def pseudo_compositions(n: int) -> list[tuple[int, ...]]:
    """Type B ribbons of size n: a leading part that may be 0, then a composition."""
    return [(first,) + rest for first in range(n + 1) for rest in compositions(n - first)]


def generalized(n: int, max_components: int) -> list[tuple[tuple[int, ...], ...]]:
    """Type A shapes of size n with 1..max_components nonempty components."""
    if n == 0 or max_components == 0:
        return []
    out = []
    for first in range(1, n + 1):
        for head in compositions(first):
            if first == n:
                out.append((head,))
            else:
                out.extend((head,) + rest for rest in generalized(n - first, max_components - 1))
    return out


def _shape(kind: str, components) -> list:
    return [kind, [list(c) for c in components]]


# Each pool is sorted by a structural size key (number of parts first),
# because check cost grows with it; a batch samples every pool evenly
# along that key.
def pools() -> dict[str, list[dict]]:
    def by_parts(items):
        return sorted(items, key=lambda c: (len(c), c))

    def by_shape(items):
        return sorted(items, key=lambda s: (sum(map(len, s)), len(s), s))

    all_up_to_8 = by_parts([b for k in range(9) for b in compositions(k)])
    return {
        "skew": [
            {"alpha": list(a), "beta": list(b)}
            for a in by_parts(compositions(8))
            for b in all_up_to_8
        ],
        "coproduct": [{"shape": _shape("A", s)} for s in by_shape(generalized(8, 3))],
        "q_ribbon": [{"parts": list(a)} for a in by_parts(compositions(9))],
        "relations_A7": [{"shape": _shape("A", [a])} for a in by_parts(compositions(7))],
        "relations_B5": [{"shape": _shape("B", [a])} for a in by_parts(pseudo_compositions(5))],
        "filtration": [{"shape": _shape("A", s)} for s in by_shape(generalized(7, 3))],
    }


# Six expensive queries to three cheap ones, so the median latency falls
# inside the expensive kinds' distribution rather than in the gap between
# the two groups, where it would jump with a handful of samples.
MIX = {"skew": 2, "coproduct": 2, "q_ribbon": 2, "relations_A7": 1, "relations_B5": 1, "filtration": 1}


def batch(seed: int, rounds: int) -> list[dict]:
    """The spot-check batch: ``rounds`` times MIX of each kind, taken from
    the middles of equal strata of the kind's sorted pool, so that every
    batch holds the same range of sizes; the seed sets the order in which
    they are asked, and so which cache entries earlier queries leave."""
    table = pools()
    out = []
    for kind, weight in MIX.items():
        pool, m = table[kind], weight * rounds
        out.extend({"kind": kind, **pool[int((j + 0.5) * len(pool) / m)]} for j in range(m))
    random.Random(seed).shuffle(out)
    return out
