"""Exact linear algebra over the integers: one incremental, fraction-free
echelon over sparse rows, dicts {column: int} whose columns are any
mutually comparable keys.  Pivot rows are kept in insertion order, each
keyed by its least column and reduced against the ones before it, so one
pass in that order reduces any row; each is primitive (its content
divided out exactly, its pivot positive), so entries stay small."""

from __future__ import annotations

from math import gcd


class Echelon:
    """The span of the rows added so far; ``rows`` maps each pivot column
    to its pivot row."""

    def __init__(self):
        self.rows: dict = {}

    def reduce(self, row) -> dict:
        """The remainder of ``row`` (a multiple of it minus a combination of
        the pivot rows), zero at every pivot column."""
        rem = {c: v for c, v in row.items() if v}
        for p, prow in self.rows.items():
            f = rem.get(p)
            if not f:
                continue
            a = prow[p]
            if a != 1:
                g = gcd(a, f)
                a, f = a // g, f // g
                rem = {c: a * v for c, v in rem.items()}
            for c, v in prow.items():
                x = rem.get(c, 0) - f * v
                if x:
                    rem[c] = x
                else:
                    del rem[c]
        return rem

    def add(self, row) -> bool:
        """Add the remainder of ``row`` as a pivot row; False when ``row``
        is already in the span."""
        rem = self.reduce(row)
        if not rem:
            return False
        p = min(rem)
        g = gcd(*rem.values()) if rem[p] > 0 else -gcd(*rem.values())
        self.rows[p] = rem if g == 1 else {c: v // g for c, v in rem.items()}
        return True


def left_kernel(rows) -> list[dict[int, int]]:
    """An integer basis of {x : x M = 0}, M given by sparse rows, as dicts
    over row indices: row k is tagged by a column (1, k) after every real
    column (0, c), and the pivot rows that reduce to tags alone are it."""
    ech = Echelon()
    for k, row in enumerate(rows):
        tagged = {(0, c): v for c, v in row.items()}
        tagged[1, k] = 1
        ech.add(tagged)
    return [{k: v for (_, k), v in row.items()} for (tag, _), row in ech.rows.items() if tag]
