"""Standard and semistandard tableaux on (generalized) ribbon shapes.

A tableau stores its entries in reading order (bottom row to top row,
left to right), so the entry tuple of a standard tableau IS its reading
word.  Validity is checked against the descent band of the shape, which
says which box each box touches (see ``shapes``): rows increase left to
right, columns increase top to bottom, with the extra 0-box of types B
and D participating in the comparisons (value 0 in type B; value -w(2)
in type D, where w(2) is the second letter of the reading word).

Standard tableaux of a shape are in bijection, via reading words, with
the group elements whose descent set lies in the band between the
triangle-gluing and dot-gluing descent sets of the shape.  So s_i T, the
filling whose reading word is s_i w(T), is standard exactly when the
descent set of s_i w(T) lies in that band; ``modules.build_p`` reads the
tableau action off this band rule, and its basis is the reading words
themselves (``standard_words``): a ``Tableau``, a frozen dataclass with
slots, is built only where a filling is shown or parsed.  Semistandard
fillings are enumerated, and all fillings checked, as words whose
consecutive letters follow the weak/strict pattern the same band
prescribes (``pattern_words``), and the diagram symmetry theta acts on
reading words alone (``theta_word``): it reverses them in type A and
negates them in types B and D.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass

from . import groups
from .shapes import (
    Shape,
    ShapeError,
    complement,
    descent_band,
    descent_set,
    positions,
    subshape_of_boxes,
    transpose,
)


@dataclass(frozen=True)
class Tableau:
    """A shape together with one entry per box, in reading order: an
    immutable value with slots (declared here: the class that
    ``dataclass(slots=True)`` makes breaks the frozen ``__setattr__`` on
    Python 3.11).  The constructor raises ``ShapeError`` unless there is
    one entry per box."""

    __slots__ = ("shape", "entries")
    shape: Shape
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != self.shape.size:
            raise ShapeError(f"shape {self.shape} has {self.shape.size} boxes, not {len(self.entries)}")

    def __reduce__(self):
        return Tableau, (self.shape, self.entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return format_tableau(self)


def reading_word(t: Tableau) -> groups.GroupElement:
    return groups.GroupElement(t.shape.kind, t.entries)


def is_semistandard(shape: Shape, entries: tuple[int, ...]) -> bool:
    return _follows(shape.kind, _pattern(shape, "<="), entries)


def is_standard(shape: Shape, entries: tuple[int, ...]) -> bool:
    n = shape.size
    if len(entries) != n:
        return False
    if sorted(abs(e) for e in entries) != list(range(1, n + 1)):
        return False
    if shape.kind == "A" and any(e < 0 for e in entries):
        return False
    if shape.kind == "D" and sum(1 for e in entries if e < 0) % 2:
        return False
    return _follows(shape.kind, _pattern(shape, "<"), entries)


def standard_words(shape: Shape, band: tuple[int, ...] | None = None) -> tuple[tuple[int, ...], ...]:
    """The reading words of all standard tableaux, in lexicographic order:
    the windows of the elements of the shape's band, ``groups.band_indices``
    of its descent band, which a caller that already holds it passes as
    ``band``.  Each word is the group table's own window tuple, so the
    result holds one pointer per tableau.  The tableau guard runs before
    any word is taken."""
    kind, n = shape.kind, shape.size
    if band is None:
        band = groups.band_indices(kind, n, *descent_band(shape))
    groups.guard(len(band), groups.tableau_limit(), "standard tableaux of {}", shape)
    elements = groups.enumerate_group(kind, n)
    return tuple([elements[g].window for g in band])


def standard_tableaux(shape: Shape) -> tuple[Tableau, ...]:
    """All standard tableaux, in reading-word lexicographic order: the
    ``standard_words`` of the shape, each as a ``Tableau``."""
    return tuple([Tableau(shape, w) for w in standard_words(shape)])


def tableau_descents(t: Tableau) -> frozenset[int]:
    """Descents of the tableau: the descents of w(t)^{-1}, in every type."""
    return groups.descents(groups.inverse(reading_word(t)))


# ---------------------------------------------------------------------------
# canonical fillings


def tau0(shape: Shape) -> Tableau:
    """The standard tableau whose reading word is the minimum of the
    descent class of J = D(shape): the longest element w0(J) of the
    parabolic subgroup generated by J."""
    if not shape.is_single:
        raise ShapeError("canonical fillings are defined on single ribbons")
    word = groups.parabolic_longest(shape.kind, shape.size, descent_set(shape))
    return Tableau(shape, word.window)


def tau1(shape: Shape) -> Tableau:
    """The standard tableau whose reading word is the maximum of the
    descent class of J = D(shape): w0 w0(S - J), for S the generator
    indices."""
    if not shape.is_single:
        raise ShapeError("canonical fillings are defined on single ribbons")
    kind, n = shape.kind, shape.size
    rest = set(positions(kind, n)) - descent_set(shape)
    word = groups.multiply(groups.longest_element(kind, n), groups.parabolic_longest(kind, n, rest))
    return Tableau(shape, word.window)


# ---------------------------------------------------------------------------
# symmetry maps


def theta_map(t: Tableau) -> Tableau:
    """Transpose in type A; diagonal reflection plus negation in types B
    and D.  On reading words: the reversed word on the transpose in type
    A, and the negated word on the complement in types B and D, where for
    odd n type D keeps the sign of the entry of absolute value 1, so that
    the sign count stays even."""
    if not t.shape.is_single:
        raise ShapeError("symmetry maps are defined on single ribbons")
    image = transpose(t.shape) if t.shape.kind == "A" else complement(t.shape)
    return Tableau(image, theta_word(t.shape.kind, t.entries))


def theta_word(kind: str, w: tuple[int, ...]) -> tuple[int, ...]:
    """The reading word of theta of the standard tableau with reading word
    w (see ``theta_map``): w reversed in type A, and w negated in types B
    and D, but for the entry of absolute value 1 in type D of odd rank."""
    if kind == "A":
        return w[::-1]
    keep_one = kind == "D" and len(w) % 2
    return tuple([e if keep_one and abs(e) == 1 else -e for e in w])


# ---------------------------------------------------------------------------
# splitting


def split_tableau(t: Tableau, m: int) -> tuple[Tableau, Tableau]:
    """Split a type A standard tableau into the entries <= m and the rest
    (shifted down by m), each on its own generalized shape."""
    if t.shape.kind != "A":
        raise ShapeError("splitting is defined for type A tableaux")
    if not 0 <= m <= t.n:
        raise ValueError(f"split point {m} out of range")
    low = [i for i, v in enumerate(t.entries) if v <= m]
    high = [i for i, v in enumerate(t.entries) if v > m]
    lshape, lorder = subshape_of_boxes(t.shape, low)
    hshape, horder = subshape_of_boxes(t.shape, high)
    left = Tableau(lshape, tuple(t.entries[i] for i in lorder))
    right = Tableau(hshape, tuple(t.entries[i] - m for i in horder))
    return left, right


# ---------------------------------------------------------------------------
# semistandard enumeration: words with a prescribed weak/strict pattern


_HOLDS = {"<=": operator.le, "<": operator.lt, "=": operator.eq, ">": operator.gt}


def pattern_words(kind: str, pattern, alphabet, what: str, *args) -> list[tuple[int, ...]]:
    """The words over the alphabet whose consecutive letters follow the
    pattern, in lexicographic order.

    A word has ``len(pattern)`` letters.  For j >= 1, ``pattern[j]`` is
    the relation "<=", "<", "=" or ">" of w[j-1] to w[j], or None for no
    condition.  ``pattern[0]`` relates the 0-box value to w[0]: that
    value is 0 in type B and -w[1] in type D, and type A has no 0-box.
    Semistandard ribbon fillings and the index sequences of fundamental
    and monomial quasisymmetric functions are all such words (Gessel,
    *Multipartite P-partitions and inner products of skew Schur
    functions*, 1984).  Words grow one position at a time by the letters
    allowed after their last letter, taken in increasing order, so every
    level stays sorted.  They are counted by last letter before any is
    built, and ``ResourceLimitError`` (naming them by ``what``, a
    ``str.format`` template filled from ``args`` only then) is raised
    exactly when there are more than the tableau guard allows, so an
    enumeration too large to hold is never started.
    """
    if not pattern:
        return [()]
    letters = tuple(sorted(set(alphabet)))
    after = {None: {}, "<=": {}, "<": {}, "=": {}, ">": {}}  # relation -> letter -> next letters
    for i, v in enumerate(letters):
        after[None][v], after["<="][v], after["<"][v] = letters, letters[i:], letters[i + 1 :]
        after["="][v], after[">"][v] = (v,), letters[:i]
    zero = None if kind == "A" else pattern[0]
    words = [(v,) for v in letters if zero is None or kind == "D" or _HOLDS[zero](0, v)]
    rest = pattern[1:]
    if kind == "D" and zero is not None and rest:  # the 0-box value is -w[1]
        holds = _HOLDS[zero]
        words = [(v, u) for (v,) in words for u in after[rest[0]][v] if holds(-u, v)]
        rest = rest[1:]
    ends = Counter(w[-1] for w in words)
    for rel in rest:
        nxt, counts = after[rel], Counter()
        for v, c in ends.items():
            for u in nxt[v]:
                counts[u] += c
        ends = counts
    groups.guard(sum(ends.values()), groups.tableau_limit(), what, *args)
    for rel in rest:
        nxt = after[rel]
        words = [w + (v,) for w in words for v in nxt[w[-1]]]
    return words


def semistandard_tableaux(shape: Shape, alphabet) -> list[tuple[int, ...]]:
    """The entry tuples (reading words) of all fillings over the alphabet
    with weak rows and strict columns, the 0-box included, sorted.

    Two boxes touch only when they are consecutive in reading order, so
    the conditions are a pattern for ``pattern_words``, read off the
    descent band (D0, D1) of the shape: box j sits on top of box j-1
    (w[j-1] > w[j]) when j is in D0, starts a new component (no
    condition) when j is in D1 but not D0, and is right of box j-1
    (w[j-1] <= w[j]) otherwise.  Box 0 relates to the 0-box in the same
    way.  Raises ``ResourceLimitError`` when there are more words than the
    tableau guard allows, before building them.
    """
    return pattern_words(shape.kind, _pattern(shape, "<="), alphabet, "semistandard tableaux of {}", shape)


def _pattern(shape: Shape, row: str) -> list[str | None]:
    """The ``pattern_words`` pattern of the fillings of the shape, with
    the relation ``row`` ("<" or "<=") along rows: ">" where box j is on
    top of box j-1 (j in D0), None where it starts a new component (j in
    D1 but not D0), and ``row`` where it is right of box j-1."""
    lower, upper = descent_band(shape)
    return [">" if j in lower else None if j in upper else row for j in range(shape.size)]


def _follows(kind: str, pattern, word) -> bool:
    """Whether the word is one that ``pattern_words`` builds for the
    pattern, over an alphabet that holds its letters."""
    if len(word) != len(pattern):
        return False
    if kind != "A" and word and pattern[0] is not None:
        zero = 0 if kind == "B" else -word[1]
        if not _HOLDS[pattern[0]](zero, word[0]):
            return False
    return all(rel is None or _HOLDS[rel](a, b) for rel, a, b in zip(pattern[1:], word, word[1:]))


# ---------------------------------------------------------------------------
# text format: rows top to bottom, "/" separated, 0-box shown as "0*"


def format_tableau(t: Tableau) -> str:
    cells = [str(e) for e in t.entries]
    rows, start = [], 0
    for part in sum(t.shape.components, ()):  # one row per part, bottom row first
        rows.append(cells[start : start + part])
        start += part
    if t.shape.kind != "A":
        rows[0].insert(0, "0*")
    return "/".join(",".join(row) for row in reversed(rows))


def parse_tableau(text: str, shape: Shape) -> Tableau:
    rows = [chunk.split(",") if chunk else [] for chunk in text.split("/")] if text else []
    widths = list(sum(shape.components, ()))  # one row per part, bottom row first
    if shape.kind != "A":
        widths[0] += 1  # the 0-box leads the bottom row
    if len(rows) != len(widths):
        raise ShapeError(f"tableau text has {len(rows)} rows, shape needs {len(widths)}")
    entries: list[int] = []
    for k, texts in zip(reversed(range(len(rows))), rows):  # top to bottom, as the text reads
        if len(texts) != widths[k]:
            raise ShapeError("tableau text row length does not match the shape")
        if k == 0 and shape.kind != "A":
            if texts[0].strip() != "0*":
                raise ShapeError("the 0-box must be written as 0*")
            texts = texts[1:]
        entries[:0] = map(int, texts)
    return Tableau(shape, tuple(entries))
