"""Compositions, pseudo-compositions, and generalized ribbon shapes.

A composition (a sequence of positive integers) indexes type A objects
through its descent set of proper partial sums, which identifies the
compositions of n with the subsets of {1, ..., n-1}.  A
pseudo-composition, whose first part may be zero, plays the same role in
types B and D with descent sets inside {0, ..., n-1}; its diagram
carries an extra 0-box.  A generalized shape is a disjoint union of such
ribbons, each strictly northeast of the previous one; its descent band
is read off the concatenated parts and the component junctions.

Diagram conventions: each part is a row, and the reading order of the
boxes runs bottom row to top row, left to right within each row.  The
0-box sits to the left of the bottom row when the first part is
positive, and below the leftmost column when the first part is zero; it
is never part of the reading order.  Two boxes touch only when they are
consecutive in reading order, so the descent band (D0, D1) holds every
box relation: box j sits on top of box j-1 when j is in D0, starts a new
component when j is in D1 but not D0, and is right of box j-1 otherwise.
Box 0 relates to the 0-box the same way.

The subshapes of box subsets and the monotone beta/gamma splittings are
read off the band without building a diagram: a subshape's own band, as
two int bit masks, grows box by box by one rule (``_box_bits``), and
one walk over the monotone splittings (``splitting_bands``) grows both
factors' bands at once.  ``decompositions`` builds its shapes from those
bands, and ``splitting_counts``, the ribbon coproduct of ``series``,
counts the labels of their intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as cartesian

Parts = tuple[int, ...]

KINDS = ("A", "B", "D")


class ShapeError(ValueError):
    """Raised for malformed shapes or invalid shape arguments."""


def _check_ribbon(parts: Parts) -> None:
    if not parts or min(parts) < 1:
        raise ShapeError(f"not a composition: {parts}")


def _check_pseudo(parts: Parts) -> None:
    if not parts or parts[0] < 0 or min(parts[1:], default=1) < 1:
        raise ShapeError(f"not a pseudo-composition: {parts}")


@dataclass(frozen=True)
class Shape:
    """A (pseudo-)composition, or a disjoint union of them, with a type tag.

    ``components`` lists the connected ribbons from southwest to
    northeast.  In kinds B and D the first component is a
    pseudo-composition; the others are compositions.  The empty type A
    shape is ``Shape("A", ())`` and the empty type B shape is the bare
    0-box ``Shape("B", ((0,),))``.
    """

    kind: str
    components: tuple[Parts, ...]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ShapeError(f"unknown kind {self.kind!r}")
        comps = self.components
        if self.kind == "A":
            for c in comps:
                _check_ribbon(c)
        else:
            if not comps:
                raise ShapeError("kinds B and D need a leading pseudo-composition")
            _check_pseudo(comps[0])
            for c in comps[1:]:
                _check_ribbon(c)
            if self.kind == "D" and self.size < 2:
                raise ShapeError("kind D shapes have size at least 2")

    @property
    def size(self) -> int:
        return sum(sum(c) for c in self.components)

    @property
    def is_single(self) -> bool:
        return len(self.components) <= 1

    @property
    def parts(self) -> Parts:
        if len(self.components) == 1:
            return self.components[0]
        if self.kind == "A" and not self.components:
            return ()
        raise ShapeError(f"{self} is not a single ribbon")

    def __str__(self) -> str:
        return format_shape(self)


def composition(parts) -> Shape:
    parts = tuple(parts)
    return Shape("A", (parts,) if parts else ())


def pseudo_composition(parts, kind: str = "B") -> Shape:
    return Shape(kind, (tuple(parts) or (0,),))


def ribbon_shape(parts, kind: str = "A") -> Shape:
    return composition(parts) if kind == "A" else pseudo_composition(parts, kind)


def generalized(components, kind: str = "A") -> Shape:
    return Shape(kind, tuple(tuple(c) for c in components))


def positions(kind: str, n: int) -> range:
    """Generator index range: [1, n-1] in type A, [0, n-1] in types B, D."""
    return range(1, n) if kind == "A" else range(0, n)


# ---------------------------------------------------------------------------
# descent sets and the bijection with shapes


def parts_descents(parts: Parts) -> frozenset[int]:
    total, out = 0, []
    for p in parts[:-1]:
        total += p
        out.append(total)
    return frozenset(out)


def descent_set(shape: Shape) -> frozenset[int]:
    """Proper partial sums of a single (pseudo-)composition."""
    return parts_descents(shape.parts)


def _mask_parts(kind: str, size: int, mask: int) -> Parts:
    """The label of size ``size`` whose descent set is the bit mask; in
    kind A bit 0 is ignored, and in kinds B and D a descent at 0 shows up
    as a leading zero part."""
    if kind == "A":
        if not size:
            return ()
        mask &= -2
    parts, last = [], 0
    while mask:
        j = (mask & -mask).bit_length() - 1  # the lowest descent left
        parts.append(j - last)
        last, mask = j, mask & mask - 1
    parts.append(size - last)
    return tuple(parts)


def parts_from_descents(dset, n: int, kind: str) -> Parts:
    lo = 1 if kind == "A" else 0
    mask = 0
    for d in dset:
        if d < lo or d >= n:
            raise ShapeError(f"descent {d} out of range for size {n}, kind {kind}")
        mask |= 1 << d
    return _mask_parts(kind, n, mask)


def from_descents(dset, n: int, kind: str) -> Shape:
    """Inverse of descent_set for a fixed size; exact round-trip."""
    return ribbon_shape(parts_from_descents(dset, n, kind), kind)


def descent_key(shape: Shape):
    """Sort key: the descent indicator vector, coarsest shapes first."""
    n = shape.size
    d = descent_set(shape)
    return tuple(1 if i in d else 0 for i in positions(shape.kind, n))


def complement(shape: Shape) -> Shape:
    n = shape.size
    full = set(positions(shape.kind, n))
    return from_descents(full - descent_set(shape), n, shape.kind)


def reverse(shape: Shape) -> Shape:
    if shape.kind != "A":
        raise ShapeError("reverse is defined for type A compositions")
    return composition(shape.parts[::-1])


def transpose(shape: Shape) -> Shape:
    """reverse(complement), the diagonal reflection of the ribbon diagram."""
    return reverse(complement(shape))


def interval(lower, upper) -> tuple[frozenset[int], ...]:
    """Every set S with lower <= S <= upper, in bit-mask order: bit i of
    the index of S says whether S holds the i-th smallest element of
    upper - lower.  Empty unless lower <= upper."""
    lower, upper = frozenset(lower), frozenset(upper)
    if not lower <= upper:
        return ()
    out = [lower]
    for x in sorted(upper - lower):
        out += [s | {x} for s in out]
    return tuple(out)


def _mask_interval(lower: int, upper: int) -> list[int]:
    """``interval`` on bit masks, in the same order: every S with
    lower <= S <= upper, for lower <= upper."""
    free = upper & ~lower
    out, sub = [lower], 0
    while sub != free:
        sub = sub - free & free  # the next subset of free
        out.append(lower | sub)
    return out


def coarsenings(shape: Shape) -> tuple[Shape, ...]:
    """All shapes whose descent set is contained in D(shape)."""
    n, kind = shape.size, shape.kind
    out = (from_descents(d, n, kind) for d in interval((), descent_set(shape)))
    return tuple(sorted(out, key=descent_key))


def enumerate_shapes(n: int, kind: str) -> tuple[Shape, ...]:
    """All single-ribbon shapes of size n, smallest descent sets first."""
    out = (from_descents(d, n, kind) for d in interval((), positions(kind, n)))
    return tuple(sorted(out, key=descent_key))


# ---------------------------------------------------------------------------
# gluing and bracket sets


def glue_parts(a: Parts, b: Parts, mode: str) -> Parts:
    if mode == "dot":
        return a + b
    if mode == "triangle":
        if not a:
            return b
        if not b:
            return a
        return a[:-1] + (a[-1] + b[0],) + b[1:]
    raise ShapeError(f"unknown glue mode {mode!r}")


@lru_cache(maxsize=None)
def bracket_set(shape: Shape) -> tuple[Shape, ...]:
    """The 2^(k-1) single ribbons obtained by gluing the k components."""
    comps = shape.components
    if not comps:
        return (shape,)
    ribbons = [comps[0]]
    for comp in comps[1:]:
        ribbons = [glue_parts(r, comp, mode) for r in ribbons for mode in ("dot", "triangle")]
    out = tuple(sorted((ribbon_shape(r, shape.kind) for r in ribbons), key=descent_key))
    if len(set(out)) != len(out):
        raise ShapeError(f"bracket set of {shape} has a collision")
    return out


@lru_cache(maxsize=None)
def descent_band(shape: Shape) -> tuple[frozenset[int], frozenset[int]]:
    """Descent sets (D0, D1) of the triangle and dot gluings of all
    components: D1 holds the proper partial sums of the concatenated
    parts, and D0 is D1 without the sums at the component junctions,
    where the triangle gluing merges two parts.

    Reading words of standard tableaux of the shape are exactly the group
    elements w with D0 <= D(w) <= D1, and the band holds every box
    relation of the shape (see the module docstring).
    """
    upper = parts_descents(sum(shape.components, ()))
    junctions, total = [], 0
    for comp in shape.components[:-1]:
        total += sum(comp)
        junctions.append(total)
    return upper.difference(junctions), upper


def split_rows(shape: Shape) -> Shape:
    """The generalized shape whose components are the single rows of a ribbon."""
    return Shape(shape.kind, tuple((p,) for p in shape.parts))


# ---------------------------------------------------------------------------
# monotone two-colorings (disjoint-union decompositions)


@dataclass(frozen=True)
class Decomposition:
    """A monotone splitting of a shape into an upper-left part beta and
    a lower-right part gamma, recorded box by box in reading order."""

    beta: Shape
    gamma: Shape
    assignment: tuple[str, ...]


# What a box adds to the band of a subshape it joins when it does not
# follow its previous box in the shape there: a new component.
_NEW = (0, 1)


def _box_bits(band, j: int, follows: bool) -> tuple[int, int]:
    """What box j adds to the band of a subshape it joins, at its
    position there, as (bit of D0, bit of D1).  Following box j-1 there
    (the 0-box for j = 0), it relates to it as in the shape, which the
    shape's band (D0, D1) says: on top of it when j is in D0 (a descent
    in D0 and D1), a new component when j is in D1 only (a descent in D1
    alone), right of it otherwise (no descent).  So its bits are j's
    membership in the band.  Any other box starts a new component."""
    lower, upper = band
    return (j in lower, j in upper) if follows else _NEW


def _band_shape(kind: str, size: int, lower: int, upper: int) -> Shape:
    """The generalized shape of size ``size`` with descent band (D0, D1)
    given as bit masks: the label of D1 cut into components at the
    junctions D1 - D0.  In kind A bit 0 is ignored; a kind D shape of
    size below 2 is the pseudo-shape of kind B."""
    if kind == "A":
        upper &= -2
    elif kind == "D" and size < 2:
        kind = "B"
    parts = _mask_parts(kind, size, upper)
    junctions = upper & ~lower
    if not junctions:
        return Shape(kind, (parts,) if parts else ())
    comps, start = [], 0
    for p in parts:
        if not comps or junctions >> start & 1:
            comps.append(())
        comps[-1] += (p,)
        start += p
    return Shape(kind, tuple(comps))


def subshape_of_boxes(shape: Shape, picked: list[int], with_zero: bool = False):
    """The generalized shape formed by a subset of boxes, and the order in
    which those boxes are visited by the subshape's own reading order.

    One pass over the picked boxes in reading order grows the subshape's
    descent band by ``_box_bits``: a box right after the previous picked
    box relates to it as in the shape, and any other box starts a new
    component.  The order is therefore ``sorted(picked)``.  With
    ``with_zero`` (kinds B and D) the 0-box joins the subshape as the box
    before box 0: under a picked box 0 (0 in D0) it makes a leading zero
    part, left of one (0 not in D1) it leaves the parts as they are, and
    otherwise it is a bare leading component.
    """
    band = descent_band(shape)
    order = sorted(picked)
    zero = with_zero and shape.kind != "A"
    last, size, lower, upper = -1 if zero else -2, 0, 0, 0
    for j in order:
        low, high = _box_bits(band, j, last == j - 1)
        lower |= low << size
        upper |= high << size
        size, last = size + 1, j
    return _band_shape(shape.kind if zero else "A", size, lower, upper), order


def splitting_bands(shape: Shape) -> list[tuple[int, int, int, int, int, int]]:
    """Every monotone beta/gamma filling of the boxes of the shape, in
    lexicographic order of the assignments, as (picked, size of beta,
    beta's D0, beta's D1, gamma's D0, gamma's D1).  The sets are bit
    masks; bit j+1 of picked says that box j is beta, and bit 0 is the
    0-box.  In kind A bit 0 of D1 is to be ignored (``_band_shape`` and
    ``_mask_parts`` do).

    Along every row (left to right) and every column (top to bottom) the
    labels weakly increase, with beta < gamma.  By the descent band, box
    j touches at most box j-1, the 0-box for j = 0: so labelling the
    boxes in reading order checks each new label against the previous
    one alone, and trying beta before gamma keeps the fillings sorted.
    Each factor's band grows as in ``subshape_of_boxes``, by
    ``_box_bits``: box j relates to the factor's previous box as in the
    shape when that box is j-1, and starts a new component otherwise.
    The 0-box is not assignable: it counts as a beta cell, so the box on
    top of it is beta and beta's band starts from it in kinds B and D.
    Type A has no 0-box, but there box 0 is right of it, which a beta
    cell does not constrain and which adds nothing to the band.
    """
    band = descent_band(shape)
    states = [(1, 0, 0, 0, 0, 0)]
    for j in range(shape.size):
        # box j is on top of box j-1 when low is set, right of it when
        # high is not
        low, high = _box_bits(band, j, True)
        new_low, new_high = _box_bits(band, j, False)
        bit, grown = 2 << j, []
        for picked, size, b0, b1, g0, g1 in states:
            if picked >> j & 1:
                # box j-1 is beta: beta follows it, and gamma, which may
                # not sit on top of it, does not
                grown.append((picked | bit, size + 1, b0 | low << size, b1 | high << size, g0, g1))
                if not low:
                    k = j - size
                    grown.append((picked, size, b0, b1, g0 | new_low << k, g1 | new_high << k))
            else:
                # box j-1 is gamma: beta may not sit right of it
                if high:
                    grown.append(
                        (picked | bit, size + 1, b0 | new_low << size, b1 | new_high << size, g0, g1)
                    )
                k = j - size
                grown.append((picked, size, b0, b1, g0 | low << k, g1 | high << k))
        states = grown
    return states


def splitting_counts(shape: Shape) -> dict[tuple[Parts, Parts], int]:
    """The ribbon coproduct of the shape as int counts: for each pair of
    labels, the number of monotone splittings whose two factors' bracket
    sets hold them.  A bracket set is the interval between the D0 and D1
    of the factor's band, so each splitting of ``splitting_bands`` adds 1
    to every pair of bit masks of its two intervals; then each distinct
    mask gets its label once.  No shape or bracket set is built."""
    n, kind = shape.size, shape.kind
    beta_bits = -2 if kind == "A" else -1  # bit 0 is a descent only in kinds B and D
    counts: dict[tuple[int, int, int], int] = {}
    for _, size, b0, b1, g0, g1 in splitting_bands(shape):
        rights = _mask_interval(g0, g1 & -2)
        for left in _mask_interval(b0, b1 & beta_bits):
            for right in rights:
                key = (size, left, right)
                counts[key] = counts.get(key, 0) + 1
    left_label = {key: _mask_parts(kind, *key) for key in {(size, l) for size, l, _ in counts}}
    right_label = {key: _mask_parts("A", *key) for key in {(n - size, r) for size, _, r in counts}}
    return {
        (left_label[size, l], right_label[n - size, r]): c for (size, l, r), c in counts.items()
    }


def decompositions(shape: Shape) -> tuple[Decomposition, ...]:
    """All monotone beta/gamma fillings of the boxes of the shape, in
    lexicographic order of their assignments (see ``splitting_bands``).
    In kinds B and D the 0-box is attached to the beta factor, which is
    therefore a pseudo-shape while gamma is a type A shape."""
    n, kind = shape.size, shape.kind
    return tuple(
        Decomposition(
            _band_shape(kind, size, b0, b1),
            _band_shape("A", n - size, g0, g1),
            tuple(["b" if picked >> j & 1 else "g" for j in range(1, n + 1)]),
        )
        for picked, size, b0, b1, g0, g1 in splitting_bands(shape)
    )


def enumerate_generalized(n: int, kind: str, max_components: int) -> list[Shape]:
    """All generalized shapes of size n with at most the given number of
    components; in kinds B and D the leading component may have size 0.
    Distinct component counts, sizes and parts give distinct shapes, so
    the list has no repeats."""
    if kind == "D" and n < 2:
        return []
    first_kind = "A" if kind == "A" else "B"
    out = []
    for k in range(1, max_components + 1):
        for first in range(1 if kind == "A" else 0, n + 1):
            for sizes in _compositions_of(n - first, k - 1):
                pools = [[c.parts for c in enumerate_shapes(first, first_kind)]]
                pools += [[c.parts for c in enumerate_shapes(s, "A")] for s in sizes]
                out.extend(Shape(kind, combo) for combo in cartesian(*pools))
    return out


def _compositions_of(n: int, k: int) -> list[tuple[int, ...]]:
    if k == 0:
        return [()] if n == 0 else []
    if n < k:
        return []
    out = []
    for first in range(1, n - k + 2):
        out.extend((first,) + rest for rest in _compositions_of(n - first, k - 1))
    return out


# ---------------------------------------------------------------------------
# text syntax: "[2,3,1]" and "[2]+[2,2]+[3,2]"


def format_shape(shape: Shape) -> str:
    if shape.kind == "A" and not shape.components:
        return "[]"
    return "+".join("[" + ",".join(map(str, c)) + "]" for c in shape.components)


def parse_shape(text: str, kind: str = "A") -> Shape:
    text = text.strip()
    comps = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not (chunk.startswith("[") and chunk.endswith("]")):
            raise ShapeError(f"malformed shape literal {chunk!r}")
        inner = chunk[1:-1].strip()
        comps.append(tuple(int(p) for p in inner.split(",")) if inner else ())
    if comps == [()]:
        return Shape("A", ()) if kind == "A" else pseudo_composition((), kind)
    return Shape(kind, tuple(comps))
