"""Symmetric groups and signed permutation groups of types A, B, D.

Elements are stored in one-line (window) notation w(1), ..., w(n).  In
type B the window is any signing of a permutation of 1..n; in type D the
number of negative entries is even.  Descents are computed from the
window exactly as displayed in the definitions: position i is a descent
when w(i) > w(i+1), with the boundary value w(0) = 0 in type B and
w(0) = -w(2) in type D.  Lengths are inv, inv+neg+nsp, and inv+nsp for
types A, B, D respectively.

Enumeration is by direct product (permutation times sign vector) under a
configurable resource guard, in window order.  ``_descent_buckets`` maps
each descent set to the tuple of its element indices, read-only, from
one scan of the group, so the indices of a band of classes
(``band_indices``) come out in window order by sorting plain integers.
The extremes of the descent class of J, w0(J) and w0 w0(S - J), are
built without enumerating from ``parabolic_longest``.  ``left_actions``
holds, per enumerated group and by element index, every s_i w, whether
s_i lowers w, the length found by breadth-first search and D(w^-1): the
table the tableau modules, the characteristics and the q-identities
read.  A kind other than A, B or D raises ``ValueError``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, permutations
from math import factorial
from types import MappingProxyType

from .shapes import KINDS, Shape, descent_set, positions

DEFAULT_GROUP_LIMIT = 50_000
DEFAULT_TABLEAU_LIMIT = 100_000

_limit_override: dict[str, int | None] = {"group": None, "tableau": None}


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed the configured resource guard."""


def positive_limit(value, source: str) -> int:
    """A guard value: a positive integer, given as one or as its decimal
    digits, or a ``ValueError`` naming where it came from."""
    text = str(value).strip()
    if not text.isdecimal() or int(text) < 1:
        raise ValueError(f"{source} must be a positive integer, not {value!r}")
    return int(text)


def env_limit() -> int | None:
    """The guard set by HECKE_RIBBON_MAX_ENUM, or None when it is unset."""
    raw = os.environ.get("HECKE_RIBBON_MAX_ENUM")
    return positive_limit(raw, "HECKE_RIBBON_MAX_ENUM") if raw else None


def group_limit() -> int:
    return _limit_override["group"] or env_limit() or DEFAULT_GROUP_LIMIT


def tableau_limit() -> int:
    return _limit_override["tableau"] or env_limit() or DEFAULT_TABLEAU_LIMIT


def set_limits(group: int | None = None, tableau: int | None = None) -> None:
    """Override the guards; None restores the environment or default one."""
    for name, value in (("group", group), ("tableau", tableau)):
        _limit_override[name] = None if value is None else positive_limit(value, f"the {name} guard")


def _check_kind(kind: str) -> str:
    """The kind itself, or a ``ValueError`` unless it is A, B or D."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    return kind


def guard(count: int, limit: int, what: str, *args) -> None:
    """Raise ResourceLimitError when count exceeds limit; ``what`` names
    the objects counted, a str.format template filled in from args only
    when the guard fires."""
    if count > limit:
        raise ResourceLimitError(f"{what.format(*args)} count {count} exceeds the guard {limit}")


@dataclass(frozen=True)
class GroupElement:
    """A permutation or signed permutation in one-line notation."""

    kind: str
    window: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.window)

    def __call__(self, j: int) -> int:
        """Image of a signed index, with w(-j) = -w(j)."""
        if j > 0:
            return self.window[j - 1]
        if j < 0:
            return -self.window[-j - 1]
        raise ValueError("signed indices are nonzero")

    def __str__(self) -> str:
        return ",".join(map(str, self.window))


def validate(w: GroupElement) -> GroupElement:
    _check_kind(w.kind)
    n = w.n
    if sorted(abs(v) for v in w.window) != list(range(1, n + 1)):
        raise ValueError(f"not a window on 1..{n}: {w.window}")
    if w.kind == "A" and any(v < 0 for v in w.window):
        raise ValueError("type A windows are unsigned")
    if w.kind == "D":
        if n < 2:
            raise ValueError("type D needs n >= 2")
        if sum(1 for v in w.window if v < 0) % 2:
            raise ValueError("type D windows have an even number of signs")
    return w


def identity(kind: str, n: int) -> GroupElement:
    return GroupElement(_check_kind(kind), tuple(range(1, n + 1)))


def generator(kind: str, n: int, i: int) -> GroupElement:
    """The Coxeter generator s_i acting on windows of size n."""
    _check_kind(kind)
    w = list(range(1, n + 1))
    if i == 0:
        if kind == "B":
            w[0] = -1
        elif kind == "D":
            w[0], w[1] = -2, -1
        else:
            raise ValueError("type A generators are s_1 .. s_{n-1}")
    else:
        w[i - 1], w[i] = w[i], w[i - 1]
    return GroupElement(kind, tuple(w))


def generators(kind: str, n: int) -> dict[int, GroupElement]:
    return {i: generator(kind, n, i) for i in positions(kind, n)}


def multiply(u: GroupElement, v: GroupElement) -> GroupElement:
    """Composition of maps, (u v)(i) = u(v(i))."""
    if u.kind != v.kind or u.n != v.n:
        raise ValueError("mismatched kinds or sizes")
    return GroupElement(u.kind, tuple(u(v(i)) for i in range(1, u.n + 1)))


def inverse(w: GroupElement) -> GroupElement:
    out = [0] * w.n
    for pos, v in enumerate(w.window, start=1):
        if v > 0:
            out[v - 1] = pos
        else:
            out[-v - 1] = -pos
    return GroupElement(w.kind, tuple(out))


def descents(w: GroupElement) -> frozenset[int]:
    win = w.window
    out = {i for i in range(1, w.n) if win[i - 1] > win[i]}
    if w.kind == "B" and w.n and win[0] < 0:
        out.add(0)
    if w.kind == "D" and -win[1] > win[0]:
        out.add(0)
    return frozenset(out)


def inv_count(w: GroupElement) -> int:
    win = w.window
    return sum(1 for i in range(w.n) for j in range(i + 1, w.n) if win[i] > win[j])


def neg_count(w: GroupElement) -> int:
    return sum(1 for v in w.window if v < 0)


def nsp_count(w: GroupElement) -> int:
    win = w.window
    return sum(1 for i in range(w.n) for j in range(i + 1, w.n) if win[i] + win[j] < 0)


def length_stats(w: GroupElement) -> tuple[int, int, int, int]:
    """(inv, neg, nsp, length) with length assembled per kind."""
    inv = inv_count(w)
    if w.kind == "A":
        return inv, 0, 0, inv
    neg, nsp = neg_count(w), nsp_count(w)
    if w.kind == "B":
        return inv, neg, nsp, inv + neg + nsp
    return inv, neg, nsp, inv + nsp


def length(w: GroupElement) -> int:
    return length_stats(w)[3]


def group_order(kind: str, n: int) -> int:
    if _check_kind(kind) == "A":
        return factorial(n)
    if kind == "B":
        return 2**n * factorial(n)
    return 2 ** (n - 1) * factorial(n)


@lru_cache(maxsize=None)
def _enumerate(kind: str, n: int) -> tuple[GroupElement, ...]:
    out = []
    if kind == "A":
        for p in permutations(range(1, n + 1)):
            out.append(GroupElement("A", p))
        return tuple(out)
    for p in permutations(range(1, n + 1)):
        for k in range(n + 1):
            if kind == "D" and k % 2:
                continue
            for signs in combinations(range(n), k):
                w = list(p)
                for i in signs:
                    w[i] = -w[i]
                out.append(GroupElement(kind, tuple(w)))
    out.sort(key=lambda g: g.window)
    return tuple(out)


def enumerate_group(kind: str, n: int) -> tuple[GroupElement, ...]:
    """Every element exactly once, sorted by window; rank 0 is the
    trivial group in types A and B."""
    if kind == "D" and n < 2:
        raise ValueError("type D needs n >= 2")
    if n < 0:
        raise ValueError(f"invalid rank {n}")
    guard(group_order(kind, n), group_limit(), "group {}_{}", kind, n)
    return _enumerate(kind, n)


@lru_cache(maxsize=None)
def _descent_buckets(kind: str, n: int) -> MappingProxyType[frozenset[int], tuple[int, ...]]:
    """The indices into ``_enumerate(kind, n)`` by descent set, increasing
    within each class; every class shares one descent-set object."""
    buckets: dict[frozenset[int], list[int]] = {}
    for g, w in enumerate(_enumerate(kind, n)):
        buckets.setdefault(descents(w), []).append(g)
    return MappingProxyType({d: tuple(gs) for d, gs in buckets.items()})


@dataclass(frozen=True)
class LeftActions:
    """The left action of the generators on one group, by element index:
    element g is ``enumerate_group(kind, n)[g]``, ``index`` maps its
    window back to g, and ``descents[g]`` is its descent set D(w).  For a
    generator index i, ``step[i][g]`` is the index of s_i w and
    ``lowers[i][g]`` tells whether i is in D(w^-1), that is, whether s_i w
    is shorter than w.  ``lengths[g]`` is the length of w, found by
    breadth-first search along the steps from the identity (not by the
    inv/neg/nsp formula of ``length``), and ``inverse_descents[g]`` is
    D(w^-1) = {i : lowers[i][g]}, one shared frozenset per distinct set.
    Read-only: every field is a tuple or a read-only mapping."""

    index: MappingProxyType[tuple[int, ...], int]
    descents: tuple[frozenset[int], ...]
    step: MappingProxyType[int, tuple[int, ...]]
    lowers: MappingProxyType[int, tuple[bool, ...]]
    lengths: tuple[int, ...]
    inverse_descents: tuple[frozenset[int], ...]


@lru_cache(maxsize=None)
def _left_actions(kind: str, n: int) -> LeftActions:
    elements = _enumerate(kind, n)
    index = {w.window: g for g, w in enumerate(elements)}
    descents_of = [frozenset()] * len(elements)
    for d, gs in _descent_buckets(kind, n).items():
        for g in gs:
            descents_of[g] = d
    # s_i w applies s_i to every entry of w's window; with each entry v
    # stored as the byte v + n (a byte for any n a group guard admits),
    # that is one bytes.translate per element
    keys = [bytes(map(n.__add__, w.window)) for w in elements]
    at = {key: g for g, key in enumerate(keys)}
    step = {}
    for i in positions(kind, n):
        s_i, table = generator(kind, n, i), bytearray(range(256))
        for v in range(1, n + 1):
            table[n + v], table[n - v] = n + s_i(v), n - s_i(v)
        step[i] = tuple([at[key.translate(table)] for key in keys])
    # lengths by breadth-first search from the identity: i is in D(w^-1)
    # exactly when s_i w is shorter than w
    length = [-1] * len(elements)
    layer = [index[identity(kind, n).window]]
    length[layer[0]] = 0
    while layer:
        below, layer = layer, []
        for g in below:
            for moves in step.values():
                h = moves[g]
                if length[h] < 0:
                    length[h] = length[g] + 1
                    layer.append(h)
    lowers = {i: tuple([length[h] < ell for h, ell in zip(moves, length)]) for i, moves in step.items()}
    # D(w^-1) is the pattern of w's entries across the lowers rows: each
    # distinct pattern is made a set once, and the patterns are streamed
    # twice rather than held; with no generators the one element has D = {}
    sets = dict.fromkeys(zip(*lowers.values()))
    for pattern in sets:
        sets[pattern] = frozenset(i for i, low in zip(lowers, pattern) if low)
    inverse_descents = tuple(map(sets.__getitem__, zip(*lowers.values()))) or (frozenset(),)
    return LeftActions(
        MappingProxyType(index),
        tuple(descents_of),
        MappingProxyType(step),
        MappingProxyType(lowers),
        tuple(length),
        inverse_descents,
    )


def left_actions(kind: str, n: int) -> LeftActions:
    """The memoised left action table of the group, within the group guard."""
    enumerate_group(kind, n)
    return _left_actions(kind, n)


@dataclass(frozen=True)
class DescentClass:
    """All group elements with a prescribed descent set, with the unique
    length-minimal and length-maximal elements."""

    kind: str
    shape: Shape
    elements: tuple[GroupElement, ...]
    minimum: GroupElement
    maximum: GroupElement


def descent_class(kind: str, shape: Shape) -> DescentClass:
    if shape.kind != kind:
        raise ValueError(f"shape kind {shape.kind} does not match {kind}")
    dset = descent_set(shape)
    elements = band_elements(kind, shape.size, dset, dset)
    if not elements:
        raise ValueError(f"empty descent class for {shape}")
    by_len = sorted(elements, key=length)
    w0, w1 = by_len[0], by_len[-1]
    if len(by_len) > 1:
        if length(by_len[1]) == length(w0) or length(by_len[-2]) == length(w1):
            raise AssertionError(f"length extremes of {shape} are not unique")
    return DescentClass(kind, shape, elements, w0, w1)


def min_coset_reps(kind: str, shape: Shape) -> tuple[GroupElement, ...]:
    """All w with D(w) contained in D(shape), sorted by window."""
    return band_elements(kind, shape.size, frozenset(), descent_set(shape))


def band_indices(kind: str, n: int, lower: frozenset[int], upper: frozenset[int]) -> tuple[int, ...]:
    """The indices into ``enumerate_group(kind, n)`` of all w with lower
    <= D(w) <= upper, increasing, within the group guard.  The group is
    enumerated in window order, so this is window order: the index tuples
    of the descent classes in the band are merged by one integer sort,
    with no key."""
    enumerate_group(kind, n)
    band = list(chain.from_iterable(gs for d, gs in _descent_buckets(kind, n).items() if lower <= d <= upper))
    band.sort()
    return tuple(band)


def band_elements(kind: str, n: int, lower: frozenset[int], upper: frozenset[int]):
    """All w with lower <= D(w) <= upper, sorted by window: the elements
    at ``band_indices``."""
    return tuple(map(_enumerate(kind, n).__getitem__, band_indices(kind, n, lower, upper)))


def parabolic_longest(kind: str, n: int, dset) -> GroupElement:
    """The longest element w0(J) of the parabolic subgroup generated by
    the s_i with i in J = dset: the minimum of the descent class of J, and
    w0 when J holds every generator index.  From the identity, any s_i
    (i in J) that is not yet a descent is multiplied on the right, adding
    one to the length, until every i in J is a descent; no group is
    enumerated (Björner and Brenti, *Combinatorics of Coxeter Groups*)."""
    todo = sorted(dset)
    if n < (2 if _check_kind(kind) == "D" else 0) or not set(todo) <= set(positions(kind, n)):
        raise ValueError(f"no parabolic subgroup of {kind}_{n} on {todo}")
    w = list(range(1, n + 1))
    grew = True
    while grew:
        grew = False
        for i in todo:
            if i and w[i - 1] < w[i]:  # s_i swaps the entries i and i+1
                w[i - 1], w[i] = w[i], w[i - 1]
            elif i == 0 and kind == "B" and w[0] > 0:  # s_0 negates w(1)
                w[0] = -w[0]
            elif i == 0 and kind == "D" and -w[1] <= w[0]:  # s_0: (w(1), w(2)) -> (-w(2), -w(1))
                w[0], w[1] = -w[1], -w[0]
            else:
                continue
            grew = True
    return GroupElement(kind, tuple(w))


@lru_cache(maxsize=None)
def longest_element(kind: str, n: int) -> GroupElement:
    return parabolic_longest(kind, n, positions(kind, n))


@lru_cache(maxsize=None)
def diagram_automorphism(kind: str, n: int) -> MappingProxyType[int, int]:
    """The index map i -> j with w0 s_i w0 = s_j, as a read-only cached
    mapping."""
    w0 = longest_element(kind, n)
    gens = generators(kind, n)
    table = {}
    for i, s in gens.items():
        conj = multiply(multiply(w0, s), inverse(w0))
        matches = [j for j, t in gens.items() if t == conj]
        if len(matches) != 1:
            raise AssertionError(f"conjugation by w0 does not permute generators ({kind}, {n})")
        table[i] = matches[0]
    return MappingProxyType(table)
