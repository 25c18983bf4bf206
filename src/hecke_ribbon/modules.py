"""Explicit 0-Hecke modules on tableau bases, as integer matrices.

A module stores one square matrix per generator index, acting on the
basis from the left; columns index source basis vectors, and a column
lists its nonzero entries (row, value) by increasing row.  Every column
of a tableau module has at most one entry, 1 or -1, and products keep
this: ``check_relations`` composes such matrices as signed index maps,
and ``mat_mul`` takes a single-entry column as a scaled column of its
left factor; only twisted matrices, with two-entry columns, go through
the general sum.

The main constructions: build_p (standard tableaux of a generalized
shape), build_m (the same with the ribbon's rows pulled apart), build_c
(one-dimensional), descent filtrations certifying the direct-sum
decomposition over the bracket set, restriction certificates, twists by
the two algebra automorphisms, and one-dimensional quotients, each with
the dimension of its Hom space, computed by an exact linear solve.
Restriction to S_m x S_(n-m) keeps the set of boxes that hold the values
<= m, so each such box set is one block, cut into its two subshapes
once.  Every block and quotient is checked as a basis map that
intertwines two actions (``_intertwining_failures``): each row and
column of a block's table of pairs, and the relabeled projection onto a
quotient layer.

Both filtrations rest on one rule.  Grade the basis: by the rank of the
reading-word descent set, or by length above a cyclic generator.  The
up-closed layers {j : grade[j] >= t} span submodules exactly when no
generator maps a basis vector to one of lower grade, which
``_check_graded`` certifies in one pass over the columns; a quotient
layer keeps the rows of equal grade.  The descents of a tableau T, which
label the length quotients, are those of w(T)^-1 in every type
(``tableaux.tableau_descents``); lengths and these descents are read off
the group's table (``groups.left_actions``) by the index of w(T).

build_p is one rule in all three types: the left action of the group on
reading words, cut down to the shape's descent band and read off the
memoised left action table (``groups.left_actions``), with no filling
tested box by box.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

from . import groups, linalg, tableaux
from .shapes import (
    Shape,
    ShapeError,
    descent_band,
    descent_set,
    format_shape,
    from_descents,
    parse_shape,
    positions,
    split_rows,
    subshape_of_boxes,
)

Column = tuple[tuple[int, int], ...]
Mat = tuple[Column, ...]


class CertificationError(AssertionError):
    """A structural certificate failed; the message names the witness."""


# ---------------------------------------------------------------------------
# column-sparse integer matrices


def mat_identity(dim: int) -> Mat:
    return tuple(((j, 1),) for j in range(dim))


def mat_add(a: Mat, b: Mat) -> Mat:
    cols = []
    for ca, cb in zip(a, b):
        acc: dict[int, int] = {}
        for r, v in ca + cb:
            acc[r] = acc.get(r, 0) + v
        cols.append(tuple(sorted((r, v) for r, v in acc.items() if v)))
    return tuple(cols)


def mat_neg(a: Mat) -> Mat:
    return tuple(tuple((r, -v) for r, v in col) for col in a)


def mat_mul(a: Mat, b: Mat) -> Mat:
    cols = []
    for col in b:
        if not col:
            cols.append(())
            continue
        if len(col) == 1:  # the common case: a column of a generator product
            k, v = col[0]
            cols.append(a[k] if v == 1 else tuple((r, v * w) for r, w in a[k]))
            continue
        acc: dict[int, int] = {}
        for k, v in col:
            for r, w in a[k]:
                acc[r] = acc.get(r, 0) + v * w
        cols.append(tuple(sorted((r, v) for r, v in acc.items() if v)))
    return tuple(cols)


def mat_to_dense(a: Mat, dim: int) -> list[list[int]]:
    out = [[0] * dim for _ in range(dim)]
    for j, col in enumerate(a):
        for r, v in col:
            out[r][j] = v
    return out


def mat_from_dense(rows: list[list[int]]) -> Mat:
    dim = len(rows)
    return tuple(
        tuple((r, rows[r][j]) for r in range(dim) if rows[r][j]) for j in range(dim)
    )


@dataclass(frozen=True, eq=False)
class HeckeModule:
    """A finite 0-Hecke module: a basis plus one matrix per generator.
    Read-only, as ``build_p`` shares cached ones: ``gens`` is a read-only
    copy of the mapping passed in."""

    kind: str
    n: int
    basis: tuple
    gens: Mapping[int, Mat]
    shape: Shape | None = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "gens", MappingProxyType(dict(self.gens)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def generator_indices(self) -> list[int]:
        return sorted(self.gens)


# ---------------------------------------------------------------------------
# the defining actions


# The columns ((j, -1),) and ((j, 1),), shared by every tableau module:
# the table only grows, up to the largest dimension built, which the
# tableau guard bounds.
_UNIT_COLUMNS: tuple[list[Column], list[Column]] = ([], [])


def _unit_columns(dim: int) -> tuple[list[Column], list[Column]]:
    """The shared lists of columns ((j, -1),) and ((j, 1),), j < dim at least."""
    minus, plus = _UNIT_COLUMNS
    for j in range(len(plus), dim):
        minus.append(((j, -1),))
        plus.append(((j, 1),))
    return _UNIT_COLUMNS


@lru_cache(maxsize=None)
def build_p(shape: Shape) -> HeckeModule:
    """The module on standard tableaux of a generalized shape.

    The bar generator i sends a tableau T to -T when i is a descent of
    T, to s_i T when that filling is standard, and to 0 otherwise.  On
    reading words this is the left action of the group cut down to the
    descent band of the shape: the descents of T are the left descents
    D(w^-1) of its word w, s_i T has the word s_i w, and it is standard
    exactly when D(s_i w) lies in ``descent_band(shape)``.  All three are
    read off the group's left action table (``groups.left_actions``).
    The basis is built from the shape's band (``groups.band_indices``),
    one tableau per element in index order (``standard_tableaux``), so
    the band's indices are its words, and a basis of another length
    raises ``KeyError``, so a standard filling missing from the basis is
    never read as 0.  A column is -T when i is in D(w^-1), else the basis
    vector of s_i w when the band holds that word, and 0 outside the
    band.  The single-entry columns are shared by every module
    (``_unit_columns``).
    """
    kind, n = shape.kind, shape.size
    words = groups.band_indices(kind, n, *descent_band(shape))
    basis = tableaux.standard_tableaux(shape, words)
    table = groups.left_actions(kind, n)
    if len(words) != len(basis):
        raise KeyError(f"the basis holds {len(basis)} of the {len(words)} standard words of {shape}")
    index_of = {g: j for j, g in enumerate(words)}
    minus, plus = _unit_columns(len(words))
    gens = {}
    for i in positions(kind, n):
        step, lowers = table.step[i], table.lowers[i]
        gens[i] = tuple([
            minus[j] if lowers[g] else plus[k] if (k := index_of.get(step[g])) is not None else ()
            for j, g in enumerate(words)
        ])
    return HeckeModule(kind, n, basis, gens, shape)


def build_m(alpha: Shape) -> HeckeModule:
    """The row-separated module of a single ribbon shape."""
    return build_p(split_rows(alpha))


def build_c(alpha: Shape) -> HeckeModule:
    """The one-dimensional module with bar generators acting by -1 on the
    descent set of the shape and by 0 elsewhere.  Its basis tableau has
    the tableau descents D(alpha): ``tau1`` of the shape whose descent set
    is sigma(D(alpha)), sigma the diagram automorphism (i -> n - i in type
    A, the identity in type B, 0 <-> 1 in type D of odd rank)."""
    kind, n = alpha.kind, alpha.size
    dset = descent_set(alpha)
    sigma = groups.diagram_automorphism(kind, n)
    label = tableaux.tau1(from_descents({sigma[i] for i in dset}, n, kind))
    gens = {i: ((((0, -1),) if i in dset else ()),) for i in positions(kind, n)}
    return HeckeModule(kind, n, (label,), gens, alpha)


# ---------------------------------------------------------------------------
# relations


def coxeter_order(kind: str, i: int, j: int) -> int:
    """Braid length m(i, j) for two distinct generator indices."""
    a, b = min(i, j), max(i, j)
    if kind == "A":
        return 3 if b - a == 1 else 2
    if kind == "B":
        if (a, b) == (0, 1):
            return 4
        return 3 if b - a == 1 else 2
    if (a, b) == (0, 1):
        return 2
    if a == 0:
        return 3 if b == 2 else 2
    return 3 if b - a == 1 else 2


def _signed_map(m: Mat) -> list[int] | None:
    """A matrix whose columns hold at most one entry, 1 or -1, as a signed
    index map: column j is 0, k + 1 or -(k + 1) for the column (), ((k,
    1),) or ((k, -1),); None for any other matrix."""
    out = []
    for col in m:
        if not col:
            out.append(0)
        elif len(col) == 1 and col[0][1] in (1, -1):
            out.append(col[0][1] * (col[0][0] + 1))
        else:
            return None
    return out


def _compose(a: list[int], b: list[int]) -> list[int]:
    """The product a b of two signed index maps."""
    return [a[x - 1] if x > 0 else -a[-x - 1] if x else 0 for x in b]


def _negate(a: list[int]) -> list[int]:
    return [-x for x in a]


def _alternating(a, b, m: int, mul):
    out = a
    for k in range(1, m):
        out = mul(out, b if k % 2 else a)
    return out


def _relation_violations(kind: str, gens: Mapping, mul, neg) -> list[str]:
    """Quadratic and braid relations of the generator matrices, multiplied
    by ``mul`` and negated by ``neg``."""
    violations = []
    idx = sorted(gens)
    for i in idx:
        m = gens[i]
        if mul(m, m) != neg(m):
            violations.append(f"quadratic relation fails at generator {i}")
    for a_pos, i in enumerate(idx):
        for j in idx[a_pos + 1 :]:
            m = coxeter_order(kind, i, j)
            left = _alternating(gens[i], gens[j], m, mul)
            right = _alternating(gens[j], gens[i], m, mul)
            if left != right:
                violations.append(f"braid relation of order {m} fails at ({i}, {j})")
    return violations


def check_relations(module: HeckeModule) -> list[str]:
    """Quadratic and braid relations as exact matrix identities.  When
    every column holds at most one entry, 1 or -1, as in the tableau
    modules, the generators are composed as signed index maps; twisted
    modules and any other matrices are multiplied by ``mat_mul``."""
    signed = {i: _signed_map(m) for i, m in module.gens.items()}
    if all(m is not None for m in signed.values()):
        return _relation_violations(module.kind, signed, _compose, _negate)
    return _relation_violations(module.kind, module.gens, mat_mul, mat_neg)


def _intertwining_failures(gens: Mapping[int, Mat], target_gens: Mapping[int, Mat], phi, columns, sigma=None):
    """Yield (i, j), i in sorted order and j in ``columns``, wherever
    phi(M_i e_j) != M'_sigma(i) phi(e_j): phi sends e_r to e_phi[r], or to 0
    when phi[r] is None (never for r in ``columns``), injectively.  Only a
    column of several entries is sorted.  A row outside the basis raises
    ``IndexError`` (``KeyError`` from a dict phi) and never wraps around."""
    for i in sorted(gens):
        cols, target_cols = gens[i], target_gens[i if sigma is None else sigma[i]]
        for j in columns:
            col = cols[j]
            if len(col) == 1:
                r, v = col[0]
                if r < 0:
                    raise IndexError(f"row {r} outside the basis")
                carried = () if (k := phi[r]) is None else ((k, v),)
            elif col:  # several entries: a twisted module, or one read from JSON
                if min(col)[0] < 0:
                    raise IndexError(f"row {min(col)[0]} outside the basis")
                carried = tuple(sorted([(phi[r], v) for r, v in col if phi[r] is not None]))
            else:
                carried = ()
            if carried != target_cols[phi[j]]:
                yield i, j


# ---------------------------------------------------------------------------
# filtrations


@dataclass(frozen=True)
class Filtration:
    """A descending chain of spanning index sets; layers[0] is everything
    and each layer spans a submodule.  labels[t] describes the quotient
    of layers[t] by layers[t+1]."""

    layers: tuple[tuple[int, ...], ...]
    labels: tuple


def _check_graded(module: HeckeModule, grade: list[int], name: str) -> tuple[tuple[int, ...], ...]:
    """Certify that no generator maps a basis vector to one of lower grade,
    or outside the basis, and return the layers {j : grade[j] >= t}, t = 0,
    1, ..., max(grade): they span submodules exactly when that holds."""
    dim = len(grade)
    for i in module.generator_indices():
        for j, col in enumerate(module.gens[i]):
            for r, _ in col:
                if not 0 <= r < dim or grade[r] < grade[j]:
                    raise CertificationError(
                        f"{name} layer {grade[j]}: generator {i} maps basis {j} outside the layer"
                    )
    top = max(grade, default=-1)
    return tuple(tuple(j for j, g in enumerate(grade) if g >= t) for t in range(top + 1))


def filtration_by_descent(module: HeckeModule) -> Filtration:
    """Grade the basis by the rank of its reading-word descent set (by
    size, then lexicographically), certify the graded rule, and certify
    each quotient against the module built directly from the matching
    bracket-set ribbon."""
    if module.shape is None:
        raise ShapeError("descent filtration needs a module built from a shape")
    table = groups.left_actions(module.kind, module.n)
    descents = [table.descents[table.index[t.entries]] for t in module.basis]
    ordered = sorted(set(descents), key=lambda d: (len(d), tuple(sorted(d))))
    rank = {d: t for t, d in enumerate(ordered)}
    grade = [rank[d] for d in descents]
    layers = _check_graded(module, grade, "descent")
    labels = tuple(from_descents(d, module.n, module.kind) for d in ordered)
    for t, label in enumerate(labels):
        _certify_quotient(module, [j for j, g in enumerate(grade) if g == t], grade, label)
    return Filtration(layers, labels)


def _certify_quotient(module: HeckeModule, quotient: list[int], grade: list[int], label: Shape):
    """The induced action on a quotient layer, the rows of equal grade, must
    equal the module of the label shape under the reading-word relabeling:
    the projection onto the layer, relabeled, intertwines."""
    target = build_p(label)
    word_to_target = {t.entries: j for j, t in enumerate(target.basis)}
    phi: list[int | None] = [None] * module.dim
    for j in quotient:
        phi[j] = word_to_target.get(module.basis[j].entries)
        if phi[j] is None:
            raise CertificationError(f"quotient word {module.basis[j].entries} missing from {label}")
    if len(quotient) != target.dim:
        raise CertificationError(f"quotient of size {len(quotient)} does not match dim {target.dim} of {label}")
    try:
        for i, j in _intertwining_failures(module.gens, target.gens, phi, quotient):
            raise CertificationError(f"quotient action mismatch for {label} at generator {i}, basis {j}")
    except IndexError:
        raise CertificationError(f"quotient of {label} maps a basis vector outside the basis") from None


def length_filtration(module: HeckeModule, generator_index: int) -> Filtration:
    """Layers spanned by tableaux of length at least a threshold, relative
    to a cyclic generator; quotients split into one-dimensional pieces
    labeled by tableau descent sets: labels[t] holds the table's D(w^-1)
    of each basis word at length t above the generator, in basis order.
    Each quotient must be diagonal: a generator i in D(w^-1) acts on w by
    -1, and one outside sends w to no basis word of the same length.
    Lengths and descents are read off the group's table by the index of
    each reading word."""
    if module.shape is None:
        raise ShapeError("length filtration needs a tableau module")
    table = groups.left_actions(module.kind, module.n)
    words = [table.index[t.entries] for t in module.basis]
    lengths = [table.lengths[g] for g in words]
    base = lengths[generator_index]
    if any(ell < base for ell in lengths):
        raise ShapeError("the chosen generator does not have minimal length")
    # the graded rule bounds every row before the cyclicity walk reads one
    layers = _check_graded(module, [ell - base for ell in lengths], "length")
    reached = {generator_index}
    frontier = [generator_index]
    while frontier:
        j = frontier.pop()
        for i in module.generator_indices():
            for r, _ in module.gens[i][j]:
                if r not in reached:
                    reached.add(r)
                    frontier.append(r)
    if len(reached) != module.dim:
        raise ShapeError("module is not cyclic over the chosen generator")
    descents = [table.inverse_descents[g] for g in words]
    labels = tuple(
        tuple(desc for desc, ell in zip(descents, lengths) if ell == base + t)
        for t in range(len(layers))
    )
    for j, desc in enumerate(descents):
        for i in module.generator_indices():
            col = module.gens[i][j]
            if i in desc and col != ((j, -1),):
                raise CertificationError(f"length quotient not diagonal at ({i}, {j})")
            if i not in desc and any(lengths[r] == lengths[j] for r, _ in col):
                raise CertificationError(f"length quotient not diagonal at ({i}, {j})")
    return Filtration(layers, labels)


# ---------------------------------------------------------------------------
# restriction


def restrict_p(shape: Shape, m: int) -> list[tuple[Shape, Shape]]:
    """Certify that forgetting the generator at position m splits the
    module into blocks, one per set of boxes holding the values <= m,
    each acting as the pair of modules on its two subshapes (the cut of
    ``tableaux.split_tableau``); returns each block's pair, sorted."""
    if shape.kind != "A":
        raise ShapeError("restriction certificates are for type A shapes")
    module = build_p(shape)
    if not 0 <= m <= shape.size:
        raise ValueError(f"split point {m} out of range")
    blocks: dict[tuple[int, ...], tuple] = {}
    for j, t in enumerate(module.basis):
        entries = t.entries
        low = tuple([k for k, v in enumerate(entries) if v <= m])
        if low not in blocks:
            high = [k for k, v in enumerate(entries) if v > m]
            blocks[low] = (*subshape_of_boxes(shape, low), *subshape_of_boxes(shape, high), {})
        _, lorder, _, rorder, members = blocks[low]
        members[tuple([entries[k] for k in lorder]), tuple([entries[k] - m for k in rorder])] = j
    for bshape, _, gshape, _, members in blocks.values():
        left_mod, right_mod = build_p(bshape), build_p(gshape)
        rows, cols = range(left_mod.dim), range(right_mod.dim)
        if len(members) != len(rows) * len(cols):
            raise CertificationError(
                f"block ({bshape}, {gshape}) has {len(members)} tableaux, expected {len(rows) * len(cols)}"
            )
        left_index = {t.entries: a for a, t in enumerate(left_mod.basis)}
        right_index = {t.entries: b for b, t in enumerate(right_mod.basis)}
        pair = [[0] * len(cols) for _ in rows]
        for (le, re), j in members.items():
            pair[left_index[le]][right_index[re]] = j
        # column b of the table carries the left module, row a the right one past m
        shift = {i: i + m for i in right_mod.gens}
        sides = [(left_mod.gens, rows, zip(*pair), None), (right_mod.gens, cols, pair, shift)]
        try:
            for gens, columns, slices, sigma in sides:
                for phi in slices if gens else ():
                    for i, a in _intertwining_failures(gens, module.gens, phi, columns, sigma):
                        raise CertificationError(
                            f"restriction mismatch at block ({bshape}, {gshape}), "
                            f"generator {i if sigma is None else sigma[i]}, basis {phi[a]}"
                        )
        except IndexError:
            raise CertificationError("restriction block is not closed under the action") from None
    pairs = [(bshape, gshape) for bshape, _, gshape, _, _ in blocks.values()]
    return sorted(pairs, key=lambda pair: (_shape_name(pair[0]), _shape_name(pair[1])))


@lru_cache(maxsize=None)
def _shape_name(shape: Shape) -> str:
    """The text of a shape, by which ``restrict_p`` sorts its pairs: the
    same few subshapes recur across calls, so each is formatted once."""
    return format_shape(shape)


# ---------------------------------------------------------------------------
# one-dimensional quotients


def one_dim_quotients(module: HeckeModule) -> dict[frozenset[int], int]:
    """All characters of one-dimensional quotients: covectors phi with
    phi M_i = lambda_i phi and lambda_i in {0, -1}, solved exactly over
    the integers; labeled by {i : lambda_i = -1}, each with the dimension
    of its space of covectors, that of Hom(M, C_D).  A state keeps sparse
    covectors; each M_i is transposed once, so phi M_i costs nnz(phi)."""
    states = [(frozenset(), [{r: 1} for r in range(module.dim)])]
    for i in module.generator_indices():
        by_row: dict[int, list[tuple[int, int]]] = {}
        for j, col in enumerate(module.gens[i]):
            for r, v in col:
                by_row.setdefault(r, []).append((j, v))
        nxt = []
        for label, rows in states:
            image = [_combine((by_row.get(r, ()), c) for r, c in phi.items()) for phi in rows]
            shifted = [_combine([(img.items(), 1), (phi.items(), 1)]) for img, phi in zip(image, rows)]
            for key, target in ((label, image), (label | {i}, shifted)):
                if kernel := linalg.left_kernel(target):
                    nxt.append((key, [_combine((rows[k].items(), c) for k, c in x.items()) for x in kernel]))
        states = nxt
    return {label: len(rows) for label, rows in states if rows}


def _combine(scaled) -> dict[int, int]:
    """The sparse sum of c * row over (row entries, c) pairs."""
    acc: dict[int, int] = {}
    for entries, c in scaled:
        for j, v in entries:
            acc[j] = acc.get(j, 0) + c * v
    return {j: v for j, v in acc.items() if v}


# ---------------------------------------------------------------------------
# twists and intertwiners


def twist(module: HeckeModule, which: str) -> HeckeModule:
    """Twist by an algebra automorphism: 'theta' replaces each bar matrix
    M by -(M + 1); 'phi' permutes the generator matrices by the diagram
    automorphism induced by conjugation with the longest element."""
    dim = module.dim
    if which == "theta":
        eye = mat_identity(dim)
        gens = {i: mat_neg(mat_add(m, eye)) for i, m in module.gens.items()}
    elif which == "phi":
        sigma = groups.diagram_automorphism(module.kind, module.n)
        gens = {i: module.gens[sigma[i]] for i in module.gens}
    else:
        raise ValueError(f"unknown twist {which!r}")
    return HeckeModule(module.kind, module.n, module.basis, gens, None)


def intertwiner_check(
    module1: HeckeModule,
    module2: HeckeModule,
    candidate,
    index_map=None,
    mode: str = "direct",
) -> list[str]:
    """Certify a basis bijection as an intertwiner.

    mode 'direct' checks T M_i = M'_{sigma(i)} T for the (possibly
    injective) basis map T; a column that carries a row outside either
    basis, or one the candidate does not map, ends the report with a line
    saying so rather than a lookup error.  mode 'antidirect' checks the
    arrow-reversal law: an arrow tau -> s_i(tau) in module1 corresponds to
    the reversed arrow in module2, a loop with eigenvalue -1 corresponds
    to a kill, and a kill corresponds to a loop.
    """
    sigma = index_map or {i: i for i in module1.gens}
    if mode not in ("direct", "antidirect"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "direct":
        failures = _intertwining_failures(module1.gens, module2.gens, candidate, range(module1.dim), sigma)
        report = []
        try:
            for i, j in failures:
                report.append(f"direct intertwiner fails at generator {i}, basis {j}")
        except (IndexError, KeyError):
            report.append("direct intertwiner maps a basis vector outside the basis")
        return report
    report = []
    for i in module1.generator_indices():
        m1 = module1.gens[i]
        m2 = module2.gens[sigma[i]]
        # arrow reversal: each arrow j -> k turns into candidate[k] ->
        # candidate[j]; a loop or kill not touched by an arrow swaps to a
        # kill or loop, while arrow endpoints have their loops forced by
        # the quadratic relation.
        incoming = {}
        for j in range(module1.dim):
            col = m1[j]
            if len(col) == 1 and col[0][1] == 1:
                incoming[col[0][0]] = j
        for j in range(module1.dim):
            col = m1[j]
            tcol = m2[candidate[j]]
            if len(col) == 1 and col[0][1] == 1:
                ok = tcol == ((candidate[j], -1),)
            elif j in incoming:
                ok = col == ((j, -1),) and tcol == ((candidate[incoming[j]], 1),)
            elif col == ((j, -1),):
                ok = tcol == ()
            elif col == ():
                ok = tcol == ((candidate[j], -1),)
            else:
                ok = False
            if not ok:
                report.append(
                    f"antidirect arrow reversal fails at generator {i}, basis {j}"
                )
    return report


# ---------------------------------------------------------------------------
# JSON export


def module_to_json(module: HeckeModule) -> dict:
    """The module as JSON.  A basis of tableaux on another shape than the
    module's (a C module whose label lies on the ribbon of sigma(D(alpha)),
    see ``build_c``, and twisted modules, which carry no shape) names that
    shape under ``basis_shape``, so that the tableaux read back."""
    data = {
        "kind": module.kind,
        "n": module.n,
        "shape": format_shape(module.shape) if module.shape is not None else None,
        "basis": [str(t) for t in module.basis],
        "generators": {
            str(i): mat_to_dense(m, module.dim) for i, m in sorted(module.gens.items())
        },
    }
    first = module.basis[0] if module.basis else None
    if isinstance(first, tableaux.Tableau) and first.shape != module.shape:
        data["basis_shape"] = format_shape(first.shape)
    return data


def module_from_json(data: dict) -> HeckeModule:
    """Read back what ``module_to_json`` writes.  When the basis is read
    as tableaux (a shape or a basis shape is given), every tableau must be
    standard and no two may be equal."""
    kind = data["kind"]
    shape = parse_shape(data["shape"], kind) if data.get("shape") else None
    tableau_shape = parse_shape(data["basis_shape"], kind) if data.get("basis_shape") else shape
    for given in {shape, tableau_shape} - {None}:
        if given.size != data["n"]:
            raise ValueError(f"rank {data['n']} does not match the shape {format_shape(given)}")
    if tableau_shape is None:
        basis = tuple(data["basis"])
    else:
        basis = tuple(tableaux.parse_tableau(text, tableau_shape) for text in data["basis"])
        for t in basis:
            if not tableaux.is_standard(tableau_shape, t.entries):
                raise ValueError(f"basis tableau {t} is not standard")
        if len(set(basis)) != len(basis):
            raise ValueError("the basis repeats a tableau")
    gens = {int(i): rows for i, rows in data["generators"].items()}
    if len(gens) != len(data["generators"]) or sorted(gens) != list(
        positions(kind, data["n"])
    ):
        raise ValueError(
            f"generators {sorted(data['generators'])} do not match "
            f"type {kind} of rank {data['n']}"
        )
    dim = len(basis)
    for i, rows in gens.items():
        if len(rows) != dim or any(len(row) != dim for row in rows):
            raise ValueError(f"generator {i} is not a {dim} x {dim} matrix")
    gens = {i: mat_from_dense(rows) for i, rows in gens.items()}
    return HeckeModule(kind, data["n"], basis, gens, shape)
