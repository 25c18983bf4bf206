import itertools
import json
import random
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from box_oracle import standard_by_boxes
from test_linalg import reference_rref
from hecke_ribbon import groups, modules, shapes, tableaux
from hecke_ribbon.modules import (
    CertificationError,
    build_c,
    build_m,
    build_p,
    check_relations,
    filtration_by_descent,
    intertwiner_check,
    length_filtration,
    mat_identity,
    mat_mul,
    mat_to_dense,
    module_from_json,
    module_to_json,
    one_dim_quotients,
    restrict_p,
    twist,
)
from hecke_ribbon.shapes import Shape, composition, pseudo_composition


def all_single(kind, max_size):
    lo = 2 if kind == "D" else 1
    for n in range(lo, max_size + 1):
        for s in shapes.enumerate_shapes(n, "A" if kind == "A" else "B"):
            yield s if kind == "A" else Shape(kind, s.components)


def test_displayed_small_modules():
    p211 = build_p(composition((2, 1, 1)))
    assert p211.dim == 3
    # the source tableau maps under the first generator to the middle one
    words = [t.entries for t in p211.basis]
    src = words.index((1, 4, 3, 2))
    mid = words.index((2, 4, 3, 1))
    snk = words.index((3, 4, 2, 1))
    assert p211.gens[1][src] == ((mid, 1),)
    assert p211.gens[3][snk] == ()  # the sink is killed by the last generator
    assert p211.gens[2][src] == ((src, -1),)

    pb = build_p(pseudo_composition((0, 2, 1)))
    assert pb.dim == len(groups.descent_class("B", pseudo_composition((0, 2, 1))).elements)
    wordsb = [t.entries for t in pb.basis]
    srcb = wordsb.index((-1, 3, 2))
    tgtb = wordsb.index((-2, 3, 1))
    assert pb.gens[1][srcb] == ((tgtb, 1),)

    trivial = build_p(composition((4,)))
    assert trivial.dim == 1
    assert all(col == ((),) for col in (trivial.gens[i] for i in (1, 2, 3)))


def test_build_p_matches_defining_rule():
    """Each column of a generator matrix follows the defining rule: -T on
    a descent, s_i T when that filling is standard, and 0 otherwise.  The
    reference builds s_i T by the group product and tests it on the box
    coordinates, without the left action table and the descent band
    ``build_p`` reads; the B/D single ribbons of size 5 add 14,400
    products to it."""
    family = [Shape("A", ())]
    for kind, top in (("A", 6), ("B", 4), ("D", 4)):
        for n in range(top + 1):
            family.extend(shapes.enumerate_generalized(n, kind, 3))
    for kind in ("B", "D"):
        family.extend(Shape(kind, s.components) for s in shapes.enumerate_shapes(5, "B"))
    for shape in family:
        module = build_p(shape)
        index_of = {t.entries: j for j, t in enumerate(module.basis)}
        expected = {i: [] for i in shapes.positions(shape.kind, shape.size)}
        for j, t in enumerate(module.basis):
            desc = tableaux.tableau_descents(t)
            for i, col in expected.items():
                if i in desc:
                    col.append(((j, -1),))
                    continue
                s_i = groups.generator(shape.kind, shape.size, i)
                swapped = groups.multiply(s_i, tableaux.reading_word(t)).window
                if standard_by_boxes(shape, swapped):
                    col.append(((index_of[swapped], 1),))
                else:
                    col.append(())
        assert dict(module.gens) == {i: tuple(c) for i, c in expected.items()}, shape


def test_build_p_raises_for_a_standard_swap_missing_from_the_basis(monkeypatch):
    for shape in (composition((2, 1)), pseudo_composition((1, 2)), pseudo_composition((1, 2), "D")):
        module = build_p(shape)
        target = next(  # a tableau that is s_i T of another
            r for m in module.gens.values() for j, col in enumerate(m) for r, v in col if r != j
        )
        short = module.basis[:target] + module.basis[target + 1 :]
        monkeypatch.setattr(tableaux, "standard_tableaux", lambda s, band=None: short)
        with pytest.raises(KeyError):
            build_p.__wrapped__(shape)
        monkeypatch.undo()


def _random_column(rng, dim):
    roll = rng.random()
    if dim == 0 or roll < 0.2:
        return ()
    if roll < 0.6:
        return ((rng.randrange(dim), rng.choice((1, -1, 2, -2))),)
    rows = sorted(rng.sample(range(dim), rng.randint(min(2, dim), dim)))
    return tuple((r, rng.choice((1, -1, 2, -2, 3))) for r in rows)


def test_mat_mul_matches_dense_product():
    rng = random.Random(20151)
    for _ in range(400):
        dim = rng.randint(0, 7)
        a = tuple(_random_column(rng, dim) for _ in range(dim))
        b = tuple(_random_column(rng, dim) for _ in range(dim))
        da, db = mat_to_dense(a, dim), mat_to_dense(b, dim)
        dense = [
            [sum(da[r][k] * db[k][c] for k in range(dim)) for c in range(dim)]
            for r in range(dim)
        ]
        product = mat_mul(a, b)
        assert mat_to_dense(product, dim) == dense
        for col in product:
            rows = [r for r, _ in col]
            assert rows == sorted(set(rows))
            assert all(v for _, v in col)


def test_theta_twists_pass_relations():
    """Theta-twisted matrices have two-entry columns, which take the
    general path of mat_mul."""
    two_entry = 0
    for kind, top in (("A", 4), ("B", 3), ("D", 3)):
        for alpha in all_single(kind, top):
            twisted = twist(build_p(alpha), "theta")
            two_entry += sum(len(col) == 2 for m in twisted.gens.values() for col in m)
            assert check_relations(twisted) == [], alpha
    assert two_entry


def test_relations_and_negative_control():
    module = build_p(composition((1, 2, 1)))
    assert check_relations(module) == []
    corrupted = modules.HeckeModule(
        module.kind,
        module.n,
        module.basis,
        {**module.gens, 1: mat_identity(module.dim)},
        module.shape,
    )
    assert check_relations(corrupted)


@st.composite
def single_entry_modules(draw):
    """Generator matrices whose columns hold at most one entry, 1 or -1:
    either drawn at random, or a tableau module with one column replaced,
    so that both passing modules and planted violations occur."""
    kind = draw(st.sampled_from("ABD"))
    n = draw(st.integers(2, 4))
    column = lambda dim: st.one_of(
        st.just(()), st.tuples(st.tuples(st.integers(0, dim - 1), st.sampled_from((1, -1))))
    )
    if draw(st.booleans()):
        dim = draw(st.integers(1, 6))
        gens = {
            i: tuple(draw(st.lists(column(dim), min_size=dim, max_size=dim)))
            for i in shapes.positions(kind, n)
        }
        return kind, gens
    idx = shapes.positions(kind, n)
    picks = draw(st.lists(st.booleans(), min_size=len(idx), max_size=len(idx)))
    alpha = shapes.from_descents(frozenset(i for i, b in zip(idx, picks) if b), n, kind)
    gens = dict(build_p(alpha).gens)
    if draw(st.booleans()):
        i = draw(st.sampled_from(sorted(gens)))
        j = draw(st.integers(0, len(gens[i]) - 1))
        gens[i] = gens[i][:j] + (draw(column(len(gens[i]))),) + gens[i][j + 1 :]
    return kind, gens


@settings(deadline=None, max_examples=120)
@given(single_entry_modules())
def test_signed_maps_give_the_violations_of_mat_mul(case):
    kind, gens = case
    signed = {i: modules._signed_map(m) for i, m in gens.items()}
    assert all(m is not None for m in signed.values())
    fast = modules._relation_violations(kind, signed, modules._compose, modules._negate)
    assert fast == modules._relation_violations(kind, gens, mat_mul, modules.mat_neg)


INTERTWINING_SHAPES = [
    shape
    for kind, n in (("A", 4), ("B", 3), ("D", 3))
    for shape in shapes.enumerate_generalized(n, kind, 2)
]


def _intertwining_case(rng_choice, rng_bool, rng_shuffle):
    """A source tableau module (theta-twisted or not), an injective partial
    map phi (a relabeling, None on the rows it projects away), a
    permutation sigma of the generator indices, and the target that phi
    makes intertwine: column phi[j] of M'_sigma(i) is column j of M_i
    carried and projected.  One source column is then planted with a
    random column half of the time."""
    shape = rng_choice(INTERTWINING_SHAPES)
    module = build_p(shape)
    if rng_bool():
        module = twist(module, "theta")
    dim, idx = module.dim, sorted(module.gens)
    order, images = list(range(dim)), list(idx)
    rng_shuffle(order)
    rng_shuffle(images)
    phi = [k if rng_bool() else None for k in order]
    columns = [j for j in range(dim) if phi[j] is not None]
    sigma = dict(zip(idx, images))
    target_gens = {}
    for i in idx:
        cols = [None] * dim
        for j, col in enumerate(module.gens[i]):
            keep = j in columns
            cols[order[j]] = tuple(sorted((order[r], v) for r, v in col if not keep or phi[r] is not None))
        target_gens[sigma[i]] = tuple(cols)
    gens, planted = dict(module.gens), rng_bool()
    if planted:
        i, j = rng_choice(idx), rng_choice(columns if columns and rng_bool() else range(dim))
        rows = sorted({rng_choice(range(dim)) for _ in range(rng_choice((0, 1, 1, 2)))})
        gens[i] = gens[i][:j] + (tuple((r, rng_choice((1, -1))) for r in rows),) + gens[i][j + 1 :]
    return (gens, target_gens, phi, columns, sigma), planted


def _dense_failures(gens, target_gens, phi, columns, sigma):
    """The (i, j) where column j of T M_i and of M'_sigma(i) T differ, T the
    0/1 matrix of phi, all as dense matrices."""
    dim = len(phi)
    t = mat_to_dense(tuple(() if k is None else ((k, 1),) for k in phi), dim)

    def product(a, b):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]

    out = []
    for i in sorted(gens):
        left = product(t, mat_to_dense(gens[i], dim))
        right = product(mat_to_dense(target_gens[sigma[i]], dim), t)
        out += [(i, j) for j in columns if [row[j] for row in left] != [row[j] for row in right]]
    return out


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_intertwining_failures_match_dense_products(data):
    draw = data.draw
    case, planted = _intertwining_case(
        lambda seq: draw(st.sampled_from(list(seq))),
        lambda: draw(st.booleans()),
        lambda seq: seq.__setitem__(slice(None), draw(st.permutations(seq))),
    )
    failures = list(modules._intertwining_failures(*case))
    assert failures == _dense_failures(*case)
    assert planted or not failures


def test_a_planted_column_bites_about_half_the_time():
    """A planted column may repeat the true one, sit outside the columns
    phi keeps or differ only on rows phi projects away; it still bites in
    about half the cases, so the reference test sees both outcomes."""
    rng = random.Random(20)
    bites = []
    for _ in range(400):
        case, planted = _intertwining_case(rng.choice, lambda: rng.random() < 0.5, rng.shuffle)
        if planted:
            bites.append(bool(list(modules._intertwining_failures(*case))))
    assert 0.3 < sum(bites) / len(bites) < 0.7, sum(bites) / len(bites)


def test_intertwining_failures_reject_rows_outside_the_basis():
    """A carried row outside [0, len(phi)) raises: a row -1 is never read
    as the last row, in a single-entry or a several-entry column."""
    target = {1: (((1, 1),), ((1, -1),))}
    assert list(modules._intertwining_failures(target, target, [0, 1], range(2))) == []
    for col in (((-1, 1),), ((2, 1),), ((-1, -1), (0, 1)), ((0, 1), (2, 1))):
        gens = {1: (col, ((1, -1),))}
        with pytest.raises(IndexError):
            list(modules._intertwining_failures(gens, target, [0, 1], range(2)))
        with pytest.raises(LookupError):
            list(modules._intertwining_failures(gens, target, {0: 0, 1: 1}, range(2)))


def test_check_relations_takes_the_path_its_matrices_allow(monkeypatch):
    """Tableau modules are composed as signed index maps, without
    ``mat_mul``; a module read from JSON with an entry 2 takes the
    general path, and reports what ``mat_mul`` reports."""
    module = build_p(composition((1, 2, 1)))
    twisted = twist(module, "theta")
    data = module_to_json(build_p(composition((2, 1))))
    data["generators"]["1"] = [[2 * v for v in row] for row in data["generators"]["1"]]
    doubled = module_from_json(data)
    assert modules._signed_map(doubled.gens[1]) is None
    expected = modules._relation_violations("A", doubled.gens, mat_mul, modules.mat_neg)
    assert "quadratic relation fails at generator 1" in expected

    def refuse(*args):
        raise AssertionError("wrong relation path")

    with monkeypatch.context() as patch:
        patch.setattr(modules, "mat_mul", refuse)
        assert check_relations(module) == []
    with monkeypatch.context() as patch:
        patch.setattr(modules, "_compose", refuse)
        assert check_relations(doubled) == expected
        assert check_relations(twisted) == []


def test_build_p_is_read_only():
    module = build_p(composition((2, 1, 1)))
    gens = dict(module.gens)
    with pytest.raises(TypeError):
        module.gens[1] = mat_identity(module.dim)
    with pytest.raises(AttributeError):
        module.gens = {}
    with pytest.raises(AttributeError):
        module.basis = ()
    # a module keeps its own copy of the generator mapping it was given
    source = dict(gens)
    copied = modules.HeckeModule(module.kind, module.n, module.basis, source, module.shape)
    source[1] = mat_identity(module.dim)
    assert copied.gens == gens
    assert build_p(composition((2, 1, 1))).gens == gens


def test_tableau_modules_share_their_unit_columns():
    """Every single-entry column of a tableau module comes from one shared
    table, so equal columns of two modules are one object."""
    small, large = build_p(composition((2, 1, 1))), build_p(pseudo_composition((1, 2), "B"))
    other = build_p(Shape("A", ((2,), (1, 2))))
    seen = {col: col for m in small.gens.values() for col in m if col}
    shared = 0
    for module in (large, other):
        for m in module.gens.values():
            for col in m:
                if col in seen:
                    assert col is seen[col]
                    shared += 1
    assert shared


def test_build_p_does_not_depend_on_the_order_modules_are_built(monkeypatch):
    """The shared column table grows with the largest module built; from
    an empty table, small-then-large and large-then-small give the same
    matrices."""
    order = [composition((1, 2)), Shape("A", ((2, 2), (1,))), pseudo_composition((0, 2, 1), "D")]
    runs = []
    try:
        for shapes_in_order in (order, order[::-1]):
            monkeypatch.setattr(modules, "_UNIT_COLUMNS", ([], []))
            build_p.cache_clear()
            runs.append({s: dict(build_p(s).gens) for s in shapes_in_order})
            assert len(modules._UNIT_COLUMNS[1]) == max(build_p(s).dim for s in order)
    finally:
        monkeypatch.undo()
        build_p.cache_clear()
    assert runs[0] == runs[1]


def test_action_sparsity_and_cyclicity():
    for shape in all_single("B", 3):
        module = build_p(shape)
        for i, mat in module.gens.items():
            targets = []
            for j, col in enumerate(mat):
                assert col == () or len(col) == 1
                if col and col[0][1] == 1:
                    assert col[0][0] != j
                    targets.append(col[0][0])
                elif col:
                    assert col[0] == (j, -1)
            assert len(targets) == len(set(targets))
        # repeated application of all generators from the minimal tableau
        # reaches the whole basis
        lengths = [groups.length(tableaux.reading_word(t)) for t in module.basis]
        start = lengths.index(min(lengths))
        seen, frontier = {start}, [start]
        while frontier:
            j = frontier.pop()
            for i in module.gens:
                for r, _ in module.gens[i][j]:
                    if r not in seen:
                        seen.add(r)
                        frontier.append(r)
        assert len(seen) == module.dim


def test_m_dimensions():
    assert build_m(composition((1, 1, 1, 1))).dim == 24
    assert build_m(pseudo_composition((0, 1, 1, 1))).dim == 48
    assert build_m(pseudo_composition((0, 1, 1), "D")).dim == 4
    assert build_m(pseudo_composition((0, 1, 1, 1), "D")).dim == 24


def test_c_modules():
    c = build_c(composition((1, 1, 1)))
    assert all(c.gens[i] == (((0, -1),),) for i in (1, 2))
    c2 = build_c(pseudo_composition((0, 2, 1)))
    assert c2.gens[0] == (((0, -1),),)
    assert c2.gens[1] == ((),)
    assert c2.gens[2] == (((0, -1),),)


def test_filtration_by_descent():
    module = build_p(Shape("A", ((2,), (2,))))
    filtr = filtration_by_descent(module)
    assert [len(layer) for layer in filtr.layers] == [6, 5]
    assert [l.parts for l in filtr.labels] == [(4,), (2, 2)]
    for kind, size in (("A", 5), ("B", 4), ("D", 4)):
        for shape in shapes.enumerate_generalized(size, kind, 3):
            filtr = filtration_by_descent(build_p(shape))
            assert set(filtr.labels) == set(shapes.bracket_set(shape)), shape


def test_graded_filtrations_reject_an_arrow_to_a_lower_grade():
    """Redirecting a loop of the top tableau to the identity tableau, the
    lowest in both gradings, breaks the graded rule of both filtrations."""
    module = build_p(Shape("A", ((2,), (2,))))
    top = module.dim - 1
    assert module.basis[0].entries == (1, 2, 3, 4)
    assert module.gens[2][top] == ((top, -1),)
    gens = {**module.gens, 2: module.gens[2][:top] + (((0, 1),),)}
    broken = modules.HeckeModule(module.kind, module.n, module.basis, gens, module.shape)
    with pytest.raises(CertificationError, match="outside the layer"):
        filtration_by_descent(broken)
    with pytest.raises(CertificationError, match="outside the layer"):
        length_filtration(broken, 0)


def test_length_quotient_rejects_an_arrow_within_a_length():
    """Basis 1 (word 1,4,2,3) and basis 2 (word 2,3,1,4) of P_[2,2] both
    have length 2, and generator 1 is not in D(w^-1) of basis 1: an arrow
    between them keeps the graded rule but not a diagonal quotient."""
    module = build_p(composition((2, 2)))
    assert [module.basis[j].entries for j in (1, 2)] == [(1, 4, 2, 3), (2, 3, 1, 4)]
    assert module.gens[1][1] == ((3, 1),)
    gens = {**module.gens, 1: module.gens[1][:1] + (((2, 1),),) + module.gens[1][2:]}
    planted = modules.HeckeModule(module.kind, module.n, module.basis, gens, module.shape)
    with pytest.raises(CertificationError, match=r"length quotient not diagonal at \(1, 1\)"):
        length_filtration(planted, 0)


def test_restriction():
    """restrict_p's blocks are those that ``split_tableau`` finds tableau
    by tableau: each set of boxes holding the values <= m is one block,
    and its tableaux are exactly the pairs of the two smaller modules."""
    assert restrict_p(composition((2,)), 1) == [(composition((1,)), composition((1,)))]
    blocks = restrict_p(composition((1, 3)), 2)
    assert len(blocks) == 2
    # two box sets, {0} and {1}, with the same subshapes: two blocks
    one = composition((1,))
    assert restrict_p(shapes.parse_shape("[1]+[1]", "A"), 1) == [(one, one), (one, one)]
    for n in range(6):
        for shape in shapes.enumerate_generalized(n, "A", 3):
            module = build_p(shape)
            for m in range(n + 1):
                sizes: Counter = Counter()
                box_sets = defaultdict(set)
                for t in module.basis:
                    left, right = tableaux.split_tableau(t, m)
                    sizes[left.shape, right.shape] += 1
                    box_sets[left.shape, right.shape].add(
                        frozenset(k for k, v in enumerate(t.entries) if v <= m)
                    )
                blocks = restrict_p(shape, m)
                assert blocks == sorted(blocks, key=lambda pair: (str(pair[0]), str(pair[1])))
                assert Counter(blocks) == Counter({pair: len(sets) for pair, sets in box_sets.items()})
                for b, g in blocks:
                    block_dim = build_p(b).dim * build_p(g).dim
                    assert sizes[b, g] == len(box_sets[b, g]) * block_dim, (shape, m, b, g)
                assert sum(build_p(b).dim * build_p(g).dim for b, g in blocks) == module.dim


def test_c_module_labels_carry_the_shape_descents():
    # the label is tau1 of the shape of sigma(D(alpha)): its tableau
    # descents are D(alpha), so the length filtration is one diagonal
    # layer; the label lies on the reversed ribbon in type A, on alpha in
    # type B and on alpha with 0 and 1 swapped in type D of odd rank
    count = 0
    for kind, top in (("A", 6), ("B", 5), ("D", 5)):
        for alpha in all_single(kind, top):
            c = build_c(alpha)
            dset = shapes.descent_set(alpha)
            assert tableaux.tableau_descents(c.basis[0]) == dset, alpha
            assert length_filtration(c, 0).labels == ((dset,),), alpha
            if kind == "A":
                expected = shapes.reverse(alpha)
            elif kind == "D" and alpha.size % 2:
                swapped = {{0: 1, 1: 0}.get(i, i) for i in dset}
                expected = shapes.from_descents(swapped, alpha.size, kind)
            else:
                expected = alpha
            assert c.basis[0] == tableaux.tau1(expected), alpha
            count += 1
    assert count == 63 + 62 + 60


def test_one_dim_quotients():
    # each top is labeled by its character, with the dimension of its Hom
    # space: one for every simple top of a P_alpha (Norton)
    for alpha in all_single("A", 4):
        assert one_dim_quotients(build_p(alpha)) == {shapes.descent_set(alpha): 1}
        assert one_dim_quotients(build_c(alpha)) == {shapes.descent_set(alpha): 1}
    alpha = composition((2, 1))
    tops = one_dim_quotients(build_m(alpha))
    assert tops == {shapes.descent_set(beta): 1 for beta in shapes.coarsenings(alpha)}


def _hom_dims_by_rank(module):
    """dim Hom(M, C_D) for every label D, the generators acting on C_D by
    -1 on D and by 0 elsewhere: dim M minus the rank over Fraction of the
    horizontally stacked M_i + [i in D] I."""
    dim, indices = module.dim, module.generator_indices()
    dense = {i: mat_to_dense(module.gens[i], dim) for i in indices}
    dims = {}
    for size in range(len(indices) + 1):
        for label in itertools.combinations(indices, size):
            stacked = [
                [x + (i in label and r == c) for i in indices for c, x in enumerate(dense[i][r])]
                for r in range(dim)
            ]
            dims[frozenset(label)] = dim - len(reference_rref(stacked)[1])
    return dims


def _direct_sum(module):
    """M + M, the second copy on the basis indices shifted by dim M."""
    dim = module.dim
    gens = {
        i: cols + tuple(tuple((r + dim, v) for r, v in col) for col in cols)
        for i, cols in module.gens.items()
    }
    return modules.HeckeModule(module.kind, module.n, module.basis * 2, gens, None)


def test_hom_dimensions_match_a_rational_rank():
    """one_dim_quotients gives dim Hom(M, C_D) for every label D, checked
    over all 2^|S| labels against an independent rank over Fraction."""
    family = []
    for kind, top in (("A", 4), ("B", 3), ("D", 3)):
        for alpha in all_single(kind, top):
            p = build_p(alpha)
            family += [p, build_m(alpha), build_c(alpha), twist(twist(p, "theta"), "phi")]
    doubled = _direct_sum(build_m(composition((2, 1))))
    family.append(doubled)
    for module in family:
        dims = _hom_dims_by_rank(module)
        tops = one_dim_quotients(module)
        assert all(tops.get(label, 0) == d for label, d in dims.items()), module.basis
        assert set(tops) <= set(dims) and all(tops.values())
    assert one_dim_quotients(doubled) == {frozenset(): 2, frozenset({2}): 2}


def test_twists():
    for alpha in all_single("B", 3):
        module = build_p(alpha)
        t = twist(module, "theta")
        assert check_relations(t) == []
        assert twist(t, "theta").gens == module.gens
        # the twist of the one-dimensional module swaps eigenvalues
        tc = twist(build_c(alpha), "theta")
        assert one_dim_quotients(tc) == {shapes.descent_set(shapes.complement(alpha)): 1}
    module = build_p(composition((2, 1)))
    assert twist(twist(module, "phi"), "phi").gens == module.gens


def test_intertwiner_direct_identity():
    module = build_p(composition((2, 1)))
    ident = {j: j for j in range(module.dim)}
    assert intertwiner_check(module, module, ident, mode="direct") == []
    other = build_p(composition((1, 2)))
    report = intertwiner_check(module, other, ident, mode="direct")
    assert report


def test_intertwiner_direct_reports_rows_outside_the_basis():
    """A column of module1 that carries a row outside its basis ends the
    direct report with one line, for list and dict candidates alike: a row
    past the end, and a row -1, which must not be read as the last."""
    module = build_p(composition((2, 1, 1)))
    last = module.dim - 1
    assert module.gens[1][last] == ((last, -1),)
    for row in (module.dim, -1):
        gens = {**module.gens, 1: module.gens[1][:last] + (((row, -1),),)}
        planted = modules.HeckeModule(module.kind, module.n, module.basis, gens, module.shape)
        for candidate in (list(range(module.dim)), {j: j for j in range(module.dim)}):
            report = intertwiner_check(planted, module, candidate, mode="direct")
            assert report[-1] == "direct intertwiner maps a basis vector outside the basis", (row, candidate)


def test_submodule_embedding():
    # the ribbon module embeds into its row-separated module by the
    # identity on reading words
    for alpha in [*all_single("A", 5), *all_single("B", 3)]:
        small, big = build_p(alpha), build_m(alpha)
        index = {t.entries: j for j, t in enumerate(big.basis)}
        cand = {j: index[t.entries] for j, t in enumerate(small.basis)}
        assert intertwiner_check(small, big, cand, mode="direct") == []


def test_length_filtration():
    module = build_p(composition((2, 1, 1)))
    filtr = length_filtration(module, 0)
    assert [len(layer) for layer in filtr.layers] == [3, 2, 1]
    c = build_c(composition((2, 1)))
    assert len(length_filtration(c, 0).layers) == 1
    for alpha in all_single("A", 5):
        module = build_p(alpha)
        lengths = [groups.length(tableaux.reading_word(t)) for t in module.basis]
        filtr = length_filtration(module, lengths.index(min(lengths)))
        sizes = [len(layer) for layer in filtr.layers]
        quotients = [a - b for a, b in zip(sizes, sizes[1:] + [0])]
        assert sum(quotients) == module.dim


def test_row_separated_modules_are_cyclic():
    # the row-separated module is generated by its identity-word tableau
    for alpha in all_single("A", 4):
        module = build_m(alpha)
        lengths = [groups.length(tableaux.reading_word(t)) for t in module.basis]
        filtr = length_filtration(module, lengths.index(min(lengths)))
        assert len(filtr.layers[0]) == module.dim


def test_length_filtration_needs_cyclic():
    # a direct sum of two one-dimensional pieces is not cyclic
    t12 = tableaux.standard_tableaux(composition((2,)))[0]
    t21 = tableaux.standard_tableaux(composition((1, 1)))[0]
    fake = modules.HeckeModule(
        "A", 2, (t12, t21), {1: ((), ((1, -1),))}, composition((2,))
    )
    with pytest.raises(shapes.ShapeError):
        length_filtration(fake, 0)


def test_module_json_round_trip():
    for shape in (
        composition((2, 1)),
        pseudo_composition((0, 2)),
        Shape("A", ((1,), (2,))),
        Shape("A", ()),
        Shape("B", ((0,),)),
    ):
        module = build_p(shape)
        data = module_to_json(module)
        back = module_from_json(data)
        assert back.kind == module.kind and back.n == module.n
        assert back.basis == module.basis
        assert back.gens == module.gens


@st.composite
def module_cases(draw):
    """A P, M or C module of a single ribbon, of size at most 5 in type A
    and 4 in types B and D, untwisted or twisted by theta or phi."""
    kind = draw(st.sampled_from("ABD"))
    size = draw(st.integers(2 if kind == "D" else 1, 5 if kind == "A" else 4))
    idx = shapes.positions(kind, size)
    picks = draw(st.lists(st.booleans(), min_size=len(idx), max_size=len(idx)))
    alpha = shapes.from_descents(frozenset(i for i, b in zip(idx, picks) if b), size, kind)
    builder = draw(st.sampled_from((build_p, build_m, build_c)))
    module = builder(alpha)
    which = draw(st.sampled_from((None, "theta", "phi")))
    return module if which is None else twist(module, which)


@settings(deadline=None, max_examples=60)
@given(module_cases())
def test_module_json_round_trip_all_kinds(module):
    data = module_to_json(module)
    back = module_from_json(json.loads(json.dumps(data)))
    assert (back.kind, back.n, back.shape) == (module.kind, module.n, module.shape)
    assert back.basis == module.basis
    assert back.gens == module.gens
    assert module_to_json(back) == data


def test_module_json_names_a_basis_shape_only_when_it_differs():
    # P and M write no basis_shape, so their JSON is as before; the type
    # A C module is labeled by a tableau on the reversed ribbon
    alpha = composition((2, 1))
    for module in (build_p(alpha), build_m(alpha), build_c(pseudo_composition((0, 2)))):
        assert "basis_shape" not in module_to_json(module)
    data = module_to_json(build_c(alpha))
    assert data["basis_shape"] == "[1,2]"
    assert module_from_json(data).basis == build_c(alpha).basis


def test_module_json_rejects_bad_basis():
    data = module_to_json(build_p(composition((2, 1))))
    first = data["basis"][0]
    for basis in (
        [first, first],  # a repeated tableau
        ["3/1,2", data["basis"][1]],  # columns must increase downward
        ["9/1,2", data["basis"][1]],  # 9 is out of range
    ):
        with pytest.raises(ValueError):
            module_from_json({**data, "basis": basis})
    c_data = module_to_json(build_c(composition((2, 1))))
    with pytest.raises(ValueError):  # a standard tableau of size 4 in rank 3
        module_from_json({**c_data, "basis_shape": "[1,2,1]", "basis": ["3/1,4/2"]})


def test_module_json_rejects_malformed_generators():
    data = module_to_json(build_p(composition((2, 1))))
    assert module_from_json(data).dim == 2
    for bad in (
        {"1": [[0]], "2": data["generators"]["2"]},  # 1 x 1 on a 2-dimensional module
        {**data["generators"], "7": data["generators"]["1"]},  # no generator 7 in rank 3
        {"1": data["generators"]["1"]},  # generator 2 missing
        {"1": data["generators"]["1"], "2": [[0, 0], [0]]},  # a short row
    ):
        with pytest.raises(ValueError):
            module_from_json({**data, "generators": bad})
    four = {str(i): [[0, 0], [0, 0]] for i in range(1, 5)}
    with pytest.raises(ValueError):  # rank 5 on a shape of size 3
        module_from_json({**data, "n": 5, "generators": four})
