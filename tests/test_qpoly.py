import copy
import pickle
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from hecke_ribbon.qpoly import (
    ONE,
    ZERO,
    QPoly,
    q_binomial,
    q_factorial,
    q_int,
    q_multinomial,
)


def brute_q_binomial(n, k):
    """Independent oracle: sum q^(inversions) over 0/1 words with k ones,
    an inversion being a (1, 0) pair in that order."""
    total = QPoly()
    for ones in combinations(range(n), k):
        word = [1 if i in ones else 0 for i in range(n)]
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if word[i] > word[j]
        )
        total = total + QPoly.q(inv)
    return total


def test_arithmetic():
    p = QPoly.of((1, 2)) * QPoly.of((0, 1)) + 3
    assert p.coeffs == (3, 1, 2)
    assert (p - p).coeffs == ()
    assert str(QPoly.of((1, 0, -2))) == "1 - 2*q^2"
    assert QPoly.of((0, 1))(5) == 5


def test_negative_powers_raise():
    # Z[q] has no inverses beyond +-1, so no negative power is a polynomial
    for base, exponent in ((QPoly.q(1), -1), (QPoly.of((1, 1)), -2), (ONE, -1)):
        with pytest.raises(ValueError):
            base ** exponent


def test_q_basics():
    assert q_int(3).coeffs == (1, 1, 1)
    assert q_factorial(3) == q_int(1) * q_int(2) * q_int(3)


def test_q_binomial_against_word_oracle():
    for n in range(7):
        for k in range(n + 1):
            assert q_binomial(n, k) == brute_q_binomial(n, k), (n, k)


def test_q_multinomial():
    assert q_multinomial(4, (4,)) == QPoly.of(1)
    assert q_multinomial(3, (1, 1, 1)) == q_factorial(3)
    # specializing q to 1 recovers the plain multinomial coefficient
    assert q_multinomial(8, (3, 4, 1))(1) == 280


# --- the kernel against a schoolbook reference -------------------------------

BIG = 10**30
COEFF = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))
# lengths 0..40 drawn evenly, so that long products cross into the
# Kronecker path as often as short ones stay out of it
COEFFS = st.integers(0, 40).flatmap(lambda n: st.lists(COEFF, min_size=n, max_size=n))


def ref_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref_trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def ref_mul(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


# equal extreme coefficients make the middle coefficient of the product
# reach the bound min(len) * max|a| * max|b| exactly, which random draws
# almost never do; a Kronecker bit width one bit short fails on these
@example(a=[BIG] * 40, b=[BIG] * 40, k=BIG)
@example(a=[-BIG] * 9, b=[BIG] * 12, k=-1)
@settings(deadline=None)
@given(COEFFS, COEFFS, COEFF)
def test_kernel_matches_schoolbook(a, b, k):
    p, r = QPoly.of(a), QPoly.of(b)
    assert p.coeffs == ref_trim(a)
    assert (p * r).coeffs == ref_mul(a, b)
    assert (p + r).coeffs == ref_add(a, b)
    assert (p - r).coeffs == ref_add(a, [-y for y in b])
    assert (p * k).coeffs == (k * p).coeffs == ref_mul(a, [k])
    assert (p + k).coeffs == (k + p).coeffs == ref_add(a, [k])
    assert (p - k).coeffs == ref_add(a, [-k])
    assert (k - p).coeffs == ref_add([k], [-x for x in a])
    assert (-p).coeffs == ref_trim(-x for x in a)


# --- value semantics -------------------------------------------------------


def test_qpoly_is_an_immutable_value():
    p = QPoly.of((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = (3,)
    with pytest.raises(AttributeError):
        setattr(p, "coeffs", (3,))
    with pytest.raises(AttributeError):
        del p.coeffs
    with pytest.raises(AttributeError):
        delattr(p, "coeffs")
    with pytest.raises(AttributeError):
        p.other = 1
    assert p.coeffs == (1, 2)
    assert hash(p) == hash((p.coeffs,))
    assert QPoly((1,)) != (1,) and (1,) != QPoly((1,))
    assert QPoly.of(1) != 1 and QPoly.of(1) == QPoly((1,))
    assert repr(p) == "QPoly(coeffs=(1, 2))"
    assert repr(QPoly()) == "QPoly(coeffs=())"
    assert QPoly(coeffs=(1, 2)) == p
    # the constructor trims, so every instance satisfies the invariant the
    # fast paths rely on
    assert QPoly((1, 2, 0, 0)) == p and QPoly([0, 0]).coeffs == () and not QPoly((0,))
    assert pickle.loads(pickle.dumps(p)) == p
    assert copy.deepcopy(p) == p == copy.copy(p)


def test_shared_constants_cannot_be_edited():
    p = QPoly.of((1, 2))
    returned = [
        QPoly.of(0), QPoly.of(1) * ONE, p * 0, 0 * p, ZERO + 0, ONE + 0,
        ONE * 1, -ZERO, ONE ** 3,
    ]
    assert any(r is ZERO for r in returned) and any(r is ONE for r in returned)
    for r in returned:
        with pytest.raises(AttributeError):
            r.coeffs = (5,)
        with pytest.raises(AttributeError):
            del r.coeffs
    assert ZERO.coeffs == () and ONE.coeffs == (1,)


def test_int_subclasses_keep_their_behaviour():
    p = QPoly.of((1, 2))
    assert QPoly.of(True).coeffs == (True,) and QPoly.of(False) == ZERO
    assert p * True is p and (p * False) is ZERO
    assert (p + True).coeffs == (2, 2) and (ZERO + True).coeffs == (True,)
    # a bool operand takes the int path, never the constant table
    c = QPoly.of(3)
    assert c * True is c and c * False is ZERO and True * c is c
    assert (c + True).coeffs == (4,) and (True + c).coeffs == (4,) and c + False is c


def test_the_empty_qpoly_is_zero():
    empties = [QPoly(), QPoly(()), QPoly(coeffs=()), QPoly([]), QPoly((0, 0))]
    empties += [pickle.loads(pickle.dumps(ZERO)), copy.copy(ZERO), copy.deepcopy(ZERO)]
    for empty in empties:
        assert empty == ZERO and hash(empty) == hash(ZERO)
        assert empty.coeffs == () and not empty and type(empty) is QPoly
    for bad in (0, None):
        with pytest.raises(TypeError):
            QPoly(bad)


def test_mixed_products_keep_their_results():
    p = QPoly.of((1, 2))
    for c, out in ((1, p), (-1, QPoly((-1, -2))), (3, QPoly((3, 6))), (10**20, QPoly((10**20, 2 * 10**20)))):
        k = QPoly.of(c)
        assert p * k == k * p == out and type(p * k) is QPoly
    assert p * ONE is p and ONE * p is p and p * ZERO is ZERO and ZERO * p is ZERO
    assert p + ZERO is p and ZERO + p is p
    # a tuple operand goes through QPoly.of and keeps the shared results
    assert QPoly.of(3) * (2,) is QPoly.of(6) and QPoly.of(3) + (2,) is QPoly.of(5)
    assert (QPoly.of(3) * (1, 1)).coeffs == (3, 3) and (QPoly.of(3) + (1, 1)).coeffs == (4, 1)


# --- shared constants ----------------------------------------------------------

# both inside the shared range -64..64 and far outside it
SMALL_OR_BIG = st.one_of(st.integers(-70, 70), st.integers(-BIG, BIG))


# results just inside and just outside the table: 64 + 1, 5 * 13 and their
# negatives, which a bound off by one would read from the wrong end
@example(x=64, y=1)
@example(x=-64, y=-1)
@example(x=5, y=13)
@example(x=-5, y=13)
@given(SMALL_OR_BIG, SMALL_OR_BIG)
def test_constant_arithmetic_is_trimmed_and_shared(x, y):
    a = QPoly.of(x)
    b = QPoly((x,))  # equal to a, but a new instance
    for out, value in [
        (a + QPoly.of(y), x + y),
        (a + y, x + y),
        (y + a, x + y),
        (a - QPoly.of(y), x - y),
        (a - y, x - y),
        (y - a, y - x),
        (a * QPoly.of(y), x * y),
        (a * y, x * y),
        (y * a, x * y),
        (-a, -x),
        (QPoly((x,)) * QPoly((y,)), x * y),
        (ZERO + a, x),
        (a + ZERO, x),
        (ZERO + a * b * QPoly.of(y), x * x * y),
    ]:
        assert out == QPoly((value,)) and hash(out) == hash(QPoly((value,)))
        assert out.coeffs == ((value,) if value else ())
        if not value:
            assert out is ZERO
        elif abs(value) <= 64:
            assert out is QPoly.of(value)
