"""Exact univariate polynomials in q and the standard q-analogs.

Coefficients are Python integers, so every computation here is exact.
The q-analogs provided are the q-integer [k], the q-factorial [k]!, and
q-binomial/multinomial coefficients, built by the Pascal recurrence so
that no division is ever needed.

``QPoly`` is the coefficient ring of every series identity, so its
arithmetic is the kernel the certificates spend their time in.  Every
instance is trimmed (no trailing zero coefficient) and immutable, so sums
and products return ``ZERO`` or an operand itself whenever the result
equals it, and multiply by integers and constants without the general
loops.

Most coefficients at q = 1 are small constants, so the constants from
-64 to 64 are made once, in one table: a sum, product, negation or
``QPoly.of`` whose value is such a constant returns the shared instance
instead of a new one, and a zero result is always ``ZERO`` (never a
``(0,)`` tuple; the constructor trims that away as well).  Sharing is
invisible to callers: instances cannot be edited, and equality and hash
go by ``coeffs`` alone.

Sums and products are dispatched on the other operand, commonest first:
a ``QPoly``, where a pair of constants reads its result off the table
(at q = 1 almost every coefficient is a constant, so this is most of the
traffic); then, for a product only, an ``int``; then anything else,
through ``QPoly.of``.  Only then do the general loops run; a sum with
one constant operand takes them too.

Products whose shorter operand has at least ``KRONECKER_MIN_LEN``
coefficients use Kronecker substitution: both operands are evaluated at
q = 2^b, multiplied as one Python integer, and the product's
coefficients are read off as balanced (signed) base-2^b digits.  Every
coefficient of a*b is a sum of at most min(len a, len b) products, so
|c_k| <= min(len a, len b) * max|a_i| * max|b_j| = M.  Taking
b = M.bit_length() + 1 gives |c_k| < 2^(b-1), the range in which a
balanced digit is exact, for coefficients of any sign.
"""

from __future__ import annotations

from functools import lru_cache

# Shorter-operand length from which a product goes through one integer
# product.  Measured on a 2-core Xeon (2.1 GHz, Python 3.11.7), median
# over 30 random pairs with the longer operand up to 8 longer and
# coefficients up to 2^2..2^32: schoolbook time over Kronecker time is
# 0.94 at length 5, 1.03-1.06 at 6, 1.23 at 7, 1.38 at 8, 2.3 at 16 and
# 3.6 at 32 (134 against 38 us).
KRONECKER_MIN_LEN = 7


def _trim(coeffs) -> tuple[int, ...]:
    coeffs = tuple(coeffs)
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


class QPoly:
    """A polynomial in q with integer coefficients, ascending powers.

    Instances are immutable values: ``coeffs`` cannot be assigned or
    deleted, equality holds only between ``QPoly``s, and the hash is that
    of ``(coeffs,)``.  The constructor drops trailing zero coefficients.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...] = ()):
        _set_coeffs(self, _trim(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    def __repr__(self) -> str:
        return f"QPoly(coeffs={self.coeffs!r})"

    def __reduce__(self):
        return QPoly, (self.coeffs,)

    @staticmethod
    def of(value) -> "QPoly":
        if isinstance(value, QPoly):
            return value
        if isinstance(value, int):
            return _constant(value)
        return QPoly(value)

    @staticmethod
    def q(power: int = 1, coeff: int = 1) -> "QPoly":
        return QPoly((0,) * power + (coeff,))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __add__(self, other) -> "QPoly":
        a = self.coeffs
        if other.__class__ is not QPoly:
            other = QPoly.of(other)
        b = other.coeffs
        if len(a) == 1 and len(b) == 1:  # _constant, inlined
            c = a[0] + b[0]
            return _CONSTANTS[c] if -65 < c < 65 else _wrap((c,))
        if not b:
            return self
        if not a:
            return other
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        if len(a) > len(b):
            out.extend(a[len(b):])
            return _wrap(tuple(out))
        out = _trim(out)
        if len(out) > 1:
            return _wrap(out)
        return _constant(out[0]) if out else ZERO

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        a = self.coeffs
        if len(a) > 1:
            return _wrap(tuple([-c for c in a]))
        return _constant(-a[0]) if a else ZERO

    def __sub__(self, other) -> "QPoly":
        return self + (-QPoly.of(other))

    def __rsub__(self, other) -> "QPoly":
        return QPoly.of(other) - self

    def __mul__(self, other) -> "QPoly":
        a = self.coeffs
        if other.__class__ is not QPoly:
            if isinstance(other, int):
                return _scale(self, other) if other and a else ZERO
            other = QPoly.of(other)
        b = other.coeffs
        if len(a) == 1 and len(b) == 1:  # _constant, inlined
            c = a[0] * b[0]
            return _CONSTANTS[c] if -65 < c < 65 else _wrap((c,))
        if not a or not b:
            return ZERO
        if len(a) == 1:
            return _scale(other, a[0])
        if len(b) == 1:
            return _scale(self, b[0])
        # both leading coefficients are nonzero, so is their product: the
        # result needs no trimming
        if min(len(a), len(b)) >= KRONECKER_MIN_LEN:
            return _wrap(_kronecker(a, b))
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return _wrap(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "QPoly":
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = ONE
        for _ in range(exponent):
            result = result * self
        return result

    def __call__(self, value: int) -> int:
        result = 0
        for c in reversed(self.coeffs):
            result = result * value + c
        return result

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        pieces = []
        for power, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if power == 0:
                pieces.append(str(c))
            else:
                head = "" if c == 1 else "-" if c == -1 else f"{c}*"
                q = "q" if power == 1 else f"q^{power}"
                pieces.append(f"{head}{q}")
        text = " + ".join(pieces)
        return text.replace("+ -", "- ")


_set_coeffs = QPoly.coeffs.__set__


def _wrap(coeffs: tuple[int, ...]) -> QPoly:
    """A QPoly around a tuple that is already trimmed."""
    p = object.__new__(QPoly)
    _set_coeffs(p, coeffs)
    return p


def _constant(c: int) -> QPoly:
    """The constant c: the shared instance when |c| <= 64 (ZERO for 0)."""
    return _CONSTANTS[c] if -65 < c < 65 else _wrap((c,))


def _scale(p: QPoly, c: int) -> QPoly:
    """p times a nonzero integer c, for a nonzero p."""
    if c == 1:
        return p
    a = p.coeffs
    if len(a) == 1:
        return _constant(a[0] * c)
    return _wrap(tuple([x * c for x in a]))


def _kronecker(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The coefficients of a*b through one integer product at q = 2^bits
    (the bound on ``bits`` is in the module docstring)."""
    bits = (min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))).bit_length() + 1
    x = 0
    for c in reversed(a):
        x = (x << bits) + c
    y = 0
    for c in reversed(b):
        y = (y << bits) + c
    z = x * y
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    out = []
    for _ in range(len(a) + len(b) - 1):
        d = z & mask
        if d >= half:
            d -= mask + 1
        out.append(d)
        z = (z - d) >> bits
    return tuple(out)


ZERO = QPoly()
ONE = QPoly((1,))
# _CONSTANTS[c] is the constant c for |c| <= 64; a negative c reads from
# the end of the list
_CONSTANTS = [ZERO, ONE] + [_wrap((c,)) for c in range(2, 65)]
_CONSTANTS += [_wrap((c,)) for c in range(-64, 0)]


def q_int(k: int) -> QPoly:
    """[k] = 1 + q + ... + q^(k-1)."""
    return QPoly((1,) * k)


@lru_cache(maxsize=None)
def q_factorial(k: int) -> QPoly:
    if k <= 1:
        return ONE
    return q_factorial(k - 1) * q_int(k)


@lru_cache(maxsize=None)
def q_binomial(n: int, k: int) -> QPoly:
    if k < 0 or k > n:
        return ZERO
    if k == 0 or k == n:
        return ONE
    return q_binomial(n - 1, k - 1) + QPoly.q(k) * q_binomial(n - 1, k)


def q_multinomial(n: int, parts: tuple[int, ...]) -> QPoly:
    """The q-multinomial coefficient of a composition of n."""
    if sum(parts) != n:
        raise ValueError(f"parts {parts} do not sum to {n}")
    result = ONE
    rest = n
    for p in parts:
        result = result * q_binomial(rest, p)
        rest -= p
    return result
