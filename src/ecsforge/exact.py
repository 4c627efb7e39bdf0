"""Exact arithmetic in the real quadratic field Q(sqrt(p**2 - 4)).

Every certificate-grade identity in this package reduces to arithmetic with
the norm-one unit q = (p + sqrt(p**2 - 4))/2 for an integer p >= 3: q > 1,
q + 1/q = p, and the Galois conjugate of q is its inverse.  Spectra of the
holonomy action are integer powers of q, so their characteristic polynomials
have integer coefficients that can be compared literally.  Everything here is
integer arithmetic on triples (a, b, den) representing (a + b*sqrt(d))/den in
lowest terms; no floating point enters any check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

__all__ = [
    "QFieldElement",
    "QFieldContext",
    "IntPolynomial",
    "trace_sequence",
    "char_poly_from_exponents",
    "companion_matrix",
    "charpoly_int",
    "det_int",
    "verify_spectrum",
]

Rational = Union[int, Fraction]


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


class QFieldElement:
    """A number (a + b*sqrt(d))/den with integers a, b, den and a positive
    non-square d.

    The three integers are stored in lowest terms: den > 0 and
    gcd(a, b, den) = 1, so every element has exactly one representation
    (zero is (0, 0, 1)).  They are readable as `int_a`, `int_b` and `den`;
    the rational coordinates a/den and b/den are the `Fraction` properties
    `a` and `b`.  Instances are immutable: assigning an attribute raises
    AttributeError.

    d being a non-square is what makes that triple unique: sqrt(d) is then
    irrational, so a + b*sqrt(d) = 0 forces a = b = 0, two triples in
    lowest terms name the same number only when they are equal, and
    `__eq__` compares the integers alone.

    d is checked once, when an element is built by this public constructor
    or by `QFieldContext`; a square or non-positive d raises ValueError.
    Results of arithmetic (+, -, *, negation, inverse, powers, conjugate)
    inherit the d of their already checked operands and skip the check,
    which would otherwise dominate exact matrix work.  Elements of
    different d never mix: `_coerce` refuses every such operand pair.
    """

    __slots__ = ("int_a", "int_b", "den", "d")

    def __new__(cls, a: Rational, b: Rational, d: int) -> "QFieldElement":
        if d <= 1 or _is_square(d):
            raise ValueError(f"d must be a positive non-square, got {d}")
        fa, fb = Fraction(a), Fraction(b)
        # already in lowest terms: a prime dividing den divides the reduced
        # denominator of fa or fb, and so not that one's numerator
        den = math.lcm(fa.denominator, fb.denominator)
        return _new(
            fa.numerator * (den // fa.denominator),
            fb.numerator * (den // fb.denominator),
            den,
            d,
        )

    @classmethod
    def _unchecked(cls, a: int, b: int, den: int, d: int) -> "QFieldElement":
        """Build (a + b*sqrt(d))/den in lowest terms from integers with
        den > 0 and a d already validated by the public constructor."""
        return _reduced(a, b, den, d)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"QFieldElement is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"QFieldElement is immutable; cannot delete {name!r}")

    @property
    def a(self) -> Fraction:
        """The rational part a/den."""
        return Fraction(self.int_a, self.den)

    @property
    def b(self) -> Fraction:
        """The coefficient b/den of sqrt(d)."""
        return Fraction(self.int_b, self.den)

    # -- ring structure ----------------------------------------------------

    def _coerce(self, value: object) -> "QFieldElement | None":
        if isinstance(value, QFieldElement):
            if value.d != self.d:
                raise ValueError("elements live in different quadratic fields")
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return _new(value, 0, 1, self.d)
        if isinstance(value, Fraction):
            return _new(value.numerator, 0, value.denominator, self.d)
        return None

    def __add__(self, other: object) -> "QFieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n, m = self.den, o.den
        if n == m:
            return _reduced(self.int_a + o.int_a, self.int_b + o.int_b, n, self.d)
        return _reduced(
            self.int_a * m + o.int_a * n, self.int_b * m + o.int_b * n, n * m, self.d
        )

    __radd__ = __add__

    def __neg__(self) -> "QFieldElement":
        return _new(-self.int_a, -self.int_b, self.den, self.d)

    def __sub__(self, other: object) -> "QFieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n, m = self.den, o.den
        if n == m:
            return _reduced(self.int_a - o.int_a, self.int_b - o.int_b, n, self.d)
        return _reduced(
            self.int_a * m - o.int_a * n, self.int_b * m - o.int_b * n, n * m, self.d
        )

    def __rsub__(self, other: object) -> "QFieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: object) -> "QFieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, e = self.int_a, self.int_b, o.int_a, o.int_b
        return _reduced(a * c + b * e * self.d, a * e + b * c, self.den * o.den, self.d)

    __rmul__ = __mul__

    def inverse(self) -> "QFieldElement":
        # den / (a + b sqrt d) = den (a - b sqrt d) / (a**2 - d b**2)
        a, b, den = self.int_a, self.int_b, self.den
        n = a * a - self.d * b * b
        if n == 0:
            raise ZeroDivisionError("division by zero field element")
        if n < 0:
            den, n = -den, -n
        return _reduced(den * a, -den * b, n, self.d)

    def __truediv__(self, other: object) -> "QFieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> "QFieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int) -> "QFieldElement":
        if not isinstance(exponent, int):
            return NotImplemented
        base = self if exponent >= 0 else self.inverse()
        result = _new(1, 0, 1, self.d)
        e = abs(exponent)
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- field invariants ----------------------------------------------------

    @property
    def conj(self) -> "QFieldElement":
        """Galois conjugate a - b*sqrt(d)."""
        return _new(self.int_a, -self.int_b, self.den, self.d)

    @property
    def is_zero(self) -> bool:
        return self.int_a == 0 and self.int_b == 0

    # -- equality ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        # both sides are in lowest terms, so equal values have equal integers
        if isinstance(other, QFieldElement):
            return (
                self.d == other.d
                and self.int_a == other.int_a
                and self.int_b == other.int_b
                and self.den == other.den
            )
        if isinstance(other, int) and not isinstance(other, bool):
            return self.int_b == 0 and self.den == 1 and self.int_a == other
        if isinstance(other, Fraction):
            return (
                self.int_b == 0
                and self.int_a == other.numerator
                and self.den == other.denominator
            )
        return NotImplemented

    # -- conversions -----------------------------------------------------------

    def __float__(self) -> float:
        # a + b*sqrt(d) cancels catastrophically when a and b have opposite
        # signs and similar magnitude (e.g. large negative powers of a unit).
        # In that regime divide the exact norm by the conjugate instead: the
        # conjugate combination adds terms of one sign, so it is accurate.
        # int / int rounds correctly, so fa, fb and the norm are the nearest
        # floats to the exact rationals.
        a, b, den = self.int_a, self.int_b, self.den
        fa, fb = a / den, b / den
        root = math.sqrt(self.d)
        if fa == 0.0 or fb == 0.0 or (a > 0) == (b > 0):
            return fa + fb * root
        return ((a * a - self.d * b * b) / (den * den)) / (fa - fb * root)

    def __repr__(self) -> str:
        return f"QFieldElement({self.a}, {self.b}, d={self.d})"

    def to_json_dict(self) -> dict[str, str]:
        """Encode as the four decimal strings used inside certificates."""
        a, b = self.a, self.b
        return {
            "a_num": str(a.numerator),
            "a_den": str(a.denominator),
            "b_num": str(b.numerator),
            "b_den": str(b.denominator),
        }


# The slots' own setters bypass the __setattr__ that keeps elements immutable.
_set_a, _set_b, _set_den, _set_d = (
    QFieldElement.__dict__[name].__set__ for name in QFieldElement.__slots__
)


def _new(a: int, b: int, den: int, d: int) -> QFieldElement:
    """An element from integers already in lowest terms with den > 0."""
    element = object.__new__(QFieldElement)
    _set_a(element, a)
    _set_b(element, b)
    _set_den(element, den)
    _set_d(element, d)
    return element


def _reduced(a: int, b: int, den: int, d: int) -> QFieldElement:
    """An element from integers with den > 0, brought to lowest terms."""
    if den != 1:
        g = math.gcd(a, b, den)
        if g != 1:
            a, b, den = a // g, b // g, den // g
    return _new(a, b, den, d)


class QFieldContext:
    """Arithmetic context for a fixed trace parameter p >= 3.

    Holds q = (p + sqrt(d))/2 with d = p**2 - 4.  For p >= 3 the value d sits
    strictly between (p-1)**2 and p**2, hence is never a perfect square, so q
    is a genuine quadratic irrationality with q > 1, norm 1 and q + 1/q = p.
    Integer powers of q are cached: lattice certificates ask for thousands of
    nearby exponents and each power is one multiplication away from a cached
    neighbour.
    """

    def __init__(self, p: int) -> None:
        if not isinstance(p, int) or isinstance(p, bool) or p < 3:
            raise ValueError(f"p must be an integer >= 3, got {p!r}")
        self.p = p
        self.d = p * p - 4
        half = Fraction(1, 2)
        self.q = QFieldElement(half * p, half, self.d)
        self.q_inv = QFieldElement(half * p, -half, self.d)
        self.one = QFieldElement(Fraction(1), Fraction(0), self.d)
        self.zero = QFieldElement(Fraction(0), Fraction(0), self.d)
        self._powers: dict[int, QFieldElement] = {0: self.one, 1: self.q, -1: self.q_inv}
        self._hi = 1
        self._lo = -1

    def element(self, a: Rational, b: Rational = 0) -> QFieldElement:
        return QFieldElement(Fraction(a), Fraction(b), self.d)

    def q_power(self, exponent: int) -> QFieldElement:
        powers = self._powers
        if exponent in powers:
            return powers[exponent]
        if exponent > 0:
            value = powers[self._hi]
            for k in range(self._hi + 1, exponent + 1):
                value = value * self.q
                powers[k] = value
            self._hi = exponent
        else:
            value = powers[self._lo]
            for k in range(self._lo - 1, exponent - 1, -1):
                value = value * self.q_inv
                powers[k] = value
            self._lo = exponent
        return value

    def __repr__(self) -> str:
        return f"QFieldContext(p={self.p})"


def trace_sequence(p: int, count: int) -> tuple[int, ...]:
    """First `count` values of s_a = q**a + q**(-a), starting at a = 0.

    Integer recurrence: s_0 = 2, s_1 = p, s_a = p*s_{a-1} - s_{a-2}.  For
    p = 3 this walks every other Lucas number: 2, 3, 7, 18, 47, 123, ...
    """
    if not isinstance(p, int) or isinstance(p, bool) or p < 3:
        raise ValueError(f"p must be an integer >= 3, got {p!r}")
    if count <= 0:
        return ()
    seq = [2, p]
    while len(seq) < count:
        seq.append(p * seq[-1] - seq[-2])
    return tuple(seq[:count])


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial; coefficients[k] multiplies x**k (constant first)."""

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(int(c) for c in self.coefficients)
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        if len(coeffs) > 1 and coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_monic(self) -> bool:
        return self.coefficients[-1] == 1

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coefficients, other.coefficients
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return IntPolynomial(tuple(out))

    def __call__(self, x):
        """Horner evaluation; works for ints, Fractions and field elements."""
        result = x * 0  # zero of the argument's type
        for c in reversed(self.coefficients):
            result = result * x + c
        return result

    def __repr__(self) -> str:
        return f"IntPolynomial({self.coefficients})"


def char_poly_from_exponents(exponents: Iterable[int], p: int) -> IntPolynomial:
    """Monic polynomial whose root set is exactly {q**a : a in exponents}.

    The exponent set must be symmetric about zero; roots then pair up as
    (q**a, q**-a) with integer sum s_a, giving a factor x**2 - s_a*x + 1 per
    pair, times a plain (x - 1) when 0 is present.
    """
    ys = sorted({int(a) for a in exponents})
    if not ys:
        raise ValueError("empty exponent set")
    missing = [a for a in ys if -a not in ys]
    if missing:
        raise ValueError(f"exponent set is not symmetric about 0 (unpaired: {missing})")
    traces = trace_sequence(p, ys[-1] + 1)
    poly = IntPolynomial((-1, 1)) if 0 in ys else IntPolynomial((1,))
    for a in ys:
        if a > 0:
            poly = poly * IntPolynomial((1, -traces[a], 1))
    return poly


def companion_matrix(poly: IntPolynomial) -> tuple[tuple[int, ...], ...]:
    """Companion matrix with the coefficient column last.

    Layout: ones on the subdiagonal, column n-1 equal to minus the low
    coefficients, zeros elsewhere; x**2 - 3x + 1 maps to ((0, -1), (1, 3)).
    """
    if not poly.is_monic:
        raise ValueError("companion matrix needs a monic polynomial")
    n = poly.degree
    if n < 1:
        raise ValueError("companion matrix needs degree >= 1")
    rows = []
    for i in range(n):
        row = [0] * n
        if i:
            row[i - 1] = 1
        row[-1] = -poly.coefficients[i]
        rows.append(tuple(row))
    return tuple(rows)


def _check_square(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square and nonempty")
    return [[int(v) for v in row] for row in matrix]


def charpoly_int(matrix: Sequence[Sequence[int]]) -> IntPolynomial:
    """Characteristic polynomial det(x*I - M) of an integer matrix.

    Division-free (Berkowitz' method), so every intermediate stays an
    integer; the result is monic by construction.
    """
    m = _check_square(matrix)
    n = len(m)
    poly = [1, -m[0][0]]  # descending coefficients of the 1x1 leading block
    for size in range(2, n + 1):
        i = size - 1
        row = m[i][:i]
        col = [m[j][i] for j in range(i)]
        block = [m[j][:i] for j in range(i)]
        toeplitz = [1, -m[i][i]]
        vec = col
        for step in range(i):
            toeplitz.append(-sum(r * v for r, v in zip(row, vec)))
            if step + 1 < i:
                vec = [
                    sum(block_row[k] * vec[k] for k in range(i))
                    for block_row in block
                ]
        new = [0] * (size + 1)
        for r in range(size + 1):
            acc = 0
            for c in range(size):
                k = r - c
                if 0 <= k < len(toeplitz):
                    acc += toeplitz[k] * poly[c]
            new[r] = acc
        poly = new
    return IntPolynomial(tuple(reversed(poly)))


def det_int(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination).

    Bareiss' single-step scheme: every interior division is exact, so the
    computation never leaves the integers.
    """
    a = _check_square(matrix)
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def verify_spectrum(
    matrix: Sequence[Sequence[int]],
    exponents: Iterable[int],
    p: int,
) -> bool:
    """Certify that an integer matrix has spectrum {q**a : a in exponents},
    each eigenvalue with multiplicity one.

    Two independent routes must both pass:

    * the characteristic polynomial of the matrix equals the pair-product
      formula literally — this pins multiplicities, so e.g. the 2x2 identity
      fails against {0} even though its polynomial vanishes at q**0; and
    * that polynomial evaluates to exactly zero at every q**a in field
      arithmetic, exercising the quadratic-field layer end to end.
    """
    ys = {int(a) for a in exponents}
    actual = charpoly_int(matrix)
    try:
        expected = char_poly_from_exponents(ys, p)
    except ValueError:
        return False
    if actual != expected:
        return False
    ctx = QFieldContext(p)
    return all(actual(ctx.q_power(a)).is_zero for a in ys)
