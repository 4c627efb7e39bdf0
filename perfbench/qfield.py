"""Exact arithmetic in Q(sqrt(d)) and over the integers, written apart from
``ecsforge.exact`` so that the benchmark can check the program's lattice
data with code that shares nothing with it.

An element is (a + b*sqrt(d)) / den with integers a, b and den > 0 in
lowest terms.  Only what the checks need is here: ring operations,
equality, conversion from the certificate encoding, integer matrix
products, and the characteristic polynomial of an integer matrix by
Hessenberg reduction over the rationals.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence


class QSqrt:
    __slots__ = ("a", "b", "den", "d")

    def __init__(self, a: int, b: int, den: int, d: int) -> None:
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            a, b, den = -a, -b, -den
        g = gcd(gcd(a, b), den)
        if g > 1:
            a, b, den = a // g, b // g, den // g
        self.a, self.b, self.den, self.d = a, b, den, d

    @classmethod
    def integer(cls, value: int, d: int) -> "QSqrt":
        return cls(value, 0, 1, d)

    @classmethod
    def from_certificate(cls, data: Mapping[str, str], d: int) -> "QSqrt":
        """From the {a_num, a_den, b_num, b_den} strings of a certificate."""
        a = Fraction(int(data["a_num"]), int(data["a_den"]))
        b = Fraction(int(data["b_num"]), int(data["b_den"]))
        den = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
        return cls(a.numerator * (den // a.denominator), b.numerator * (den // b.denominator), den, d)

    @classmethod
    def unit_power(cls, p: int, exponent: int) -> "QSqrt":
        """q**exponent for q = (p + sqrt(p**2 - 4)) / 2, whose inverse is
        the conjugate (p - sqrt(p**2 - 4)) / 2."""
        d = p * p - 4
        base = cls(p, 1 if exponent >= 0 else -1, 2, d)
        out = cls.integer(1, d)
        for _ in range(abs(exponent)):
            out = out * base
        return out

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __add__(self, other: "QSqrt") -> "QSqrt":
        return QSqrt(
            self.a * other.den + other.a * self.den,
            self.b * other.den + other.b * self.den,
            self.den * other.den,
            self.d,
        )

    def __sub__(self, other: "QSqrt") -> "QSqrt":
        return self + other.scaled(-1)

    def __mul__(self, other: "QSqrt") -> "QSqrt":
        return QSqrt(
            self.a * other.a + self.b * other.b * self.d,
            self.a * other.b + self.b * other.a,
            self.den * other.den,
            self.d,
        )

    def scaled(self, k: int) -> "QSqrt":
        return QSqrt(self.a * k, self.b * k, self.den, self.d)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSqrt):
            return NotImplemented
        return (self.a, self.b, self.den, self.d) == (other.a, other.b, other.den, other.d)

    def __repr__(self) -> str:
        return f"({self.a} + {self.b}*sqrt({self.d}))/{self.den}"


def matmul(left: Sequence[Sequence[QSqrt]], right: Sequence[Sequence[QSqrt]], d: int):
    """Exact product; zero factors are skipped, every other term is formed."""
    zero = QSqrt.integer(0, d)
    cols = len(right[0])
    out = []
    for row in left:
        terms = [(x, right[k]) for k, x in enumerate(row) if not x.is_zero]
        out.append([
            _dot(((x, r[j]) for x, r in terms), zero) for j in range(cols)
        ])
    return out


def _dot(pairs, zero: QSqrt) -> QSqrt:
    acc = zero
    for x, y in pairs:
        if not y.is_zero:
            acc = acc + x * y
    return acc


def matvec(matrix: Sequence[Sequence[QSqrt]], vector: Sequence[QSqrt], d: int) -> list[QSqrt]:
    zero = QSqrt.integer(0, d)
    return [_dot(zip(row, vector), zero) for row in matrix]


def int_matmul(left: Sequence[Sequence[int]], right: Sequence[Sequence[int]]) -> list[list[int]]:
    cols = len(right[0])
    return [
        [sum(row[k] * right[k][j] for k in range(len(row)) if row[k]) for j in range(cols)]
        for row in left
    ]


def int_matvec(matrix: Sequence[Sequence[int]], vector: Sequence[int]) -> list[int]:
    return [sum(x * y for x, y in zip(row, vector)) for row in matrix]


def charpoly(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Coefficients of det(x*I - M), constant term first.

    M is reduced to upper Hessenberg form H by similarity over the
    rationals (Gaussian elimination below the subdiagonal), and the
    polynomial follows from the standard recurrence on H's leading blocks.
    """
    n = len(matrix)
    h = [[Fraction(v) for v in row] for row in matrix]
    for col in range(n - 2):
        pivot = next((r for r in range(col + 1, n) if h[r][col] != 0), None)
        if pivot is None:
            continue
        if pivot != col + 1:
            h[pivot], h[col + 1] = h[col + 1], h[pivot]
            for row in h:
                row[pivot], row[col + 1] = row[col + 1], row[pivot]
        head = h[col + 1][col]
        for r in range(col + 2, n):
            factor = h[r][col] / head
            if factor == 0:
                continue
            h[r] = [x - factor * y for x, y in zip(h[r], h[col + 1])]
            for row in h:
                row[col + 1] += factor * row[r]
    # p_k = (x - h_kk) p_{k-1} - sum_{i<k} h_ik (prod_{j=i+1..k} h_{j,j-1}) p_{i-1}
    polys: list[list[Fraction]] = [[Fraction(1)]]
    for k in range(n):
        nxt = [Fraction(0)] + polys[k]
        for idx, c in enumerate(polys[k]):
            nxt[idx] -= h[k][k] * c
        chain = Fraction(1)
        for i in range(k - 1, -1, -1):
            chain *= h[i + 1][i]
            if chain == 0:
                break
            coeff = h[i][k] * chain
            for idx, c in enumerate(polys[i]):
                nxt[idx] -= coeff * c
        polys.append(nxt)
    result = polys[n]
    if any(c.denominator != 1 for c in result):
        raise ValueError("characteristic polynomial of an integer matrix is not integral")
    return [int(c) for c in result]


def poly_at(coeffs: Sequence[int], x: QSqrt) -> QSqrt:
    """Horner evaluation of an integer polynomial (constant term first)."""
    acc = QSqrt.integer(0, x.d)
    for c in reversed(coeffs):
        acc = acc * x + QSqrt.integer(c, x.d)
    return acc
