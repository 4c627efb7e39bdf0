"""Tests for the exact quadratic-field layer.

The frozen tables below were computed independently of the implementation:
traces from the two-term recurrence by hand, polynomials by multiplying out
their factor products on paper.  They are pinned literally so a regression in
the arithmetic cannot hide behind a matching reimplementation.
"""

from fractions import Fraction

import math
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecsforge.exact import (
    IntPolynomial,
    QFieldContext,
    QFieldElement,
    char_poly_from_exponents,
    charpoly_int,
    companion_matrix,
    det_int,
    trace_sequence,
    verify_spectrum,
)

# s_a = q**a + q**(-a); recurrence s_0 = 2, s_1 = p, s_a = p*s_{a-1} - s_{a-2}
FROZEN_TRACES = {
    3: (2, 3, 7, 18, 47, 123, 322, 843),
    4: (2, 4, 14, 52, 194, 724),
    5: (2, 5, 23, 110, 527),
}

# (x**2 - 3x + 1)(x**2 - 18x + 1), multiplied out by hand; constant first.
QUARTIC_Y13_P3 = (1, -21, 56, -21, 1)


def _norm(x):
    """The field norm (a**2 - d b**2) / den**2, from the stored integers."""
    return Fraction(x.int_a * x.int_a - x.d * x.int_b * x.int_b, x.den * x.den)


def test_trace_sequence_frozen_tables():
    for p, expected in FROZEN_TRACES.items():
        assert trace_sequence(p, len(expected)) == expected


def test_trace_sequence_matches_float_powers():
    for p in (3, 4, 5):
        q = (p + math.sqrt(p * p - 4)) / 2
        for a, s in enumerate(trace_sequence(p, 8)):
            assert abs(s - (q**a + q**-a)) < 1e-6


def test_trace_sequence_rejects_bad_p():
    with pytest.raises(ValueError):
        trace_sequence(2, 5)
    assert trace_sequence(3, 0) == ()
    assert trace_sequence(3, 1) == (2,)


def test_q_defining_relations():
    for p in (3, 4, 5):
        ctx = QFieldContext(p)
        assert ctx.q * ctx.q_inv == 1
        assert ctx.q + ctx.q_inv == p
        assert ctx.q.conj == ctx.q_inv
        assert _norm(ctx.q) == 1
        assert float(ctx.q) > 1
        assert 0 < float(ctx.q_inv) < 1


def test_context_rejects_small_p():
    for bad in (2, 1, 0, -3):
        with pytest.raises(ValueError):
            QFieldContext(bad)


def test_q_power_caching_consistency():
    ctx = QFieldContext(3)
    assert ctx.q_power(5) == ctx.q**5
    assert ctx.q_power(-3) == ctx.q_inv**3
    assert ctx.q_power(7) * ctx.q_power(-7) == 1
    # powers satisfy the minimal polynomial relation q**2 = 3q - 1
    assert ctx.q_power(2) == 3 * ctx.q - 1


def test_trace_of_power_matches_recurrence():
    for p, expected in FROZEN_TRACES.items():
        ctx = QFieldContext(p)
        traces = trace_sequence(p, len(expected) + 4)
        for a, s in enumerate(traces):
            if a < len(expected):
                assert s == expected[a]
            value = ctx.q_power(a) + ctx.q_power(-a)
            assert value == s and value.b == 0 and value.a.denominator == 1


def test_golden_ratio_square():
    # for p = 3, q - 1 = (1 + sqrt 5)/2 and (q - 1)**2 = q
    ctx = QFieldContext(3)
    phi = ctx.q - 1
    assert phi * phi == phi + 1
    assert phi * phi == ctx.q


def test_mixing_fields_raises():
    with pytest.raises(ValueError):
        QFieldContext(3).q + QFieldContext(4).q


def test_element_rejects_square_d():
    with pytest.raises(ValueError):
        QFieldElement(Fraction(1), Fraction(1), 9)
    with pytest.raises(ValueError):
        QFieldElement(Fraction(1), Fraction(1), 0)


def test_division_and_zero_division():
    ctx = QFieldContext(5)
    x = ctx.element(Fraction(3, 2), Fraction(-1, 7))
    assert (x / x) == 1
    assert (1 / x) * x == 1
    with pytest.raises(ZeroDivisionError):
        x / ctx.zero


def test_json_round_trip():
    ctx = QFieldContext(4)
    x = ctx.element(Fraction(-7, 3), Fraction(22, 5))
    data = x.to_json_dict()
    assert data == {"a_num": "-7", "a_den": "3", "b_num": "22", "b_den": "5"}
    a = Fraction(int(data["a_num"]), int(data["a_den"]))
    assert ctx.element(a, Fraction(int(data["b_num"]), int(data["b_den"]))) == x


coeff = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)


@given(a1=coeff, b1=coeff, a2=coeff, b2=coeff, a3=coeff, b3=coeff)
@settings(max_examples=150, deadline=None)
def test_field_axioms(a1, b1, a2, b2, a3, b3):
    d = 21  # p = 5
    x = QFieldElement(a1, b1, d)
    y = QFieldElement(a2, b2, d)
    z = QFieldElement(a3, b3, d)
    assert (x + y) * z == x * z + y * z
    assert (x * y).conj == x.conj * y.conj
    assert _norm(x * y) == _norm(x) * _norm(y)
    if not y.is_zero:
        assert (x / y) * y == x


# ---------------------------------------------------------------------------
# the integer representation against a Fraction-pair reference
#
# The reference keeps a + b*sqrt(d) as two Fractions, the textbook form, and
# computes floats the way a Fraction pair would: rationals rounded once each,
# and the conjugate route where a and b have opposite signs.


def _ref_mul(x, y, d):
    (a, b), (c, e) = x, y
    return (a * c + b * e * d, a * e + b * c)


def _ref_norm(x, d):
    a, b = x
    return a * a - d * b * b


def _ref_inverse(x, d):
    a, b = x
    n = _ref_norm(x, d)
    return (a / n, -b / n)


def _ref_power(x, e, d):
    base = x if e >= 0 else _ref_inverse(x, d)
    result = (Fraction(1), Fraction(0))
    for _ in range(abs(e)):
        result = _ref_mul(result, base, d)
    return result


def _ref_float(x, d):
    a, b = x
    fa, fb, root = float(a), float(b), math.sqrt(d)
    if fa == 0.0 or fb == 0.0 or (a > 0) == (b > 0):
        return fa + fb * root
    return float(_ref_norm(x, d)) / (fa - fb * root)


def _assert_matches(element, ref, d):
    a, b = ref
    assert element.d == d
    assert (element.a, element.b) == (a, b)
    assert element.den > 0
    assert math.gcd(element.int_a, element.int_b, element.den) == 1
    if a == 0 and b == 0:
        assert (element.int_a, element.int_b, element.den) == (0, 0, 1)


pair = st.tuples(coeff, coeff)


@given(
    d=st.sampled_from((5, 12, 21)),
    x=pair,
    y=pair,
    k=st.integers(min_value=-60, max_value=60),
    e=st.integers(min_value=-5, max_value=5),
)
@example(d=5, x=(Fraction(1), Fraction(0)), y=(Fraction(0), Fraction(1)), k=-45, e=-3)
@example(d=21, x=(Fraction(0), Fraction(0)), y=(Fraction(2), Fraction(-1, 3)), k=-60, e=2)
@settings(max_examples=200, deadline=None)
def test_integer_element_matches_fraction_pair_reference(d, x, y, k, e):
    p = math.isqrt(d + 4)
    ctx = QFieldContext(p)
    q_k = _ref_power((Fraction(p, 2), Fraction(1, 2)), k, d)
    ref_x = _ref_mul(x, q_k, d)
    big = ctx.element(*x) * ctx.q_power(k)
    small = ctx.element(*y)
    _assert_matches(ctx.q_power(k), q_k, d)
    _assert_matches(big, ref_x, d)
    _assert_matches(small, y, d)

    ref_sum = (ref_x[0] + y[0], ref_x[1] + y[1])
    _assert_matches(big + small, ref_sum, d)
    _assert_matches(big - small, (ref_x[0] - y[0], ref_x[1] - y[1]), d)
    _assert_matches(3 - big, (3 - ref_x[0], -ref_x[1]), d)
    _assert_matches(big + Fraction(1, 3), (ref_x[0] + Fraction(1, 3), ref_x[1]), d)
    _assert_matches(-big, (-ref_x[0], -ref_x[1]), d)
    _assert_matches(big * small, _ref_mul(ref_x, y, d), d)
    _assert_matches(big.conj, (ref_x[0], -ref_x[1]), d)
    assert _norm(big) == _ref_norm(ref_x, d)
    for value, ref in ((big, ref_x), (small, y), (ctx.q_power(k), q_k)):
        assert float(value) == _ref_float(ref, d)
    if any(y):
        _assert_matches(small.inverse(), _ref_inverse(y, d), d)
        _assert_matches(big / small, _ref_mul(ref_x, _ref_inverse(y, d), d), d)
        _assert_matches(Fraction(2, 7) / small, _ref_mul((Fraction(2, 7), 0), _ref_inverse(y, d), d), d)
        _assert_matches(small**e, _ref_power(y, e, d), d)
    if any(x):
        _assert_matches(big**e, _ref_power(ref_x, e, d), d)
    else:
        _assert_matches(big**abs(e), (Fraction(int(e == 0)), Fraction(0)), d)


def test_negative_powers_take_the_conjugate_route():
    # q**-k = (a + b sqrt d) with a ~ -b sqrt d: the direct sum cancels, the
    # conjugate route keeps full precision
    for p in (3, 4, 5):
        ctx = QFieldContext(p)
        q = (p + math.sqrt(p * p - 4)) / 2
        for k in range(20, 60, 7):
            value = ctx.q_power(-k)
            assert float(value) == _ref_float((value.a, value.b), ctx.d)
            assert abs(float(value) - q**-k) <= 1e-14 * q**-k


def test_integer_element_hash_repr_and_immutability():
    ctx = QFieldContext(3)
    # equality compares the lowest-terms integers; no hash is defined
    with pytest.raises(TypeError):
        hash(ctx.element(3))
    assert ctx.element(Fraction(1, 2)) == Fraction(1, 2)
    assert ctx.element(3) == 3
    assert ctx.q - ctx.q + 3 == ctx.element(3)
    # the form golden certificates hold
    assert repr(ctx.q_inv) == "QFieldElement(3/2, -1/2, d=5)"
    assert repr(ctx.q_power(2)) == "QFieldElement(7/2, 3/2, d=5)"
    assert ctx.zero.int_a == 0 and ctx.zero.den == 1
    assert not hasattr(ctx.q, "__dict__")
    for name in ("int_a", "int_b", "den", "d", "a", "b", "conj", "extra"):
        with pytest.raises(AttributeError):
            setattr(ctx.q, name, 1)
    with pytest.raises(AttributeError):
        del ctx.q.den
    assert ctx.q == QFieldElement(Fraction(3, 2), Fraction(1, 2), 5)


# ---------------------------------------------------------------------------
# polynomials


# The next three spectra are closed under inversion, so the constant term of
# each characteristic polynomial is (-1)**degree.


def test_char_poly_frozen_quartic():
    poly = char_poly_from_exponents({1, -1, 3, -3}, 3)
    assert poly.coefficients == QUARTIC_Y13_P3
    assert poly.is_monic
    assert (-1) ** poly.degree * poly.coefficients[0] == 1


def test_char_poly_zero_exponent():
    poly = char_poly_from_exponents({0}, 3)
    assert poly.coefficients == (-1, 1)
    assert (-1) ** poly.degree * poly.coefficients[0] == 1


def test_char_poly_odd_degree_emission():
    # (x - 1)(x**2 - 4x + 1) = x**3 - 5x**2 + 5x - 1
    poly = char_poly_from_exponents({0, 1, -1}, 4)
    assert poly.coefficients == (-1, 5, -5, 1)
    assert (-1) ** poly.degree * poly.coefficients[0] == 1


def test_char_poly_rejects_asymmetric_or_empty():
    with pytest.raises(ValueError):
        char_poly_from_exponents({1, 3, -3}, 3)
    with pytest.raises(ValueError):
        char_poly_from_exponents(set(), 3)


def test_poly_evaluation_frozen_values():
    poly = IntPolynomial(QUARTIC_Y13_P3)
    assert poly(2) == 31
    assert poly(Fraction(1, 2)) == Fraction(31, 16)  # palindromic: p(1/x) = p(x)/x**4
    assert poly(0) == 1
    assert poly(1) == 16


def test_poly_roots_vanish_exactly():
    ctx = QFieldContext(3)
    poly = char_poly_from_exponents({1, -1, 3, -3}, 3)
    for a in (1, -1, 3, -3):
        assert poly(ctx.q_power(a)).is_zero
    assert not poly(ctx.q_power(2)).is_zero
    assert not poly(ctx.q_power(0)).is_zero


def test_poly_constructor_rejects_leading_zero():
    with pytest.raises(ValueError):
        IntPolynomial((1, 2, 0))
    with pytest.raises(ValueError):
        IntPolynomial(())
    assert IntPolynomial((0,)).degree == 0  # the zero constant is fine


def test_companion_frozen_2x2():
    poly = IntPolynomial((1, -3, 1))
    assert companion_matrix(poly) == ((0, -1), (1, 3))


def test_companion_requires_monic():
    with pytest.raises(ValueError):
        companion_matrix(IntPolynomial((1, -3, 2)))
    with pytest.raises(ValueError):
        companion_matrix(IntPolynomial((1,)))


def test_companion_round_trip():
    for exponents, p in (({1, -1, 3, -3}, 3), ({0, 1, -1}, 4), ({0}, 5)):
        poly = char_poly_from_exponents(exponents, p)
        assert charpoly_int(companion_matrix(poly)) == poly


def test_companion_is_unimodular():
    poly = char_poly_from_exponents({1, -1, 3, -3}, 3)
    assert abs(det_int(companion_matrix(poly))) == 1


def test_charpoly_identity_matrix():
    eye3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert charpoly_int(eye3).coefficients == (-1, 3, -3, 1)  # (x-1)**3


def test_charpoly_rejects_non_square():
    with pytest.raises(ValueError):
        charpoly_int([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        charpoly_int([])


def test_det_frozen_values():
    assert det_int([[2, 3], [1, 4]]) == 5
    assert det_int([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3
    assert det_int([[1, 2], [2, 4]]) == 0
    assert det_int([[0, 1], [1, 0]]) == -1  # zero pivot forces a row swap
    assert det_int([[7]]) == 7


matrix_entries = st.integers(min_value=-6, max_value=6)


@given(
    flat=st.lists(matrix_entries, min_size=1, max_size=16).filter(
        lambda xs: int(math.isqrt(len(xs))) ** 2 == len(xs)
    )
)
@settings(max_examples=120, deadline=None)
def test_charpoly_constant_term_is_det(flat):
    n = math.isqrt(len(flat))
    m = [flat[i * n : (i + 1) * n] for i in range(n)]
    poly = charpoly_int(m)
    assert poly.degree == n
    assert poly.is_monic
    # det(x*I - M) at x = 0 is (-1)**n det(M); next-to-leading term is -tr(M)
    assert poly.coefficients[0] == (-1) ** n * det_int(m)
    assert poly.coefficients[n - 1] == -sum(m[i][i] for i in range(n))


# ---------------------------------------------------------------------------
# spectrum certification


def test_verify_spectrum_accepts_companion():
    exponents = {1, -1, 3, -3}
    matrix = companion_matrix(char_poly_from_exponents(exponents, 3))
    assert verify_spectrum(matrix, exponents, 3)


def test_verify_spectrum_rejects_multiplicity():
    # char poly of the identity vanishes at q**0 = 1, but with multiplicity
    # two; the certification must still fail
    assert not verify_spectrum(((1, 0), (0, 1)), {0}, 3)


def test_verify_spectrum_rejects_wrong_p():
    matrix = companion_matrix(char_poly_from_exponents({1, -1}, 3))
    assert not verify_spectrum(matrix, {1, -1}, 4)


def test_verify_spectrum_rejects_asymmetric_exponents():
    matrix = companion_matrix(char_poly_from_exponents({1, -1}, 3))
    assert not verify_spectrum(matrix, {1}, 3)


@given(
    p=st.sampled_from((3, 4, 5)),
    positives=st.sets(st.integers(min_value=1, max_value=6), max_size=4),
    with_zero=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_verify_spectrum_round_trip(p, positives, with_zero):
    exponents = set(positives) | {-a for a in positives}
    if with_zero or not exponents:
        exponents.add(0)
    matrix = companion_matrix(char_poly_from_exponents(exponents, p))
    assert verify_spectrum(matrix, exponents, p)
    assert abs(det_int(matrix)) == 1
