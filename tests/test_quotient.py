"""Tests for the discrete group, its lattice, and canonicalization.

The n = 5 instance is small enough that every exact object has a frozen
hand value: the evaluation matrix at t = 1, the companion matrix of
(x**2 - 3x + 1)(x**2 - 18x + 1) = x**4 - 21x**3 + 56x**2 - 21x + 1, the
diagonal Pi = diag(1/q, q**3, q**-3, q) and the (3 - sqrt 5)/2 holonomy
factor.  The group-theoretic content is pinned behaviorally: acting by a
word and acting by its normal form must move points identically.
"""

import hashlib
import json
import math
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecsforge.cli import B_BOUND, CONDITION_BOUND, canonical_json
from ecsforge.funcspace import ESolution, ct_eigenbasis, omega
from ecsforge.model import build_model
from ecsforge.quotient import (
    HAT,
    HAT_INV,
    HElement,
    LagrangianL,
    _lattice_column,
    act,
    act_inverse,
    act_jacobian,
    build_lagrangian,
    build_lattice,
    canonicalize,
    canonicalize_cell,
    certify_ace,
    fundamental_coordinates,
    h_inverse,
    h_mul,
    holonomy_scaling,
    intertwining_failures,
    lattice_element,
    make_gamma_hat,
    normal_form,
    pi_apply_numeric,
    pi_map,
    point_from_coordinates,
    xi_power,
)
from ecsforge.spectral import standard_family

MODEL = build_model(standard_family(3), p=3)
CTX = MODEL.context()
Q = float(CTX.q)
BASIS = ct_eigenbasis(MODEL)
L = build_lagrangian(MODEL, BASIS)
GH = make_gamma_hat(MODEL)
SIGMA = build_lattice(MODEL, pi_map(MODEL, GH, L))
# the E-part of a central element (r, 0)
CENTRAL = ESolution(MODEL.m, ())

# x**4 - 21x**3 + 56x**2 - 21x + 1 in the companion layout used throughout
FROZEN_XI = (
    (0, 0, 0, -1),
    (1, 0, 0, 21),
    (0, 1, 0, -56),
    (0, 0, 1, 21),
)


def random_point(rng):
    t = float(rng.uniform(0.2, 6.0))
    s = float(rng.uniform(-2.0, 2.0))
    v = rng.uniform(-1.5, 1.5, MODEL.m)
    return (t, s, v)


def hat_power(point, exponent):
    for _ in range(abs(exponent)):
        point = act(GH, point) if exponent > 0 else act_inverse(GH, point)
    return point


# ---------------------------------------------------------------------------
# the Lagrangian subspace and Pi


def test_lagrangian_selects_the_selector_slots():
    assert L.index_set == (1, 4, 5)
    assert L.dimension == MODEL.m


def test_evaluation_matrix_frozen_at_t1():
    matrix = L.evaluation_matrix(1.0)
    expected = np.array(
        [
            [1.0, 0.0, -1.0 / 6.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    assert np.allclose(matrix, expected, atol=1e-14)


def test_evaluation_matrix_structurally_triangular():
    # the zero pattern is structural, so it holds to the last bit at any t
    for t in (0.5, 1.3, 2.4):
        matrix = L.evaluation_matrix(t)
        assert matrix[1, 0] == 0.0 and matrix[2, 0] == 0.0 and matrix[2, 1] == 0.0
        assert np.all(np.diag(matrix) > 0)


def test_pi_matrix_diagonal_exact():
    pi = SIGMA.pi_matrix
    assert pi[0][0] == CTX.q_inv
    for col, slot in enumerate(L.index_set, start=1):
        assert pi[col][col] == CTX.q_power(MODEL.system.E_of(slot))
    assert [MODEL.system.E_of(slot) for slot in L.index_set] == [3, -3, 1]
    for i in range(4):
        for j in range(4):
            assert i == j or pi[i][j].is_zero
    # numeric route through the actual conjugation formula: Pi moves each
    # basis column (0, u_slot) to (0, q**E u_slot)
    for col, slot in enumerate(L.index_set, start=1):
        moved = pi_apply_numeric(MODEL, GH, HElement(MODEL, 0.0, BASIS[slot - 1]))
        assert moved.r == pytest.approx(0.0, abs=1e-15)
        lam = float(pi[col][col])
        for t in (1.0, 1.7):
            assert np.allclose(
                moved.u.value(t), lam * BASIS[slot - 1].value(t), atol=1e-9 * lam
            )
    assert pi_apply_numeric(MODEL, GH, HElement(MODEL, 1.0, CENTRAL)).r == pytest.approx(1.0 / Q)


# ---------------------------------------------------------------------------
# the lattice


def test_xi_is_the_frozen_companion_matrix():
    assert SIGMA.y_exponents == (-3, -1, 1, 3)
    assert SIGMA.xi == FROZEN_XI
    product = np.array(SIGMA.xi_inverse) @ np.array(SIGMA.xi)
    assert np.array_equal(product, np.eye(4, dtype=int))


def test_lattice_intertwining_survives_families_and_fields():
    # build_lattice re-verifies Pi Phi = Phi Xi entry by entry and raises on
    # any defect, so construction succeeding is the exactness assertion
    for r in (3, 4):
        for p in (3, 5):
            model = build_model(standard_family(r), p=p)
            lag = build_lagrangian(model)
            sigma = build_lattice(model, pi_map(model, make_gamma_hat(model), lag))
            assert sigma.size == model.m + 1
            assert abs(round(np.linalg.det(np.array(sigma.xi, dtype=float)))) == 1


def dense_field_matmul(left, right, ctx):
    """Plain triple-loop product, every term formed, zeros included."""
    return [
        [
            sum((left[i][l] * right[l][j] for l in range(len(right))), ctx.zero)
            for j in range(len(right[0]))
        ]
        for i in range(len(left))
    ]


@settings(max_examples=10, deadline=None)
@given(r=st.integers(3, 6), p=st.integers(3, 5))
def test_field_inverse_and_sparse_matmul_are_exact_on_lattices(r, p):
    # the closed-form Phi^-1 (Vand^-1 V_Pi^-1) against the dense product,
    # on both sides
    model = build_model(standard_family(r), p=p)
    ctx = model.context()
    sigma = build_lattice(model, pi_map(model, make_gamma_hat(model), build_lagrangian(model)))
    phi = [list(row) for row in sigma.basis_matrix]
    phi_inv = [list(row) for row in sigma.basis_matrix_inverse]
    identity = [
        [ctx.one if i == j else ctx.zero for j in range(sigma.size)]
        for i in range(sigma.size)
    ]
    assert dense_field_matmul(phi_inv, phi, ctx) == identity
    assert dense_field_matmul(phi, phi_inv, ctx) == identity


@lru_cache(maxsize=None)
def lattice_for(r, p):
    model = build_model(standard_family(r), p=p)
    lagrangian = build_lagrangian(model)
    return build_lattice(model, pi_map(model, make_gamma_hat(model), lagrangian)), lagrangian


ALL_MODELS = [(r, p) for r in range(3, 14) for p in (3, 4, 5)]  # n = 5..25


def lattice_inverse_digest(sigma):
    """SHA-256 of canonical_json of Phi^-1 (entry JSON) and Xi^-1."""
    payload = {
        "basis_matrix_inverse": [
            [entry.to_json_dict() for entry in row] for row in sigma.basis_matrix_inverse
        ],
        "xi_inverse": [list(row) for row in sigma.xi_inverse],
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def test_lattice_inverses_match_golden_hashes():
    # the golden hashes were written with lattice_inverse_digest by the
    # Gauss-Jordan inverses that the closed forms replace; every byte of
    # Phi^-1 and Xi^-1 must stay the same at every advertised dimension
    golden_path = Path(__file__).parent / "golden" / "lattice-inverses.json"
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    digests = {
        f"n{2 * r - 1}-p{p}": lattice_inverse_digest(lattice_for(r, p)[0])
        for r, p in ALL_MODELS
    }
    assert digests == golden


def test_lattice_inverses_are_inverses_on_all_models():
    # O(m**2) per model: Xi Xi^-1 = I in integers, and Phi (Phi^-1 x) = x
    # exactly for two fixed integer vectors x
    for r, p in ALL_MODELS:
        sigma = lattice_for(r, p)[0]
        size = sigma.size
        xi, xi_inv = sigma.xi, sigma.xi_inverse
        for i in range(size):
            row = [sum(xi[i][l] * xi_inv[l][j] for l in range(size)) for j in range(size)]
            assert row == [int(i == j) for j in range(size)], (r, p, i)
        zero = sigma.model.context().zero
        for x in (
            [(-1) ** j * (j + 1) for j in range(size)],
            [(3 * j + 1) % 7 - 3 for j in range(size)],
        ):
            y = [
                sum((e * c for e, c in zip(row, x)), zero)
                for row in sigma.basis_matrix_inverse
            ]
            back = [sum((e * c for e, c in zip(row, y)), zero) for row in sigma.basis_matrix]
            assert back == x, (r, p)


def test_intertwining_check_reports_a_perturbed_phi_entry():
    assert intertwining_failures(SIGMA) == ()
    phi = [list(row) for row in SIGMA.basis_matrix]
    phi[2][1] = phi[2][1] + CTX.one
    failures = intertwining_failures(replace(SIGMA, basis_matrix=tuple(map(tuple, phi))))
    assert "Pi Phi != Phi Xi at entry (2, 1)" in failures


def test_intertwining_check_reports_xi_outside_the_companion_pattern():
    xi = [list(row) for row in SIGMA.xi]
    xi[0][1] = 1
    failures = intertwining_failures(replace(SIGMA, xi=tuple(map(tuple, xi))))
    assert "Xi entry (0, 1) = 1 breaks the companion pattern" in failures


def test_intertwining_check_reports_pi_below_the_diagonal():
    pi = [list(row) for row in SIGMA.pi_matrix]
    pi[2][1] = CTX.one
    failures = intertwining_failures(replace(SIGMA, pi_matrix=tuple(map(tuple, pi))))
    message = "Pi entry (2, 1) is nonzero off the diagonal"
    assert message in failures
    # build_lattice runs the same check before it returns
    with pytest.raises(ValueError, match=r"Pi entry \(2, 1\)"):
        build_lattice(MODEL, pi)


def test_intertwining_check_reports_pi_in_the_first_row():
    # the first row gets no exemption: Pi is diagonal, so a nonzero
    # Pi[0][1] is a defect, not a coupling
    pi = [list(row) for row in SIGMA.pi_matrix]
    pi[0][1] = CTX.element(-10) * CTX.q_power(3)
    failures = intertwining_failures(replace(SIGMA, pi_matrix=tuple(map(tuple, pi))))
    assert "Pi entry (0, 1) is nonzero off the diagonal" in failures
    with pytest.raises(ValueError, match=r"Pi entry \(0, 1\)"):
        build_lattice(MODEL, pi)


def test_pi_is_diagonal_and_phi_vandermonde_in_slot_order_on_all_models():
    for r, p in ALL_MODELS:
        sigma, lagrangian = lattice_for(r, p)
        ctx = sigma.model.context()
        exponents = [-1] + [sigma.model.system.E_of(i) for i in lagrangian.index_set]
        pi = pi_map(sigma.model, make_gamma_hat(sigma.model), lagrangian)
        assert pi == sigma.pi_matrix
        for i, y in enumerate(exponents):
            for j in range(sigma.size):
                assert pi[i][j] == (ctx.q_power(y) if i == j else ctx.zero), (r, p, i, j)
                assert sigma.basis_matrix[i][j] == ctx.q_power(y * j), (r, p, i, j)


@settings(max_examples=40, deadline=None)
@given(r=st.integers(3, 6), p=st.integers(3, 5), data=st.data())
def test_lattice_column_is_the_exact_field_sum(r, p, data):
    # n = 2r - 1 = 5..11; the integer-row column must equal the plain
    # field-arithmetic Phi @ coords entry by entry, not just in float
    sigma, lagrangian = lattice_for(r, p)
    coords = data.draw(
        st.lists(st.integers(-3, 3), min_size=sigma.size, max_size=sigma.size)
    )
    zero = sigma.model.context().zero
    expected = [
        sum((sigma.basis_matrix[i][j] * c for j, c in enumerate(coords)), zero)
        for i in range(sigma.size)
    ]
    column = _lattice_column(sigma, coords)
    assert len(column) == sigma.size
    for got, want in zip(column, expected):
        assert got.a == want.a and got.b == want.b and got.d == want.d
    element = lattice_element(sigma, tuple(coords), lagrangian)
    assert element.r == float(expected[0])
    assert (element.u == ESolution(sigma.model.m, ())) == all(
        entry.is_zero for entry in expected[1:]
    )


def test_lattice_column_of_zero_and_unit_coordinates():
    zero = CTX.zero
    assert _lattice_column(SIGMA, (0,) * SIGMA.size) == [zero] * SIGMA.size
    for j in range(SIGMA.size):
        unit = tuple(int(i == j) for i in range(SIGMA.size))
        column = _lattice_column(SIGMA, unit)
        assert column == [SIGMA.basis_matrix[i][j] for i in range(SIGMA.size)]
    assert lattice_element(SIGMA, (0,) * SIGMA.size, L).u == CENTRAL


def test_float_phi_is_cached_read_only():
    for cached, exact in (
        (SIGMA.phi_float, SIGMA.basis_matrix),
        (SIGMA.phi_inv_float, SIGMA.basis_matrix_inverse),
    ):
        assert np.array_equal(cached, [[float(e) for e in row] for row in exact])
        with pytest.raises(ValueError):
            cached[0, 0] = 0.0
    assert SIGMA.phi_float is SIGMA.phi_float
    assert SIGMA.phi_inv_float is SIGMA.phi_inv_float


def test_lattice_element_first_basis_vector():
    # Phi's first column is all ones: r-part 1 and u = u_1 + u_4 + u_5
    element = lattice_element(SIGMA, (1, 0, 0, 0), L)
    assert element.r == pytest.approx(1.0)
    expected = BASIS[0].value(1.3) + BASIS[3].value(1.3) + BASIS[4].value(1.3)
    assert np.allclose(element.u.value(1.3), expected, atol=1e-12)
    with pytest.raises(ValueError):
        lattice_element(SIGMA, (1, 0), L)


# ---------------------------------------------------------------------------
# actions


def test_gamma_hat_closed_form_action():
    t, s, v = act(GH, (1.0, 0.25, np.array([1.0, 2.0, 3.0])))
    assert t == pytest.approx(Q)
    assert s == pytest.approx(0.25 / Q)
    assert np.allclose(v, [Q * 1.0, 2.0, 3.0 / Q], atol=1e-14)


def test_h_element_frozen_action():
    # gamma = (0, u_1): s picks up -<u', 2v + u> = 0 at the null vector e_1
    moved = act(HElement(MODEL, 0.0, BASIS[0]), (1.0, 0.0, np.zeros(3)))
    assert moved[0] == 1.0
    assert moved[1] == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(moved[2], [1.0, 0.0, 0.0], atol=1e-14)
    # pure r translates s
    shifted = act(HElement(MODEL, 2.5, CENTRAL), (1.7, 0.5, np.ones(3)))
    assert shifted[1] == pytest.approx(3.0)
    jacobian = act_jacobian(HElement(MODEL, 2.5, CENTRAL), (1.7, 0.5, np.ones(3)))
    assert np.array_equal(jacobian, np.eye(5))


def test_actions_round_trip():
    rng = np.random.default_rng(11)
    h = HElement(MODEL, 0.4, BASIS[2])
    for element in (GH, h):
        for _ in range(5):
            # keep t moderate: the pairing terms grow like t**6, and with
            # them the cancellation noise floor of the round trip
            point = (float(rng.uniform(0.3, 2.5)), float(rng.uniform(-2, 2)),
                     rng.uniform(-1.5, 1.5, MODEL.m))
            back = act_inverse(element, act(element, point))
            assert back[0] == pytest.approx(point[0], rel=1e-13)
            assert back[1] == pytest.approx(point[1], rel=1e-9, abs=1e-9)
            assert np.allclose(back[2], point[2], atol=1e-11)


def test_action_rejects_nonpositive_t():
    with pytest.raises(ValueError):
        act(GH, (0.0, 0.0, np.zeros(3)))
    with pytest.raises(ValueError):
        act_inverse(GH, (-1.0, 0.0, np.zeros(3)))
    with pytest.raises(ValueError):
        act_jacobian(GH, (0.0, 0.0, np.zeros(3)))


def test_act_jacobian_plain_gamma_hat_is_the_constant_diagonal():
    jac = act_jacobian(GH, (1.3, -0.4, np.array([0.2, 0.0, -1.0])))
    expected = np.diag([Q, 1 / Q, Q, 1.0, 1 / Q])
    assert np.array_equal(jac, expected)


def test_act_jacobian_matches_differences_while_they_converge():
    rng = np.random.default_rng(23)
    h = HElement(MODEL, 0.4, BASIS[2])
    for element in (GH, h):
        point = (float(rng.uniform(0.6, 1.8)), float(rng.uniform(-1, 1)),
                 rng.uniform(-1.0, 1.0, MODEL.m))
        x = np.concatenate([[point[0], point[1]], point[2]])
        exact = act_jacobian(element, point)
        fd = np.zeros_like(exact)
        for c in range(x.size):
            h_c = 1e-7 * max(1.0, abs(x[c]))
            plus, minus = x.copy(), x.copy()
            plus[c] += h_c
            minus[c] -= h_c
            pa = act(element, (plus[0], plus[1], plus[2:]))
            ma = act(element, (minus[0], minus[1], minus[2:]))
            fd[:, c] = (
                np.concatenate([[pa[0], pa[1]], pa[2]])
                - np.concatenate([[ma[0], ma[1]], ma[2]])
            ) / (2 * h_c)
        # the reference itself carries eps * |s-image| / step noise
        assert np.allclose(exact, fd, rtol=1e-4, atol=1e-4)


def test_act_jacobian_pullback_survives_large_coefficients():
    # a lattice element with coefficients ~2 q**9 pushes the s-image to
    # ~1e8, where differencing act() is hopeless; the closed-form Jacobian
    # still certifies the pullback identity J^T g(image) J = g to float
    # cancellation depth
    element = lattice_element(SIGMA, (2, -1, 2, 2), L)
    rng = np.random.default_rng(31)
    metric = _metric_rows
    for _ in range(5):
        point = (float(rng.uniform(0.4, 1.2)), float(rng.uniform(-1, 1)),
                 rng.uniform(-1.0, 1.0, MODEL.m))
        jac = act_jacobian(element, point)
        image = act(element, point)
        pulled = jac.T @ metric(image) @ jac
        g = metric(point)
        assert np.linalg.norm(pulled - g) / np.linalg.norm(g) < 1e-6


def _metric_rows(point) -> np.ndarray:
    t, _, v = point
    v = np.asarray(v, dtype=float)
    g = np.zeros((MODEL.m + 2, MODEL.m + 2))
    g[0, 0] = MODEL.f.value(t) * MODEL.inner(v, v) + MODEL.inner(
        np.array(MODEL.apply_shift(v)), v
    )
    g[0, 1] = g[1, 0] = 0.5
    g[2:, 2:] = np.array(MODEL.h_rows(), dtype=float)
    return g


def test_h_group_law_matches_composition():
    # the Heisenberg twist Omega(u', u) is exactly what makes
    # act(g h, x) = act(g, act(h, x)); check on a pair with nonzero pairing
    g = HElement(MODEL, 0.5, BASIS[0])  # u_1
    h = HElement(MODEL, -0.25, BASIS[5])  # u_6, pairs with u_1
    assert omega(MODEL, BASIS[5], BASIS[0]) == pytest.approx(5.0, abs=1e-10)
    product = h_mul(g, h)
    assert product.r == pytest.approx(0.25 + 5.0, abs=1e-10)
    rng = np.random.default_rng(3)
    for _ in range(3):
        point = random_point(rng)
        left = act(product, point)
        right = act(g, act(h, point))
        assert left[1] == pytest.approx(right[1], rel=1e-11, abs=1e-11)
        assert np.allclose(left[2], right[2], atol=1e-12)


def test_h_inverse_and_associativity():
    g = HElement(MODEL, 0.5, BASIS[0])
    h = HElement(MODEL, -1.5, BASIS[5])
    w = HElement(MODEL, 0.75, BASIS[2])
    neutral = h_mul(g, h_inverse(g))
    assert neutral.r == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(neutral.u.value(1.9), np.zeros(3), atol=1e-13)
    left = h_mul(h_mul(g, h), w)
    right = h_mul(g, h_mul(h, w))
    assert left.r == pytest.approx(right.r, abs=1e-10)
    for t in (1.0, 2.1):
        assert np.allclose(left.u.value(t), right.u.value(t), atol=1e-12)


# ---------------------------------------------------------------------------
# normal forms


def test_conjugation_identity_on_all_basis_vectors():
    xi = np.array(SIGMA.xi)
    for j in range(SIGMA.size):
        vec = tuple(int(j == i) for i in range(SIGMA.size))
        r, coords = normal_form(SIGMA, [HAT, vec, HAT_INV])
        assert r == 0
        assert coords == tuple(int(x) for x in xi[:, j])


def test_normal_form_frozen_words():
    assert normal_form(SIGMA, [HAT, HAT_INV]) == (0, (0, 0, 0, 0))
    xi_inv = np.array(SIGMA.xi_inverse)
    r, coords = normal_form(SIGMA, [HAT, (0, 1, 0, 0), HAT])
    assert r == 2
    assert coords == tuple(int(x) for x in xi_inv[:, 1])
    # sigma . hat . sigma': one conjugation on the first letter only
    r, coords = normal_form(SIGMA, [(1, 0, 0, 0), HAT, (0, 0, 1, 0)])
    assert r == 1
    assert coords == tuple(int(x) for x in xi_inv[:, 0] + np.eye(4, dtype=int)[:, 2])


def test_normal_form_rejects_garbage():
    with pytest.raises(ValueError):
        normal_form(SIGMA, ["hat_cubed"])
    with pytest.raises(ValueError):
        normal_form(SIGMA, [(1, 2)])


def reference_normal_form(sigma, word):
    """sum_k Xi**(-e_right(k)) v_k over the lattice letters v_k, with
    e_right(k) the hat exponent to the right of letter k, in exact integer
    matrix powers."""
    exponents = [
        (1 if token == HAT else -1) if isinstance(token, str) else 0 for token in word
    ]
    xi = np.array(sigma.xi, dtype=object)
    xi_inv = np.array(sigma.xi_inverse, dtype=object)
    coords = np.zeros(sigma.size, dtype=object)
    for k, token in enumerate(word):
        if isinstance(token, str):
            continue
        e_right = sum(exponents[k + 1 :])
        power = np.linalg.matrix_power(xi_inv if e_right > 0 else xi, abs(e_right))
        coords = coords + power @ np.array(token, dtype=object)
    return sum(exponents), tuple(int(c) for c in coords)


def normal_form_words(size):
    letter = st.tuples(*[st.integers(-3, 3) for _ in range(size)])
    return st.lists(st.one_of(st.sampled_from([HAT, HAT_INV]), letter), max_size=10)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), r=st.integers(3, 5), p=st.integers(3, 5))
def test_normal_form_is_the_conjugated_sum(data, r, p):
    sigma = lattice_for(r, p)[0]
    word = data.draw(normal_form_words(sigma.size))
    assert normal_form(sigma, word) == reference_normal_form(sigma, word)


def test_normal_form_special_words_match_the_conjugated_sum():
    v, w = (1, -2, 0, 3), (0, 1, 1, -1)
    for word in (
        [],
        [HAT, HAT, HAT_INV, HAT, HAT],
        [HAT_INV, HAT_INV],
        [v, w, HAT, w, v, v],
        [HAT, v, HAT_INV, HAT_INV, w],
        [HAT_INV, v],
        [v],
    ):
        assert normal_form(SIGMA, word) == reference_normal_form(SIGMA, word), word
    assert normal_form(SIGMA, []) == (0, (0, 0, 0, 0))
    assert normal_form(SIGMA, [HAT, HAT, HAT_INV]) == (1, (0, 0, 0, 0))


def word_action(word, point):
    # words multiply left to right, so the rightmost letter acts first
    for token in reversed(word):
        if isinstance(token, str):
            point = act(GH, point) if token == HAT else act_inverse(GH, point)
        else:
            point = act(lattice_element(SIGMA, token, L), point)
    return point


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from([HAT, HAT_INV]),
            st.tuples(*[st.integers(-2, 2) for _ in range(4)]),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_normal_form_acts_like_the_word(word):
    r, coords = normal_form(SIGMA, word)
    assert r == sum(+1 if w == HAT else -1 for w in word if isinstance(w, str))
    point = (1.3, 0.45, np.array([0.2, -0.7, 1.1]))
    direct = word_action(word, point)
    via_form = act(lattice_element(SIGMA, coords, L), point)
    via_form = hat_power(via_form, r)
    assert direct[0] == pytest.approx(via_form[0], rel=1e-12)
    assert direct[1] == pytest.approx(via_form[1], rel=1e-8, abs=1e-8)
    assert np.allclose(direct[2], via_form[2], atol=1e-9)


# ---------------------------------------------------------------------------
# certification


def test_certify_ace_all_pass():
    ace = certify_ace(MODEL, L)
    assert ace["dimension_ok"]
    assert ace["b_residual"] <= B_BOUND
    assert ace["d_exact"]
    assert ace["d_numeric_max"] < 1e-10
    assert ace["e_min_diagonal"] > 0
    assert ace["e_max_condition"] <= CONDITION_BOUND


def test_certify_ace_flags_non_lagrangian_subspace():
    # slots 1 and 6 pair (1 + 6 = 2m + 1), and slots 1, 2 share a component
    # slot, so D and E must both fail while A still counts dimensions
    bad = LagrangianL((1, 2, 6), (BASIS[0], BASIS[1], BASIS[5]))
    ace = certify_ace(MODEL, bad)
    assert ace["dimension_ok"]
    assert not ace["d_exact"]
    assert ace["d_numeric_max"] > 1.0
    assert ace["e_min_diagonal"] <= 0
    assert not ace["e_max_condition"] <= CONDITION_BOUND


# ---------------------------------------------------------------------------
# canonical representatives


def test_canonicalize_lands_in_the_cell():
    rng = np.random.default_rng(23)
    for _ in range(10):
        rep, (r, shift) = canonicalize(random_point(rng), GH, SIGMA, L)
        assert 1.0 <= rep[0] < Q
        t_rep, w = fundamental_coordinates(rep, SIGMA, L)
        assert t_rep == rep[0]
        assert np.all(w >= -1e-12) and np.all(w < 1.0 + 1e-12)


def test_canonicalize_hat_exponent_bookkeeping():
    high = (Q**2.5, 0.0, np.zeros(3))
    rep, (r, _) = canonicalize(high, GH, SIGMA, L)
    assert r == -2
    assert rep[0] == pytest.approx(Q**0.5, rel=1e-12)
    low = (Q**-1.75, 0.0, np.zeros(3))
    _, (r_low, _) = canonicalize(low, GH, SIGMA, L)
    assert r_low == 2


def test_canonicalize_is_idempotent():
    rng = np.random.default_rng(5)
    for _ in range(10):
        rep, _ = canonicalize(random_point(rng), GH, SIGMA, L)
        rep2, (r2, shift2) = canonicalize(rep, GH, SIGMA, L)
        assert r2 == 0
        assert shift2 == (0, 0, 0, 0)
        assert rep2[0] == rep[0]
        assert rep2[1] == pytest.approx(rep[1], rel=1e-9, abs=1e-9)
        assert np.allclose(rep2[2], rep[2], atol=1e-9)


def test_canonicalize_records_the_applied_element():
    # the witness pair (r, shift) must actually transport the input to the
    # representative: sigma_shift(gamma_hat**r(x)) = rep
    rng = np.random.default_rng(17)
    for _ in range(5):
        point = random_point(rng)
        rep, (r, shift) = canonicalize(point, GH, SIGMA, L)
        replay = act(lattice_element(SIGMA, shift, L), hat_power(point, r))
        assert replay[0] == pytest.approx(rep[0], rel=1e-12)
        assert replay[1] == pytest.approx(rep[1], rel=1e-9, abs=1e-9)
        assert np.allclose(replay[2], rep[2], atol=1e-9)


def test_canonicalize_is_orbit_invariant():
    rng = np.random.default_rng(41)
    for _ in range(20):
        point = random_point(rng)
        exponent = int(rng.integers(-2, 3))
        coords = tuple(int(c) for c in rng.integers(-3, 4, SIGMA.size))
        moved = act(lattice_element(SIGMA, coords, L), hat_power(point, exponent))
        rep_a, _ = canonicalize(point, GH, SIGMA, L)
        rep_b, _ = canonicalize(moved, GH, SIGMA, L)
        t_a, w_a = fundamental_coordinates(rep_a, SIGMA, L)
        t_b, w_b = fundamental_coordinates(rep_b, SIGMA, L)
        assert t_a == pytest.approx(t_b, abs=1e-8)
        assert np.allclose(w_a, w_b, atol=1e-8)
        assert np.allclose(rep_a[2], rep_b[2], atol=1e-8)
        assert rep_a[1] == pytest.approx(rep_b[1], rel=1e-8, abs=1e-7)


def test_free_action_spot_check():
    rng = np.random.default_rng(29)
    trials = 0
    while trials < 25:
        exponent = int(rng.integers(-2, 3))
        coords = tuple(int(c) for c in rng.integers(-3, 4, SIGMA.size))
        if exponent == 0 and all(c == 0 for c in coords):
            continue
        trials += 1
        point = random_point(rng)
        moved = act(lattice_element(SIGMA, coords, L), hat_power(point, exponent))
        if exponent != 0:
            # q**r t != t, exactly
            assert moved[0] != point[0]
        else:
            t_x, w_x = fundamental_coordinates(point, SIGMA, L)
            t_m, w_m = fundamental_coordinates(moved, SIGMA, L)
            assert np.max(np.abs(w_m - w_x)) > 1e-6


# ---------------------------------------------------------------------------
# cell coordinates (tau = log_q t, w)


def test_phi_magnitudes_are_read_from_the_exponents_on_all_models():
    # Phi_ij = q**(y_i j), so the column maxima need no float Phi, which
    # overflows at 5 of the 33 models; where it exists they agree with it,
    # and the isometry section's 3e4 column mask with it
    cap = 3e4
    representable = 0
    for r, p in ALL_MODELS:
        sigma = lattice_for(r, p)[0]
        log_max = sigma.log_phi().max(axis=0)
        assert np.all(np.isfinite(log_max)), (r, p)
        try:
            phi = sigma.phi_float
        except OverflowError:
            continue
        representable += 1
        colmax = np.max(np.abs(phi), axis=0)
        assert np.array_equal(log_max <= math.log(cap), colmax <= cap), (r, p)
        assert np.allclose(log_max, np.log(colmax), rtol=1e-12, atol=1e-12), (r, p)
    assert representable == 28


def hats(count):
    return [HAT] * count if count >= 0 else [HAT_INV] * (-count)


def reference_xi_power(sigma, vector, exponent):
    xi = sigma.xi if exponent >= 0 else sigma.xi_inverse
    power = np.linalg.matrix_power(np.array(xi, dtype=object), abs(exponent))
    return tuple(power @ np.array(vector, dtype=object))


def _xi_power_vectors(sigma, rng):
    ints = tuple(int(c) for c in rng.integers(-9, 10, sigma.size))
    rationals = tuple(Fraction(int(a), int(b)) for a, b in rng.integers(1, 97, (sigma.size, 2)))
    return ints, rationals, tuple(-x for x in rationals)


def test_xi_power_matches_the_dense_matrix_powers_on_all_models():
    # the companion route reads only Xi's last column; it must give the
    # dense products' values and types, ints staying ints
    rng = np.random.default_rng(21)
    for r, p in ALL_MODELS:
        sigma = lattice_for(r, p)[0]
        for vector in _xi_power_vectors(sigma, rng):
            for exponent in range(-3, 4):
                got = xi_power(sigma, vector, exponent)
                want = reference_xi_power(sigma, vector, exponent)
                assert got == want, (r, p, exponent)
                assert [type(x) for x in got] == [type(x) for x in want], (r, p, exponent)


def test_xi_power_reads_only_the_verified_column():
    # a corrupted stored Xi^-1 changes the dense reference but not
    # xi_power, which inverts Xi from the column intertwining_failures checks
    rng = np.random.default_rng(22)
    for r, p in ((3, 3), (6, 4), (13, 5)):
        sigma = lattice_for(r, p)[0]
        garbage = tuple(tuple(2 * x + 1 for x in row) for row in sigma.xi_inverse)
        corrupted = replace(sigma, xi_inverse=garbage)
        for vector in _xi_power_vectors(sigma, rng):
            for exponent in range(-3, 4):
                assert xi_power(corrupted, vector, exponent) == xi_power(sigma, vector, exponent)
            assert reference_xi_power(corrupted, vector, -1) != xi_power(sigma, vector, -1)


def test_canonicalize_cell_and_word_identity_on_all_models():
    # no float anywhere: Phi(shift) hat**r carries (tau, w) into the cell,
    # an orbit image lands on the same representative, and the two
    # reduction words name the same group element at every dimension
    rng = np.random.default_rng(11)
    den = 4096
    for r, p in ALL_MODELS:
        sigma = lattice_for(r, p)[0]
        for _ in range(6):
            tau = Fraction(int(rng.integers(-3 * den, 3 * den)), den)
            w = tuple(Fraction(int(x), den) for x in rng.integers(-3 * den, 3 * den, sigma.size))
            rep, (k, shift) = canonicalize_cell(sigma, tau, w)
            assert 0 <= rep[0] < 1 and all(0 <= x < 1 for x in rep[1]), (r, p)
            assert rep == (
                tau + k,
                tuple(x + c for x, c in zip(reference_xi_power(sigma, w, k), shift)),
            )
            e = int(rng.integers(-2, 3))
            coords = tuple(int(c) for c in rng.integers(-2, 3, sigma.size))
            moved = tuple(x + c for x, c in zip(reference_xi_power(sigma, w, e), coords))
            rep_b, (k_b, shift_b) = canonicalize_cell(sigma, tau + e, moved)
            assert rep_b == rep, (r, p)
            assert normal_form(sigma, [shift, *hats(k)]) == normal_form(
                sigma, [shift_b, *hats(k_b), coords, *hats(e)]
            ), (r, p)


def test_canonicalize_cell_on_the_cell_faces():
    # integer cell coordinates are the cell's corner (0, 0)
    w = (Fraction(-1), Fraction(0), Fraction(3), Fraction(1))
    rep, (k, shift) = canonicalize_cell(SIGMA, Fraction(2), w)
    assert rep == (0, (0, 0, 0, 0))
    assert k == -2
    assert shift == tuple(-x for x in reference_xi_power(SIGMA, w, -2))
    inside = (Fraction(1, 3), (Fraction(0), Fraction(1, 2), Fraction(4095, 4096), Fraction(1, 7)))
    assert canonicalize_cell(SIGMA, *inside) == (inside, (0, (0, 0, 0, 0)))


# Worst residuals of the chart conjugacy over this test's 20 points (2
# cores, numpy's default BLAS), and the bound each is held to: 100 times
# the measured figure.  A wrong conjugation (Xi^T or Xi^-1 for Xi) misses
# by 11 or more.  The lattice residual grows with |Phi| |Phi^-1|: the
# float chart, not the identity, loses the digits.
CHART_CONJUGACY_BOUNDS = {
    # (r, p): (measured hat, measured lattice)
    (3, 3): (1.8e-15, 2.8e-10),
    (4, 4): (2.4e-14, 1.7e-9),
    (5, 3): (5.1e-12, 7.9e-10),
    (5, 5): (3.2e-9, 4.3e-7),
}


@pytest.mark.parametrize("r, p", sorted(CHART_CONJUGACY_BOUNDS), ids=lambda v: str(v))
def test_chart_conjugacy(r, p):
    # w(hat x) = Xi w(x) and w(Phi(c) x) = w(x) + c on the float chart, for
    # points of chart size 1 and lattice elements below the 3e4 column cap
    sigma, lagrangian = lattice_for(r, p)
    model = sigma.model
    gamma_hat = make_gamma_hat(model)
    q = float(model.context().q)
    xi = np.array(sigma.xi, dtype=float)
    support = sigma.log_phi().max(axis=0) <= math.log(3e4)
    rng = np.random.default_rng(3)
    worst_hat = worst_lattice = 0.0
    for _ in range(20):
        point = (float(rng.uniform(1.0, q)), float(rng.uniform(-1, 1)), rng.uniform(-1, 1, model.m))
        t, w = fundamental_coordinates(point, sigma, lagrangian)
        t_hat, w_hat = fundamental_coordinates(act(gamma_hat, point), sigma, lagrangian)
        assert t_hat == q * t
        worst_hat = max(worst_hat, float(np.max(np.abs(w_hat - xi @ w))))
        coords = tuple(int(c) for c in np.where(support, rng.integers(-2, 3, sigma.size), 0))
        moved = act(lattice_element(sigma, coords, lagrangian), point)
        t_c, w_c = fundamental_coordinates(moved, sigma, lagrangian)
        assert t_c == t
        worst_lattice = max(worst_lattice, float(np.max(np.abs(w_c - w - np.array(coords)))))
    measured_hat, measured_lattice = CHART_CONJUGACY_BOUNDS[(r, p)]
    assert worst_hat <= 100 * measured_hat
    assert worst_lattice <= 100 * measured_lattice


@pytest.mark.parametrize("r, p", [(3, 3), (3, 4), (3, 5)])
def test_float_canonicalize_finds_the_exact_word(r, p):
    # on the chart image of a rational cell point clear of the faces, the
    # float route picks the exact route's (r, shift); the exact
    # representative's own image is already canonical
    sigma, lagrangian = lattice_for(r, p)
    gamma_hat = make_gamma_hat(sigma.model)
    q = float(sigma.model.context().q)
    rng = np.random.default_rng(13)
    den = 4096
    checked = 0
    for _ in range(40):
        tau = Fraction(int(rng.integers(-den, 2 * den)), den)
        w = tuple(Fraction(int(x), den) for x in rng.integers(-2 * den, 2 * den, sigma.size))
        rep, word = canonicalize_cell(sigma, tau, w)
        if min(min(x, 1 - x) for x in (rep[0], *rep[1])) < Fraction(1, 1000):
            continue
        checked += 1
        point = point_from_coordinates(q ** float(tau), np.array(w, dtype=float), sigma, lagrangian)
        assert canonicalize(point, gamma_hat, sigma, lagrangian)[1] == word
        image = point_from_coordinates(
            q ** float(rep[0]), np.array(rep[1], dtype=float), sigma, lagrangian
        )
        assert canonicalize(image, gamma_hat, sigma, lagrangian)[1] == (0, (0,) * sigma.size)
    assert checked >= 30


def test_holonomy_scaling_values():
    factor = holonomy_scaling(GH)
    assert factor == CTX.q_inv
    assert factor == CTX.element(Fraction(3, 2), Fraction(-1, 2))
    assert factor != CTX.one
    assert float(factor) == pytest.approx((3.0 - 5.0**0.5) / 2.0, abs=1e-15)
    assert holonomy_scaling(HElement(MODEL, 1.0, BASIS[0])) == CTX.one
