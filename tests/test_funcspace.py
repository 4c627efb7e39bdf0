"""Tests for the scalar/vector solution spaces and the transfer operator.

Oracles: monomial closed forms for the power-law profile (k = 5 instance
worked out on paper: y+- = t**-2, t**3; corrections -1/6 and t**5/14; the
zero-start forced solution -1/6 + t**-2/10 + t**3/15), the constant
Wronskian k, and the anti-diagonal +-k Omega table.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecsforge import funcspace
from ecsforge.funcspace import (
    ESolution,
    ForcedOdeFn,
    LinCombFn,
    MonomialFn,
    OdeFn,
    TimeScaledFn,
    ct_eigenbasis,
    ct_eigencheck_exact,
    ct_eigencheck_residual,
    ct_image,
    expected_omega_matrix,
    omega,
    omega_exact,
    omega_matrix,
    particular_solutions,
    qt_eigen_residual,
    transfer_matrix_T,
    verify_ct_omega_scaling,
    w_basis,
    wronskian,
)
from ecsforge.deform import PerturbationF0, solve_a
from ecsforge.exact import QFieldContext
from ecsforge.model import HomogeneousF, build_model
from ecsforge.quotient import (
    OMEGA_TS,
    build_lagrangian,
    build_lattice,
    h_mul,
    lattice_element,
    make_gamma_hat,
    pi_apply_numeric,
    pi_map,
)
from ecsforge.spectral import standard_family


def model_for(r=3, p=3, eps=1):
    return build_model(standard_family(r), p=p, eps=eps)


def test_w_basis_monomials():
    y_plus, y_minus = w_basis(model_for())
    assert y_plus == MonomialFn(Fraction(1), Fraction(-2))
    assert y_minus == MonomialFn(Fraction(1), Fraction(3))
    assert y_plus.value(2.0) == pytest.approx(0.25)
    assert y_minus.deriv(2.0) == pytest.approx(12.0)


def test_wronskian_is_k():
    model = model_for()
    y_plus, y_minus = w_basis(model)
    for t in (0.5, 1.0, 1.9, 3.2):
        assert wronskian(y_plus, y_minus, t) == pytest.approx(5.0, rel=1e-12)


def test_particular_solutions_frozen():
    model = model_for()
    z_plus, z_minus = particular_solutions(model, w_basis(model))
    assert z_plus == MonomialFn(Fraction(-1, 6), Fraction(0))
    assert z_minus == MonomialFn(Fraction(1, 14), Fraction(5))


def test_qt_eigen_identity_of_corrections():
    model = model_for()
    z_plus, z_minus = particular_solutions(model, w_basis(model))
    m = model.m
    assert qt_eigen_residual(model, z_plus, model.system.E_of(2 * m - 1)) < 1e-12
    assert qt_eigen_residual(model, z_minus, model.system.E_of(2 * m)) < 1e-12


def test_ode_fn_reproduces_monomials():
    f = HomogeneousF(5)
    # start data of t**-2 at t = 1
    y = OdeFn(f, 1.0, -2.0)
    for t in (0.3, 0.9, 1.0, 1.8, 4.2):
        assert y.value(t) == pytest.approx(t**-2, rel=1e-11)
        assert y.deriv(t) == pytest.approx(-2 * t**-3, rel=1e-10)
    # and revisiting cached range stays consistent
    assert y.value(0.9) == pytest.approx(0.9**-2, rel=1e-11)


def test_ode_fn_rejects_nonpositive_time():
    y = OdeFn(HomogeneousF(5), 1.0, 0.0)
    with pytest.raises(ValueError):
        y.value(0.0)
    with pytest.raises(ValueError):
        y.value(-2.0)


def test_forced_ode_frozen_solution():
    # x'' = f x + t**-2 with x(1) = x'(1) = 0 has the closed form
    # -1/6 + t**-2/10 + t**3/15 (checked by differentiating on paper)
    forced = ForcedOdeFn(HomogeneousF(5), 1.0, -2.0)
    assert forced.value(2.0) == pytest.approx(47.0 / 120.0, rel=1e-10)
    assert forced.deriv(2.0) == pytest.approx(0.775, rel=1e-10)
    assert forced.value(1.0) == pytest.approx(0.0, abs=1e-13)
    # the co-integrated source is t**-2
    assert float(forced._state(2.0)[0]) == pytest.approx(0.25, rel=1e-11)


# read after a grid over one period of p = 3; repeats and points outside
# the grid's span included
EVAL_POINTS = (1.0, 0.5, 2.3, 1.0, 0.37, 1.7, 3.9, 0.5, 0.21)


@pytest.fixture(scope="module")
def deformed_profile():
    return solve_a(PerturbationF0(((0.02, 0.01),)), 2.5, QFieldContext(3))


def _fresh_solutions(profile):
    """A deformed eigenpair member and a forced solution, nothing integrated
    yet; a copy of the profile builds its own eigenpair."""
    return dataclasses.replace(profile).eigenpair[0], ForcedOdeFn(profile, 1.0, 0.3)


def _count_solve_ivp(monkeypatch):
    calls = []
    real = funcspace.solve_ivp

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(funcspace, "solve_ivp", counted)
    return calls


def test_memoized_and_batched_reads_are_bit_identical(deformed_profile, monkeypatch):
    # The same reads in the same order, once point by point on fresh
    # instances and once with repeats and the grid batched: every state,
    # value and derivative must agree bit for bit, from the same integrations
    grid = np.geomspace(0.4, 2.5, 97)
    references, warmed = _fresh_solutions(deformed_profile), _fresh_solutions(deformed_profile)
    calls = _count_solve_ivp(monkeypatch)
    for ref, warm in zip(references, warmed):
        start = len(calls)
        ref_base = (ref.value(1.0), ref.deriv(1.0))  # the start data, nothing integrated
        ref_grid = np.array([ref._state(t) for t in grid])
        ref_points = [(ref.value(t), ref.deriv(t)) for t in EVAL_POINTS]
        ref_spans = calls[start:]

        start = len(calls)
        warm_base = [(warm.value(1.0), warm.deriv(1.0)) for _ in range(2)]
        runs = list(warm.state_runs(grid))
        warm_grid = np.concatenate(list(warm.state_runs(grid)))
        warm_points = [[(warm.value(t), warm.deriv(t)) for t in EVAL_POINTS] for _ in range(2)]
        assert calls[start:] == ref_spans
        assert len(runs) > 1  # the grid spans several extensions

        assert warm_base == [ref_base, ref_base]
        assert np.array_equal(np.concatenate(runs), ref_grid)
        assert np.array_equal(warm_grid, ref_grid)
        assert warm_points == [ref_points, ref_points]
        assert warm._state(0.5) is warm._state(0.5)  # read once, then memoized
        for state in (warm._state(0.5), runs[0]):
            assert not state.flags.writeable
            with pytest.raises(ValueError):
                state[0] = 0.0


@settings(max_examples=60, deadline=None)
@given(
    coef=st.fractions(min_value=-50, max_value=50, max_denominator=60),
    power=st.fractions(min_value=-12, max_value=12, max_denominator=30),
    t=st.floats(min_value=0.05, max_value=20.0),
)
def test_monomial_floats_are_the_fraction_expressions(coef, power, t):
    # value() and deriv() read float forms converted once per instance;
    # they must equal, bit for bit, the expressions on the Fractions
    fn = MonomialFn(coef, power)
    assert fn.value(t) == float(coef) * t ** float(power)
    expected = 0.0 if power == 0 else float(coef * power) * t ** float(power - 1)
    assert fn.deriv(t) == expected
    assert fn == MonomialFn(coef, power) and fn.coef == coef and fn.power == power


def test_lincomb_and_timescale_algebra():
    y = MonomialFn(Fraction(1), Fraction(3))
    half = TimeScaledFn(y, prefactor=2.0, time_scale=0.5)
    assert half.value(2.0) == pytest.approx(2.0)  # 2 * (1)**3
    assert half.deriv(2.0) == pytest.approx(3.0)  # 2 * 0.5 * 3 t**2 at t=1
    combo = LinCombFn((y, half), (1.0, -1.0))
    assert combo.value(2.0) == pytest.approx(6.0)


def test_transfer_matrix_against_exact_spectrum():
    model = model_for()
    ctx = model.context()
    q = float(ctx.q)
    matrix = transfer_matrix_T(model.f, q)
    # det T = 1/q exactly; trace = mu+ + mu- = q**2 + q**-3
    assert np.linalg.det(matrix) == pytest.approx(1.0 / q, rel=1e-10)
    expected_trace = float(ctx.q_power(2) + ctx.q_power(-3))
    assert np.trace(matrix) == pytest.approx(expected_trace, rel=1e-10)
    # T fixes the monomial directions: coords of t**-2 are (1, -2)
    vec = np.array([1.0, -2.0])
    mu_plus = float(ctx.q_power(2))
    assert matrix @ vec == pytest.approx(mu_plus * vec, rel=1e-10)
    vec = np.array([1.0, 3.0])
    mu_minus = float(ctx.q_power(-3))
    assert matrix @ vec == pytest.approx(mu_minus * vec, rel=1e-9)


def test_transfer_matrix_rejects_bad_scale():
    with pytest.raises(ValueError):
        transfer_matrix_T(HomogeneousF(5), 0.9)


def test_eigenbasis_layout():
    model = model_for()
    basis = ct_eigenbasis(model)
    assert len(basis) == 6
    # slots 1..4 are single monomial components; the top pair carries the
    # correction on the first coordinate
    assert len(basis[0].components) == 1
    assert len(basis[4].components) == 2
    top_plus = basis[4].value(1.0)
    assert top_plus[2] == pytest.approx(1.0)
    assert top_plus[0] == pytest.approx(-1.0 / 6.0)


def test_esolution_value_and_scaled():
    model = model_for()
    u = ct_eigenbasis(model)[0]
    np.testing.assert_allclose(u.value(2.0), [0.25, 0.0, 0.0])
    np.testing.assert_allclose(u.deriv(2.0), [-0.25, 0.0, 0.0])
    doubled = u.scaled(2.0)
    np.testing.assert_allclose(doubled.value(2.0), [0.5, 0.0, 0.0])


def test_omega_matrix_matches_frozen_table():
    for r, p, eps in ((3, 3, 1), (3, 3, -1), (4, 3, 1), (4, 4, 1), (5, 3, 1)):
        model = build_model(standard_family(r), p=p, eps=eps)
        basis = ct_eigenbasis(model)
        expected = expected_omega_matrix(model)
        for t in (1.0, 1.7, 2.6):
            np.testing.assert_allclose(
                omega_matrix(model, basis, t), expected, atol=1e-9
            )


def test_omega_exact_reproduces_the_table_with_zero_residual():
    # the same pairing statement as above, but in rational arithmetic: a
    # constant table entry is {0: value}, a vanishing one is literally {}
    for r, p, eps in ((3, 3, 1), (3, 5, -1), (4, 4, 1), (5, 3, 1)):
        model = build_model(standard_family(r), p=p, eps=eps)
        basis = ct_eigenbasis(model)
        size = 2 * model.m
        for i in range(1, size + 1):
            for j in range(1, size + 1):
                table = omega_exact(model, basis[i - 1], basis[j - 1])
                if i + j != size + 1:
                    assert table == {}
                else:
                    sign = -1 if i % 2 == 1 else 1
                    assert table == {0: Fraction(sign * model.k * model.eps)}


def test_omega_exact_refuses_integrated_solutions():
    model = model_for()
    df = solve_a(PerturbationF0(((0.01, 0.0),)), model.k / 2.0, model.context())
    deformed = build_model(standard_family(3), p=3, f=df)
    basis = ct_eigenbasis(deformed)
    with pytest.raises(ValueError, match="monomial"):
        omega_exact(deformed, basis[0], basis[5])


def test_omega_worked_example():
    # Omega(u_1+, u_3-) = -5 for the k = 5 instance with eps = +1
    model = model_for()
    basis = ct_eigenbasis(model)
    assert omega(model, basis[0], basis[5]) == pytest.approx(-5.0, rel=1e-12)
    assert omega(model, basis[5], basis[0]) == pytest.approx(5.0, rel=1e-12)
    # the top pair is Omega-orthogonal
    assert omega(model, basis[4], basis[5]) == pytest.approx(0.0, abs=1e-12)


def dense_omega_matrix(model, sols, t):
    """The full pairing: each solution expanded to dense m-vectors, and
    <x, y> taken over all m index pairs for every pair of solutions."""
    values = [u.value(t) for u in sols]
    derivs = [u.deriv(t) for u in sols]
    return np.array(
        [
            [model.inner(du, v) - model.inner(u, dv) for v, dv in zip(values, derivs)]
            for u, du in zip(values, derivs)
        ]
    )


@pytest.mark.parametrize("deformed", [False, True])
@pytest.mark.parametrize("r, p", [(3, 3), (4, 5), (6, 5)])
def test_omega_matrix_is_the_pairwise_omega(r, p, deformed):
    # the component route sums only the slot pairs both solutions carry;
    # the dense route adds exact zeros beyond them, so every entry, zeros
    # included, must carry the same bits: on eigenbasis members, their CT
    # images, lattice elements, their products and their CT images, at the
    # t of the Omega-scaling check and of certify_ace's D check
    system = standard_family(r)
    profile = None
    if deformed:
        profile = solve_a(PerturbationF0(((0.02, 0.01),)), system.k / 2.0, QFieldContext(p))
    model = build_model(system, p=p, f=profile, eps=-1 if r % 2 else 1)
    basis = ct_eigenbasis(model)
    lagrangian = build_lagrangian(model, basis)
    sigma = build_lattice(model, pi_map(model, make_gamma_hat(model), lagrangian))
    rng = np.random.default_rng(r * 10 + p)
    elements = [
        lattice_element(sigma, tuple(int(c) for c in rng.integers(-2, 3, sigma.size)), lagrangian)
        for _ in range(3)
    ]
    elements.append(h_mul(elements[0], elements[1]))
    lattice_sols = [e.u for e in elements if e.u is not None]
    lattice_sols += [pi_apply_numeric(model, None, e).u for e in elements if e.u is not None]
    families = (basis, [ct_image(model, u) for u in basis], lattice_sols, [*basis[:3], *lattice_sols])
    for t in sorted({*funcspace.OMEGA_SCALING_TS, *OMEGA_TS}):
        for sols in families:
            dense = dense_omega_matrix(model, sols, t)
            assert omega_matrix(model, sols, t).tobytes() == dense.tobytes(), (t, len(sols))
            for u, row in zip(sols, dense):
                for v, entry in zip(sols, row):
                    assert np.float64(omega(model, u, v, t)).tobytes() == entry.tobytes()


def test_omega_antisymmetry():
    model = model_for(r=4)
    basis = ct_eigenbasis(model)
    table = omega_matrix(model, basis)
    np.testing.assert_allclose(table, -table.T, atol=1e-10)


def test_ct_eigencheck_exact_and_numeric():
    for r, p in ((3, 3), (4, 3), (5, 5)):
        model = build_model(standard_family(r), p=p)
        assert ct_eigencheck_exact(model)
        assert ct_eigencheck_residual(model) < 1e-9


def test_ct_image_values():
    model = model_for()
    ctx = model.context()
    q = float(ctx.q)
    u = ct_eigenbasis(model)[0]  # y+ e_1, eigenvalue q**E(1) = q**3
    image = ct_image(model, u)
    lam = float(ctx.q_power(3))
    for t in (1.0, 2.2):
        np.testing.assert_allclose(image.value(t), lam * u.value(t), rtol=1e-12)


def test_ct_omega_scaling():
    for r, p, eps in ((3, 3, 1), (4, 3, -1), (5, 3, 1)):
        model = build_model(standard_family(r), p=p, eps=eps)
        exact_ok, residual = verify_ct_omega_scaling(model)
        assert exact_ok
        assert residual < 1e-9
