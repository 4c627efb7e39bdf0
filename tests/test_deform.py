"""Trace matching for deformed profiles.

Frozen targets are closed forms in q = (3 + sqrt 5)/2: the unperturbed
transfer trace at base exponent a is q**(a - 1/2) + q**(-a - 1/2), so for
half-integer a it is an exact element of the field, evaluated once and
pinned here as a decimal.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from ecsforge import cli, deform, funcspace
from ecsforge.cli import build_certificate
from ecsforge.deform import (
    DeformedF,
    PerturbationF0,
    _positive_on_grid,
    eig_positivity,
    recovered_base,
    solve_a,
    target_trace_value,
    trace_H,
)
from ecsforge.exact import QFieldContext
from ecsforge.funcspace import (
    OdeFn,
    ct_eigenbasis,
    ct_eigencheck_residual,
    expected_omega_matrix,
    omega_matrix,
    qt_eigen_residual,
    transfer_matrix_T,
    verify_ct_omega_scaling,
    w_basis,
    wronskian,
)
from ecsforge.model import HomogeneousF, build_model, check_model, load_model_lenient
from ecsforge.spectral import standard_family

CTX3 = QFieldContext(3)
Q3 = float(CTX3.q)

# q**(c - 1/2) + q**(-c - 1/2) at p = 3 for the three reference half-gaps
UNPERTURBED_TRACE_P3 = {
    1.5: 2.76393202250021,
    2.5: 6.909830056250526,
    3.5: 17.965558146251368,
}

ZERO = PerturbationF0(())

# The six profiles of the certify-deformed benchmark workload: (n, p,
# harmonic pairs, a_solved as 30 bisection steps and a Newton polish found
# it).  Any root finder that converges must land within 1e-11 of that.
WORKLOAD_PROFILES = (
    (5, 3, ((0.02, 0.01),), 2.5039975433408412),
    (5, 4, ((0.05, -0.02),), 2.509986127187922),
    (5, 5, ((0.03, 0.0), (0.01, 0.02)), 2.5079899817989983),
    (7, 3, ((0.02, 0.01), (0.0, 0.01)), 3.50285639958722),
    (7, 4, ((0.04, 0.02),), 3.5057116160483686),
    (7, 5, ((0.01, -0.01), (0.02, 0.0)), 3.504283564629834),
)


# ---------------------------------------------------------------------------
# the trace functional


def test_trace_frozen_values():
    for c, expected in UNPERTURBED_TRACE_P3.items():
        assert trace_H(ZERO, c, CTX3) == pytest.approx(expected, abs=1e-10)
        assert target_trace_value(c, CTX3) == pytest.approx(expected, abs=1e-12)


def test_trace_at_reference_half_gap_to_six_decimals():
    assert round(trace_H(ZERO, 2.5, CTX3), 6) == 6.909830


def test_trace_flat_profile():
    # a = 1/2 kills the power law entirely: solutions are affine,
    # u1 = 1 and u2 = t - 1, so the trace is 1 + 1/q
    expected = 1.0 + float(CTX3.q_inv)
    assert trace_H(ZERO, 0.5, CTX3) == pytest.approx(expected, abs=1e-11)


def test_trace_closed_form_is_exact_field_element():
    for c, (hi, lo) in ((1.5, (1, -2)), (2.5, (2, -3)), (3.5, (3, -4))):
        closed = float(CTX3.q_power(hi) + CTX3.q_power(lo))
        assert UNPERTURBED_TRACE_P3[c] == pytest.approx(closed, abs=1e-13)


def test_trace_rejects_nonpositive_base():
    with pytest.raises(ValueError):
        trace_H(ZERO, 0.0, CTX3)
    with pytest.raises(ValueError):
        trace_H(ZERO, -1.5, CTX3)


# ---------------------------------------------------------------------------
# the root finder


def test_solve_a_unperturbed_recovers_c():
    for c in (1.5, 2.5, 3.5):
        df = solve_a(ZERO, c, CTX3)
        assert abs(df.a_solved - c) < 1e-10
        assert df.target_trace == pytest.approx(UNPERTURBED_TRACE_P3[c], abs=1e-12)
        assert df.k == 2 * c
        assert df.p == 3


def test_solve_a_perturbed_moves_base_but_matches_trace():
    fstar = PerturbationF0(((0.05, 0.0),))
    df = solve_a(fstar, 2.5, CTX3)
    assert abs(df.a_solved - 2.5) > 1e-6
    # independent recomputation of the trace at the solved base
    achieved = trace_H(fstar, df.a_solved, CTX3)
    assert abs(achieved - df.target_trace) < 1e-10


def test_solve_a_perturbed_realizes_requested_spectrum():
    df = solve_a(PerturbationF0(((0.05, 0.0),)), 2.5, CTX3)
    matrix = transfer_matrix_T(df, Q3)
    eigvals = np.sort(np.linalg.eigvals(matrix).real)
    targets = np.sort([float(CTX3.q_power(2)), float(CTX3.q_power(-3))])
    assert np.allclose(eigvals, targets, atol=1e-8)
    assert abs(eigvals[0] * eigvals[1] - float(CTX3.q_inv)) < 1e-8


def test_solve_a_amplitude_guard():
    # max|g| = 1.2 for a lone cosine coefficient 0.6; the guard at
    # c = 1.5 is (c**2 - 1/4)/2 = 1.0
    with pytest.raises(ValueError, match="guard"):
        solve_a(PerturbationF0(((0.6, 0.0),)), 1.5, CTX3)


def test_solve_a_rejects_tiny_half_gap():
    with pytest.raises(ValueError):
        solve_a(ZERO, 0.5, CTX3)


@pytest.mark.parametrize("n, p, coeffs, a_reference", WORKLOAD_PROFILES)
def test_solve_a_root_and_trace_evaluation_count(monkeypatch, n, p, coeffs, a_reference):
    calls = []

    def counted(fstar, a, ctx):
        calls.append(a)
        return trace_H(fstar, a, ctx)

    monkeypatch.setattr(deform, "trace_H", counted)
    c = standard_family((n + 1) // 2).k / 2.0
    df = solve_a(PerturbationF0(coeffs), c, QFieldContext(p))
    assert len(calls) <= 16  # bisection and a Newton polish made 38
    # the residual check at the root reads brentq's own evaluation
    assert df.a_solved in calls
    assert len(set(calls)) == len(calls)
    assert abs(df.a_solved - a_reference) <= 1e-11


def test_solve_a_refuses_bracket_without_sign_change(monkeypatch):
    # lifting the whole trace curve puts both bracket ends above the target
    monkeypatch.setattr(deform, "trace_H", lambda fstar, a, ctx: trace_H(fstar, a, ctx) + 1e3)
    with pytest.raises(ValueError, match="no sign change"):
        solve_a(PerturbationF0(((0.02, 0.01),)), 2.5, CTX3)


def test_solve_a_rechecks_the_trace_at_its_root(monkeypatch):
    fstar = PerturbationF0(((0.02, 0.01),))
    root = solve_a(fstar, 2.5, CTX3).a_solved

    # a trace that jumps by 2e-9 across the root: brentq still closes its
    # bracket there, but no point it reaches is within TRACE_TOL
    calls = []

    def stalled(fstar, a, ctx):
        calls.append(a)
        return trace_H(fstar, a, ctx) + (1e-9 if a > root else -1e-9)

    monkeypatch.setattr(deform, "trace_H", stalled)
    with pytest.raises(ValueError, match="did not reach"):
        solve_a(fstar, 2.5, CTX3)
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("n, p, coeffs, a_solved", WORKLOAD_PROFILES[:3])
def test_transfer_matrix_is_the_two_solution_construction(n, p, coeffs, a_solved):
    df = DeformedF(PerturbationF0(coeffs), c=2.5, a_solved=a_solved, target_trace=0.0, p=p)
    q = float(QFieldContext(p).q)
    matrix = transfer_matrix_T(df, q)
    # reference: each basis solution integrated on its own, in t rather than
    # log-time, from t = 1 down to 1/q
    columns = []
    for start in ((1.0, 0.0), (0.0, 1.0)):
        sol = solve_ivp(
            lambda t, y: (y[1], df.value(t) * y[0]), (1.0, 1.0 / q), start,
            method="DOP853", rtol=1e-13, atol=1e-15,
        )
        u, du = sol.y[:, -1]
        columns.append((u, du / q))
    reference = np.array(columns).T
    assert np.max(np.abs(matrix - reference)) <= 1e-11 * np.max(np.abs(reference))
    assert abs(np.linalg.det(matrix) * q - 1.0) <= 1e-12


def test_deformed_field_validation():
    with pytest.raises(ValueError):
        DeformedF(ZERO, c=-2.5, a_solved=2.5, target_trace=6.9, p=3)
    with pytest.raises(ValueError):
        DeformedF(ZERO, c=2.5, a_solved=0.0, target_trace=6.9, p=3)
    with pytest.raises(ValueError):
        DeformedF(ZERO, c=2.5, a_solved=2.5, target_trace=6.9, p=2)
    # NaN passes every comparison above; it and the infinities are refused
    for bad in (math.nan, math.inf, -math.inf):
        for field in ("c", "a_solved", "target_trace"):
            values = {"c": 2.5, "a_solved": 2.5, "target_trace": 6.9, field: bad}
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                DeformedF(ZERO, p=3, **values)


# ---------------------------------------------------------------------------
# the solved profile


def test_profile_self_similarity():
    df = solve_a(PerturbationF0(((0.03, 0.02), (0.0, 0.01))), 2.5, CTX3)
    for j in range(-5, 6):
        t = Q3 ** (j / 5.0)
        lhs = df.value(t)
        rhs = Q3 * Q3 * df.value(Q3 * t)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_profile_derivative_matches_finite_difference():
    df = solve_a(PerturbationF0(((0.04, -0.02),)), 2.5, CTX3)
    for t in (0.7, 1.0, 1.6, 2.9):
        h = 1e-6 * t
        fd = (df.value(t + h) - df.value(t - h)) / (2 * h)
        assert df.deriv(t) == pytest.approx(fd, rel=1e-6)


def test_injectivity_base_recovery():
    # g(0) = 0 forces f(1) = a**2 - 1/4 regardless of the perturbation
    for coeffs in (((0.05, 0.0),), ((0.0, 0.04), (0.02, 0.0))):
        df = solve_a(PerturbationF0(coeffs), 2.5, CTX3)
        assert abs(recovered_base(df) - df.a_solved) < 1e-12


def test_perturbation_vanishes_at_period_points():
    fstar = PerturbationF0(((0.3, 0.7), (-0.2, 0.1)))
    log_q = math.log(Q3)
    assert fstar.g(0.0) == 0.0
    for j in (-2, -1, 1, 2):
        assert abs(fstar.fstar_value(Q3**j, log_q)) < 1e-13


@pytest.mark.parametrize(
    "coeffs",
    [((0.02, 0.01),), ((0.03, 0.0), (0.01, 0.02)), ((0.3, 0.7), (-0.2, 0.1), (0.05, -0.4))],
)
def test_perturbation_sums_match_the_per_harmonic_reference(coeffs):
    # g and g' read each harmonic's frequency 2 pi j precomputed, grouped as
    # the angle (2 pi j) x always was: the same bits as the plain loop
    fstar = PerturbationF0(coeffs)

    def g_ref(x):
        return sum(
            a * (math.cos(2.0 * math.pi * j * x) - 1.0) + b * math.sin(2.0 * math.pi * j * x)
            for j, (a, b) in enumerate(coeffs, start=1)
        )

    grid = np.linspace(0.0, 1.0, deform.G_SAMPLES, endpoint=False)
    for x in (0.0, 0.13, 0.5, 0.77, -1.3, 2.6):
        assert fstar.g(x) == g_ref(x)
    # max|g| is one array expression; NumPy's cos and sin may differ from
    # math's in the last bit, so the bound is a few ulp of the amplitude
    reference = max(abs(g_ref(x)) for x in grid)
    assert fstar.max_abs_g() == pytest.approx(reference, rel=16 * np.finfo(float).eps)


# ---------------------------------------------------------------------------
# positivity


def test_positive_grid_rejects_negated_function():
    # the raw grid check is sign-sensitive; eig_positivity reads the pair
    # normalized to y(1) = 1.  y = t**-2 solves y'' = 6 t**-2 y (k = 5)
    assert _positive_on_grid(OdeFn(HomogeneousF(5), (1.0, -2.0), Q3**2, Q3), 1.0 / Q3, Q3)
    assert not _positive_on_grid(OdeFn(HomogeneousF(5), (-1.0, 2.0), Q3**2, Q3), 1.0 / Q3, Q3)


def test_positive_grid_reads_integrated_eigenfunctions():
    pair = solve_a(PerturbationF0(((0.05, 0.0),)), 2.5, CTX3).eigenpair
    for y in pair:
        assert _positive_on_grid(y, 1.0 / Q3, Q3)
        negated = OdeFn(y.profile, -y.start, y.multiplier, Q3)
        assert not _positive_on_grid(negated, 1.0 / Q3, Q3)


def test_eig_positivity_unperturbed_and_perturbed():
    assert eig_positivity(solve_a(ZERO, 2.5, CTX3))
    assert eig_positivity(solve_a(PerturbationF0(((0.05, 0.0),)), 2.5, CTX3))
    # off the half-odd gaps the target eigenvalues q**(+-c - 1/2) leave the
    # field, and the eigenfunctions t**(1/2 -+ c) are still positive
    assert eig_positivity(solve_a(ZERO, 2.7, CTX3))


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip():
    df = solve_a(PerturbationF0(((0.03, 0.01),)), 2.5, CTX3)
    blob = json.dumps(df.to_json_dict())
    restored = DeformedF.from_json_dict(json.loads(blob))
    assert restored == df


def test_model_round_trip_with_deformed_profile():
    df = solve_a(PerturbationF0(((0.03, 0.01),)), 2.5, CTX3)
    model = build_model(standard_family(3), 3, f=df)
    blob = json.dumps(model.to_json_dict())
    restored = load_model_lenient(json.loads(blob))
    assert check_model(restored) == ()
    assert restored.f == df
    assert restored.a == model.a

    tampered = json.loads(blob)
    tampered["f"]["p"] = 5
    assert any("trace parameter" in msg for msg in check_model(load_model_lenient(tampered)))


def test_model_rejects_profile_with_wrong_gap():
    df = solve_a(ZERO, 3.5, CTX3)  # gap 7, but the r = 3 system has k = 5
    with pytest.raises(ValueError, match="gap"):
        build_model(standard_family(3), 3, f=df)


# ---------------------------------------------------------------------------
# the deformed profile drives the full eigen-machinery


def test_deformed_model_eigen_machinery():
    fstar = PerturbationF0(((0.03, 0.01),))
    df = solve_a(fstar, 2.5, CTX3)
    model = build_model(standard_family(3), 3, f=df)

    y_plus, y_minus = w_basis(model)
    assert qt_eigen_residual(model, y_plus, model.system.E_of(1)) < 1e-8
    assert qt_eigen_residual(model, y_minus, model.system.E_of(2)) < 1e-8

    assert ct_eigencheck_residual(model) < 1e-7

    basis = ct_eigenbasis(model)
    # the pairing table keeps its anti-diagonal shape; its magnitude is the
    # Wronskian of the normalized scalar pair (k itself for the power law)
    scale = wronskian(y_plus, y_minus, 1.0) / model.k
    expected = expected_omega_matrix(model) * scale
    observed = omega_matrix(model, basis, t=1.4)
    assert np.allclose(observed, expected, atol=1e-7)

    exact_ok, worst = verify_ct_omega_scaling(model, basis)
    assert exact_ok
    assert worst < 1e-7


def test_ct_eigenbasis_integrates_one_transfer_matrix(monkeypatch):
    # a whole deformed certificate integrates T once, through whichever
    # module's binding, and solves for its eigenpair once: profile-transfer,
    # its positivity grid and the eigenbasis all read the profile's own
    df = solve_a(PerturbationF0(((0.03, 0.01),)), 2.5, CTX3)
    model = build_model(standard_family(3), 3, f=df)
    real_matrix, real_init = funcspace.transfer_matrix_T, OdeFn.__init__
    matrices, solutions = [], []

    def counting_matrix(profile, q, **kwargs):
        matrices.append(q)
        return real_matrix(profile, q, **kwargs)

    def counting_init(self, *args, **kwargs):
        solutions.append(args)
        real_init(self, *args, **kwargs)

    for module in (funcspace, deform):
        monkeypatch.setattr(module, "transfer_matrix_T", counting_matrix)
    monkeypatch.setattr(OdeFn, "__init__", counting_init)
    certificate = build_certificate(model, samples=2, seed=0)
    assert (len(matrices), len(solutions)) == (1, 2)
    transfer = next(s for s in certificate["sections"] if s["name"] == "profile-transfer")
    assert transfer["pass"] and transfer["details"]["eigenfunctions_positive"]
    assert certificate["overall_pass"]


def test_deformed_certificate_integrates_five_periods(monkeypatch):
    # a deformed (7,3) certificate integrates T once, y+ and y- over one
    # period each and the two forced solutions over their sources' periods;
    # every later read, at any t, comes from those periods
    system = standard_family(4)
    df = solve_a(PerturbationF0(((0.02, 0.01),)), system.k / 2.0, CTX3)
    model = build_model(system, 3, f=df)
    real, spans = funcspace.solve_ivp, []

    def counted(fun, t_span, *args, **kwargs):
        spans.append(t_span)
        return real(fun, t_span, *args, **kwargs)

    def kept_basis(model):
        bases.append(ct_eigenbasis(model))
        return bases[-1]

    bases = []
    monkeypatch.setattr(funcspace, "solve_ivp", counted)
    monkeypatch.setattr(cli, "ct_eigenbasis", kept_basis)
    certificate = build_certificate(model, samples=5, seed=0)
    log_q = math.log(Q3)
    # T, then y+ down and y- up, then z+ and z- on their sources' periods
    assert spans == [(0.0, -log_q), (0.0, -log_q), (0.0, log_q), (0.0, -log_q), (0.0, log_q)]
    for u in bases[0]:
        for t in (1e-3, 0.2, 1.0, 7.0, 900.0):
            u.value(t), u.deriv(t)
    assert eig_positivity(df)
    assert len(spans) == 5
    assert certificate["overall_pass"]


# ---------------------------------------------------------------------------
# property: small random perturbations stay inside the guarded regime


@settings(max_examples=6, deadline=None)
@given(
    coeffs=st.lists(
        st.tuples(
            st.floats(min_value=-0.05, max_value=0.05),
            st.floats(min_value=-0.05, max_value=0.05),
        ),
        min_size=1,
        max_size=2,
    )
)
def test_solve_a_small_perturbations(coeffs):
    fstar = PerturbationF0(tuple(coeffs))
    df = solve_a(fstar, 2.5, CTX3)
    assert 2.0 < df.a_solved < 3.0
    assert abs(trace_H(fstar, df.a_solved, CTX3) - df.target_trace) < 1e-10
    assert abs(recovered_base(df) - df.a_solved) < 1e-10
    matrix = transfer_matrix_T(df, Q3)
    assert abs(np.linalg.det(matrix) - float(CTX3.q_inv)) < 1e-8
    assert eig_positivity(df)
