"""Curvature, parallelism, isometry, and geodesic checks on the chart metric.

The analytic skeleton is small enough to hand-verify: the only Christoffel
symbols are Gamma^s_tt = d_t kappa, Gamma^s_{t v_i} = d_{v_i} kappa, and
Gamma^{v}_tt = -(1/2) h grad_v kappa, so the Ricci tensor collapses onto
-m f(t) dt**2 and the Weyl tensor onto the rank-one shift block.  Those
closed forms are the oracles here; the finite-difference engine has to
reproduce them without being told.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecsforge import geometry
from ecsforge.exact import QFieldContext
from ecsforge.funcspace import ct_eigenbasis
from ecsforge.geometry import (
    ConstantProfile,
    MetricPatch,
    curvature_at,
    geodesic_trace,
    isometry_residual,
)
from ecsforge.cli import DEFAULT_TOLERANCES
from ecsforge.deform import PerturbationF0, solve_a
from ecsforge.model import build_model, curvature_identities, kappa
from ecsforge.quotient import (
    HElement,
    act,
    act_jacobian,
    build_lagrangian,
    build_lattice,
    lattice_element,
    make_gamma_hat,
    pi_map,
)
from ecsforge.spectral import standard_family

MODEL = build_model(standard_family(3), p=3)
PATCH = MetricPatch(MODEL)
Q = float(QFieldContext(3).q)
POINT = (1.3, 0.7, np.array([0.4, -0.2, 0.9]))

MODEL7 = build_model(standard_family(4), p=3)
PATCH7 = MetricPatch(MODEL7)
POINT7 = (1.1, 0.3, np.array([0.2, -0.5, 0.7, 0.1, -0.3]))


def zero_rows(model):
    return tuple(tuple(0 for _ in range(model.m)) for _ in range(model.m))


def flat_patch(model):
    return MetricPatch(model, profile=ConstantProfile(0.0), shift_rows=zero_rows(model))


def perturbed_patch(model, slope):
    return MetricPatch(
        model,
        kappa_factor=(lambda t, s=slope: 1.0 + s * t, lambda t, s=slope: s),
    )


# -- metric and Christoffel structure ----------------------------------------


def test_metric_layout():
    t, s, v = POINT
    g = PATCH.metric(np.concatenate([[t, s], v]))
    assert g[0, 0] == pytest.approx(kappa(MODEL, t, v), rel=1e-15)
    assert g[0, 1] == 0.5 and g[1, 0] == 0.5
    assert np.array_equal(g[2:, 2:], np.array(MODEL.h_rows(), dtype=float))
    assert g[1, 1] == 0.0
    assert np.all(g[1, 2:] == 0.0) and np.all(g[0, 2:] == 0.0)


def test_metric_inverse_exact():
    x = np.concatenate([[0.8, -0.3], [1.0, 2.0, -0.5]])
    g = PATCH.metric(x)
    inv = PATCH.metric_inverse(x)
    assert np.max(np.abs(g @ inv - np.eye(5))) < 1e-14


@given(
    t=st.floats(0.2, 4.0),
    coords=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
)
@settings(max_examples=25, deadline=None)
def test_kappa_matches_model(t, coords):
    v = np.array(coords)
    value = float(PATCH.kappa(np.concatenate([[t, 0.0], v])))
    assert value == pytest.approx(kappa(MODEL, t, v), rel=1e-12, abs=1e-12)


def test_christoffel_closed_form():
    t, _, v = POINT
    x = np.concatenate([[t, 0.0], v])
    gamma = PATCH.christoffel(x)
    h = np.array(MODEL.h_rows(), dtype=float)
    shift = np.array(MODEL.shift_rows(), dtype=float)
    sigma = v @ h @ v
    grad = 2.0 * MODEL.f.value(t) * (h @ v) + 2.0 * MODEL.eps * v[-1] * np.eye(3)[-1]
    assert gamma[1, 0, 0] == pytest.approx(MODEL.f.deriv(t) * sigma, rel=1e-14)
    assert np.allclose(gamma[1, 0, 2:], grad, rtol=1e-14)
    assert np.allclose(gamma[1, 2:, 0], grad, rtol=1e-14)
    assert np.allclose(
        gamma[2:, 0, 0], -(MODEL.f.value(t) * v + shift @ v), rtol=1e-14
    )
    # nothing else is populated
    mask = np.ones_like(gamma, dtype=bool)
    mask[1, 0, :] = mask[1, :, 0] = mask[2:, 0, 0] = False
    assert np.all(gamma[mask] == 0.0)


def test_christoffel_rejects_bad_t():
    with pytest.raises(ValueError):
        PATCH.christoffel(np.array([-1.0, 0.0, 0.1, 0.2, 0.3]))


# -- curvature tensors ---------------------------------------------------------


def test_ricci_is_rank_one_in_dt():
    rep = curvature_at(PATCH, POINT)
    expected = -MODEL.m * MODEL.f.value(POINT[0])
    assert rep.ricci[0, 0] == pytest.approx(expected, rel=1e-9)
    off = rep.ricci.copy()
    off[0, 0] = 0.0
    assert np.max(np.abs(off)) < 1e-11
    assert abs(rep.scalar) < 1e-12


def test_riemann_frozen_entries():
    rep = curvature_at(PATCH, POINT)
    n = MODEL.n
    f_val = MODEL.f.value(POINT[0])
    assert rep.riemann[2, 0, n - 1, 0] == pytest.approx(-MODEL.eps * f_val, rel=1e-9)
    assert rep.riemann[n - 1, 0, n - 1, 0] == pytest.approx(-MODEL.eps, rel=1e-9)


def test_weyl_is_shift_block():
    rep = curvature_at(PATCH, POINT)
    n = MODEL.n
    assert rep.weyl[n - 1, 0, n - 1, 0] == pytest.approx(-MODEL.eps, rel=1e-9)
    # the four index placements of the single block entry
    assert rep.norm_weyl == pytest.approx(2.0, rel=1e-9)
    assert rep.norm_weyl > 0


def test_symmetry_residuals():
    rep = curvature_at(PATCH, POINT)
    for name, value in rep.symmetry_residuals.items():
        assert value < 1e-10, name


def test_symmetry_residuals_larger_model():
    rep = curvature_at(PATCH7, POINT7)
    for name, value in rep.symmetry_residuals.items():
        assert value < 1e-10, name
    assert rep.scalar == pytest.approx(0.0, abs=1e-11)


def test_flat_control_kills_curvature():
    rep = curvature_at(flat_patch(MODEL), POINT)
    assert rep.norm_riemann < 1e-9
    assert rep.norm_weyl < 1e-9


# -- parallelism ----------------------------------------------------------------


def test_weyl_parallel_on_family():
    rng = np.random.default_rng(11)
    for _ in range(5):
        t = float(np.exp(rng.uniform(-np.log(Q), np.log(Q))))
        v = rng.uniform(-1.0, 1.0, MODEL.m)
        rep = curvature_at(PATCH, (t, 0.0, v))
        assert rep.norm_nabla_weyl / rep.norm_weyl < 1e-5


def test_weyl_parallel_larger_model():
    rep = curvature_at(PATCH7, POINT7)
    assert rep.norm_nabla_weyl / rep.norm_weyl < 1e-5


def test_riemann_not_parallel():
    for patch, point in ((PATCH, POINT), (PATCH7, POINT7)):
        rep = curvature_at(patch, point)
        assert rep.norm_nabla_riemann / rep.norm_riemann > 1e-3


@pytest.mark.parametrize(
    "patch, point, points",
    [(PATCH, POINT, 289), (PATCH7, POINT7, 625)],
    ids=["n5", "n7"],
)
def test_curvature_pass_christoffel_count(monkeypatch, patch, point, points):
    # one curvature core needs Christoffel symbols at 4n - 3 points (the
    # point and two Richardson pairs in each of n - 1 directions), and one
    # curvature workup needs 4n - 3 cores: the base and the same offsets one
    # level up.  Both levels are stacked, so the whole workup is one call.
    batches = []
    original = MetricPatch.christoffel

    def counted(self, x):
        batches.append(np.asarray(x).reshape(-1, self.n).shape[0])
        return original(self, x)

    monkeypatch.setattr(MetricPatch, "christoffel", counted)
    curvature_at(patch, point)
    assert sum(batches) == (4 * patch.n - 3) ** 2 == points
    assert len(batches) == 1


def _stack_patches():
    system = standard_family(3)
    profile = solve_a(PerturbationF0(((0.02, 0.01),)), system.k / 2.0, QFieldContext(3))
    deformed = build_model(system, p=3, f=profile)
    return {
        "power-law": PATCH,
        "deformed": MetricPatch(deformed),
        "flat": flat_patch(MODEL),
        "symmetric": MetricPatch(MODEL, profile=ConstantProfile(2.0), shift_rows=zero_rows(MODEL)),
        "kappa-factor": perturbed_patch(MODEL, 0.02),
    }


STACK_PATCHES = _stack_patches()


def _stack(rows=7):
    # a few shared t values, as in a stencil, and one repeated point
    rng = np.random.default_rng(3)
    t = rng.choice([0.4, 1.3, 2.9], size=rows)
    x = np.column_stack([t, rng.uniform(-1, 1, rows), rng.uniform(-1.5, 1.5, (rows, MODEL.m))])
    x[-1] = x[0]
    return x


@pytest.mark.parametrize("name", list(STACK_PATCHES))
def test_christoffel_stack_matches_single_points_bitwise(name):
    patch = STACK_PATCHES[name]
    x = _stack()
    stacked = patch.christoffel(x)
    assert stacked.shape == (len(x), patch.n, patch.n, patch.n)
    assert np.array_equal(stacked, np.stack([patch.christoffel(row) for row in x]))
    assert np.array_equal(patch.christoffel(x[:, None])[:, 0], stacked)
    assert np.array_equal(patch.kappa(x), np.stack([patch.kappa(row) for row in x]))
    assert np.array_equal(patch.metric(x), np.stack([patch.metric(row) for row in x]))


@pytest.mark.parametrize("name", list(STACK_PATCHES))
def test_curvature_core_stack_matches_single_points_bitwise(name):
    patch = STACK_PATCHES[name]
    x = _stack(5)
    stacked = geometry._curvature_core(patch, x)
    singles = [geometry._curvature_core(patch, row[None]) for row in x]
    for k, field in enumerate(stacked):
        assert np.array_equal(field, np.concatenate([single[k] for single in singles])), k


@pytest.mark.parametrize("name", list(STACK_PATCHES))
def test_christoffel_stack_rejects_any_bad_t(name):
    patch = STACK_PATCHES[name]
    x = _stack()
    for t in (0.0, -0.5):
        bad = x.copy()
        bad[4, 0] = t
        with pytest.raises(ValueError):
            patch.christoffel(bad)
        with pytest.raises(ValueError):
            geometry._curvature_core(patch, bad)


def test_patch_matrices_are_built_once_and_read_only():
    patch = MetricPatch(MODEL)
    assert patch.h is patch.h
    assert patch.shift is patch.shift
    assert np.array_equal(patch.h, np.array(MODEL.h_rows(), dtype=float))
    assert np.array_equal(patch.shift, np.array(MODEL.shift_rows(), dtype=float))
    with pytest.raises(ValueError):
        patch.h[0, 0] = 1.0
    with pytest.raises(ValueError):
        patch.shift[0, 0] = 1.0


def test_residual_stable_under_step_halving(monkeypatch):
    a = curvature_at(PATCH, POINT)
    monkeypatch.setattr(geometry, "DERIVATIVE_STEP", geometry.DERIVATIVE_STEP / 2)
    b = curvature_at(PATCH, POINT)
    assert a.norm_nabla_weyl != b.norm_nabla_weyl
    assert a.norm_nabla_weyl / a.norm_weyl < 1e-5
    assert b.norm_nabla_weyl / b.norm_weyl < 1e-5


def test_symmetric_control():
    patch = MetricPatch(MODEL, profile=ConstantProfile(2.0), shift_rows=zero_rows(MODEL))
    rep = curvature_at(patch, POINT)
    assert rep.norm_riemann > 1.0
    assert rep.norm_weyl < 1e-12          # pure-trace curvature: conformally flat
    assert rep.norm_nabla_riemann < 1e-9  # locally symmetric


def test_perturbed_metric_is_flagged():
    # kappa -> kappa * (1 + s t) rescales the Weyl block by the factor, so
    # |nabla W|/|W| must equal s/(1 + s t); the engine has to land on that
    # law, which also pins it strictly below s itself.
    t = POINT[0]
    for slope in (0.01, 0.02):
        rep = curvature_at(perturbed_patch(MODEL, slope), POINT)
        res = rep.norm_nabla_weyl / rep.norm_weyl
        assert res == pytest.approx(slope / (1.0 + slope * t), rel=1e-3)
        assert res > 5e-3
    assert res > 1e-2  # res is the 2% tilt's


# -- the null parallel distribution ---------------------------------------------


def test_olszak_dimension_is_two():
    assert curvature_at(PATCH, POINT).olszak_dimension == 2
    assert curvature_at(PATCH7, POINT7).olszak_dimension == 2


def test_olszak_gap_is_clean():
    rep = curvature_at(PATCH, POINT)
    s = rep.olszak_singulars
    assert s[2] > 0.5          # three solid directions in the constraint rows
    assert s[3] < 1e-10 * s[0]  # then nothing
    assert rep.olszak_dimension == 2


def test_rank_two_shift_shrinks_distribution():
    m = MODEL7.m
    rows = [[0] * m for _ in range(m)]
    rows[0][m - 1] = 1
    rows[1][m - 2] = 1
    patch = MetricPatch(MODEL7, shift_rows=tuple(tuple(r) for r in rows))
    assert curvature_at(patch, POINT7).olszak_dimension == 1


@pytest.mark.parametrize("n, p", [(9, 5), (11, 4), (13, 3)], ids=["9-5", "11-4", "13-3"])
def test_finite_differences_agree_with_the_exact_curvature_statements(n, p):
    # certify decides curvature by `curvature_identities` above n = 7; one
    # seeded point per model ties those statements to the tensor that
    # finite differences measure.  W's only block is -S/2, and its four
    # index placements give |W| = |S| in the chart's Frobenius convention.
    model = build_model(standard_family((n + 1) // 2), p=p)
    assert all(curvature_identities(model).values())
    h = np.array(model.h_rows(), dtype=float)
    shift = np.array(model.shift_rows(), dtype=float)
    norm_s = float(np.linalg.norm(h @ shift + shift.T @ h))
    rng = np.random.default_rng(n)
    point = (
        float(rng.uniform(0.5, 2.2)),
        float(rng.uniform(-1.0, 1.0)),
        rng.uniform(-1.0, 1.0, n - 2),
    )
    report = curvature_at(MetricPatch(model), point)
    assert report.norm_weyl == pytest.approx(norm_s, rel=1e-8)
    assert report.norm_nabla_weyl / report.norm_weyl <= DEFAULT_TOLERANCES["curvature_nabla_weyl"]
    assert (
        report.norm_nabla_riemann / report.norm_riemann
        >= DEFAULT_TOLERANCES["curvature_nabla_riemann_min"]
    )
    assert report.olszak_dimension == 2


def test_degenerate_weyl_flags_full_dimension():
    assert curvature_at(flat_patch(MODEL), POINT).olszak_dimension == MODEL.n


# -- isometries -------------------------------------------------------------------


def test_scaling_generator_is_isometry():
    gh = make_gamma_hat(MODEL)
    rng = np.random.default_rng(5)
    for _ in range(4):
        pt = (rng.uniform(0.5, 2.0), rng.uniform(-1, 1), rng.uniform(-1, 1, MODEL.m))
        residual = isometry_residual(
            PATCH, lambda x: act(gh, x), pt, jacobian=lambda x: act_jacobian(gh, x)
        )
        assert residual < 1e-6


def test_function_space_element_is_isometry():
    basis = ct_eigenbasis(MODEL)
    element = HElement(MODEL, 0.0, basis[0])
    residual = isometry_residual(
        PATCH, lambda x: act(element, x), POINT, jacobian=lambda x: act_jacobian(element, x)
    )
    assert residual < 1e-6


def test_closed_form_jacobian_holds_at_scale():
    # coefficients ~2 q**9 put the s-image near 1e8: differencing would lose
    # eps * |s| / step there, the closed-form Jacobian does not
    basis = ct_eigenbasis(MODEL)
    lagrangian = build_lagrangian(MODEL, basis)
    gh = make_gamma_hat(MODEL)
    sigma = build_lattice(MODEL, pi_map(MODEL, gh, lagrangian))
    element = lattice_element(sigma, (2, -1, 0, 2), lagrangian)
    pt = (0.9, 0.2, np.array([0.3, -0.6, 0.8]))
    exact = isometry_residual(
        PATCH,
        lambda x: act(element, x),
        pt,
        jacobian=lambda x: act_jacobian(element, x),
    )
    assert exact < 1e-7


def test_jacobian_shape_is_checked():
    with pytest.raises(ValueError):
        isometry_residual(PATCH, lambda x: x, POINT, jacobian=lambda x: np.eye(2))


def test_broken_map_is_flagged():
    gh = make_gamma_hat(MODEL)

    def broken(pt):
        t, s, v = act(gh, pt)
        return (t, 1.01 * s, v)

    def broken_jacobian(pt):
        jac = act_jacobian(gh, pt)
        jac[1] *= 1.01
        return jac

    assert isometry_residual(PATCH, broken, POINT, jacobian=broken_jacobian) > 1e-3


def test_isometry_rejects_chart_exit():
    def escape(pt):
        return (pt[0] - 2.0, pt[1], pt[2])

    with pytest.raises(ValueError):
        isometry_residual(
            PATCH, escape, (1.0, 0.0, np.zeros(MODEL.m)), jacobian=lambda x: np.eye(MODEL.n)
        )


# -- geodesics ----------------------------------------------------------------------


def test_incompleteness_witness():
    start = (1.0, 0.0, np.zeros(MODEL.m))
    velocity = np.concatenate([[-1.0, 0.3], np.zeros(MODEL.m)])
    rep = geodesic_trace(PATCH, start, velocity, affine_span=1.5)
    assert rep.reached_cutoff
    assert rep.witness_tau == pytest.approx(1.0 - 1e-3, abs=1e-9)
    assert rep.affinity_deviation < 1e-6
    assert rep.final_point[0] == pytest.approx(1e-3, rel=1e-6)


def test_vertical_geodesic_stays_level():
    velocity = np.concatenate([[0.0, 1.0], np.zeros(MODEL.m)])
    rep = geodesic_trace(PATCH, POINT, velocity, affine_span=1.0)
    assert rep.affinity_deviation == 0.0
    assert rep.final_point[0] == POINT[0]
    assert rep.witness_tau is None


def test_generic_geodesic_t_affine():
    velocity = np.concatenate([[1.0, -0.2], [0.1, 0.0, -0.3]])
    rep = geodesic_trace(PATCH, POINT, velocity, affine_span=1.0)
    assert rep.affinity_deviation < 1e-6
    assert rep.final_point[0] == pytest.approx(POINT[0] + 1.0, rel=1e-9)
    assert not rep.reached_cutoff


def test_geodesic_rejects_bad_start():
    with pytest.raises(ValueError):
        geodesic_trace(PATCH, (-1.0, 0.0, np.zeros(MODEL.m)), np.ones(MODEL.n))


# -- curvature report ------------------------------------------------------------------


def test_curvature_report_fields():
    rep = curvature_at(PATCH, POINT)
    assert rep.olszak_dimension == 2
    assert rep.norm_weyl == pytest.approx(2.0, rel=1e-9)
    assert set(rep.symmetry_residuals) == {
        "antisymmetry_first_pair",
        "antisymmetry_second_pair",
        "pair_interchange",
        "first_bianchi",
        "weyl_trace_free",
    }
    assert rep.point[:2] == POINT[:2]
    assert list(rep.point[2]) == [0.4, -0.2, 0.9]
