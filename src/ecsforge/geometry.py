"""Numerical differential geometry on the model chart (t, s, v).

The metric is kappa(t,v) dt**2 + dt ds + <dv, dv> with the anti-diagonal
inner product on the v-block.  Its Christoffel symbols close in three
families — ds picks up kappa_t dt**2 + kappa_i dt dv_i, and the v-block
feels -(1/2) h grad_v kappa — all from analytic first derivatives of
kappa, so finite differences enter only one level up: derivatives of the
Christoffel field for the curvature tensor, and derivatives of curvature
components for the parallelism checks.  Central differences are paired
with one Richardson extrapolation step throughout, which pushes the
truncation error below the rounding floor at the module's two steps.
Each differencing level is evaluated as one stack per workup: the
curvature cores at a point and its stencil are one stacked computation,
and the Christoffel symbols at all of their stencil points one
`christoffel` call.  Stacking changes no arithmetic: every point's values
are bit for bit those of the point alone.

Norms here are Frobenius norms of coordinate component arrays.  That is a
chart convention, not an invariant — the metric's own quartic invariants
all vanish for this family — but ratios like |nabla W|/|W| measured this
way are exactly the reproducible residuals the certificates need.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .model import ModelData

__all__ = [
    "ConstantProfile",
    "MetricPatch",
    "CurvatureReport",
    "GeodesicReport",
    "curvature_at",
    "olszak_singular_values",
    "isometry_residual",
    "geodesic_trace",
]


@dataclass(frozen=True)
class ConstantProfile:
    """Harness profile f == const (0 gives the flat control, nonzero the
    locally symmetric one)."""

    constant: float

    def value(self, t: float) -> float:
        return self.constant

    def deriv(self, t: float) -> float:
        return 0.0


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _at_distinct(t: np.ndarray, *functions: Callable[[float], float]) -> list[np.ndarray]:
    """Each scalar function of t over the stack t, called once per distinct
    t: a stencil's hundreds of points share a few dozen t values."""
    if t.ndim == 0:
        # a single point, as the geodesic integrator passes: no table needed
        return [np.float64(function(float(t))) for function in functions]
    keys = t.ravel().tolist()
    distinct = set(keys)
    columns = []
    for function in functions:
        values = {s: function(s) for s in distinct}
        column = np.fromiter(map(values.__getitem__, keys), dtype=float, count=len(keys))
        columns.append(column.reshape(t.shape))
    return columns


@dataclass(frozen=True)
class MetricPatch:
    """The metric g = kappa dt**2 + dt ds + <dv, dv> with its analytic
    first derivatives.

    `profile` and `shift_rows` default to the model's f and A; overriding
    them (or multiplying kappa by the `kappa_factor` pair (phi, phi_dot))
    produces the flat, locally symmetric, higher-shift-rank, and perturbed
    control metrics used as negative controls.

    Every field takes a stack of chart points, shape (..., n), and returns
    one value per point.  h and A hold at most one +-1 per row and column,
    so their products are exact in any order; the quadratic forms v.h.v
    are one BLAS dot per point (`np.vecdot` on unit-stride rows), the same
    sum a single vector's `v @ h @ v` makes; and the profile is evaluated
    once per distinct t.  So a point's values do not depend on its stack.
    """

    model: ModelData
    profile: object | None = None
    shift_rows: tuple | None = None
    kappa_factor: tuple[Callable[[float], float], Callable[[float], float]] | None = None

    @property
    def n(self) -> int:
        return self.model.m + 2

    def _profile(self):
        return self.profile if self.profile is not None else self.model.f

    # h and A are built once per patch and shared read-only: every
    # Christoffel evaluation needs both, several times over
    @cached_property
    def h(self) -> np.ndarray:
        return _read_only(np.array(self.model.h_rows(), dtype=float))

    @cached_property
    def shift(self) -> np.ndarray:
        rows = self.shift_rows if self.shift_rows is not None else self.model.shift_rows()
        return _read_only(np.array(rows, dtype=float))

    @cached_property
    def shift_form(self) -> np.ndarray:
        """A^T h, so that h (A v) = v @ shift_form for a row vector v."""
        return _read_only(self.shift.T @ self.h)

    def kappa(self, x: np.ndarray) -> np.ndarray:
        """kappa at each point of the stack x, shape (..., n) -> (...)."""
        x = np.ascontiguousarray(x, dtype=float)
        t, v = x[..., 0], x[..., 2:]
        (value,) = _at_distinct(t, self._profile().value)
        out = value * np.vecdot(v @ self.h, v) + np.vecdot(v @ self.shift_form, v)
        if self.kappa_factor is not None:
            out = out * _at_distinct(t, self.kappa_factor[0])[0]
        return out

    def metric(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        g = np.zeros(x.shape[:-1] + (self.n, self.n))
        g[..., 0, 0] = self.kappa(x)
        g[..., 0, 1] = g[..., 1, 0] = 0.5
        g[..., 2:, 2:] = self.h
        return g

    def metric_inverse(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        inv = np.zeros(x.shape[:-1] + (self.n, self.n))
        inv[..., 0, 1] = inv[..., 1, 0] = 2.0
        inv[..., 1, 1] = -4.0 * self.kappa(x)
        inv[..., 2:, 2:] = self.h  # the anti-diagonal block squares to 1
        return inv

    def christoffel(self, x: np.ndarray) -> np.ndarray:
        """Gamma[..., a, b, c] = Gamma^a_{bc} at each point of the stack x;
        only the ds row and the v-block tt-column are populated."""
        x = np.ascontiguousarray(x, dtype=float)
        t, v = x[..., 0], x[..., 2:]
        if (t <= 0).any():
            raise ValueError("the chart requires t > 0")
        h, shift = self.h, self.shift
        f = self._profile()
        value, deriv = _at_distinct(t, f.value, f.deriv)
        # h is symmetric: hv = h v and hav = h A v
        hv, hav = v @ h, v @ self.shift_form
        sigma = np.vecdot(hv, v)
        # d_t kappa and grad_v kappa
        kappa_t = deriv * sigma
        grad = (2.0 * value)[..., None] * hv + hv @ shift + hav
        if self.kappa_factor is not None:
            phi, phi_dot = _at_distinct(t, *self.kappa_factor)
            kappa_t = phi * kappa_t + phi_dot * (value * sigma + np.vecdot(hav, v))
            grad = phi[..., None] * grad
        n = self.n
        gamma = np.zeros(x.shape[:-1] + (n, n, n))
        gamma[..., 1, 0, 0] = kappa_t
        gamma[..., 1, 0, 2:] = grad
        gamma[..., 1, 2:, 0] = grad
        gamma[..., 2:, 0, 0] = -0.5 * (grad @ h)
        return gamma


def _as_array(point) -> np.ndarray:
    t, s, v = point
    return np.concatenate(([float(t), float(s)], np.asarray(v, dtype=float)))


def _as_point(x: np.ndarray):
    return (float(x[0]), float(x[1]), np.array(x[2:], dtype=float))


def _stencil_steps(x: np.ndarray, step: float) -> tuple[list[int], np.ndarray]:
    """The directions differenced at the centres of the stack x (P, n), and
    the coarse step h of each, shape (P, n - 1): relative to t in the
    t-direction.  Nothing depends on s, so the s-derivative is structurally
    zero and skipped."""
    live = [c for c in range(x.shape[-1]) if c != 1]
    h = np.full((x.shape[0], len(live)), step)
    h[:, 0] = step * np.abs(x[:, 0])
    return live, h


def _stencil(x: np.ndarray, step: float) -> np.ndarray:
    """Each centre of the stack x (P, n) followed by its Richardson
    stencil, shape (P, 4n - 3, n): per live direction c, x + h e_c,
    x - h e_c, x + (h/2) e_c and x - (h/2) e_c."""
    live, h = _stencil_steps(x, step)
    offset = h[:, :, None] * np.eye(x.shape[-1])[live]
    centre = x[:, None, :]
    offsets = np.stack(
        [centre + offset, centre - offset, centre + offset / 2, centre - offset / 2], axis=2
    )
    return np.concatenate([centre, offsets.reshape(x.shape[0], -1, x.shape[-1])], axis=1)


def _richardson_partials(values: np.ndarray, x: np.ndarray, step: float) -> np.ndarray:
    """Coordinate derivatives at the centres of the stack x (P, n) of a
    field whose values on `_stencil(x, step)` are `values`, shape
    (P, 4n - 3, ...): jet[p, c] = d_c F at x[p], shape (P, n, ...).

    Richardson-extrapolated central differences (4 D(h/2) - D(h)) / 3.
    """
    live, h = _stencil_steps(x, step)
    h = h.reshape(h.shape + (1,) * (values.ndim - 2))
    jets = np.zeros(values.shape[:1] + (x.shape[-1],) + values.shape[2:])
    # one direction at a time, so that the temporaries stay at one direction's size
    for i, c in enumerate(live):
        plus, minus, half_plus, half_minus = (values[:, 1 + 4 * i + k] for k in range(4))
        coarse = (plus - minus) / (2 * h[:, i])
        fine = (half_plus - half_minus) / h[:, i]
        jets[:, c] = (4.0 * fine - coarse) / 3.0
    return jets


# relative t-step and absolute v-step of the two differencing levels: the
# Christoffel field into curvature, and curvature into its covariant
# derivative
CURVATURE_STEP = 1e-4
DERIVATIVE_STEP = 1e-3


def _curvature_core(patch: MetricPatch, x: np.ndarray):
    """(g^-1, Gamma, Riemann_down, Ricci, scalar, Weyl) at each point of
    the stack x (P, n), each with the stack axis first.  The Christoffel
    symbols at every point and its stencil come from one `christoffel`
    call."""
    n = patch.n
    # first: a point at t <= 0 is the chart's ValueError, not the profile's
    gammas = patch.christoffel(_stencil(x, CURVATURE_STEP))
    g = patch.metric(x)
    g_inv = patch.metric_inverse(x)
    # jet[p, c, a, b, d] = d_c Gamma^a_{bd} at x[p].  The stencil's symbols
    # and their jet are the workup's largest arrays: each is dropped as soon
    # as it is used, which keeps the peak near the symbols' own size
    jet = _richardson_partials(gammas, x, CURVATURE_STEP)
    gamma = gammas[:, 0].copy()
    del gammas
    # R^a_{bcd} = d_c G^a_{db} - d_d G^a_{cb} + G^a_{ce} G^e_{db} - G^a_{de} G^e_{cb}
    riemann_up = (
        np.einsum("...cadb->...abcd", jet)
        - np.einsum("...dacb->...abcd", jet)
        + np.einsum("...ace,...edb->...abcd", gamma, gamma)
        - np.einsum("...ade,...ecb->...abcd", gamma, gamma)
    )
    del jet
    riemann = np.einsum("...ae,...ebcd->...abcd", g, riemann_up)
    ricci = np.einsum("...abad->...bd", riemann_up)
    scalar = np.einsum("...bd,...bd->...", g_inv, ricci)
    factor = 1.0 / (n - 2)
    weyl = (
        riemann
        - factor
        * (
            np.einsum("...ac,...bd->...abcd", g, ricci)
            - np.einsum("...ad,...bc->...abcd", g, ricci)
            + np.einsum("...bd,...ac->...abcd", g, ricci)
            - np.einsum("...bc,...ad->...abcd", g, ricci)
        )
        + (scalar / ((n - 1) * (n - 2)))[:, None, None, None, None]
        * (np.einsum("...ac,...bd->...abcd", g, g) - np.einsum("...ad,...bc->...abcd", g, g))
    )
    return g_inv, gamma, riemann, ricci, scalar, weyl


def _symmetry_residuals(g_inv, riemann, weyl) -> dict:
    scale = max(float(np.max(np.abs(riemann))), 1e-300)
    first_bianchi = riemann + np.einsum("acdb->abcd", riemann) + np.einsum("adbc->abcd", riemann)
    residuals = {
        "antisymmetry_first_pair": float(
            np.max(np.abs(riemann + np.einsum("bacd->abcd", riemann)))
        )
        / scale,
        "antisymmetry_second_pair": float(
            np.max(np.abs(riemann + np.einsum("abdc->abcd", riemann)))
        )
        / scale,
        "pair_interchange": float(np.max(np.abs(riemann - np.einsum("cdab->abcd", riemann))))
        / scale,
        "first_bianchi": float(np.max(np.abs(first_bianchi))) / scale,
    }
    weyl_scale = max(float(np.max(np.abs(weyl))), 1e-300)
    residuals["weyl_trace_free"] = float(
        np.max(np.abs(np.einsum("ac,abcd->bd", g_inv, weyl)))
    ) / weyl_scale
    return residuals


@dataclass
class CurvatureReport:
    point: tuple
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    weyl: np.ndarray
    norm_riemann: float
    norm_weyl: float
    norm_nabla_weyl: float
    norm_nabla_riemann: float
    olszak_dimension: int
    olszak_singulars: tuple[float, ...]
    symmetry_residuals: dict


def curvature_at(patch: MetricPatch, point) -> CurvatureReport:
    """Full curvature workup at one point: tensors, norms, parallelism
    residuals, and the null-distribution dimension.

    Both differencing levels run as one stack: the curvature core at the
    point and its 4n - 4 stencil neighbours is one `_curvature_core` call,
    and so one `christoffel` call on (4n - 3)**2 points.
    """
    x = _as_array(point)
    if x[0] <= 0:
        raise ValueError("the chart requires t > 0")
    g_inv, gamma, riemann, ricci, scalar, weyl = _curvature_core(
        patch, _stencil(x[None], DERIVATIVE_STEP)[0]
    )
    nabla_w, nabla_r = _covariant_norms(x, gamma[0], (weyl, riemann))
    g_inv, riemann, ricci, scalar, weyl = g_inv[0], riemann[0], ricci[0], scalar[0], weyl[0]
    dim, singulars = olszak_singular_values(weyl)
    return CurvatureReport(
        point=point,
        riemann=riemann,
        ricci=ricci,
        scalar=float(scalar),
        weyl=weyl,
        norm_riemann=float(np.linalg.norm(riemann)),
        norm_weyl=float(np.linalg.norm(weyl)),
        norm_nabla_weyl=nabla_w,
        norm_nabla_riemann=nabla_r,
        olszak_dimension=dim,
        olszak_singulars=singulars,
        symmetry_residuals=_symmetry_residuals(g_inv, riemann, weyl),
    )


def _covariant_norms(
    x: np.ndarray, gamma: np.ndarray, fields: Sequence[np.ndarray]
) -> list[float]:
    """Frobenius norms of the covariant derivatives of tensor fields given
    on `_stencil(x, DERIVATIVE_STEP)`, shape (4n - 3, n, n, n, n) each,
    with Gamma at x.

    The partial-derivative part is `_richardson_partials`; the connection
    corrections close the covariant derivative.  No Christoffel symbol
    carries a lower s index, so the s-slot of the derivative is
    identically zero.
    """
    norms = []
    for field in fields:
        partial = _richardson_partials(field[None], x[None], DERIVATIVE_STEP)[0]
        tensor = field[0]
        nabla = (
            partial
            - np.einsum("fea,fbcd->eabcd", gamma, tensor)
            - np.einsum("feb,afcd->eabcd", gamma, tensor)
            - np.einsum("fec,abfd->eabcd", gamma, tensor)
            - np.einsum("fed,abcf->eabcd", gamma, tensor)
        )
        norms.append(float(np.linalg.norm(nabla)))
    return norms


# singular values below this fraction of the largest count as zero
OLSZAK_THRESHOLD = 1e-7

# dense-output points at which geodesic_trace measures t's affinity
GEODESIC_SAMPLES = 201


def olszak_singular_values(weyl: np.ndarray) -> tuple[int, tuple[float, ...]]:
    """Dimension of {xi : xi wedge W(e_a, e_b, ., .) = 0 for all a, b},
    with the singular values of the defining linear system.

    Each fixed (a, b) makes the last two slots of W a 2-form omega; the
    wedge condition reads xi_e omega_fg + xi_f omega_ge + xi_g omega_ef = 0
    over triples e < f < g.  Kernel vectors are the 1-forms spanning the
    null parallel distribution (after raising).  A numerically zero W means
    every xi solves; the full dimension is returned and shows up in the
    certificate as the degenerate-control flag.
    """
    n = weyl.shape[0]
    rows = []
    for a in range(n):
        for b in range(a + 1, n):
            two_form = weyl[a, b]
            if np.max(np.abs(two_form)) == 0.0:
                continue
            for e in range(n):
                for f in range(e + 1, n):
                    for g in range(f + 1, n):
                        row = np.zeros(n)
                        row[e] += two_form[f, g]
                        row[f] += two_form[g, e]
                        row[g] += two_form[e, f]
                        rows.append(row)
    if not rows:
        return n, ()
    matrix = np.array(rows)
    singulars = np.linalg.svd(matrix, compute_uv=False)
    top = singulars[0]
    if top < 1e-13:
        return n, tuple(float(s) for s in singulars[:n])
    kernel = int(np.sum(singulars < OLSZAK_THRESHOLD * top)) + max(0, n - len(singulars))
    return kernel, tuple(float(s) for s in singulars[:n])


def isometry_residual(
    patch: MetricPatch, mapping: Callable, point, jacobian: Callable
) -> float:
    """Relative defect |phi* g - g| / |g| of a chart map at the point.

    `jacobian` (a callable point -> (n, n) array of d(image_a)/d(x_c))
    supplies the map's derivative in closed form: differencing the map
    would lose about eps * |phi(x)| / step, and lattice elements have
    huge image components.  The pullback contracts the Jacobian against
    the metric at the image point.
    """
    x = _as_array(point)
    n = patch.n
    jac = np.asarray(jacobian(_as_point(x)), dtype=float)
    if jac.shape != (n, n):
        raise ValueError(f"jacobian must return an ({n}, {n}) array")
    image = _as_array(mapping(_as_point(x)))
    if image[0] <= 0:
        raise ValueError("the image leaves the chart (t <= 0)")
    pulled = jac.T @ patch.metric(image) @ jac
    g = patch.metric(x)
    return float(np.linalg.norm(pulled - g) / np.linalg.norm(g))


@dataclass
class GeodesicReport:
    """Outcome of one geodesic integration.

    `affinity_deviation` is the largest |t(tau) - t0 - dt0*tau| over the
    dense output: since no Christoffel symbol has an upper t index, t must
    be an affine function of the parameter, and the deviation measures pure
    integrator error.  `witness_tau`, when set, is the finite parameter at
    which t crossed the cutoff — the incompleteness certificate.
    """

    affinity_deviation: float
    witness_tau: float | None
    reached_cutoff: bool
    final_point: tuple


def geodesic_trace(
    patch: MetricPatch,
    point,
    velocity: Sequence[float],
    affine_span: float = 1.0,
    cutoff: float = 1e-3,
) -> GeodesicReport:
    x0 = _as_array(point)
    if x0[0] <= 0:
        raise ValueError("the chart requires t > 0")
    v0 = np.asarray(velocity, dtype=float)
    n = patch.n
    # Trial stages of the integrator may sample past the stopping surface
    # before the terminal event clips the step; evaluate those samples on
    # the clamped chart so the right-hand side stays defined.  Everything
    # reported lives at t >= cutoff.
    floor = 0.25 * cutoff

    def rhs(_tau, state):
        position, speed = state[:n].copy(), state[n:]
        if position[0] < floor:
            position[0] = floor
        gamma = patch.christoffel(position)
        return np.concatenate([speed, -np.einsum("abc,b,c->a", gamma, speed, speed)])

    def hit_cutoff(_tau, state):
        return state[0] - cutoff

    hit_cutoff.terminal = True
    hit_cutoff.direction = -1.0

    solution = solve_ivp(
        rhs,
        (0.0, affine_span),
        np.concatenate([x0, v0]),
        method="DOP853",
        rtol=1e-10,
        atol=1e-12,
        dense_output=True,
        events=hit_cutoff,
    )
    end = solution.t[-1]
    taus = np.linspace(0.0, end, GEODESIC_SAMPLES)
    states = solution.sol(taus)
    deviation = float(np.max(np.abs(states[0] - (x0[0] + v0[0] * taus))))
    witness = None
    if solution.t_events[0].size:
        witness = float(solution.t_events[0][0])
    return GeodesicReport(
        affinity_deviation=deviation,
        witness_tau=witness,
        reached_cutoff=witness is not None,
        final_point=_as_point(states[:n, -1]),
    )
