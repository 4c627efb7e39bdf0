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


@dataclass(frozen=True)
class MetricPatch:
    """The metric g = kappa dt**2 + dt ds + <dv, dv> with its analytic
    first derivatives.

    `profile` and `shift_rows` default to the model's f and A; overriding
    them (or multiplying kappa by the `kappa_factor` pair (phi, phi_dot))
    produces the flat, locally symmetric, higher-shift-rank, and perturbed
    control metrics used as negative controls.
    """

    model: ModelData
    profile: object | None = None
    shift_rows: tuple | None = None
    kappa_factor: tuple[Callable[[float], float], Callable[[float], float]] | None = None

    @property
    def m(self) -> int:
        return self.model.m

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

    def kappa(self, t: float, v: np.ndarray) -> float:
        h = self.h
        base = self._profile().value(t) * float(v @ h @ v) + float((self.shift @ v) @ h @ v)
        if self.kappa_factor is not None:
            base *= self.kappa_factor[0](t)
        return base

    def kappa_t(self, t: float, v: np.ndarray) -> float:
        h = self.h
        sigma = float(v @ h @ v)
        shift_part = float((self.shift @ v) @ h @ v)
        f = self._profile()
        out = f.deriv(t) * sigma
        if self.kappa_factor is not None:
            phi, phi_dot = self.kappa_factor
            out = phi(t) * out + phi_dot(t) * (f.value(t) * sigma + shift_part)
        return out

    def kappa_grad(self, t: float, v: np.ndarray) -> np.ndarray:
        h, shift = self.h, self.shift
        grad = 2.0 * self._profile().value(t) * (h @ v)
        grad = grad + shift.T @ (h @ v) + h @ (shift @ v)
        if self.kappa_factor is not None:
            grad = self.kappa_factor[0](t) * grad
        return grad

    def metric(self, x: np.ndarray) -> np.ndarray:
        t, v = float(x[0]), np.asarray(x[2:], dtype=float)
        g = np.zeros((self.n, self.n))
        g[0, 0] = self.kappa(t, v)
        g[0, 1] = g[1, 0] = 0.5
        g[2:, 2:] = self.h
        return g

    def metric_inverse(self, x: np.ndarray) -> np.ndarray:
        t, v = float(x[0]), np.asarray(x[2:], dtype=float)
        inv = np.zeros((self.n, self.n))
        inv[0, 1] = inv[1, 0] = 2.0
        inv[1, 1] = -4.0 * self.kappa(t, v)
        inv[2:, 2:] = self.h  # the anti-diagonal block squares to 1
        return inv

    def christoffel(self, x: np.ndarray) -> np.ndarray:
        """Gamma[a, b, c] = Gamma^a_{bc}; only the ds row and the v-block
        tt-column are populated."""
        t, v = float(x[0]), np.asarray(x[2:], dtype=float)
        if t <= 0:
            raise ValueError("the chart requires t > 0")
        gamma = np.zeros((self.n, self.n, self.n))
        grad = self.kappa_grad(t, v)
        gamma[1, 0, 0] = self.kappa_t(t, v)
        gamma[1, 0, 2:] = grad
        gamma[1, 2:, 0] = grad
        gamma[2:, 0, 0] = -0.5 * (self.h @ grad)
        return gamma


def _as_array(point) -> np.ndarray:
    t, s, v = point
    return np.concatenate(([float(t), float(s)], np.asarray(v, dtype=float)))


def _as_point(x: np.ndarray):
    return (float(x[0]), float(x[1]), np.array(x[2:], dtype=float))


def _richardson_partials(
    evaluate: Callable[[np.ndarray], Sequence[np.ndarray]],
    x: np.ndarray,
    step: float,
    base: Sequence[np.ndarray],
) -> list[np.ndarray]:
    """Coordinate derivatives of the arrays `evaluate` returns, one jet per
    array with jet[c] = d_c F, matching the arrays `base` in shape.

    Richardson-extrapolated central differences (4 D(h/2) - D(h)) / 3, with
    the t-step relative to t.  Nothing depends on s, so the s-derivative is
    structurally zero and skipped.  Only one pair of offset evaluations is
    alive at a time.
    """
    n = x.size
    jets = [np.zeros((n,) + array.shape) for array in base]

    def difference(offset: np.ndarray, width: float) -> list[np.ndarray]:
        plus, minus = evaluate(x + offset), evaluate(x - offset)
        return [(a - b) / width for a, b in zip(plus, minus)]

    for c in range(n):
        if c == 1:
            continue
        h = step * abs(x[0]) if c == 0 else step
        offset = np.zeros(n)
        offset[c] = h
        coarse = difference(offset, 2 * h)
        offset[c] = h / 2
        fine = difference(offset, h)
        for jet, coarse_k, fine_k in zip(jets, coarse, fine):
            jet[c] = (4.0 * fine_k - coarse_k) / 3.0
    return jets


# relative t-step and absolute v-step of the two differencing levels: the
# Christoffel field into curvature, and curvature into its covariant
# derivative
CURVATURE_STEP = 1e-4
DERIVATIVE_STEP = 1e-3


def _curvature_core(patch: MetricPatch, x: np.ndarray):
    """(g^-1, Gamma, Riemann_down, Ricci, scalar, Weyl) at one chart point."""
    n = patch.n
    g = patch.metric(x)
    g_inv = patch.metric_inverse(x)
    # jet[c, a, b, d] = d_c Gamma^a_{bd}
    gamma = patch.christoffel(x)
    (jet,) = _richardson_partials(lambda y: (patch.christoffel(y),), x, CURVATURE_STEP, (gamma,))
    # R^a_{bcd} = d_c G^a_{db} - d_d G^a_{cb} + G^a_{ce} G^e_{db} - G^a_{de} G^e_{cb}
    riemann_up = (
        np.einsum("cadb->abcd", jet)
        - np.einsum("dacb->abcd", jet)
        + np.einsum("ace,edb->abcd", gamma, gamma)
        - np.einsum("ade,ecb->abcd", gamma, gamma)
    )
    riemann = np.einsum("ae,ebcd->abcd", g, riemann_up)
    ricci = np.einsum("abad->bd", riemann_up)
    scalar = float(np.einsum("bd,bd->", g_inv, ricci))
    factor = 1.0 / (n - 2)
    weyl = (
        riemann
        - factor
        * (
            np.einsum("ac,bd->abcd", g, ricci)
            - np.einsum("ad,bc->abcd", g, ricci)
            + np.einsum("bd,ac->abcd", g, ricci)
            - np.einsum("bc,ad->abcd", g, ricci)
        )
        + scalar
        / ((n - 1) * (n - 2))
        * (np.einsum("ac,bd->abcd", g, g) - np.einsum("ad,bc->abcd", g, g))
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
    residuals, and the null-distribution dimension."""
    x = _as_array(point)
    if x[0] <= 0:
        raise ValueError("the chart requires t > 0")
    g_inv, gamma, riemann, ricci, scalar, weyl = _curvature_core(patch, x)
    nabla_w, nabla_r = _covariant_norms(patch, x, gamma, weyl, riemann)
    dim, singulars = olszak_singular_values(weyl)
    return CurvatureReport(
        point=point,
        riemann=riemann,
        ricci=ricci,
        scalar=scalar,
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
    patch: MetricPatch, x: np.ndarray, gamma: np.ndarray, weyl: np.ndarray, riemann: np.ndarray
) -> list[float]:
    """Frobenius norms of nabla W and nabla R, given Gamma, W and R at x.

    The partial-derivative part differences both fields with
    `_richardson_partials`; each offset curvature core is computed once and
    serves both.  The connection corrections close the covariant
    derivative.  No Christoffel symbol carries a lower s index, so the
    s-slot of the derivative is identically zero.
    """

    def fields(y: np.ndarray) -> tuple:
        _, _, riemann_y, _, _, weyl_y = _curvature_core(patch, y)
        return weyl_y, riemann_y

    tensors = (weyl, riemann)
    partials = _richardson_partials(fields, x, DERIVATIVE_STEP, tensors)
    norms = []
    for partial, tensor in zip(partials, tensors):
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
