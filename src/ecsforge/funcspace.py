"""Solution spaces of the characteristic ODE and the transfer operator.

Scalar layer: solutions of y'' = f(t) y on t > 0, either exact monomials
(power-law profile) or numerically integrated functions (any self-similar
profile with q**2 f(q t) = f(t)).  The transfer operator (T y)(t) = y(t/q)
preserves the two-dimensional solution space; its matrix in the basis of
initial conditions at t = 1 has determinant exactly 1/q.

Vector layer: L-valued solutions of u'' = f u + A u.  The operator
(CT u)(t) = C u(t/q) acts on the 2m-dimensional solution space with simple
spectrum q**E(1), ..., q**E(2m); the eigenbasis consists of single-component
solutions y(t) e_i plus, in the top slot, a correction z(t) e_1 solving the
forced equation z'' = f z + y.  The form
Omega(u, v) = <u', v> - <u, v'> is t-independent and rescales by exactly 1/q
under CT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .exact import QFieldContext
from .model import HomogeneousF, ModelData

__all__ = [
    "MonomialFn",
    "OdeFn",
    "ForcedOdeFn",
    "LinCombFn",
    "TimeScaledFn",
    "wronskian",
    "w_basis",
    "transfer_matrix_T",
    "particular_solutions",
    "ESolution",
    "ct_eigenbasis",
    "omega",
    "omega_exact",
    "omega_matrix",
    "expected_omega_matrix",
    "ct_image",
    "ct_eigencheck_exact",
    "ct_eigencheck_residual",
    "verify_ct_omega_scaling",
    "qt_eigen_residual",
]


# Integrator tolerances of the lazily integrated solutions (OdeFn's
# defaults, ForcedOdeFn's values) and of the one-pass transfer matrix
ODE_RTOL = 1e-12
ODE_ATOL = 1e-14
TRANSFER_RTOL = 1e-13
TRANSFER_ATOL = 1e-15

# Sample points of the numeric eigen and Omega-scaling checks
QT_CHECK_TS = (1.3, 1.9, 2.6)
CT_CHECK_TS = (1.0, 1.7, 2.4)
OMEGA_SCALING_TS = (1.0, 1.6, 2.3)


# ---------------------------------------------------------------------------
# scalar functions


@dataclass(frozen=True)
class MonomialFn:
    """coef * t**power with exact rational data.

    The exact fields matter: for the power-law profile all eigenvalue
    bookkeeping reduces to integer arithmetic on `power`, so exact checks
    read these attributes instead of sampling values.
    """

    coef: Fraction
    power: Fraction

    def __post_init__(self) -> None:
        coef, power = Fraction(self.coef), Fraction(self.power)
        # value() and deriv() read these float forms, converted once
        self.__dict__.update(coef=coef, power=power, _coef_f=float(coef), _power_f=float(power))
        self.__dict__.update(_slope_f=float(coef * power), _power_m1_f=float(power - 1))

    def value(self, t: float) -> float:
        return self._coef_f * t ** self._power_f

    def deriv(self, t: float) -> float:
        if not self.power:
            return 0.0
        return self._slope_f * t ** self._power_m1_f


class _LogTimeSolution:
    """A solution of a linear system in log-time, integrated lazily.

    The substitution tau = log t, with w = t y' in place of y', turns
    y'' = f(t) y into the first-order system (y, w)' = (w, w + t**2 f(t) y)
    with t = e^tau, in which the self-similar profiles become literally
    periodic coefficients.  Subclasses supply the right-hand side `_rhs` and
    the start state at t = 1; dense output segments are cached and extended
    on demand in either direction, and only ever appended, so the first
    segment that covers a point never changes once it exists.

    `value` and `deriv` are defined here, once: y sits in the state at the
    index `_component` that each subclass sets, and w = t y' right after.

    Each point is evaluated once: `_state` keeps the state of every t it
    has read (read-only arrays, shared by `value` and `deriv` and by every
    combination built on the solution).  `state_runs` evaluates an array
    of points in order, laying down segments exactly as pointwise reads in
    that order would, and reads each run of points that needs no further
    integration in one dense-output call per segment.  The dense output is
    elementwise, so either route gives the same bits.
    """

    def __init__(self, profile, init, *, rtol: float, atol: float) -> None:
        self.profile = profile
        self.rtol = rtol
        self.atol = atol
        self._init = np.array(init)
        self._init.setflags(write=False)
        self._lo = self._hi = 0.0
        self._state_lo = self._state_hi = self._init
        self._segments: list[tuple[float, float, object]] = []
        self._memo: dict[float, np.ndarray] = {}

    def _extend(self, tau: float) -> None:
        forward = tau > self._hi
        start, state = (self._hi, self._state_hi) if forward else (self._lo, self._state_lo)
        target = tau + 0.5 if forward else tau - 0.5
        sol = solve_ivp(
            self._rhs,
            (start, target),
            state,
            method="DOP853",
            dense_output=True,
            rtol=self.rtol,
            atol=self.atol,
        )
        if not sol.success:
            raise RuntimeError(f"integration failed: {sol.message}")
        end_state = sol.y[:, -1].copy()
        if forward:
            self._segments.append((start, target, sol.sol))
            self._hi, self._state_hi = target, end_state
        else:
            self._segments.append((target, start, sol.sol))
            self._lo, self._state_lo = target, end_state

    @staticmethod
    def _log_time(t: float) -> float:
        if t <= 0:
            raise ValueError("solutions live on t > 0")
        return math.log(t)

    def _cover(self, tau: float) -> None:
        while not (self._lo <= tau <= self._hi):
            self._extend(tau)

    def _segment_of(self, tau: float) -> int:
        """Index of the first segment that covers the covered log-time tau."""
        return next(
            index
            for index, (lo, hi, _) in enumerate(self._segments)
            if lo - 1e-12 <= tau <= hi + 1e-12
        )

    def _state(self, t: float) -> np.ndarray:
        state = self._memo.get(t)
        if state is None:
            tau = self._log_time(t)
            self._cover(tau)
            if not self._segments:
                # tau is the base point and nothing was integrated yet; not
                # memoized, since later reads come from the first segment
                return self._init
            state = self._memo[t] = self._segments[self._segment_of(tau)][2](tau)
            state.setflags(write=False)
        return state

    def value(self, t: float) -> float:
        return float(self._state(t)[self._component])

    def deriv(self, t: float) -> float:
        return float(self._state(t)[self._component + 1]) / t

    def state_runs(self, ts):
        """The states at the points of `ts`, in order, as one read-only
        (points, dim) array per run of points that the integration already
        covers.  A run is evaluated only when the iteration reaches it, so a
        caller that stops early integrates no further than pointwise reads
        up to that point would have."""
        taus = [self._log_time(t) for t in ts]
        start = 0
        while start < len(taus):
            self._cover(taus[start])
            stop = start + 1
            while stop < len(taus) and self._lo <= taus[stop] <= self._hi:
                stop += 1
            yield self._evaluate(ts[start:stop], taus[start:stop])
            start = stop

    def _evaluate(self, ts, taus: list[float]) -> np.ndarray:
        """States at covered points: one dense-output call per segment."""
        if not self._segments:
            # only the base point, nothing integrated yet; not memoized, as
            # in `_state`, since later reads come from the first segment
            states = np.tile(self._init, (len(taus), 1))
            states.setflags(write=False)
            return states
        taus = np.array(taus)
        owners = np.array([self._segment_of(tau) for tau in taus])
        states = np.empty((len(taus), self._init.size))
        for owner in np.unique(owners):
            rows = np.flatnonzero(owners == owner)
            states[rows] = self._segments[owner][2](taus[rows]).T
        states.setflags(write=False)
        for t, state in zip(ts, states):
            self._memo.setdefault(float(t), state)
        return states


class OdeFn(_LogTimeSolution):
    """A solution of y'' = f(t) y with y(1) = y0, y'(1) = dy0."""

    _component = 0

    def __init__(
        self, profile, y0: float, dy0: float, *, rtol: float = ODE_RTOL, atol: float = ODE_ATOL
    ) -> None:
        super().__init__(profile, [float(y0), float(dy0)], rtol=rtol, atol=atol)

    def _rhs(self, tau: float, state):
        t = math.exp(tau)
        return (state[1], state[1] + t * t * self.profile.value(t) * state[0])


class ForcedOdeFn(_LogTimeSolution):
    """The particular solution of x'' = f x + y with x(1) = x'(1) = 0,
    where y is itself the solution of y'' = f y with the given start data.

    Source and response are co-integrated as one four-dimensional linear
    system, which sidesteps any interpolation of the source into the
    quadrature."""

    _component = 2

    def __init__(self, profile, source_y0: float, source_dy0: float) -> None:
        init = [float(source_y0), float(source_dy0), 0.0, 0.0]
        super().__init__(profile, init, rtol=ODE_RTOL, atol=ODE_ATOL)

    def _rhs(self, tau: float, state):
        t = math.exp(tau)
        t2f = t * t * self.profile.value(t)
        y, wy, x, wx = state
        return (wy, wy + t2f * y, wx, wx + t2f * x + t * t * y)


@dataclass(frozen=True)
class LinCombFn:
    """Pointwise linear combination of scalar functions."""

    funcs: tuple
    coeffs: tuple[float, ...]

    def value(self, t: float) -> float:
        return sum(c * f.value(t) for c, f in zip(self.coeffs, self.funcs))

    def deriv(self, t: float) -> float:
        return sum(c * f.deriv(t) for c, f in zip(self.coeffs, self.funcs))


@dataclass(frozen=True)
class TimeScaledFn:
    """prefactor * fn(time_scale * t); the building block of CT images."""

    fn: object
    prefactor: float
    time_scale: float

    def value(self, t: float) -> float:
        return self.prefactor * self.fn.value(self.time_scale * t)

    def deriv(self, t: float) -> float:
        return self.prefactor * self.time_scale * self.fn.deriv(self.time_scale * t)


def wronskian(f1, f2, t: float) -> float:
    return f1.value(t) * f2.deriv(t) - f1.deriv(t) * f2.value(t)


# ---------------------------------------------------------------------------
# scalar transfer operator


def transfer_matrix_T(profile, q: float):
    """Matrix of (T y)(t) = y(t/q) on solutions of y'' = f y, in the basis
    of initial conditions (y(1), y'(1)) = (1, 0) and (0, 1).

    Column j holds ((T u_j)(1), (T u_j)'(1)) = (u_j(1/q), u_j'(1/q)/q).  Both
    basis solutions are propagated in one pass, as the fundamental matrix
    of the log-time system (y1, w1, y2, w2) with w = t y', from tau = 0 to
    tau = -log q; there w = u'(1/q)/q, so the end state is the matrix.  The
    determinant equals 1/q exactly: T scales the (constant) Wronskian of a
    solution pair by the chain-rule factor 1/q.
    """
    if q <= 1:
        raise ValueError(f"scale q must exceed 1, got {q}")

    def rhs(tau: float, state):
        t = math.exp(tau)
        t2f = t * t * profile.value(t)
        y1, w1, y2, w2 = state
        return (w1, w1 + t2f * y1, w2, w2 + t2f * y2)

    sol = solve_ivp(
        rhs, (0.0, -math.log(q)), (1.0, 0.0, 0.0, 1.0), method="DOP853",
        rtol=TRANSFER_RTOL, atol=TRANSFER_ATOL,
    )
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    y1, w1, y2, w2 = sol.y[:, -1]
    return np.array([[y1, y2], [w1, w2]])


def w_basis(model: ModelData):
    """The T-eigenbasis (y+, y-) of the scalar solution space.

    For the power-law profile these are the exact monomials t**((1 -+ k)/2)
    with eigenvalues mu+- = q**((-1 +- k)/2).  A deformed profile supplies
    its own integrated pair at the same target eigenvalues, which exist
    precisely when its trace has been matched (`DeformedF.eigenpair`,
    extracted once per profile from its one transfer matrix).
    """
    k = model.k
    if isinstance(model.f, HomogeneousF):
        return (
            MonomialFn(Fraction(1), Fraction(1 - k, 2)),
            MonomialFn(Fraction(1), Fraction(1 + k, 2)),
        )
    return model.f.eigenpair


def particular_solutions(model: ModelData, scalar_basis):
    """The corrections (z+, z-) that complete the top basis slot, given the
    scalar eigenpair (y+, y-) = `w_basis(model)`.

    z solves z'' = f z + y and is the unique such solution satisfying
    (qT) z = lambda z with lambda = mu * q**a(m); uniqueness holds because
    qT acts on the homogeneous ambiguity span{y+, y-} with eigenvalues
    q**E(1), q**E(2), both different from lambda.

    Power-law profile: z is exactly the monomial t**((5 -+ k)/2) / (4 -+ 2k)
    (the qT eigen-identity is re-checked here in integer arithmetic).  Other
    profiles: a zero-start particular solution is integrated, and its defect
    d = (qT)x - lambda x — a homogeneous solution — is removed by dividing
    its eigen-coordinates by q**E(1,2) - lambda.
    """
    k, m = model.k, model.m
    slots = (2 * m - 1, 2 * m)
    if isinstance(model.f, HomogeneousF):
        out = []
        for sign, slot in ((1, slots[0]), (-1, slots[1])):
            power = Fraction(5 - sign * k, 2)
            denom = 4 - sign * 2 * k
            # qT multiplies t**e by q**(1 - e); the correction must carry the
            # same CT weight as the top slot, i.e. 1 - e = E(slot)
            if 1 - power != model.system.E_of(slot):
                raise ValueError(
                    "power-law correction exponent does not meet its slot"
                )
            out.append(MonomialFn(Fraction(1, denom), power))
        return tuple(out)

    ctx = model.context()
    q = float(ctx.q)
    y_plus, y_minus = scalar_basis
    basis_at_one = np.array(
        [
            [y_plus.value(1.0), y_minus.value(1.0)],
            [y_plus.deriv(1.0), y_minus.deriv(1.0)],
        ]
    )
    ambiguity_eigs = np.array(
        [
            float(ctx.q_power(model.system.E_of(1))),
            float(ctx.q_power(model.system.E_of(2))),
        ]
    )
    out = []
    for y_src, slot in ((y_plus, slots[0]), (y_minus, slots[1])):
        lam = float(ctx.q_power(model.system.E_of(slot)))
        forced = ForcedOdeFn(model.f, y_src.value(1.0), y_src.deriv(1.0))
        # defect of the zero-start solution under the eigen-equation; it
        # solves the homogeneous equation, so two numbers determine it
        s = 1.0 / q
        d_val = q * forced.value(s) - lam * forced.value(1.0)
        d_der = forced.deriv(s) - lam * forced.deriv(1.0)
        alpha = np.linalg.solve(basis_at_one, np.array([d_val, d_der]))
        coeffs = alpha / (lam - ambiguity_eigs)
        out.append(
            LinCombFn((forced, y_plus, y_minus), (1.0, coeffs[0], coeffs[1]))
        )
    return tuple(out)


def qt_eigen_residual(model: ModelData, fn, lam_exponent: int) -> float:
    """Worst relative defect of (qT) fn = q**lam_exponent * fn over sample points."""
    ctx = model.context()
    q = float(ctx.q)
    lam = float(ctx.q_power(lam_exponent))
    worst = 0.0
    for t in QT_CHECK_TS:
        lhs = q * fn.value(t / q)
        rhs = lam * fn.value(t)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst


# ---------------------------------------------------------------------------
# L-valued solutions


@dataclass(frozen=True)
class ESolution:
    """A solution of u'' = f u + A u, stored sparsely by component index."""

    m: int
    components: tuple[tuple[int, object], ...]

    def value(self, t: float) -> np.ndarray:
        out = np.zeros(self.m)
        for idx, fn in self.components:
            out[idx] += fn.value(t)
        return out

    def deriv(self, t: float) -> np.ndarray:
        out = np.zeros(self.m)
        for idx, fn in self.components:
            out[idx] += fn.deriv(t)
        return out

    def slot_states(self, t: float) -> tuple[dict[int, float], dict[int, float]]:
        """(values, derivatives) at t on the slots this solution carries,
        keyed in ascending slot order.  Each component is read once, in
        stored order, and each slot sums its components from 0.0, as
        `value` and `deriv` do."""
        values: dict[int, float] = {}
        derivs: dict[int, float] = {}
        for idx, fn in self.components:
            values[idx] = values.get(idx, 0.0) + fn.value(t)
            derivs[idx] = derivs.get(idx, 0.0) + fn.deriv(t)
        slots = sorted(values)
        return {i: values[i] for i in slots}, {i: derivs[i] for i in slots}

    def scaled(self, factor: float) -> "ESolution":
        comps = tuple(
            (idx, LinCombFn((fn,), (factor,))) for idx, fn in self.components
        )
        return ESolution(self.m, comps)


def ct_eigenbasis(model: ModelData) -> tuple[ESolution, ...]:
    """The CT-eigenbasis (u_1+, u_1-, ..., u_m+, u_m-).

    Slot x of the returned tuple (1-based) has CT-eigenvalue q**E(x):
    u_i+- = y+- e_i for i < m, and the top pair picks up the forced
    correction on e_1, u_m+- = y+- e_m + z+- e_1.
    """
    scalar_basis = w_basis(model)
    y_plus, y_minus = scalar_basis
    z_plus, z_minus = particular_solutions(model, scalar_basis)
    m = model.m
    basis = []
    for i in range(1, m + 1):
        for y_fn, z_fn in ((y_plus, z_plus), (y_minus, z_minus)):
            comps = [(i - 1, y_fn)]
            if i == m:
                comps.append((0, z_fn))
            basis.append(ESolution(m, tuple(comps)))
    return tuple(basis)


def _pairing(model: ModelData, x: dict[int, float], y: dict[int, float]) -> float:
    """<x, y> for vectors stored by slot (`ESolution.slot_states`).

    <x, y> = eps * sum_i x_i y_(m-1-i); only the slots i that x carries
    with a partner m-1-i that y carries contribute, summed in ascending i
    from 0.0.  The dense sum adds only exact zeros beyond these terms, and
    its running sum is never -0.0, so both give the same bits.
    """
    partner = model.m - 1
    total = 0.0
    for i, x_i in x.items():
        if partner - i in y:
            total += x_i * y[partner - i]
    return model.eps * total


def _omega_from_states(model: ModelData, u_states, v_states) -> float:
    (u_val, u_der), (v_val, v_der) = u_states, v_states
    return _pairing(model, u_der, v_val) - _pairing(model, u_val, v_der)


def omega(model: ModelData, u: ESolution, v: ESolution, t: float = 1.0) -> float:
    """Omega(u, v) = <u'(t), v(t)> - <u(t), v'(t)>; t-independent because A
    is self-adjoint for the anti-diagonal inner product.  Read from the
    slots each solution carries (`_pairing`)."""
    return _omega_from_states(model, u.slot_states(t), v.slot_states(t))


def omega_matrix(model: ModelData, basis: Sequence[ESolution], t: float = 1.0) -> np.ndarray:
    """Omega on every pair of `basis`, each solution evaluated once at t.

    Only the pairs (u, v) where v carries the partner m-1-i of a slot i of
    u are visited; every other entry is the exact 0.0 the full pairing
    gives, since no term of either inner product survives there.
    """
    states = [u.slot_states(t) for u in basis]
    carriers: dict[int, list[int]] = {}
    for index, (values, _) in enumerate(states):
        for slot in values:
            carriers.setdefault(slot, []).append(index)
    partner = model.m - 1
    out = np.zeros((len(basis), len(basis)))
    for i, u_states in enumerate(states):
        visits = {j for slot in u_states[0] for j in carriers.get(partner - slot, ())}
        for j in visits:
            out[i, j] = _omega_from_states(model, u_states, states[j])
    return out


def expected_omega_matrix(model: ModelData) -> np.ndarray:
    """Frozen shape of Omega on the eigenbasis: anti-diagonal +-k*eps.

    Slot x pairs only with slot 2m+1-x, giving -k*eps for odd x and +k*eps
    for even x; every other entry vanishes identically.
    """
    size = 2 * model.m
    out = np.zeros((size, size))
    for x in range(1, size + 1):
        out[x - 1, size - x] = -model.k * model.eps if x % 2 == 1 else model.k * model.eps
    return out


def omega_exact(model: ModelData, u: ESolution, v: ESolution) -> dict[Fraction, Fraction]:
    """Omega(u, v) in exact rational arithmetic, as the power -> coefficient
    table of sum_p c_p t**p.

    Only solutions whose components are all monomials qualify (the power-law
    profile); anything else raises.  The pairing <e_i, e_j> is eps when
    i + j = m - 1 and zero otherwise, so each surviving component pair
    contributes eps * c_u * c_v * (e_u - e_v) at power e_u + e_v - 1.  A
    conserved pairing collapses to {} (identically zero) or {0: constant},
    and the caller can assert either with no tolerance at all.
    """
    for sol in (u, v):
        for _, fn in sol.components:
            if not isinstance(fn, MonomialFn):
                raise ValueError("exact omega requires monomial components")
    table: dict[Fraction, Fraction] = {}
    for idx_u, fu in u.components:
        for idx_v, fv in v.components:
            if idx_u + idx_v != model.m - 1:
                continue
            weight = model.eps * fu.coef * fv.coef * (fu.power - fv.power)
            power = fu.power + fv.power - 1
            table[power] = table.get(power, Fraction(0)) + weight
    return {p: c for p, c in table.items() if c != 0}


def ct_image(model: ModelData, u: ESolution) -> ESolution:
    """(CT u)(t) = C u(t/q) as a new solution object."""
    ctx = model.context()
    q = float(ctx.q)
    comps = tuple(
        (
            idx,
            TimeScaledFn(
                fn,
                prefactor=float(ctx.q_power(model.a[idx])),
                time_scale=1.0 / q,
            ),
        )
        for idx, fn in u.components
    )
    return ESolution(u.m, comps)


def ct_eigencheck_exact(model: ModelData) -> bool:
    """Integer-arithmetic proof that slot x of the eigenbasis has
    CT-eigenvalue q**E(x), valid for the power-law profile.

    Every basis component is a monomial c*t**e sitting in slot e_j, and CT
    multiplies it by q**(a(j) - e); the check is the tuple of integer
    equalities a(j) - e = E(x) over all components of all 2m slots.
    """
    basis = ct_eigenbasis(model)
    for x, u in enumerate(basis, start=1):
        target = model.system.E_of(x)
        for idx, fn in u.components:
            if not isinstance(fn, MonomialFn):
                raise ValueError("exact eigencheck requires the power-law profile")
            weight = model.a[idx] - fn.power
            if weight.denominator != 1 or int(weight) != target:
                return False
    return True


def ct_eigencheck_residual(model: ModelData, basis: Sequence[ESolution] | None = None) -> float:
    """Numeric route to the same eigen-statement: worst relative defect of
    (CT)u_x = q**E(x) u_x over the basis and sample points."""
    if basis is None:
        basis = ct_eigenbasis(model)
    ctx = model.context()
    worst = 0.0
    for x, u in enumerate(basis, start=1):
        lam = float(ctx.q_power(model.system.E_of(x)))
        image = ct_image(model, u)
        for t in CT_CHECK_TS:
            lhs = image.value(t)
            rhs = lam * u.value(t)
            scale = max(1.0, float(np.linalg.norm(rhs)))
            worst = max(worst, float(np.linalg.norm(lhs - rhs)) / scale)
            lhs_d = image.deriv(t)
            rhs_d = lam * u.deriv(t)
            scale_d = max(1.0, float(np.linalg.norm(rhs_d)))
            worst = max(worst, float(np.linalg.norm(lhs_d - rhs_d)) / scale_d)
    return worst


def verify_ct_omega_scaling(
    model: ModelData, basis: Sequence[ESolution] | None = None
) -> tuple[bool, float]:
    """(CT)*Omega = Omega/q, certified twice.

    Exact route: Omega pairs slot x only with slot 2m+1-x, and axiom (b)
    makes the eigen-weights of such a pair multiply to exactly
    q**(E(x) + E(2m+1-x)) = q**-1 — an integer statement.  Numeric route:
    Omega is recomputed on explicit CT images at several t and compared
    entrywise with Omega/q.  Returns (exact_ok, worst numeric residual).
    """
    size = 2 * model.m
    exact_ok = all(
        model.system.E_of(x) + model.system.E_of(size + 1 - x) == -1
        for x in range(1, size + 1)
    )
    if basis is None:
        basis = ct_eigenbasis(model)
    images = [ct_image(model, u) for u in basis]
    q = float(model.context().q)
    worst = 0.0
    for t in OMEGA_SCALING_TS:
        direct = omega_matrix(model, basis, t)
        moved = omega_matrix(model, images, t)
        worst = max(worst, float(np.max(np.abs(moved - direct / q))))
    return exact_ok, worst
