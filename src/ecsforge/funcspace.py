"""Solution spaces of the characteristic ODE and the transfer operator.

Scalar layer: solutions of y'' = f(t) y on t > 0, either exact monomials
(power-law profile) or numerically integrated functions (any self-similar
profile with q**2 f(q t) = f(t)).  The transfer operator (T y)(t) = y(t/q)
preserves the two-dimensional solution space; its matrix in the basis of
initial conditions at t = 1 has determinant exactly 1/q.  The integrated
eigen-solutions are Floquet solutions, y(t/q) = mu y(t): each is integrated
once, over one log-period in the direction in which it dominates, and read
at every other t through its multiplier, with the period's closure
residual kept as the measure of how far it is from one (`_FloquetFn`).

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
    "closure_residual",
    "verify_ct_omega_scaling",
    "qt_eigen_residual",
]


# Integrator tolerances of the one-period solutions (OdeFn, ForcedOdeFn)
# and of the one-pass transfer matrix
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


def _log_time(t: float) -> float:
    if t <= 0:
        raise ValueError("solutions live on t > 0")
    return math.log(t)


def _growth(multiplier: float, step: float) -> float:
    """The factor by which a solution with y(t/q) = multiplier * y(t)
    scales over one log-period in the direction of `step`."""
    return multiplier if step < 0 else 1.0 / multiplier


def _integrate_period(rhs, start, step: float):
    """One DOP853 pass with dense output from tau = 0 to tau = `step`."""
    sol = solve_ivp(
        rhs, (0.0, step), start, method="DOP853", dense_output=True, rtol=ODE_RTOL, atol=ODE_ATOL
    )
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    return sol


def _closure(start: np.ndarray, end: np.ndarray, growth: float) -> float:
    """|end - growth start| / max(1, |growth start|): how far an integrated
    period misses the Floquet form."""
    expected = growth * start
    return float(np.linalg.norm(end - expected)) / max(1.0, float(np.linalg.norm(expected)))


class _FloquetFn:
    """A Floquet solution of the characteristic ODE, stored over one period.

    The substitution tau = log t, with w = t y' in place of y', turns
    y'' = f(t) y into the first-order system (y, w)' = (w, w + t**2 f(t) y)
    with t = e^tau, whose coefficients are periodic in tau with period
    log q for the self-similar profiles.  A solution with
    y(t/q) = multiplier * y(t) is fixed by one period: y and w scale alike,
    so t = q**j s gives state(t) = multiplier**-j state(s).  Each subclass
    integrates its period once, when it is built, from t = 1 over `step`
    (-log q or +log q), and reads it through `_period_state`; `growth` is
    the factor by which the state scales over one period in that direction.

    The sampled eigen-checks then hold by construction away from the
    period's seam, since t and t/q reduce to one stored point.  What they
    would measure is the period's closure, `closure_residual` =
    |S(end) - growth S(start)| / max(1, |growth S(start)|) for the
    integrated eigen-solution S (a forced solution's source): zero exactly
    when the start state is an eigenvector of T with the stated eigenvalue.
    """

    def _at(self, tau):
        """The state (y, w) at log-time tau, a float or an array (then one
        column per point)."""
        turns = np.floor(tau / self.step)
        return self.growth**turns * self._period_state(tau - turns * self.step)

    # (t, state) of the latest read, the only one kept: value and deriv, and
    # the components of one vector solution, read the same t in turn
    _last = (None, None)

    def _state(self, t: float) -> np.ndarray:
        last_t, state = self._last
        if t != last_t:
            state = self._at(_log_time(t))
            self._last = (t, state)
        return state

    def value(self, t: float) -> float:
        return float(self._state(t)[0])

    def deriv(self, t: float) -> float:
        return float(self._state(t)[1]) / t

    def values(self, ts: np.ndarray) -> np.ndarray:
        """y at an array of t > 0, read from the period in one pass."""
        return self._at(np.log(ts))[0]


class OdeFn(_FloquetFn):
    """The solution of y'' = f(t) y whose start state (y(1), y'(1)) =
    `start` is an eigenvector of T with eigenvalue `multiplier`.

    det T = 1/q, so the other eigen-solution has multiplier
    1/(q multiplier), and y dominates it toward small t exactly when
    multiplier**2 > 1/q.  The period is integrated in the direction in
    which y dominates (the dichotomy rule): down to t = 1/q, else up to q.
    """

    def __init__(self, profile, start, multiplier: float, q: float) -> None:
        self.profile, self.multiplier = profile, multiplier
        self.start = np.array(start, dtype=float)
        self.step = -math.log(q) if multiplier * multiplier * q > 1.0 else math.log(q)
        self.growth = _growth(multiplier, self.step)
        sol = _integrate_period(self._rhs, self.start, self.step)
        self._period_state = sol.sol
        self.closure_residual = _closure(self.start, sol.y[:, -1], self.growth)

    def _rhs(self, tau: float, state):
        t = math.exp(tau)
        return (state[1], state[1] + t * t * self.profile.value(t) * state[0])


class ForcedOdeFn(_FloquetFn):
    """The solution z of z'' = f z + y, y = `source`, with
    z(t/q) = multiplier * z(t), stored over the source's period.

    A zero-start particular solution x is co-integrated with its source as
    one four-dimensional linear system, which sidesteps any interpolation
    of the source into the quadrature; `closure_residual` is the source's.
    Then z = x + b_s y + b_o y_o, with y_o = `other` the source's partner in
    the eigenpair, is fitted at the period's ends (the defect removal): each
    y_i scales by its own growth g_i over the period, so z(end) =
    growth z(1) reads x(end) = sum_i b_i (growth - g_i) y_i(1), one 2x2
    solve in the start states.  The solve is singular exactly when
    q * multiplier is an eigenvalue of qT on the homogeneous ambiguity.
    """

    def __init__(self, source: OdeFn, other: OdeFn, multiplier: float) -> None:
        self.profile, self.other, self.step = source.profile, other, source.step
        self.growth = _growth(multiplier, self.step)
        sol = _integrate_period(self._rhs, np.concatenate([source.start, [0.0, 0.0]]), self.step)
        self._dense, end = sol.sol, sol.y[:, -1]
        self.closure_residual = _closure(source.start, end[:2], source.growth)
        coords = np.linalg.solve(np.column_stack([source.start, other.start]), end[2:])
        pair_growth = np.array([source.growth, _growth(other.multiplier, self.step)])
        self._coeffs = coords / (self.growth - pair_growth)

    def _rhs(self, tau: float, state):
        t = math.exp(tau)
        t2f = t * t * self.profile.value(t)
        y, wy, x, wx = state
        return (wy, wy + t2f * y, wx, wx + t2f * x + t * t * y)

    def _period_state(self, tau):
        state = self._dense(tau)
        return state[2:] + self._coeffs[0] * state[:2] + self._coeffs[1] * self.other._at(tau)


@dataclass(frozen=True)
class TimeScaledFn:
    """prefactor * fn(time_scale * t); the building block of CT images and,
    with time_scale 1.0, of scaled solutions."""

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
    profiles: z is a `ForcedOdeFn` with T-eigenvalue lambda / q, fitted on
    its source's period and read elsewhere through the Floquet form.
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
    return tuple(
        ForcedOdeFn(source, other, float(ctx.q_power(model.system.E_of(slot))) / q)
        for source, other, slot in ((y_plus, y_minus, slots[0]), (y_minus, y_plus, slots[1]))
    )


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
        comps = tuple((idx, TimeScaledFn(fn, factor, 1.0)) for idx, fn in self.components)
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


def closure_residual(basis: Sequence[ESolution]) -> float:
    """Worst closure residual of the integrated periods that `basis` reads
    (`_FloquetFn`); a deformed profile's route, as monomials store none."""
    return max(fn.closure_residual for u in basis for _, fn in u.components)


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
