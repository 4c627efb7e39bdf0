"""The discrete isometry group, its lattice, and orbit canonicalization.

Two isometry families act on the model space (0, oo) x R x L_vec:

* gamma-hat rescales t by q, s by 1/q, and v by the scaling C;
* the Heisenberg group H = R x E of elements (r, u) acting at fixed t.

Conjugation by gamma-hat induces the linear map Pi on H.  On the subspace
R x L spanned by the R-factor and the selected eigenbasis slots, Pi is
diag(1/q, q**E(i)), and its spectrum {q**a : a in Y} matches a unimodular
integer matrix Xi (the companion matrix of the associated characteristic
polynomial).  The exact intertwiner Phi with Pi Phi = Phi Xi is the
Vandermonde matrix of Pi's eigenvalues, whose rows are left eigenrows of
Xi; its integer span is the lattice Sigma preserved by Pi.  Everything in
that chain is quadratic-field arithmetic — the only floats live in the
point actions and the chart.  In cell coordinates (log_q t, Phi^-1 of the
chart) the group acts by integer maps, so canonicalization is exact too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .exact import (
    IntPolynomial,
    QFieldContext,
    QFieldElement,
    char_poly_from_exponents,
    companion_matrix,
    det_int,
)
from .funcspace import ESolution, LinCombFn, ct_eigenbasis, ct_image, omega, omega_matrix
from .model import ModelData

__all__ = [
    "GammaHat",
    "HElement",
    "LagrangianL",
    "LatticeSigma",
    "HAT",
    "HAT_INV",
    "make_gamma_hat",
    "build_lagrangian",
    "act",
    "act_inverse",
    "act_jacobian",
    "h_mul",
    "h_inverse",
    "pi_map",
    "pi_apply_numeric",
    "build_lattice",
    "intertwining_failures",
    "lattice_element",
    "certify_ace",
    "normal_form",
    "xi_power",
    "fundamental_coordinates",
    "point_from_coordinates",
    "canonicalize",
    "canonicalize_cell",
    "holonomy_scaling",
]

# word tokens for normal_form
HAT = "hat"
HAT_INV = "hat_inv"


# ---------------------------------------------------------------------------
# group elements


@dataclass(frozen=True)
class GammaHat:
    """The distinguished isometry (t, s, v) -> (qt, s/q, Cv)."""

    model: ModelData


@dataclass(frozen=True)
class HElement:
    """An element (r, u) of the Heisenberg group H = R x E.

    The E-part u is always a solution; a central element (r, 0) carries the
    empty one, `ESolution(m, ())`."""

    model: ModelData
    r: float
    u: ESolution


def make_gamma_hat(model: ModelData) -> GammaHat:
    return GammaHat(model)


def _combine(m: int, terms: Sequence[tuple[float, ESolution]]) -> ESolution:
    components = []
    for coef, sol in terms:
        for idx, fn in sol.components:
            components.append((idx, LinCombFn((fn,), (coef,))))
    return ESolution(m, tuple(components))


def _apply_scaling(model: ModelData, v: np.ndarray, invert: bool = False) -> np.ndarray:
    ctx = model.context()
    sign = -1 if invert else 1
    factors = np.array([float(ctx.q_power(sign * ai)) for ai in model.a])
    return factors * v


def act(element: GammaHat | HElement, point) -> tuple:
    """Apply the isometry to a point (t, s, v) with t > 0."""
    t, s, v = point
    if t <= 0:
        raise ValueError("points live on t > 0")
    v = np.asarray(v, dtype=float)
    if isinstance(element, GammaHat):
        model = element.model
        q = float(model.context().q)
        return (q * t, s / q, _apply_scaling(model, v))
    if isinstance(element, HElement):
        model = element.model
        ut = element.u.value(t)
        wt = element.u.deriv(t)
        return (t, -model.inner(wt, 2 * v + ut) + element.r + s, v + ut)
    raise TypeError(f"cannot act by {type(element).__name__}")


def act_inverse(element: GammaHat | HElement, point) -> tuple:
    if isinstance(element, HElement):
        return act(h_inverse(element), point)
    t1, s1, v1 = point
    if t1 <= 0:
        raise ValueError("points live on t > 0")
    model = element.model
    q = float(model.context().q)
    v1 = np.asarray(v1, dtype=float)
    return (t1 / q, q * s1, _apply_scaling(model, v1, invert=True))


def act_jacobian(element: GammaHat | HElement, point) -> np.ndarray:
    """Exact chart Jacobian of ``act(element, -)`` at the point.

    Row a, column c holds d(image_a)/d(x_c).  Every entry is in closed
    form — the only t-derivatives needed are u' (stored with the solution)
    and u'' = f u + A u (the defining equation) — so the Jacobian stays
    accurate even for lattice elements whose solution coefficients reach
    1e4 and beyond.  Differencing act() there is hopeless: the s-image
    grows like the square of the coefficients and central differences lose
    eps * |s| / step absolute, which swamps an isometry check long before
    the coefficients look extreme.
    """
    t, s, v = point
    if t <= 0:
        raise ValueError("points live on t > 0")
    v = np.asarray(v, dtype=float)
    model = element.model
    m = model.m
    jac = np.zeros((m + 2, m + 2))
    if isinstance(element, GammaHat):
        q = float(model.context().q)
        factors = np.array([float(model.context().q_power(ai)) for ai in model.a])
        jac[0, 0] = q
        jac[1, 1] = 1.0 / q
        jac[2:, 2:] = np.diag(factors)
        return jac
    if isinstance(element, HElement):
        jac[0, 0] = 1.0
        jac[1, 1] = 1.0
        jac[2:, 2:] = np.eye(m)
        hmat = np.array(model.h_rows(), dtype=float)
        ut = np.asarray(element.u.value(t), dtype=float)
        wt = np.asarray(element.u.deriv(t), dtype=float)
        acc = float(model.f.value(t)) * ut + np.array(model.apply_shift(ut))
        jac[1, 0] = -(model.inner(acc, 2 * v + ut) + model.inner(wt, wt))
        jac[1, 2:] = -2.0 * (hmat @ wt)
        jac[2:, 0] = wt
        return jac
    raise TypeError(f"cannot act by {type(element).__name__}")


def h_mul(left: HElement, right: HElement) -> HElement:
    """(r, u)(r', u') = (Omega(u', u) + r + r', u + u')."""
    model = left.model
    twist = omega(model, right.u, left.u)
    combined = _combine(model.m, [(1.0, left.u), (1.0, right.u)])
    return HElement(model, twist + left.r + right.r, combined)


def h_inverse(element: HElement) -> HElement:
    return HElement(element.model, -element.r, element.u.scaled(-1.0))


def holonomy_scaling(element: GammaHat | HElement) -> QFieldElement:
    """Factor by which the isometry rescales the parallel fiber coordinate
    s (equivalently t): exactly 1/q for gamma-hat, 1 on all of H."""
    ctx = element.model.context()
    if isinstance(element, GammaHat):
        return ctx.q_inv
    return ctx.one


# ---------------------------------------------------------------------------
# the Lagrangian subspace


@dataclass(frozen=True)
class LagrangianL:
    """Span of the eigenbasis slots selected by S, ordered by slot.

    Exactly one slot per pair index is selected, so `basis[j]` is supported
    on e_{j+1} (plus the e_1 correction in the top pair) and the evaluation
    matrix at any t is upper triangular by construction.
    """

    index_set: tuple[int, ...]
    basis: tuple[ESolution, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def evaluation_matrix(self, t: float) -> np.ndarray:
        return np.column_stack([u.value(t) for u in self.basis])


def build_lagrangian(
    model: ModelData, basis: Sequence[ESolution] | None = None
) -> LagrangianL:
    if basis is None:
        basis = ct_eigenbasis(model)
    slots = tuple(sorted(model.system.selector))
    return LagrangianL(slots, tuple(basis[i - 1] for i in slots))


# ---------------------------------------------------------------------------
# the conjugation operator Pi on R x L


def pi_map(model: ModelData, gamma_hat: GammaHat, lagrangian: LagrangianL):
    """Exact matrix of Pi(r, u) = (r/q, CTu), conjugation by `gamma_hat`, in
    the basis ((1,0), (0,u_i) for i in S): diag(1/q, q**E(i)), since each
    u_i is a CT eigenvector with eigenvalue q**E(i)."""
    ctx = model.context()
    diagonal = [ctx.q_inv, *(ctx.q_power(model.system.E_of(i)) for i in lagrangian.index_set)]
    return tuple(
        tuple(x if j == i else ctx.zero for j in range(len(diagonal)))
        for i, x in enumerate(diagonal)
    )


def pi_apply_numeric(model: ModelData, gamma_hat: GammaHat, element: HElement) -> HElement:
    """Pi as a map on actual group elements, for cross-checking the matrix."""
    return HElement(model, element.r / float(model.context().q), ct_image(model, element.u))


# ---------------------------------------------------------------------------
# the lattice


def _vandermonde_inverse_columns(poly: IntPolynomial, roots, ctx: QFieldContext):
    """Columns of the inverse of the Vandermonde matrix with rows
    (1, lambda_k, ..., lambda_k**(N-1)), lambda_k the roots of `poly`.

    Column k holds the coefficients of the Lagrange basis polynomial
    poly(x) / ((x - lambda_k) poly'(lambda_k)) (Macon & Spitzbart, 1958):
    synthetic division gives the quotient, whose value at lambda_k is
    poly'(lambda_k).  A nonzero remainder (lambda_k not a root) raises.
    """
    coeffs = poly.coefficients
    columns = []
    for lam in roots:
        high_first = [ctx.one]
        for c in reversed(coeffs[1:-1]):
            high_first.append(high_first[-1] * lam + c)
        if not (high_first[-1] * lam + coeffs[0]).is_zero:
            raise ValueError("a spectrum root is not a root of the characteristic polynomial")
        slope = ctx.one
        for b in high_first[1:]:
            slope = slope * lam + b
        scale = slope.inverse()
        columns.append([b * scale for b in reversed(high_first)])
    return columns


def _companion_inverse(poly: IntPolynomial) -> tuple[tuple[int, ...], ...]:
    """Inverse of `companion_matrix(poly)` for c_0 = +-1: Xi e_j = e_(j+1)
    gives Xi^-1 e_(j+1) = e_j, and Xi's last column gives
    Xi^-1 e_0 = -(e_(N-1) + sum_(i>=1) c_i e_(i-1)) / c_0."""
    c = poly.coefficients
    if c[0] not in (1, -1):
        raise ValueError("companion matrix is not unimodular")
    size = poly.degree
    return tuple(
        tuple(-c[i + 1] * c[0] if j == 0 else int(j == i + 1) for j in range(size))
        for i in range(size)
    )


def _read_only_float(matrix) -> np.ndarray:
    array = np.array([[float(e) for e in row] for row in matrix])
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class LatticeSigma:
    """The lattice Sigma = Phi(Z**(m+1)) in R x L, carried by exact data.

    `basis_matrix` is Phi, whose columns are the lattice basis in the
    ((1,0), (0,u_i)) coordinates; row i of Phi is the Vandermonde row
    (1, lambda_i, ..., lambda_i**m) of Pi's i-th diagonal entry.  `xi` is
    the unimodular integer matrix with Pi Phi = Phi Xi, so Pi(Sigma) =
    Sigma holds by construction.  The inverses are closed forms (see
    `build_lattice`), not eliminations.
    Only `build_lattice` makes a verified lattice: it checks Pi Phi = Phi Xi
    and det Xi = +-1 and refuses one that fails them.
    """

    model: ModelData
    index_set: tuple[int, ...]
    y_exponents: tuple[int, ...]
    pi_matrix: tuple
    basis_matrix: tuple
    basis_matrix_inverse: tuple
    xi: tuple[tuple[int, ...], ...]
    xi_inverse: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.y_exponents)

    # The float matrices and the integer rows below are derived once per
    # lattice and kept on the instance, so they live exactly as long as it.

    @cached_property
    def phi_float(self) -> np.ndarray:
        return _read_only_float(self.basis_matrix)

    @cached_property
    def phi_inv_float(self) -> np.ndarray:
        return _read_only_float(self.basis_matrix_inverse)

    def log_phi(self) -> np.ndarray:
        """log Phi_ij = y_i j log q, rows in the order of Y: read from the
        exponents, since the float Phi overflows from n = 21 on."""
        log_q = math.log(float(self.model.context().q))
        return log_q * np.outer(self.y_exponents, range(self.size))

    @cached_property
    def xi_column(self) -> tuple[int, ...]:
        """Xi's last column: with the companion pattern below it, the whole
        of Xi, and the column `intertwining_failures` checks against Phi."""
        return tuple(row[-1] for row in self.xi)

    @cached_property
    def _integer_rows(self) -> tuple:
        """Each row of Phi as (a-numerators, b-numerators, denominator):
        entry j of the row is (a[j] + b[j] sqrt(d)) / denominator, with one
        common denominator for the whole row."""
        rows = []
        for row in self.basis_matrix:
            den = math.lcm(*(e.den for e in row))
            scales = [den // e.den for e in row]
            rows.append(
                (
                    tuple(e.int_a * s for e, s in zip(row, scales)),
                    tuple(e.int_b * s for e, s in zip(row, scales)),
                    den,
                )
            )
        return tuple(rows)


def build_lattice(model: ModelData, pi) -> LatticeSigma:
    """Assemble Sigma from the exact Pi matrix.

    Xi is the companion matrix of the characteristic polynomial N with
    roots {q**a : a in Y}, and its left eigenrows are the Vandermonde rows
    (1, lambda, ..., lambda**m) of the roots.  Pi = diag(1/q, q**E(i)) is
    diagonal, so Phi is the Vandermonde matrix with its rows in slot order:
    row 0 for 1/q, row i for q**E(i).  Both inverses are closed forms:
    column i of Phi^-1 is the Lagrange-basis column of row i's root, in
    O(m**2) field operations, and Xi^-1 comes from the companion form,
    integral as N(0) = +-1.  The identity Pi Phi = Phi Xi and det Xi = +-1
    are verified by `intertwining_failures` before anything is returned;
    the first failure raises.
    """
    ctx = model.context()
    y_sorted = tuple(sorted(model.system.exponent_spectrum))
    size = len(y_sorted)
    if len(pi) != size:
        raise ValueError(f"Pi is {len(pi)}x{len(pi)} but Y has {size} exponents")

    poly = char_poly_from_exponents(y_sorted, model.p)
    xi = companion_matrix(poly)
    xi_inverse = _companion_inverse(poly)

    slots = tuple(sorted(model.system.selector))
    row_exponents = (-1, *(model.system.E_of(i) for i in slots))
    phi = [[ctx.q_power(y * power) for power in range(size)] for y in row_exponents]
    vand_inv = _vandermonde_inverse_columns(poly, [ctx.q_power(y) for y in y_sorted], ctx)
    inv_columns = [vand_inv[y_sorted.index(y)] for y in row_exponents]

    sigma = LatticeSigma(
        model=model,
        index_set=slots,
        y_exponents=y_sorted,
        pi_matrix=tuple(tuple(row) for row in pi),
        basis_matrix=tuple(tuple(row) for row in phi),
        basis_matrix_inverse=tuple(zip(*inv_columns)),
        xi=xi,
        xi_inverse=xi_inverse,
    )
    failures = intertwining_failures(sigma)
    if failures:
        raise ValueError(f"intertwining identity fails: {failures[0]}")
    return sigma


def intertwining_failures(sigma: LatticeSigma) -> tuple[str, ...]:
    """Verify Pi Phi = Phi Xi entry by entry in field arithmetic, and that
    Xi is unimodular — the two facts that make Sigma a Pi-stable lattice.
    Returns human-readable failure strings, empty when exact.

    A failure is one entry where Pi Phi != Phi Xi, or one entry of Pi or Xi
    outside the shape the products rely on: Pi is diagonal, so row i of
    Pi Phi is Pi[i][i] times row i of Phi; column j < size - 1 of the
    companion product Phi Xi is column j + 1 of Phi, and its last column is
    Phi applied to Xi's integer last column.
    """
    size = sigma.size
    pi, phi, xi = sigma.pi_matrix, sigma.basis_matrix, sigma.xi
    failures = [
        f"Pi entry ({i}, {j}) is nonzero off the diagonal"
        for i in range(size)
        for j in range(size)
        if j != i and not pi[i][j].is_zero
    ] + [
        f"Xi entry ({i}, {j}) = {xi[i][j]} breaks the companion pattern"
        for i in range(size)
        for j in range(size - 1)
        if xi[i][j] != int(i == j + 1)
    ]
    if not failures:
        last = _lattice_column(sigma, sigma.xi_column)
        for i in range(size):
            for j in range(size):
                lhs = pi[i][i] * phi[i][j]
                rhs = phi[i][j + 1] if j + 1 < size else last[i]
                if lhs != rhs:
                    failures.append(f"Pi Phi != Phi Xi at entry ({i}, {j})")
    determinant = det_int(sigma.xi)
    if determinant not in (1, -1):
        failures.append(f"det Xi = {determinant}, not a unit")
    return tuple(failures)


def _lattice_column(sigma: LatticeSigma, coords: Sequence[int]) -> list[QFieldElement]:
    """Phi @ coords in field arithmetic, as two integer dot products per
    row over the row's common denominator."""
    coords = [int(c) for c in coords]
    d = sigma.model.context().d
    return [
        QFieldElement._unchecked(
            sum(a * c for a, c in zip(a_nums, coords)),
            sum(b * c for b, c in zip(b_nums, coords)),
            den,
            d,
        )
        for a_nums, b_nums, den in sigma._integer_rows
    ]


def lattice_element(
    sigma: LatticeSigma, coords: Sequence[int], lagrangian: LagrangianL
) -> HElement:
    """The group element Phi(coords) = (r, sum_j c_j u_j) for integer coords."""
    if len(coords) != sigma.size:
        raise ValueError(f"expected {sigma.size} coordinates, got {len(coords)}")
    column = _lattice_column(sigma, coords)
    r_part = float(column[0])
    terms = [
        (float(column[j + 1]), lagrangian.basis[j])
        for j in range(len(lagrangian.basis))
        if not column[j + 1].is_zero
    ]
    return HElement(sigma.model, r_part, _combine(sigma.model.m, terms))


# ---------------------------------------------------------------------------
# measurements of the quotient conditions on L

# the t values of the numeric B and D cross-checks
OMEGA_TS = (1.0, 1.5, 2.2)
# the log-spaced grid of one period for E
EVALUATION_POINTS = 20


def certify_ace(model: ModelData, lagrangian: LagrangianL) -> dict:
    """Measure the quotient conditions that read L alone.

    A: L has dimension m on m distinct slots with distinct CT exponents.
    B: each basis member sits in an eigen-slot of CT, so invariance is the
    eigen-equation; `b_residual` compares CT u with q**E u across t.
    D: no selected pair of slots sums to 2m+1, so the pairing table is zero
    on L (`d_exact`); `d_numeric_max` samples it over t.
    E: the evaluation matrices are structurally triangular, so the measured
    content is their smallest diagonal entry and largest condition number
    on a log-spaced grid of one period.
    C reads the lattice, not L, and is not measured here.
    """
    m = model.m
    ctx = model.context()
    slots = lagrangian.index_set
    exponents = [model.system.E_of(i) for i in slots]
    dimension_ok = (
        lagrangian.dimension == m
        and len(set(slots)) == m
        and len(set(exponents)) == len(exponents)
    )

    b_residual = 0.0
    for slot, u in zip(slots, lagrangian.basis):
        lam = float(ctx.q_power(model.system.E_of(slot)))
        image = ct_image(model, u)
        for t in OMEGA_TS:
            lhs = image.value(t)
            rhs = lam * u.value(t)
            b_residual = max(
                b_residual,
                float(np.linalg.norm(lhs - rhs)) / max(1.0, float(np.linalg.norm(rhs))),
            )

    d_numeric_max = 0.0
    for t in OMEGA_TS:
        table = omega_matrix(model, lagrangian.basis, t)
        d_numeric_max = max(d_numeric_max, float(np.max(np.abs(table))))

    e_min_diagonal = math.inf
    e_max_condition = 0.0
    q = float(ctx.q)
    for t in np.geomspace(1.0 / q, q, EVALUATION_POINTS):
        matrix = lagrangian.evaluation_matrix(float(t))
        e_min_diagonal = min(e_min_diagonal, float(np.min(np.diag(matrix))))
        e_max_condition = max(e_max_condition, float(np.linalg.cond(matrix)))

    return {
        "dimension_ok": dimension_ok,
        "b_residual": b_residual,
        "d_exact": all(i + j != 2 * m + 1 for i in slots for j in slots),
        "d_numeric_max": d_numeric_max,
        "e_min_diagonal": e_min_diagonal,
        "e_max_condition": e_max_condition,
    }


# ---------------------------------------------------------------------------
# normal forms and canonical representatives


def normal_form(sigma: LatticeSigma, word: Sequence) -> tuple[int, tuple[int, ...]]:
    """Reduce a word over {gamma-hat, gamma-hat inverse} and lattice vectors
    to the pair (r, coords) with word = gamma-hat**r * Phi(coords).

    One pass from left to right keeps the prefix read so far in that form.
    A lattice letter adds to coords, the restriction of the group law to
    R x L being plain addition.  A hat letter gamma-hat**e is pushed left
    past Phi(coords), which conjugates it to Phi(Xi**-e coords).
    """
    power = 0
    coords = (0,) * sigma.size
    for token in word:
        if isinstance(token, str):
            if token not in (HAT, HAT_INV):
                raise ValueError(f"unknown generator token {token!r}")
            step = 1 if token == HAT else -1
            power, coords = power + step, xi_power(sigma, coords, -step)
        else:
            vec = tuple(int(c) for c in token)
            if len(vec) != sigma.size:
                raise ValueError(f"lattice letters need {sigma.size} coordinates")
            coords = tuple(c + v for c, v in zip(coords, vec))
    return power, coords


def xi_power(sigma: LatticeSigma, vector: Sequence, exponent: int) -> tuple:
    """Xi**exponent applied to an integer or rational vector, exactly, in
    O(size) per power from Xi's verified last column c alone.

    Xi is the companion matrix: Xi v shifts v down one place and adds
    v_last * c.  Inverting that, Xi**-1 v has last entry v_0 / c_0 and
    entries v_(i+1) - c_(i+1) * (v_0 / c_0) above it; c_0 = +-1 because
    det Xi = +-c_0 is a unit, so dividing by c_0 is multiplying by it and
    integers stay integers.
    """
    column = sigma.xi_column
    vector = tuple(vector)
    for _ in range(exponent):
        last = vector[-1]
        vector = (column[0] * last, *(x + c * last for x, c in zip(vector, column[1:])))
    for _ in range(-exponent):
        last = vector[0] * column[0]
        vector = (*(x - c * last for x, c in zip(vector[1:], column[1:])), last)
    return vector


def _slope(lagrangian: LagrangianL, coeffs, t: float) -> np.ndarray:
    """sum_j c_j u_j'(t), the t-derivative of the chart's L-part."""
    return sum((c * u.deriv(t) for c, u in zip(coeffs, lagrangian.basis)), np.zeros(len(coeffs)))


def fundamental_coordinates(
    point, sigma: LatticeSigma, lagrangian: LagrangianL
) -> tuple[float, np.ndarray]:
    """(t, w): the point's coordinates in the lattice basis, the natural
    O(1)-scaled parametrization of the fundamental cell.  For a canonical
    representative, t is in [1, q) and w in [0, 1)**(m+1)."""
    t, s, v = point
    v = np.asarray(v, dtype=float)
    coeffs = np.linalg.solve(lagrangian.evaluation_matrix(t), v)
    z = float(s + sigma.model.inner(_slope(lagrangian, coeffs, t), v))
    return t, sigma.phi_inv_float @ np.concatenate(([z], coeffs))


def point_from_coordinates(t: float, w, sigma: LatticeSigma, lagrangian: LagrangianL) -> tuple:
    """The point (t, s, v) with fundamental coordinates (t, w), through the
    float Phi: the inverse of `fundamental_coordinates`."""
    reduced = sigma.phi_float @ w
    z, coeffs = float(reduced[0]), reduced[1:]
    v = lagrangian.evaluation_matrix(t) @ coeffs
    return (t, float(z - sigma.model.inner(_slope(lagrangian, coeffs, t), v)), v)


def canonicalize(
    point,
    gamma_hat: GammaHat,
    sigma: LatticeSigma,
    lagrangian: LagrangianL,
) -> tuple[tuple, tuple[int, tuple[int, ...]]]:
    """Move a point to the fundamental cell: t in [1, q), lattice
    coordinates in [0, 1)**(m+1).

    Returns (representative, (r, shift)): the gamma-hat power r applied
    first, then the lattice element with integer coordinates `shift`: the
    float `canonicalize_cell`, exact to |Phi| |Phi^-1| eps off the faces.
    """
    t, s, v = point
    if t <= 0:
        raise ValueError("points live on t > 0")
    q = float(gamma_hat.model.context().q)
    r = -math.floor(math.log(t) / math.log(q))
    current = (t, s, np.asarray(v, dtype=float))
    for _ in range(abs(r)):
        current = act(gamma_hat, current) if r > 0 else act_inverse(gamma_hat, current)

    t1, w = fundamental_coordinates(current, sigma, lagrangian)
    shift = np.floor(w).astype(int)
    rep = point_from_coordinates(t1, w - shift, sigma, lagrangian)
    return rep, (r, tuple(int(-x) for x in shift))


def canonicalize_cell(sigma: LatticeSigma, tau, w: Sequence) -> tuple:
    """`canonicalize` on rational cell coordinates (tau = log_q t, w),
    exactly: gamma-hat acts by (tau, w) -> (tau + 1, Xi w) and Phi(c) by
    w -> w + c, so r = -floor(tau) and shift = -floor(Xi**r w)."""
    r = -math.floor(tau)
    moved = xi_power(sigma, w, r)
    shift = tuple(-math.floor(x) for x in moved)
    return (tau + r, tuple(x + c for x, c in zip(moved, shift))), (r, shift)
