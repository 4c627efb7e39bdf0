"""Independent checks of the program's outputs.

Each check returns a list of failure messages, empty when the output is
right.  None of them calls the code it checks to get its expected value:
the expected values come from closed forms, from a separate solver call,
or from the exact arithmetic in ``perfbench.qfield``.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .qfield import QSqrt, charpoly, int_matmul, int_matvec, matmul, matvec, poly_at

# Finite-difference curvature against the closed form.  The measured
# relative errors are about 1e-12 for |R| and |W| and 1e-9 for |nabla R|
# at n = 5..15; |nabla W| / |W| reads up to 1.2e-6 where 0 is exact.
CURVATURE_REL_TOL = 1e-8
NABLA_RIEMANN_REL_TOL = 1e-6
NABLA_WEYL_TOL = 1e-5

# The transfer matrix from an integration in t (not log t) at rtol 1e-12.
TRANSFER_REL_TOL = 1e-9

# The geodesic that certify traces starts at t0 = 1 with dt/dtau = -1 and
# stops at the default cutoff t = 1e-3 (see `_dynamic_sections` and
# `geodesic_trace` in the program).
GEODESIC_START_T = 1.0
GEODESIC_START_T_DOT = -1.0
GEODESIC_CUTOFF = 1e-3
GEODESIC_TAU_TOL = 1e-9


# ---------------------------------------------------------------------------
# profiles and curvature


def unit_q(p: int) -> float:
    return (p + math.sqrt(p * p - 4)) / 2.0


def profile_value_and_slope(f_data: Mapping, t: float) -> tuple[float, float]:
    """f(t) and f'(t) from a model file's profile fields.

    Power law: f = (k**2 - 1) / (4 t**2).  Deformed: f = (a**2 - 1/4) / t**2
    + t**-2 g(log t / log q) with g(x) = sum_j A_j (cos 2 pi j x - 1)
    + B_j sin 2 pi j x.
    """
    if f_data["variant"] == "homogeneous":
        k = int(f_data["k"])
        return (k * k - 1) / (4.0 * t * t), -(k * k - 1) / (2.0 * t ** 3)
    if f_data["variant"] != "deformed":
        raise ValueError(f"unknown profile variant {f_data['variant']!r}")
    a = float(f_data["a_solved"])
    log_q = math.log(unit_q(int(f_data["p"])))
    x = math.log(t) / log_q
    g = g_slope = 0.0
    for j, (a_j, b_j) in enumerate(f_data["fourier"], start=1):
        w = 2.0 * math.pi * j
        g += a_j * (math.cos(w * x) - 1.0) + b_j * math.sin(w * x)
        g_slope += w * (-a_j * math.sin(w * x) + b_j * math.cos(w * x))
    base = a * a - 0.25
    value = (base + g) / (t * t)
    slope = (-2.0 * base - 2.0 * g + g_slope / log_q) / t ** 3
    return value, slope


def expected_curvature(model_data: Mapping, t: float) -> dict[str, float]:
    """Closed-form curvature norms of g = kappa dt**2 + dt ds + <dv, dv>,
    kappa = f(t) <v, v> + <A v, v>, in the program's chart convention
    (Frobenius norms of covariant component arrays).

    Only R(d_t, d_i, d_t, d_j) = -1/2 d_i d_j kappa survives, with
    d_i d_j kappa = H = 2 f h + h A + A^T h; its four index placements
    give |R| = |H|.  The Ricci tensor is a multiple of dt**2 and the
    scalar curvature vanishes, so W is the h-trace-free part of H, which
    does not depend on t because A is nilpotent; hence nabla W = 0 and
    |nabla R| = |d_t H| = 2 |f'(t)| |h|.
    """
    m = int(model_data["n"]) - 2
    eps = int(model_data["eps"])
    h = np.fliplr(np.eye(m)) * eps
    shift = np.zeros((m, m))
    shift[0, m - 1] = 1.0
    f, f_slope = profile_value_and_slope(model_data["f"], t)
    hess = 2.0 * f * h + h @ shift + shift.T @ h
    trace_free = hess - (np.trace(h @ hess) / m) * h  # h is its own inverse
    return {
        "norm_riemann": float(np.linalg.norm(hess)),
        "norm_weyl": float(np.linalg.norm(trace_free)),
        "norm_nabla_riemann": float(np.linalg.norm(2.0 * f_slope * h)),
    }


def curvature_failures(report, expected: Mapping[str, float], label: str) -> list[str]:
    """Compare a `curvature_at` report with `expected_curvature`."""
    failures = []
    for key, tol in (
        ("norm_riemann", CURVATURE_REL_TOL),
        ("norm_weyl", CURVATURE_REL_TOL),
        ("norm_nabla_riemann", NABLA_RIEMANN_REL_TOL),
    ):
        got, want = getattr(report, key), expected[key]
        if not abs(got - want) <= tol * abs(want):
            failures.append(f"{label}: {key} {got!r} != closed form {want!r}")
    if not report.norm_nabla_weyl <= NABLA_WEYL_TOL * report.norm_weyl:
        failures.append(
            f"{label}: |nabla W| = {report.norm_nabla_weyl!r} is not 0 "
            f"against |W| = {report.norm_weyl!r}"
        )
    if report.olszak_dimension != 2:
        failures.append(f"{label}: Olszak dimension {report.olszak_dimension}, expected 2")
    return failures


def section_failures(certificate: Mapping, expected_failing: frozenset, label: str) -> list[str]:
    """The certificate's failing sections must be exactly the known ones."""
    failing = {s["name"] for s in certificate["sections"] if not s["pass"]}
    if failing != expected_failing:
        return [f"{label}: failing sections {sorted(failing)}, expected {sorted(expected_failing)}"]
    return []


def geodesic_failures(certificate: Mapping, label: str) -> list[str]:
    """t is affine in the affine parameter, so the cutoff is reached at
    tau = (t0 - cutoff) / |dt0|."""
    section = next(s for s in certificate["sections"] if s["name"] == "geodesic-witness")
    tau = section["details"]["witness_tau"]
    want = (GEODESIC_START_T - GEODESIC_CUTOFF) / abs(GEODESIC_START_T_DOT)
    if tau is None or not abs(tau - want) <= GEODESIC_TAU_TOL:
        return [f"{label}: witness_tau {tau!r} != {want!r}"]
    return []


# ---------------------------------------------------------------------------
# transfer matrix of a deformed profile


def transfer_matrix(f_data: Mapping, p: int) -> np.ndarray:
    """Matrix of (T y)(t) = y(t/q) on solutions of y'' = f y in the basis
    of initial conditions (y(1), y'(1)) = (1, 0), (0, 1), from one
    integration of the first-order system in t over [1/q, 1]."""
    q = unit_q(p)

    def rhs(t, state):
        f, _ = profile_value_and_slope(f_data, t)
        return np.array([state[1], f * state[0], state[3], f * state[2]])

    sol = solve_ivp(
        rhs, (1.0, 1.0 / q), np.array([1.0, 0.0, 0.0, 1.0]),
        method="DOP853", rtol=1e-12, atol=1e-14,
    )
    if not sol.success:
        raise RuntimeError(f"transfer integration failed: {sol.message}")
    y1, dy1, y2, dy2 = sol.y[:, -1]
    return np.array([[y1, y2], [dy1 / q, dy2 / q]])


def transfer_failures(f_data: Mapping, p: int, c: float, label: str) -> list[str]:
    """trace T = q**(c - 1/2) + q**(-c - 1/2) and det T = 1/q."""
    q = unit_q(p)
    matrix = transfer_matrix(f_data, p)
    failures = []
    trace, target = float(np.trace(matrix)), q ** (c - 0.5) + q ** (-c - 0.5)
    if not abs(trace - target) <= TRANSFER_REL_TOL * target:
        failures.append(f"{label}: transfer trace {trace!r} != {target!r}")
    det = float(np.linalg.det(matrix))
    if not abs(det - 1.0 / q) <= TRANSFER_REL_TOL / q:
        failures.append(f"{label}: transfer determinant {det!r} != 1/q = {1.0 / q!r}")
    return failures


# ---------------------------------------------------------------------------
# exact lattice data


def field_matrix(rows, d: int) -> list[list[QSqrt]]:
    """Convert the program's field matrices through their certificate
    encoding, the one representation the program promises to keep."""
    return [[QSqrt.from_certificate(e.to_json_dict(), d) for e in row] for row in rows]


def lattice_failures(
    p: int,
    pi: Sequence[Sequence[QSqrt]],
    phi: Sequence[Sequence[QSqrt]],
    phi_inv: Sequence[Sequence[QSqrt]],
    xi: Sequence[Sequence[int]],
    xi_inv: Sequence[Sequence[int]],
    y_exponents: Sequence[int],
    rng: np.random.Generator,
    label: str,
) -> list[str]:
    """Pi Phi = Phi Xi; Phi Phi^-1 = I (Freivalds, two seeded integer
    vectors); Xi Xi^-1 = I in integers with det Xi = +-1; every q**y a root
    of Xi's characteristic polynomial."""
    d = p * p - 4
    size = len(phi)
    failures = []
    xi_field = [[QSqrt.integer(v, d) for v in row] for row in xi]
    if matmul(pi, phi, d) != matmul(phi, xi_field, d):
        failures.append(f"{label}: Pi Phi != Phi Xi")
    for _ in range(2):
        probe = [QSqrt.integer(int(v), d) for v in rng.integers(-10**6, 10**6, size=size, endpoint=True)]
        if matvec(phi, matvec(phi_inv, probe, d), d) != probe:
            failures.append(f"{label}: Phi Phi^-1 x != x for a seeded integer x")
            break
    identity = [[int(i == j) for j in range(size)] for i in range(size)]
    if int_matmul(xi, xi_inv) != identity:
        failures.append(f"{label}: Xi Xi^-1 != I")
    poly = charpoly(xi)
    det = (-1) ** size * poly[0]
    if det not in (1, -1):
        failures.append(f"{label}: det Xi = {det}, not a unit")
    if len(y_exponents) != size:
        failures.append(f"{label}: {len(y_exponents)} exponents for a {size}x{size} Xi")
    for y in y_exponents:
        if not poly_at(poly, QSqrt.unit_power(p, y)).is_zero:
            failures.append(f"{label}: q**{y} is not a root of det(x I - Xi)")
    return failures


# ---------------------------------------------------------------------------
# normal forms


def reduce_word(word: Sequence, xi, xi_inv, hat, hat_inv) -> tuple[int, tuple[int, ...]]:
    """(r, coords) with word = hat**r * Phi(coords), reduced left to right:
    a hat passed on the right conjugates every lattice letter before it,
    Phi(v) hat = hat Phi(Xi^-1 v)."""
    r = 0
    acc = [0] * len(xi)
    for token in word:
        if token == hat:
            r, acc = r + 1, int_matvec(xi_inv, acc)
        elif token == hat_inv:
            r, acc = r - 1, int_matvec(xi, acc)
        else:
            acc = [a + b for a, b in zip(acc, token)]
    return r, tuple(acc)


def normal_form_law_failures(xi, cases, label: str) -> list[str]:
    """Group laws on letters v, w.  Each case is
    (v, w, nf(v hat hat^-1), nf(v w), nf(v hat)): the first is (0, v); the
    second (0, v + w); the third (1, c) with Xi c = v."""
    failures = []
    for v, w, back, summed, pushed in cases:
        if tuple(back) != (0, tuple(v)):
            failures.append(f"{label}: v hat hat^-1 reduced to {back}, not (0, v)")
        if tuple(summed) != (0, tuple(a + b for a, b in zip(v, w))):
            failures.append(f"{label}: v w reduced to {summed}, not (0, v + w)")
        r, coords = pushed
        if r != 1 or int_matvec(xi, coords) != list(v):
            failures.append(f"{label}: v hat reduced to {pushed}, not (1, Xi^-1 v)")
    return failures


def normal_form_batch_failures(words, results, xi, xi_inv, hat, hat_inv, label: str) -> list[str]:
    failures = []
    for index, (word, result) in enumerate(zip(words, results)):
        want = reduce_word(word, xi, xi_inv, hat, hat_inv)
        if (result[0], tuple(result[1])) != want:
            failures.append(f"{label}: word {index} reduced to {result}, expected {want}")
    return failures
