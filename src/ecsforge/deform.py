"""Deformed coefficient profiles with a prescribed transfer spectrum.

A deformed profile is f = f* + f_a, where f_a(t) = (a**2 - 1/4) / t**2 is a
power law and f*(t) = t**-2 g(log t / log q) is built from a 1-periodic
trigonometric polynomial g with g(0) = 0.  Both pieces satisfy the
self-similarity q**2 f(q t) = f(t) identically, so the transfer operator
(T y)(t) = y(t/q) acts on the solutions of y'' = f y; its matrix always has
determinant 1/q, and the one remaining invariant is the trace H(f*, a).

For f* = 0 the eigenfunctions are t**(-+a + 1/2) with eigenvalues
q**(+-a - 1/2), hence H(0, a) = 2 q**(-1/2) cosh(a log q).  `solve_a` tunes
a so that the perturbed trace hits the unperturbed target at a requested
c > 0, which forces the transfer spectrum {q**(c - 1/2), q**(-c - 1/2)}
while f itself is genuinely non-homogeneous.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np
from scipy.optimize import brentq

from .exact import QFieldContext
from .funcspace import OdeFn, transfer_matrix_T
from .model import json_float, json_int

__all__ = [
    "PerturbationF0",
    "DeformedF",
    "trace_H",
    "target_trace_value",
    "solve_a",
    "eig_positivity",
    "recovered_base",
]

# grid sizes over one period: of g for its amplitude, and of [1/q, q] for
# the eigenfunctions' positivity
G_SAMPLES = 4096
POSITIVITY_POINTS = 241


@dataclass(frozen=True)
class PerturbationF0:
    """A 1-periodic perturbation g and its profile f*(t) = t**-2 g(x),
    x = log t / log q.

    `fourier_coeffs[j-1] = (A_j, B_j)` contributes
    A_j (cos 2 pi j x - 1) + B_j sin 2 pi j x, so g(0) = 0 holds by
    construction and f* vanishes at t = 1 (and at every power of q).
    """

    fourier_coeffs: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        coeffs = tuple(
            (float(pair[0]), float(pair[1])) for pair in self.fourier_coeffs
        )
        for a_j, b_j in coeffs:
            if not (math.isfinite(a_j) and math.isfinite(b_j)):
                raise ValueError("perturbation coefficients must be finite")
        object.__setattr__(self, "fourier_coeffs", coeffs)
        # the angular frequency 2 pi j of each harmonic, grouped as the
        # angle (2 pi j) x is
        object.__setattr__(
            self, "_freqs", tuple(2.0 * math.pi * j for j in range(1, len(coeffs) + 1))
        )

    @property
    def is_zero(self) -> bool:
        return all(a == 0.0 and b == 0.0 for a, b in self.fourier_coeffs)

    def g(self, x: float) -> float:
        total = 0.0
        for freq, (a_j, b_j) in zip(self._freqs, self.fourier_coeffs):
            angle = freq * x
            total += a_j * (math.cos(angle) - 1.0) + b_j * math.sin(angle)
        return total

    def g_deriv(self, x: float) -> float:
        total = 0.0
        for freq, (a_j, b_j) in zip(self._freqs, self.fourier_coeffs):
            angle = freq * x
            total += freq * (-a_j * math.sin(angle) + b_j * math.cos(angle))
        return total

    def max_abs_g(self) -> float:
        """Amplitude of g over one period, by dense sampling (g is a low
        order trigonometric polynomial, so this resolves the maximum).
        The grid is summed as one array expression, harmonic by harmonic
        as `g` sums; NumPy's cos and sin may differ from `math`'s in the
        last bit, which only the amplitude guard of `solve_a` reads."""
        if self.is_zero:
            return 0.0
        grid = np.linspace(0.0, 1.0, G_SAMPLES, endpoint=False)
        total = np.zeros_like(grid)
        for freq, (a_j, b_j) in zip(self._freqs, self.fourier_coeffs):
            angle = freq * grid
            total += a_j * (np.cos(angle) - 1.0) + b_j * np.sin(angle)
        return float(np.max(np.abs(total)))

    def fstar_value(self, t: float, log_q: float) -> float:
        return self.g(math.log(t) / log_q) / (t * t)

    def fstar_deriv(self, t: float, log_q: float) -> float:
        x = math.log(t) / log_q
        return (-2.0 * self.g(x) + self.g_deriv(x) / log_q) / (t * t * t)

    def to_json_list(self) -> list[list[float]]:
        return [[a_j, b_j] for a_j, b_j in self.fourier_coeffs]


@dataclass(frozen=True)
class _TrialProfile:
    """f* + f_a for a candidate a, as fed to the transfer-matrix solver."""

    perturbation: PerturbationF0
    a: float
    log_q: float

    def value(self, t: float) -> float:
        return self.perturbation.fstar_value(t, self.log_q) + (
            self.a * self.a - 0.25
        ) / (t * t)


@dataclass(frozen=True)
class DeformedF:
    """The solved profile f = f* + f_{a_solved} over Q(sqrt(p**2 - 4)).

    `c` is the requested half-gap: the transfer spectrum of f is
    {q**(c - 1/2), q**(-c - 1/2)}, matching the power-law profile of gap
    k = 2c whenever 2c is an odd integer.  `a_solved` is the tuned base
    exponent (equal to c exactly when the perturbation vanishes) and
    `target_trace` the trace both profiles share.
    """

    perturbation: PerturbationF0
    c: float
    a_solved: float
    target_trace: float
    p: int

    def __post_init__(self) -> None:
        for name in ("c", "a_solved", "target_trace"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.c <= 0:
            raise ValueError(f"half-gap c must be positive, got {self.c}")
        if self.a_solved <= 0:
            raise ValueError(f"base exponent must be positive, got {self.a_solved}")
        if self.p < 3:
            raise ValueError(f"trace parameter p must be >= 3, got {self.p}")
        object.__setattr__(self, "_ctx", QFieldContext(self.p))
        object.__setattr__(self, "_log_q", math.log(float(self._ctx.q)))

    @property
    def k(self) -> float:
        """Gap seen by the model layer; equals the system gap when 2c does."""
        return 2 * self.c

    def value(self, t: float) -> float:
        base = (self.a_solved * self.a_solved - 0.25) / (t * t)
        return base + self.perturbation.fstar_value(t, self._log_q)

    def deriv(self, t: float) -> float:
        base = -2.0 * (self.a_solved * self.a_solved - 0.25) / (t * t * t)
        return base + self.perturbation.fstar_deriv(t, self._log_q)

    @property
    def vanishes(self) -> bool:
        """f == 0: t**2 f = a**2 - 1/4 + g is a constant plus distinct
        Fourier modes, so it is 0 exactly when a**2 = 1/4, taken exactly
        on the stored float, and every harmonic pair is (0, 0)."""
        return Fraction(self.a_solved) ** 2 == Fraction(1, 4) and self.perturbation.is_zero

    @functools.cached_property
    def transfer_matrix(self) -> np.ndarray:
        """The matrix of T (`transfer_matrix_T`), integrated once per
        profile instance; its trace is the profile's H(f*, a_solved)."""
        return transfer_matrix_T(self, float(self._ctx.q))

    @functools.cached_property
    def eigenpair(self) -> tuple[OdeFn, OdeFn]:
        """T's eigenfunctions (y+, y-) at q**(c - 1/2) and q**(-c - 1/2),
        built once per profile instance: each start vector at t = 1 is the
        null vector of T - lam I (its rows are parallel; the larger is used),
        normalized to y(1) = 1 where possible, and each function is stored
        over the one period in which it dominates (`OdeFn`): y+ down to
        t = 1/q, y- up to t = q.  Raises ValueError when T lacks a target
        eigenvalue, as it does unless the trace is matched."""
        q, matrix, pair = float(self._ctx.q), self.transfer_matrix, []
        for exp in (self.c - 0.5, -self.c - 0.5):
            lam = math.exp(exp * self._log_q)
            if exp.is_integer():  # a field element whenever 2c is an odd integer
                lam = float(self._ctx.q_power(int(exp)))
            rows = matrix - lam * np.eye(2)
            row = rows[0] if np.linalg.norm(rows[0]) >= np.linalg.norm(rows[1]) else rows[1]
            vec = np.array([row[1], -row[0]])
            residual = np.linalg.norm(matrix @ vec - lam * vec)
            if residual > 1e-8 * max(1.0, abs(lam)) * np.linalg.norm(vec):
                raise ValueError(
                    "profile does not have the requested transfer spectrum "
                    f"(eigen-residual {residual:.3e} at exponent {exp:g})"
                )
            vec = vec / (vec[0] if abs(vec[0]) > 1e-12 * np.linalg.norm(vec) else vec[1])
            pair.append(OdeFn(self, vec, lam, q))
        return tuple(pair)

    def to_json_dict(self) -> dict:
        return {
            "variant": "deformed",
            "p": self.p,
            "c": self.c,
            "a_solved": self.a_solved,
            "target_trace": self.target_trace,
            "fourier": self.perturbation.to_json_list(),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "DeformedF":
        pairs = tuple(tuple(pair) for pair in data["fourier"])
        if any(len(pair) != 2 for pair in pairs):
            raise ValueError(f"Fourier pairs need exactly two entries, got {pairs!r}")
        return cls(
            perturbation=PerturbationF0(
                tuple(tuple(json_float(x, "a Fourier entry") for x in pair) for pair in pairs)
            ),
            c=json_float(data["c"], "c"),
            a_solved=json_float(data["a_solved"], "a_solved"),
            target_trace=json_float(data["target_trace"], "target_trace"),
            p=json_int(data["p"], "p"),
        )


def target_trace_value(c: float, ctx: QFieldContext) -> float:
    """2 q**(-1/2) cosh(c log q) = q**(c - 1/2) + q**(-c - 1/2)."""
    log_q = math.log(float(ctx.q))
    return 2.0 * math.exp(-0.5 * log_q) * math.cosh(c * log_q)


def trace_H(fstar: PerturbationF0, a: float, ctx: QFieldContext) -> float:
    """Trace of T on the solution space of y'' = (f* + f_a) y.

    Propagated from t = 1 down to 1/q in the basis of initial conditions,
    so the value is u1(1/q) + u2'(1/q)/q; the companion determinant is
    pinned at 1/q and carries no information about f.
    """
    if a <= 0:
        raise ValueError(f"base exponent must be positive, got {a}")
    q = float(ctx.q)
    profile = _TrialProfile(fstar, a, math.log(q))
    matrix = transfer_matrix_T(profile, q)
    return float(matrix[0, 0] + matrix[1, 1])


# the largest trace residual solve_a accepts at its root
TRACE_TOL = 1e-10


def solve_a(fstar: PerturbationF0, c: float, ctx: QFieldContext) -> DeformedF:
    """Tune a so that trace_H(f*, a) equals the unperturbed target at c.

    Brent's bracketed root finder on [c - 1/2, c + 1/2] (the trace is
    strictly increasing in a when the perturbation is small) converges to
    rounding level in about ten trace evaluations; the residual at the root
    (one of those evaluations, so it is not integrated again) must be
    within `TRACE_TOL`.  Rejects perturbations with max|g| > (c**2 - 1/4)/2:
    beyond that the bracket is not guaranteed to contain exactly one root.
    """
    if c <= 0.5:
        raise ValueError(f"half-gap c must exceed 1/2, got {c}")
    amplitude = fstar.max_abs_g()
    guard = 0.5 * (c * c - 0.25)
    if amplitude > guard:
        raise ValueError(
            f"perturbation amplitude {amplitude:.6g} exceeds the guard "
            f"{guard:.6g} for c = {c}"
        )
    target = target_trace_value(c, ctx)

    # brentq evaluates the bracket ends again, and the check below reads
    # the trace at the root, which brentq has already evaluated
    @functools.cache
    def trace(a: float) -> float:
        return trace_H(fstar, a, ctx)

    def residual(a: float) -> float:
        return trace(a) - target

    lo, hi = c - 0.5, c + 0.5
    if residual(lo) * residual(hi) > 0:
        raise ValueError(
            "no sign change across [c - 1/2, c + 1/2]: the perturbation "
            "moved the trace outside the bracket"
        )
    # rtol = 4 eps is the smallest brentq accepts; xtol only matters for a
    # root near 0
    root = brentq(residual, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)

    achieved = trace(root)
    if abs(achieved - target) > TRACE_TOL:
        raise ValueError(
            f"trace residual {abs(achieved - target):.3e} did not reach "
            f"{TRACE_TOL:.1e}; the root finder stalled"
        )
    return DeformedF(
        perturbation=fstar,
        c=float(c),
        a_solved=float(root),
        target_trace=target,
        p=ctx.p,
    )


def _positive_on_grid(fn: OdeFn, lo: float, hi: float) -> bool:
    """Strict positivity of the integrated solution fn on a geometric grid
    of [lo, hi], read from its stored period in one pass."""
    return bool(np.all(fn.values(np.geomspace(lo, hi, POSITIVITY_POINTS)) > 0.0))


def eig_positivity(df: DeformedF) -> bool:
    """Whether both T-eigenfunctions of the solved profile are positive.

    The pair is the profile's own `eigenpair`, normalized to y(1) = 1,
    sampled across one full period [1/q, q].  Positivity on a period
    propagates to all of (0, oo) because the function rescales by a
    positive eigenvalue under t -> t/q.  Without the target eigenpair (a
    complex pair, or a trace off target) there is no positive eigenbasis.
    """
    q = float(df._ctx.q)
    try:
        pair = df.eigenpair
    except ValueError:
        return False
    return all(_positive_on_grid(fn, 1.0 / q, q) for fn in pair)


def recovered_base(df: DeformedF) -> float:
    """Read the base exponent back off the profile: g(0) = 0 forces
    f(1) = a**2 - 1/4, so a = sqrt(f(1) + 1/4).  Injectivity witness."""
    return math.sqrt(df.value(1.0) + 0.25)
