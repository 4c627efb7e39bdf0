"""Command-line pipeline: generate model files, certify them end to end,
and run the even-order nonexistence search.

Every artifact is UTF-8 JSON with schema tag "ecs-forge/1", serialized
canonically (sorted keys, two-space indent, trailing newline) so that a
load/re-emit round trip is byte-identical.  Certificates aggregate one
section per verifiable claim; exact sections carry the literal residual
"0", numeric ones their measured residual and tolerance.  Exit codes:
generate 0 success / 1 invariant failure / 2 unusable dimension or
unwritable output; certify 0 all sections pass / 1 some section fails /
2 bad option or unwritable output / 3 unreadable input; search-even 0
exactly when the scan comes back empty.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .deform import PerturbationF0, eig_positivity, solve_a
from .exact import QFieldContext, det_int
from .funcspace import (
    closure_residual,
    ct_eigenbasis,
    ct_eigencheck_exact,
    ct_eigencheck_residual,
    expected_omega_matrix,
    omega_matrix,
    verify_ct_omega_scaling,
)
from .geometry import (
    MetricPatch,
    curvature_at,
    geodesic_trace,
    isometry_residual,
)
from .model import (
    HomogeneousF,
    ModelData,
    bridging_checks,
    build_model,
    check_model,
    conjugation_checks,
    curvature_identities,
    isometry_checks,
    load_model_lenient,
)
from .quotient import (
    EVALUATION_POINTS,
    HAT,
    HAT_INV,
    act,
    act_jacobian,
    build_lagrangian,
    build_lattice,
    canonicalize_cell,
    certify_ace,
    holonomy_scaling,
    lattice_element,
    make_gamma_hat,
    normal_form,
    pi_map,
    xi_power,
)
from .spectral import search_systems, standard_family

__all__ = ["main", "build_certificate", "DEFAULT_TOLERANCES"]

TOOL = f"ecs-forge {__version__}"

DEFAULT_TOLERANCES = {
    "eigenbasis": 1e-9,
    "omega_table": 1e-9,
    "isometry": 1e-6,
    "curvature_nabla_weyl": 1e-5,
    "curvature_nabla_riemann_min": 1e-3,
    "curvature_symmetry": 1e-9,
    "profile_trace": 1e-9,
    "geodesic_deviation": 1e-6,
    "geodesic_parameter": 1e-3,
}


# the bounds of conditions B, D and E: B's numeric CT-invariance residual,
# D's sampled maximum of the pairing on L, and E's evaluation-matrix
# condition number over one period
B_BOUND = 1e-7
D_BOUND = 1e-8
CONDITION_BOUND = 1e8

# curvature_at cross-checks the exact curvature identities up to this
# dimension; above it they alone decide the section
CURVATURE_CROSS_CHECK_MAX_N = 7

# canonicalize-orbit draws tau in [-1, 2) and w in [-2, 2)**(m+1) over this
# denominator
CELL_DENOMINATOR = 4096


def canonical_json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _write(path: Path, data) -> bool:
    """Write `data` to `path` as canonical JSON; on failure say why on
    stderr and return False (a usage error: the path cannot be written)."""
    try:
        path.write_text(canonical_json(data), encoding="utf-8")
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args) -> int:
    n = args.n
    if n % 2 == 0 or n < 5:
        print(
            f"no model exists in dimension n = {n}: n must be odd and at least 5 "
            "(the integer m = n - 2 must be odd)",
            file=sys.stderr,
        )
        return 2
    r = (n + 1) // 2
    system = standard_family(r)
    try:
        profile = None
        if args.deform_coeffs is not None:
            # every JSON number parses as a float, so a pair is two floats
            pairs = json.loads(args.deform_coeffs, parse_int=float)
            if not isinstance(pairs, list) or not all(
                isinstance(pair, list) and len(pair) == 2
                and all(isinstance(x, float) for x in pair)
                for pair in pairs
            ):
                raise ValueError(
                    f"--deform-coeffs {args.deform_coeffs} is not a JSON array of "
                    "[A_j, B_j] number pairs"
                )
            perturbation = PerturbationF0(tuple(pairs))
            profile = solve_a(perturbation, system.k / 2.0, QFieldContext(args.p))
        model = build_model(system, p=args.p, eps=args.eps, f=profile)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"model construction failed: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out) if args.out else Path(f"model-n{n}-p{args.p}.json")
    if not _write(out, model.to_json_dict()):
        return 2
    print(out)
    return 0


# ---------------------------------------------------------------------------
# certify


def _exact_section(failures: Sequence[str], details) -> dict:
    return {
        "pass": not failures,
        "residual": "0" if not failures else None,
        "details": details if not failures else {"failures": list(failures), **details},
    }


def _numeric_section(residual: float, tolerance: float, details, *, holds: bool) -> dict:
    """A numeric section passes when its residual is within tolerance and
    its extra pass condition `holds`."""
    return {
        "pass": bool(residual <= tolerance and holds),
        "residual": float(residual),
        "details": {"tolerance": tolerance, **details},
    }


def _failed_section(message: str) -> dict:
    return {
        "pass": False,
        "residual": None,
        "details": {"failures": [message]},
    }


def _raised_at(exc: Exception) -> str:
    """`module.py:line` of the innermost traceback frame inside this
    package, by file name only, so the bytes do not depend on the
    checkout."""
    package = os.path.dirname(__file__)
    frames = traceback.extract_tb(exc.__traceback__)
    frame = [f for f in frames if os.path.dirname(f.filename) == package][-1]
    return f"{os.path.basename(frame.filename)}:{frame.lineno}"


def _random_point(rng, m: int, t_range=(0.5, 2.2)):
    return (
        float(rng.uniform(*t_range)),
        float(rng.uniform(-1.0, 1.0)),
        rng.uniform(-1.0, 1.0, m),
    )


def _draw_coords(rng, support: np.ndarray) -> tuple[int, ...]:
    """Lattice coordinates in -2..2 on the supported columns (all of them
    for the exact cell route), 0 elsewhere, redrawn until one is nonzero."""
    coords = np.zeros(support.shape, dtype=int)
    while not coords.any():
        coords[support] = rng.integers(-2, 3, size=int(support.sum()))
    return tuple(int(c) for c in coords)


class _Run:
    """One certificate's inputs and the objects its sections share.

    Each shared object is built the first time a section reads it and kept.
    None of the builds draws from `rng`, so a build that raises raises
    again, with the same message at the same line, in every section that
    reads it.
    """

    def __init__(self, model: ModelData, samples: int, seed: int, tol: Mapping[str, float]):
        self.model, self.samples, self.tol = model, samples, tol
        self.homogeneous = isinstance(model.f, HomogeneousF)
        # the one stream of draws, taken in section order
        self.rng = np.random.default_rng(seed)

    @functools.cached_property
    def basis(self):
        return ct_eigenbasis(self.model)

    @functools.cached_property
    def lagrangian(self):
        return build_lagrangian(self.model, self.basis)

    @functools.cached_property
    def gamma_hat(self):
        return make_gamma_hat(self.model)

    @functools.cached_property
    def sigma(self):
        # build_lattice returns only a lattice with Pi Phi = Phi Xi and
        # det Xi = +-1; when the identity fails it raises, and every
        # section that reads the lattice fails with its message
        return build_lattice(self.model, pi_map(self.model, self.gamma_hat, self.lagrangian))

    @functools.cached_property
    def ace(self):
        return certify_ace(self.model, self.lagrangian)

    @functools.cached_property
    def eigen_exact(self):
        # the integer eigen-weight check, read by eigenbasis and condition-b
        return ct_eigencheck_exact(self.model)

    @functools.cached_property
    def patch(self):
        return MetricPatch(self.model)


def _spectral_axioms(run: _Run) -> dict:
    return _exact_section(run.model.system.axiom_failures(), {"m": run.model.m, "k": run.model.k})


def _model_identities(run: _Run) -> dict:
    failures = list(check_model(run.model))
    flags = {}
    for group, result in (
        ("conjugation", conjugation_checks(run.model)),
        ("isometry", isometry_checks(run.model)),
        ("bridging", bridging_checks(run.model)),
    ):
        for key, ok in result.items():
            flags[f"{group}.{key}"] = bool(ok)
            if not ok:
                failures.append(f"{group}.{key} failed")
    return _exact_section(failures, flags)


def _profile_transfer(run: _Run) -> dict:
    f = run.model.f
    return _numeric_section(
        abs(float(np.trace(f.transfer_matrix)) - f.target_trace),
        run.tol["profile_trace"],
        {
            "a_solved": f.a_solved,
            "target_trace": f.target_trace,
            "eigenfunctions_positive": bool(eig_positivity(f)),
        },
        holds=True,
    )


def _closure_gated(sampled: float, basis, tolerance: float) -> dict:
    """A deformed eigen-equation section: the sampled residual holds by
    construction away from the stored periods' seams, so the periods'
    closure (`closure_residual`) is gated with it at the same tolerance."""
    closure = closure_residual(basis)
    return _numeric_section(
        max(sampled, closure),
        tolerance,
        {"closure_residual": closure, "sampled_residual": sampled},
        holds=True,
    )


def _eigenbasis(run: _Run) -> dict:
    numeric = ct_eigencheck_residual(run.model, run.basis)
    if not run.homogeneous:
        return _closure_gated(numeric, run.basis, run.tol["eigenbasis"])
    return _exact_section(
        () if run.eigen_exact else ("integer eigen-weight check failed",),
        {"numeric_cross_check": numeric},
    )


def _omega_table(run: _Run) -> dict:
    model = run.model
    scaling_exact, scaling_numeric = verify_ct_omega_scaling(model, run.basis)
    observed = omega_matrix(model, run.basis)
    if run.homogeneous:
        table_residual = float(np.max(np.abs(observed - expected_omega_matrix(model))))
        table_details = {"table": "anti-diagonal +-k*eps"}
    else:
        # the numeric eigenbasis is normalized at t = 1, which rescales the
        # anti-diagonal values; only the pairing pattern is normalization-free
        pattern = observed.copy()
        anti = np.fliplr(np.eye(2 * model.m, dtype=bool))
        pattern[anti] = 0.0
        table_residual = float(np.max(np.abs(pattern)))
        table_details = {"table": "off-pairing entries only (normalized basis)"}
    return _numeric_section(
        max(table_residual, scaling_numeric),
        run.tol["omega_table"],
        {
            **table_details,
            "scaling_exact": bool(scaling_exact),
            "scaling_numeric": scaling_numeric,
        },
        holds=True,
    )


def _condition_a(run: _Run) -> dict:
    lagrangian = run.lagrangian
    return _exact_section(
        () if run.ace["dimension_ok"] else ("L is not m slots with distinct CT exponents",),
        {
            "dimension": lagrangian.dimension,
            "expected": run.model.m,
            "slots": list(lagrangian.index_set),
        },
    )


def _condition_b(run: _Run) -> dict:
    # CT-invariance of L is the eigen-equation of each basis member; for the
    # power law the integer eigen-weight check proves it
    residual = run.ace["b_residual"]
    if not run.homogeneous:
        return _closure_gated(residual, run.lagrangian.basis, B_BOUND)
    failures = [] if run.eigen_exact else ["integer eigen-weight check failed"]
    if residual > B_BOUND:
        failures.append(f"numeric residual {residual:.3e} above {B_BOUND:g}")
    return _exact_section(failures, {"numeric_residual": residual})


def _condition_c(run: _Run) -> dict:
    # build_lattice returns only a lattice with Pi Phi = Phi Xi and
    # det Xi = +-1, verified in exact arithmetic
    sigma = run.sigma
    return _exact_section(
        (),
        {"xi_determinant": det_int(sigma.xi), "y_exponents": list(sigma.y_exponents)},
    )


def _condition_d(run: _Run) -> dict:
    numeric_max = run.ace["d_numeric_max"]
    failures = [] if run.ace["d_exact"] else ["two selected slots sum to 2m+1"]
    if numeric_max > D_BOUND:
        failures.append(f"numeric maximum {numeric_max:.3e} above {D_BOUND:g}")
    return _exact_section(failures, {"numeric_max": numeric_max})


def _condition_e(run: _Run) -> dict:
    ace = run.ace
    return _numeric_section(
        ace["e_max_condition"],
        CONDITION_BOUND,
        {"min_diagonal": ace["e_min_diagonal"], "points": EVALUATION_POINTS},
        holds=ace["e_min_diagonal"] > 0,
    )


def _lattice_intertwining(run: _Run) -> dict:
    return _exact_section((), {"size": run.sigma.size})


def _isometry(run: _Run) -> dict:
    rng, samples, patch = run.rng, run.samples, run.patch
    sigma, gamma_hat = run.sigma, run.gamma_hat

    def residual(element, point) -> float:
        return isometry_residual(
            patch, lambda x: act(element, x), point, jacobian=lambda x: act_jacobian(element, x)
        )

    worst_iso = 0.0
    for _ in range(samples):
        worst_iso = max(worst_iso, residual(gamma_hat, _random_point(rng, run.model.m)))
    # Lattice elements: intermediate pullback terms scale like the square of
    # the solution coefficients, and double precision resolves the identity
    # only while that square stays well below tol / eps.  Draw integer
    # coordinates on the basis columns small enough to respect the cap.
    coeff_cap = 3e4
    support = sigma.log_phi().max(axis=0) <= math.log(coeff_cap)
    elements = [
        lattice_element(sigma, _draw_coords(rng, support), run.lagrangian)
        for _ in range(samples)
    ]
    for element in elements:
        for _ in range(samples):
            point = _random_point(rng, run.model.m, (0.4, 1.2))
            worst_iso = max(worst_iso, residual(element, point))
    return _numeric_section(
        worst_iso,
        run.tol["isometry"],
        {
            "elements": 1 + len(elements),
            "points_per_element": samples,
            "lattice_columns_used": int(support.sum()),
            "coefficient_cap": coeff_cap,
        },
        holds=True,
    )


def _curvature_cross_check(run: _Run, points) -> tuple[list[str], dict]:
    """`curvature_at` at each point: every curvature bound the finite
    differences miss, and what they measured."""
    tol = run.tol
    misses = []
    worst_nabla_w = 0.0
    worst_symmetry = 0.0
    min_nabla_r = float("inf")
    olszak_dims = []
    for point in points:
        report = curvature_at(run.patch, point)
        if report.norm_weyl <= 0:
            misses.append(f"|W| = 0 at t = {point[0]:.4f}")
            continue
        worst_nabla_w = max(worst_nabla_w, report.norm_nabla_weyl / report.norm_weyl)
        min_nabla_r = min(min_nabla_r, report.norm_nabla_riemann / report.norm_riemann)
        worst_symmetry = max(worst_symmetry, max(report.symmetry_residuals.values()))
        olszak_dims.append(report.olszak_dimension)
    if not worst_nabla_w <= tol["curvature_nabla_weyl"]:
        misses.append(f"|nabla W|/|W| = {worst_nabla_w:.3e} above {tol['curvature_nabla_weyl']:g}")
    if not min_nabla_r >= tol["curvature_nabla_riemann_min"]:
        misses.append(
            f"|nabla R|/|R| = {min_nabla_r:.3e} below {tol['curvature_nabla_riemann_min']:g}"
        )
    if not worst_symmetry <= tol["curvature_symmetry"]:
        misses.append(f"symmetry residual {worst_symmetry:.3e} above {tol['curvature_symmetry']:g}")
    if any(d != 2 for d in olszak_dims):
        misses.append(f"Olszak dimensions {olszak_dims}, not all 2")
    return misses, {
        "points": len(points),
        "nabla_weyl_worst": worst_nabla_w,
        "nabla_riemann_min": min_nabla_r,
        "nabla_riemann_floor": tol["curvature_nabla_riemann_min"],
        "symmetry_worst": worst_symmetry,
        "olszak_dimensions": olszak_dims,
    }


def _curvature(run: _Run) -> dict:
    # the points are drawn at every n, so later sections see one stream
    points = [_random_point(run.rng, run.model.m) for _ in range(run.samples)]
    identities = curvature_identities(run.model)
    failures = [f"{name} failed" for name, ok in identities.items() if not ok]
    cross_check: dict = {"points": 0}
    if run.model.n <= CURVATURE_CROSS_CHECK_MAX_N:
        misses, cross_check = _curvature_cross_check(run, points)
        failures += [f"finite differences: {miss}" for miss in misses]
    return _exact_section(failures, {**identities, "cross_check": cross_check})


def _canonicalize_orbit(run: _Run) -> dict:
    # Orbit invariance in exact cell coordinates: a point and its image
    # under g = Phi(c) hat**e reduce to one representative, and the words
    # Phi(shift_a) hat**ra and Phi(shift_b) hat**rb g name one element.
    rng, sigma = run.rng, run.sigma

    def _hats(count: int) -> list:
        return [HAT] * count if count >= 0 else [HAT_INV] * (-count)

    failures = []
    den = CELL_DENOMINATOR
    for _ in range(run.samples):
        tau = Fraction(int(rng.integers(-den, 2 * den)), den)
        w = tuple(Fraction(int(x), den) for x in rng.integers(-2 * den, 2 * den, sigma.size))
        exponent = int(rng.integers(-1, 2))
        coords = _draw_coords(rng, np.ones(sigma.size, dtype=bool))
        moved_w = tuple(x + c for x, c in zip(xi_power(sigma, w, exponent), coords))
        rep_a, word_a = canonicalize_cell(sigma, tau, w)
        rep_b, word_b = canonicalize_cell(sigma, tau + exponent, moved_w)
        if rep_a != rep_b:
            failures.append(f"representatives differ (hat power {exponent})")
        left = normal_form(sigma, [word_a[1], *_hats(word_a[0])])
        right = normal_form(sigma, [word_b[1], *_hats(word_b[0]), coords, *_hats(exponent)])
        if left != right:
            failures.append(f"words differ: {left} vs {right} (hat power {exponent})")
    return _exact_section(failures, {"pairs": run.samples, "redraws": 0})


def _holonomy(run: _Run) -> dict:
    factor = holonomy_scaling(run.gamma_hat)
    dilational = factor != run.model.context().one
    return _exact_section(
        () if dilational else ("scaling holonomy is trivial",),
        {
            "dilational": bool(dilational),
            "homogeneous": bool(run.homogeneous),
            "factor": str(factor),
        },
    )


def _geodesic_witness(run: _Run) -> dict:
    tol = run.tol
    trace = geodesic_trace(
        run.patch,
        (1.0, 0.0, np.zeros(run.model.m)),
        np.concatenate([[-1.0, 0.3], np.zeros(run.model.m)]),
        affine_span=1.5,
    )
    return _numeric_section(
        trace.affinity_deviation,
        tol["geodesic_deviation"],
        {
            "witness_tau": trace.witness_tau,
            "parameter_window": tol["geodesic_parameter"],
            "final_t": trace.final_point[0],
        },
        holds=trace.reached_cutoff
        and trace.witness_tau is not None
        and abs(trace.witness_tau - 1.0) <= tol["geodesic_parameter"],
    )


# The first STRUCTURAL rows check the model's own data; when one fails,
# every later row is reported not run.
STRUCTURAL = 2


def _section_table(homogeneous: bool) -> list:
    """(name, kind, section function) in certificate order.  The kind is
    reported also when the section crashes or is not run.  profile-transfer
    exists only for a deformed profile, and only eigenbasis and condition-b
    change route with the profile: exact on the power law, numeric on a
    deformed one."""
    profile_route = "exact" if homogeneous else "numeric"
    return [
        ("spectral-axioms", "exact", _spectral_axioms),
        ("model-identities", "exact", _model_identities),
        *([] if homogeneous else [("profile-transfer", "numeric", _profile_transfer)]),
        ("eigenbasis", profile_route, _eigenbasis),
        ("omega-table", "numeric", _omega_table),
        ("condition-a", "exact", _condition_a),
        ("condition-b", profile_route, _condition_b),
        ("condition-c", "exact", _condition_c),
        ("condition-d", "exact", _condition_d),
        ("condition-e", "numeric", _condition_e),
        ("lattice-intertwining", "exact", _lattice_intertwining),
        ("isometry", "numeric", _isometry),
        ("curvature", "exact", _curvature),
        ("canonicalize-orbit", "exact", _canonicalize_orbit),
        ("holonomy", "exact", _holonomy),
        ("geodesic-witness", "numeric", _geodesic_witness),
    ]


def build_certificate(
    model: ModelData,
    *,
    samples: int = 5,
    seed: int = 0,
    tolerances: Mapping[str, float] | None = None,
    inputs: Mapping | None = None,
) -> dict:
    """Run every check the pipeline can on one model and bundle the results.

    Section order is fixed; the random draws depend only on `seed`, so the
    emitted JSON is reproducible byte for byte.  When a structural section
    fails, every later section is reported as not run (and failing).  A
    section that raises, or reads a shared object whose build raised,
    fails with that exception's message and the file and line inside this
    package where it was raised; every other section runs.
    """
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = set(tolerances) - set(tol)
        if unknown:
            raise ValueError(f"unknown tolerance keys: {sorted(unknown)}")
        tol.update({k: float(v) for k, v in tolerances.items()})
    run = _Run(model, samples, seed, tol)
    sections: list[dict] = []
    blocked = False
    for index, (name, kind, check) in enumerate(_section_table(run.homogeneous)):
        if blocked:
            result = _failed_section("not run: structural sections failed")
        else:
            try:
                result = check(run)
            except Exception as exc:
                result = _failed_section(f"{type(exc).__name__}: {exc} @ {_raised_at(exc)}")
            blocked = index < STRUCTURAL and not result["pass"]
        sections.append({"name": name, "kind": kind, **result})
    return {
        "tool_version": TOOL,
        "inputs": {
            "model": model.to_json_dict(),
            "samples": samples,
            "seed": seed,
            "tolerances": tol,
            **(dict(inputs) if inputs else {}),
        },
        "sections": sections,
        "overall_pass": all(section["pass"] for section in sections),
    }


def cmd_certify(args) -> int:
    if args.samples < 1:
        # no section would draw a point, and the certificate would pass
        # with nothing sampled (curvature's minimum norm reads Infinity)
        print(
            f"bad --samples: at least one draw per section is needed, got {args.samples}",
            file=sys.stderr,
        )
        return 2
    path = Path(args.model)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        model = load_model_lenient(data)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        # OverflowError: an integer beyond the float range where a float is read
        print(f"cannot read model file {path}: {exc}", file=sys.stderr)
        return 3
    overrides = None
    if args.tol_overrides:
        try:
            overrides = json.loads(args.tol_overrides, parse_int=float)
        except json.JSONDecodeError as exc:
            print(f"bad --tol-overrides: {exc}", file=sys.stderr)
            return 2
        if not isinstance(overrides, dict) or not all(
            isinstance(v, float) and math.isfinite(v) for v in overrides.values()
        ):
            print(
                f"bad --tol-overrides: {args.tol_overrides} is not a JSON object of finite numbers",
                file=sys.stderr,
            )
            return 2
    try:
        certificate = build_certificate(
            model,
            samples=args.samples,
            seed=args.seed,
            tolerances=overrides,
            inputs={"model_path": str(path)},
        )
    except ValueError as exc:
        print(f"certification setup failed: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else path.with_suffix(".certificate.json")
    if not _write(out, certificate):
        return 2
    for section in certificate["sections"]:
        mark = "ok  " if section["pass"] else "FAIL"
        residual = section["residual"]
        shown = residual if isinstance(residual, str) else (
            "-" if residual is None else f"{residual:.3e}"
        )
        print(f"{mark} {section['name']:<20} residual {shown}")
    print(f"overall: {'pass' if certificate['overall_pass'] else 'fail'} ({out})")
    return 0 if certificate["overall_pass"] else 1


# ---------------------------------------------------------------------------
# search-even


def cmd_search_even(args) -> int:
    if args.k_max < 1:
        # no odd gap k lies in 1..k_max: an "empty search" that scanned nothing
        print(
            f"bad --k-max: the largest gap must be at least 1, got {args.k_max}",
            file=sys.stderr,
        )
        return 2
    try:
        found = search_systems(args.m, args.k_max)
    except ValueError as exc:
        print(f"bad --m: {exc}", file=sys.stderr)
        return 2
    report = {
        "m": args.m,
        "k_max": args.k_max,
        "count": len(found),
        "systems": [system.to_json_dict() for system in found],
    }
    print(canonical_json(report), end="")
    return 0 if not found else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecs-forge",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--version", action="version", version=TOOL)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build a model file for odd n >= 5")
    gen.add_argument("--n", type=int, required=True, help="manifold dimension (odd, >= 5)")
    gen.add_argument("--p", type=int, required=True, help="field trace parameter (>= 3)")
    gen.add_argument("--eps", type=int, default=1, choices=(1, -1), help="metric sign")
    gen.add_argument(
        "--deform-coeffs",
        default=None,
        help="JSON array of [A_j, B_j] harmonic pairs; switches to the deformed profile",
    )
    gen.add_argument("--out", default=None, help="output path (default model-n{n}-p{p}.json)")
    gen.set_defaults(func=cmd_generate)

    cert = sub.add_parser("certify", help="run every check against a model file")
    cert.add_argument("model", help="model JSON produced by generate")
    cert.add_argument("--samples", type=int, default=5, help="random draws per numeric section")
    cert.add_argument("--seed", type=int, default=0, help="seed for the random draws")
    cert.add_argument(
        "--tol-overrides",
        default=None,
        help='JSON object overriding tolerance keys, e.g. {"isometry": 1e-5}',
    )
    cert.add_argument("--out", default=None, help="certificate path (default <model>.certificate.json)")
    cert.set_defaults(func=cmd_certify)

    search = sub.add_parser(
        "search-even", help="exhaustive spectral-system scan (exit 0 iff none found)"
    )
    search.add_argument("--m", type=int, required=True, help="system order to scan")
    search.add_argument("--k-max", type=int, required=True, help="largest gap to try")
    search.set_defaults(func=cmd_search_even)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
