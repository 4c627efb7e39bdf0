"""The three workloads: their operations, the outputs each operation keeps,
and the checks run on those outputs after the timed phase.

Operations call the program through module attributes (``cli.main``,
``quotient.build_lattice``, ...) so that a traced run sees them through
the tracer's wrappers.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from ecsforge import cli, funcspace, geometry, model, quotient, spectral

from . import checks

# Every certify runs at this seed.  The canonicalize-orbit redraw loop costs
# a different amount at each seed, and some sections pass or fail by seed
# (see CHANGES.md), so the certify seed is part of the workload, not of the
# benchmark's --seed.
CERTIFY_SEED = 0
CERTIFY_SAMPLES = 5

# (n, p).  (13, 3) and (15, 3), at about 9 s and 14 s, are left out so
# that three rounds fit in one run.
POWERLAW_MODELS = ((5, 3), (7, 4), (9, 5), (11, 5))

# Sections known to fail, by power-law (n, p); every other section of every
# model must pass.  (11, 5)'s omega-table residual is 3.7e-9 against 1e-9,
# from a table computation that draws nothing at random.
KNOWN_FAILING_SECTIONS = {(11, 5): frozenset({"omega-table"})}

# (n, p, harmonic pairs [A_j, B_j] of the deformed profile)
DEFORMED_MODELS = (
    (5, 3, ((0.02, 0.01),)),
    (5, 4, ((0.05, -0.02),)),
    (5, 5, ((0.03, 0.0), (0.01, 0.02))),
    (7, 3, ((0.02, 0.01), (0.0, 0.01))),
    (7, 4, ((0.04, 0.02),)),
    (7, 5, ((0.01, -0.01), (0.02, 0.0))),
)

CURVATURE_POINTS_PER_MODEL = 2

# exact sweep: every model of release gate 2, then the spectral searches
SWEEP_RS = tuple(range(3, 14))  # n = 2r - 1 = 5..25
SWEEP_PS = (3, 4, 5)
EVEN_SEARCHES = ((2, 99), (4, 45), (6, 9))
ODD_SEARCH = (3, 15)

# normal_form batch: the shape of each word (the hat power after each of its
# lattice letters) is fixed, so that its cost is the same at every seed;
# --seed draws the letters' coordinates
WORD_SHAPES = (
    (-1, 1, -2, 2, -2, -1),
    (-2, 1, 1, -1, -2, -1),
    (-1, -2, -2, -1, -1, -2),
    (-2, 2, -2, -2, -2, -1),
    (-2, -2, -2, 1, -2, 1),
    (-2, -2, -2, 2, -1, 2),
    (2, 2, -1, -2, 2, -1),
    (-1, -2, -1, -2, 1, 2),
)
LETTER_RANGE = 3
LAW_CASES_PER_MODEL = 2


def _letter(rng: np.random.Generator, size: int) -> tuple[int, ...]:
    return tuple(int(c) for c in rng.integers(-LETTER_RANGE, LETTER_RANGE, size=size, endpoint=True))


def _hats(power: int) -> list[str]:
    return [quotient.HAT] * power if power >= 0 else [quotient.HAT_INV] * -power


# ---------------------------------------------------------------------------
# certify workloads


class CertifyOp:
    """`ecs-forge generate` then `ecs-forge certify`, in-process."""

    def __init__(self, outdir: Path, n: int, p: int, coeffs=None) -> None:
        self.n, self.p, self.coeffs = n, p, coeffs
        tag = "-deformed" if coeffs else ""
        self.label = f"certify n={n} p={p}{tag}"
        self.expected_failing = frozenset() if coeffs else KNOWN_FAILING_SECTIONS.get((n, p), frozenset())
        self.model_path = outdir / f"model-n{n}-p{p}{tag}.json"
        self.cert_path = outdir / f"model-n{n}-p{p}{tag}.certificate.json"
        self.generate_argv = ["generate", "--n", str(n), "--p", str(p), "--out", str(self.model_path)]
        if coeffs:
            self.generate_argv += ["--deform-coeffs", json.dumps([list(c) for c in coeffs])]
        self.certify_argv = [
            "certify", str(self.model_path),
            "--samples", str(CERTIFY_SAMPLES), "--seed", str(CERTIFY_SEED),
            "--out", str(self.cert_path),
        ]
        self.certificates: list[str] = []  # one per round that wrote one
        self.passed: list[bool] = []

    def run(self) -> bool:
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            if cli.main(self.generate_argv) != 0:
                return False
            return cli.main(self.certify_argv) == 0

    def collect(self, ok: bool) -> None:
        self.passed.append(ok)
        if self.cert_path.exists():
            self.certificates.append(self.cert_path.read_text(encoding="utf-8"))
            self.cert_path.unlink()

    def canonicalize_yield(self) -> tuple[int, int]:
        """(pairs, pairs + redraws) of the latest certificate."""
        cert = json.loads(self.certificates[-1])
        details = next(s for s in cert["sections"] if s["name"] == "canonicalize-orbit")["details"]
        return details["pairs"], details["pairs"] + details["redraws"]


class CertifyWorkload:
    def __init__(self, outdir: Path, models) -> None:
        outdir.mkdir(parents=True, exist_ok=True)
        self.ops = [CertifyOp(outdir, *spec) for spec in models]

    def round_counts(self) -> dict[str, int]:
        yields = [op.canonicalize_yield() for op in self.ops if op.certificates]
        return {
            "quotient.canon_pairs": sum(y[0] for y in yields),
            "quotient.canon_attempts": sum(y[1] for y in yields),
        }

    def check(self, rng: np.random.Generator) -> list[str]:
        failures = []
        for op in self.ops:
            # a failed operation is checked too: its certificate must fail
            # only in the known sections
            if len(op.certificates) != len(op.passed):
                failures.append(f"{op.label}: no certificate in some round")
                continue
            if len(set(op.certificates)) != 1:
                failures.append(f"{op.label}: certificates differ between rounds")
                continue
            certificate = json.loads(op.certificates[0])
            failures += checks.section_failures(certificate, op.expected_failing, op.label)
            model_data = json.loads(op.model_path.read_text(encoding="utf-8"))
            failures += checks.geodesic_failures(certificate, op.label)
            patch = geometry.MetricPatch(cli.load_model_lenient(model_data))
            m = op.n - 2
            for _ in range(CURVATURE_POINTS_PER_MODEL):
                point = (
                    float(rng.uniform(0.5, 2.2)),
                    float(rng.uniform(-1.0, 1.0)),
                    rng.uniform(-1.0, 1.0, m),
                )
                report = geometry.curvature_at(patch, point)
                expected = checks.expected_curvature(model_data, point[0])
                failures += checks.curvature_failures(report, expected, f"{op.label} t={point[0]:.4f}")
            if op.coeffs:
                f_data = model_data["f"]
                failures += checks.transfer_failures(f_data, op.p, float(f_data["c"]), op.label)
        return failures


# ---------------------------------------------------------------------------
# exact sweep


class ModelSweepOp:
    """The exact route of one model: build, field checks, eigen-weights,
    Pi and the lattice, re-verification, and a batch of normal forms."""

    def __init__(self, r: int, p: int, rng: np.random.Generator) -> None:
        self.r, self.p = r, p
        self.label = f"exact n={2 * r - 1} p={p}"
        size = 2 * r - 2  # |Y| = m + 1
        self.words = []
        for shape in WORD_SHAPES:
            word = []
            for power in shape:
                word.append(_letter(rng, size))
                word += _hats(power)
            self.words.append(word)
        self.law_letters = [(_letter(rng, size), _letter(rng, size)) for _ in range(LAW_CASES_PER_MODEL)]
        self.output = None
        self.results: list[list] = []
        self.passed: list[bool] = []

    def run(self) -> bool:
        self.output = None
        mod = model.build_model(spectral.standard_family(self.r), p=self.p)
        flags = (
            model.conjugation_checks(mod),
            model.isometry_checks(mod),
            model.bridging_checks(mod),
        )
        eigen_ok = funcspace.ct_eigencheck_exact(mod)
        lagrangian = quotient.build_lagrangian(mod)
        pi = quotient.pi_map(mod, quotient.make_gamma_hat(mod), lagrangian)
        sigma = quotient.build_lattice(mod, pi)
        reverify = quotient.intertwining_failures(sigma)
        normal_forms = [quotient.normal_form(sigma, word) for word in self.words]
        self.output = (pi, sigma, normal_forms)
        return all(all(f.values()) for f in flags) and eigen_ok and not reverify

    def collect(self, ok: bool) -> None:
        self.passed.append(ok)
        if self.output is not None:
            self.results.append(self.output[2])

    def check(self, rng: np.random.Generator) -> list[str]:
        pi, sigma, normal_forms = self.output
        if any(r != self.results[0] for r in self.results):
            return [f"{self.label}: normal forms differ between rounds"]
        d = self.p * self.p - 4
        failures = checks.lattice_failures(
            self.p,
            checks.field_matrix(pi, d),
            checks.field_matrix(sigma.basis_matrix, d),
            checks.field_matrix(sigma.basis_matrix_inverse, d),
            sigma.xi,
            sigma.xi_inverse,
            sigma.y_exponents,
            rng,
            self.label,
        )
        failures += checks.normal_form_batch_failures(
            self.words, normal_forms, sigma.xi, sigma.xi_inverse,
            quotient.HAT, quotient.HAT_INV, self.label,
        )
        cases = [
            (
                v,
                w,
                quotient.normal_form(sigma, [v, quotient.HAT, quotient.HAT_INV]),
                quotient.normal_form(sigma, [v, w]),
                quotient.normal_form(sigma, [v, quotient.HAT]),
            )
            for v, w in self.law_letters
        ]
        failures += checks.normal_form_law_failures(sigma.xi, cases, self.label)
        return failures


class SearchOp:
    def __init__(self, m: int, k_max: int) -> None:
        self.m, self.k_max = m, k_max
        self.label = f"search m={m} k<={k_max}"
        self.output = None
        self.passed: list[bool] = []

    def run(self) -> bool:
        self.output = spectral.search_systems(self.m, self.k_max)
        return True

    def collect(self, ok: bool) -> None:
        self.passed.append(ok)

    def check(self, rng: np.random.Generator) -> list[str]:
        expected = [spectral.standard_family(3)] if self.m % 2 else []
        if self.output != expected:
            return [f"{self.label}: found {len(self.output)} systems, expected {len(expected)}"]
        return []


class ExactSweepWorkload:
    def __init__(self, rng: np.random.Generator) -> None:
        self.ops = [ModelSweepOp(r, p, rng) for r in SWEEP_RS for p in SWEEP_PS]
        self.ops += [SearchOp(m, k) for m, k in EVEN_SEARCHES + (ODD_SEARCH,)]

    def round_counts(self) -> dict[str, int]:
        return {}

    def check(self, rng: np.random.Generator) -> list[str]:
        failures = []
        for op in self.ops:
            if all(op.passed):
                failures += op.check(rng)
        return failures


WORKLOADS = {
    "certify-powerlaw": lambda outdir, rng: CertifyWorkload(outdir, POWERLAW_MODELS),
    "certify-deformed": lambda outdir, rng: CertifyWorkload(outdir, DEFORMED_MODELS),
    "exact-sweep": lambda outdir, rng: ExactSweepWorkload(rng),
}
