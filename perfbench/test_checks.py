"""Negative controls: each independent check accepts the program's real
output and rejects a deliberately wrong one.

    python3 -m pytest perfbench
"""

import json
from dataclasses import dataclass

import numpy as np
import pytest

from ecsforge import cli, geometry, model, quotient, spectral
from perfbench import checks, workloads
from perfbench.qfield import QSqrt, charpoly


def _lattice(r: int, p: int):
    mod = model.build_model(spectral.standard_family(r), p=p)
    lagrangian = quotient.build_lagrangian(mod)
    pi = quotient.pi_map(mod, quotient.make_gamma_hat(mod), lagrangian)
    return pi, quotient.build_lattice(mod, pi)


def _lattice_args(p, pi, sigma):
    d = p * p - 4
    return [
        p,
        checks.field_matrix(pi, d),
        checks.field_matrix(sigma.basis_matrix, d),
        checks.field_matrix(sigma.basis_matrix_inverse, d),
        [list(row) for row in sigma.xi],
        [list(row) for row in sigma.xi_inverse],
        sigma.y_exponents,
    ]


def _failures(args):
    return checks.lattice_failures(*args, np.random.default_rng(0), "control")


@pytest.mark.parametrize("r,p", [(3, 3), (4, 5), (6, 4)])
def test_lattice_check_rejects_one_changed_entry_of_phi_or_xi(r, p):
    args = _lattice_args(p, *_lattice(r, p))
    assert _failures(args) == []

    phi = [row[:] for row in args[2]]
    entry = phi[1][2]
    phi[1][2] = QSqrt(entry.a + entry.den, entry.b, entry.den, entry.d)
    assert any("Pi Phi != Phi Xi" in f for f in _failures(args[:2] + [phi] + args[3:]))

    phi_inv = [row[:] for row in args[3]]
    entry = phi_inv[0][0]
    phi_inv[0][0] = QSqrt(entry.a, entry.b + 1, entry.den, entry.d)
    assert any("Phi^-1" in f for f in _failures(args[:3] + [phi_inv] + args[4:]))

    xi = [row[:] for row in args[4]]
    xi[-1][-1] += 1
    failures = _failures(args[:4] + [xi] + args[5:])
    assert any("Pi Phi != Phi Xi" in f for f in failures)
    assert any("Xi Xi^-1 != I" in f for f in failures)
    assert any("is not a root" in f for f in failures)


def test_charpoly_matches_known_polynomials():
    assert charpoly([[0, -1], [1, 3]]) == [1, -3, 1]
    # a dense matrix that is not already in Hessenberg form
    matrix = [[2, 1, 0, 3], [1, -1, 4, 0], [0, 2, 1, 1], [5, 0, 1, -2]]
    assert charpoly(matrix) == [int(round(c)) for c in np.poly(np.array(matrix))[::-1]]


def _deformed_model(tmp_path, n=5, p=3, coeffs=((0.02, 0.01),)):
    path = tmp_path / "deformed.json"
    argv = ["generate", "--n", str(n), "--p", str(p), "--out", str(path),
            "--deform-coeffs", json.dumps([list(c) for c in coeffs])]
    assert cli.main(argv) == 0
    return json.loads(path.read_text())


def test_transfer_check_rejects_perturbed_coefficient_and_wrong_target(tmp_path):
    data = _deformed_model(tmp_path)
    f_data, p, c = data["f"], data["p"], data["f"]["c"]
    assert checks.transfer_failures(f_data, p, c, "control") == []

    perturbed = dict(f_data, fourier=[[f_data["fourier"][0][0] + 1e-3, f_data["fourier"][0][1]]])
    assert checks.transfer_failures(perturbed, p, c, "control")
    assert checks.transfer_failures(f_data, p, c + 0.01, "control")


@dataclass(frozen=True)
class ScaledProfile:
    base: object
    factor: float

    def value(self, t):
        return self.factor * self.base.value(t)

    def deriv(self, t):
        return self.factor * self.base.deriv(t)


@pytest.mark.parametrize("deformed", [False, True])
def test_curvature_check_rejects_report_from_scaled_profile(tmp_path, deformed):
    if deformed:
        data = _deformed_model(tmp_path, n=7, p=4, coeffs=((0.04, 0.02),))
    else:
        data = model.build_model(spectral.standard_family(4), p=3).to_json_dict()
    mod = cli.load_model_lenient(data)
    rng = np.random.default_rng(7)
    point = (float(rng.uniform(0.5, 2.2)), 0.3, rng.uniform(-1.0, 1.0, mod.m))
    expected = checks.expected_curvature(data, point[0])

    report = geometry.curvature_at(geometry.MetricPatch(mod), point)
    assert checks.curvature_failures(report, expected, "control") == []

    scaled = geometry.MetricPatch(mod, profile=ScaledProfile(mod.f, 1.01))
    wrong = geometry.curvature_at(scaled, point)
    assert checks.curvature_failures(wrong, expected, "control")


def test_geodesic_check_rejects_shifted_witness():
    mod = model.build_model(spectral.standard_family(3), p=3)
    certificate = cli.build_certificate(mod, samples=2, seed=0)
    assert checks.geodesic_failures(certificate, "control") == []
    section = next(s for s in certificate["sections"] if s["name"] == "geodesic-witness")
    section["details"]["witness_tau"] += 1e-6
    assert checks.geodesic_failures(certificate, "control")


def test_normal_form_checks_reject_one_coordinate_off_by_one():
    _, sigma = _lattice(4, 4)
    op = workloads.ModelSweepOp(4, 4, np.random.default_rng(3))
    results = [quotient.normal_form(sigma, word) for word in op.words]
    args = (sigma.xi, sigma.xi_inverse, quotient.HAT, quotient.HAT_INV, "control")
    assert checks.normal_form_batch_failures(op.words, results, *args) == []

    r, coords = results[2]
    off = list(results)
    off[2] = (r, coords[:1] + (coords[1] + 1,) + coords[2:])
    assert checks.normal_form_batch_failures(op.words, off, *args)

    v, w = op.law_letters[0]
    back = quotient.normal_form(sigma, [v, quotient.HAT, quotient.HAT_INV])
    summed = quotient.normal_form(sigma, [v, w])
    pushed = quotient.normal_form(sigma, [v, quotient.HAT])
    assert checks.normal_form_law_failures(sigma.xi, [(v, w, back, summed, pushed)], "c") == []
    for index in (2, 3, 4):
        case = [v, w, back, summed, pushed]
        r, coords = case[index]
        case[index] = (r, (coords[0] - 1,) + coords[1:])
        assert checks.normal_form_law_failures(sigma.xi, [tuple(case)], "c")


def test_section_check_rejects_another_failing_section():
    mod = model.build_model(spectral.standard_family(3), p=3)
    certificate = cli.build_certificate(mod, samples=2, seed=0)
    assert checks.section_failures(certificate, frozenset(), "control") == []
    section = next(s for s in certificate["sections"] if s["name"] == "isometry")
    section["pass"] = False
    assert checks.section_failures(certificate, frozenset(), "control")
    assert checks.section_failures(certificate, frozenset({"omega-table"}), "control")
    assert checks.section_failures(certificate, frozenset({"isometry"}), "control") == []
