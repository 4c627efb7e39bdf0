"""End-to-end tests of the command pipeline.

Everything runs through main(argv) in-process: generate -> certify ->
search-even, the documented exit codes (0 success or empty search, 1
failing section or nonempty search, 2 usage error, 3 unreadable input),
canonical-JSON round trips, and byte-identical certificates under a fixed
seed.  The heavier numeric sections are exercised with small sample counts;
their numerical depth is covered by the module tests.
"""

import copy
import dataclasses
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

from ecsforge import cli, funcspace, quotient
from ecsforge.cli import DEFAULT_TOLERANCES, build_certificate, canonical_json, main
from ecsforge.deform import DeformedF, PerturbationF0, solve_a, target_trace_value
from ecsforge.exact import QFieldContext
from ecsforge.funcspace import OdeFn
from ecsforge.geometry import MetricPatch, curvature_at
from ecsforge.model import (
    HomogeneousF,
    ModelData,
    build_model,
    check_model,
    curvature_identities,
    load_model_lenient,
)
from ecsforge.quotient import HAT, xi_power
from ecsforge.spectral import standard_family

GOLDEN = Path(__file__).parent / "golden"

SECTION_ORDER = [
    "spectral-axioms",
    "model-identities",
    "eigenbasis",
    "omega-table",
    "condition-a",
    "condition-b",
    "condition-c",
    "condition-d",
    "condition-e",
    "lattice-intertwining",
    "isometry",
    "curvature",
    "canonicalize-orbit",
    "holonomy",
    "geodesic-witness",
]


def generate(tmp_path, *extra):
    out = tmp_path / "model.json"
    code = main(["generate", "--n", "5", "--p", "3", "--out", str(out), *extra])
    assert code == 0
    return out


# -- generate -----------------------------------------------------------------------


def test_generate_writes_the_r3_instance(tmp_path):
    out = generate(tmp_path)
    data = json.loads(out.read_text())
    assert data["schema"] == "ecs-forge/1"
    assert data["system"]["m"] == 3
    assert data["system"]["k"] == 5
    assert data["p"] == 3


def test_generate_writes_the_r4_instance(tmp_path):
    out = tmp_path / "model7.json"
    assert main(["generate", "--n", "7", "--p", "4", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["system"]["m"] == 5
    assert data["system"]["k"] == 7


def test_generate_rejects_even_dimension(tmp_path, capsys):
    code = main(["generate", "--n", "6", "--p", "3", "--out", str(tmp_path / "x.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "odd" in err
    assert not (tmp_path / "x.json").exists()


def test_generate_rejects_dimension_below_five(tmp_path):
    assert main(["generate", "--n", "3", "--p", "3", "--out", str(tmp_path / "x.json")]) == 2


def test_generate_to_a_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "model.json"
    assert main(["generate", "--n", "5", "--p", "3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot write {out}: ")
    assert "Traceback" not in captured.err


def test_certify_to_a_missing_directory_exits_2(tmp_path, capsys):
    model = generate(tmp_path)
    capsys.readouterr()
    out = tmp_path / "missing" / "model.certificate.json"
    assert main(["certify", str(model), "--samples", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot write {out}: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("coeffs", ["[[0.1]]", "[1, 2]", "5", "[[null, 0.1]]", "{}", "nope"])
def test_generate_rejects_malformed_deform_coeffs(tmp_path, capsys, coeffs):
    out = tmp_path / "model.json"
    argv = ["generate", "--n", "5", "--p", "3", "--deform-coeffs", coeffs, "--out", str(out)]
    assert main(argv) == 1
    assert "model construction failed" in capsys.readouterr().err
    assert not out.exists()


def test_generate_default_filename(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--n", "5", "--p", "3"]) == 0
    assert (tmp_path / "model-n5-p3.json").exists()


def test_model_round_trip_is_byte_identical(tmp_path):
    out = generate(tmp_path)
    text = out.read_text()
    model = load_model_lenient(json.loads(text))
    assert check_model(model) == ()
    assert canonical_json(model.to_json_dict()) == text


# -- certify ------------------------------------------------------------------------


def test_certify_homogeneous_model_passes(tmp_path):
    out = generate(tmp_path)
    code = main(["certify", str(out), "--samples", "2", "--seed", "0"])
    assert code == 0
    cert = json.loads((tmp_path / "model.certificate.json").read_text())
    assert cert["overall_pass"] is True
    assert [s["name"] for s in cert["sections"]] == SECTION_ORDER
    assert cert["inputs"]["samples"] == 2
    assert cert["inputs"]["seed"] == 0
    assert cert["inputs"]["model"] == json.loads(out.read_text())


def test_exact_sections_report_the_literal_zero(tmp_path):
    for extra in ((), ("--deform-coeffs", "[[0.02, 0.01]]")):
        out = generate(tmp_path, *extra)
        main(["certify", str(out), "--samples", "2"])
        cert = json.loads((tmp_path / "model.certificate.json").read_text())
        for section in cert["sections"]:
            if section["kind"] == "exact":
                assert section["residual"] == "0", section["name"]
            else:
                assert isinstance(section["residual"], float), section["name"]
                assert isinstance(section["details"]["tolerance"], float), section["name"]
            assert section["pass"] is True, section["name"]


def test_certificates_are_deterministic(tmp_path):
    out = generate(tmp_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["certify", str(out), "--samples", "2", "--seed", "7", "--out", str(a)])
    main(["certify", str(out), "--samples", "2", "--seed", "7", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "n, p, coeffs",
    [
        (5, 3, ()),
        (7, 4, ()),
        (5, 3, ((0.02, 0.01),)),
        (7, 5, ((0.01, -0.01), (0.02, 0.0))),
        (7, 3, ((0.02, 0.01), (0.0, 0.01))),
        (9, 5, ()),
        (11, 5, ()),
    ],
    ids=["5-3", "7-4", "5-3-deformed", "7-5-deformed", "7-3-deformed", "9-5", "11-5"],
)
def test_certificate_matches_golden_file(n, p, coeffs):
    # The golden files pin every byte of a certificate, floats included, so
    # a refactor of the numeric engine must leave each sum in its order.
    # They were written by this same call; a deliberate change of the
    # output regenerates them with it.  The deformed model is built as
    # `generate --deform-coeffs` builds it.
    system = standard_family((n + 1) // 2)
    profile = None
    name = f"certificate-n{n}-p{p}.json"
    if coeffs:
        profile = solve_a(PerturbationF0(coeffs), system.k / 2.0, QFieldContext(p))
        name = f"certificate-n{n}-p{p}-deformed.json"
    model = build_model(system, p=p, f=profile)
    emitted = canonical_json(build_certificate(model, samples=5, seed=0))
    golden = (GOLDEN / name).read_text(encoding="utf-8")
    assert emitted == golden


def _sections_by_name(cert):
    return {s["name"]: s for s in cert["sections"]}


def _line_of(function, text):
    """`module.py:line` of the first line of `function` that holds `text`."""
    lines, start = inspect.getsourcelines(function)
    offset = next(i for i, line in enumerate(lines) if text in line)
    return f"{Path(inspect.getsourcefile(function)).name}:{start + offset}"


def test_intertwining_failure_turns_the_lattice_sections_red(monkeypatch):
    # Pi Phi = Phi Xi is checked once, when build_lattice runs; a Pi that
    # breaks it fails every section that reads the lattice, and no other
    model = build_model(standard_family(3), p=3)
    untampered = _sections_by_name(build_certificate(model, samples=1, seed=0))
    real_pi_map = cli.pi_map

    def tampered_pi_map(model, gamma_hat, lagrangian):
        rows = [list(row) for row in real_pi_map(model, gamma_hat, lagrangian)]
        rows[1][1] = rows[1][1] * model.context().q
        return tuple(tuple(row) for row in rows)

    monkeypatch.setattr(cli, "pi_map", tampered_pi_map)
    cert = build_certificate(model, samples=1, seed=0)
    assert cert["overall_pass"] is False
    by_name = _sections_by_name(cert)
    assert list(by_name) == SECTION_ORDER
    lattice_readers = ["condition-c", "lattice-intertwining", "isometry", "canonicalize-orbit"]
    for name in lattice_readers:
        assert by_name[name]["pass"] is False
        assert by_name[name]["details"]["failures"] == [
            by_name["condition-c"]["details"]["failures"][0]
        ]
        assert "intertwining identity fails" in by_name[name]["details"]["failures"][0]
    # the crash names the raise inside the package, by file name only
    raised_at = _line_of(quotient.build_lattice, "intertwining identity fails")
    assert by_name["condition-c"]["details"]["failures"][0].endswith(f" @ {raised_at}")
    # a crashed section keeps its kind
    assert {name: by_name[name]["kind"] for name in lattice_readers} == {
        "condition-c": "exact",
        "lattice-intertwining": "exact",
        "isometry": "numeric",
        "canonicalize-orbit": "exact",
    }
    # conditions A, B, D and E read L alone, and these sections draw nothing
    # at random, so they match the untampered run
    for name in ("eigenbasis", "omega-table", "holonomy", "geodesic-witness"):
        assert by_name[name] == untampered[name]
    for letter in "abde":
        assert by_name[f"condition-{letter}"] == untampered[f"condition-{letter}"]
    # curvature takes the draws the failed isometry section left, and passes
    assert by_name["curvature"]["pass"] is True


def test_eigen_weight_failure_fails_eigenbasis_and_condition_b(monkeypatch):
    # eigenbasis and condition-b both read the one integer eigen-weight check
    model = build_model(standard_family(3), p=3)
    untampered = _sections_by_name(build_certificate(model, samples=1, seed=0))
    calls = []

    def failing_eigencheck(model):
        calls.append(model)
        return False

    monkeypatch.setattr(cli, "ct_eigencheck_exact", failing_eigencheck)
    by_name = _sections_by_name(build_certificate(model, samples=1, seed=0))
    assert len(calls) == 1
    for name in ("eigenbasis", "condition-b"):
        assert by_name.pop(name)["details"]["failures"] == ["integer eigen-weight check failed"]
    assert by_name == {
        name: s for name, s in untampered.items() if name not in ("eigenbasis", "condition-b")
    }


def test_a_crash_fails_only_its_own_section(monkeypatch):
    model = build_model(standard_family(3), p=3)
    untampered = _sections_by_name(build_certificate(model, samples=2, seed=0))

    def broken_holonomy_scaling(gamma_hat):
        raise RuntimeError("holonomy unavailable")

    monkeypatch.setattr(cli, "holonomy_scaling", broken_holonomy_scaling)
    by_name = _sections_by_name(build_certificate(model, samples=2, seed=0))
    assert list(by_name) == SECTION_ORDER
    assert by_name.pop("holonomy") == {
        "name": "holonomy",
        "kind": "exact",
        "pass": False,
        "residual": None,
        "details": {
            "failures": [
                "RuntimeError: holonomy unavailable @ "
                + _line_of(cli._holonomy, "holonomy_scaling(")
            ]
        },
    }
    assert by_name == {name: s for name, s in untampered.items() if name != "holonomy"}


def test_isometry_contracts_a_closed_form_jacobian_for_every_element(monkeypatch):
    # gamma-hat at `samples` points, then `samples` lattice elements at
    # `samples` points each: every residual contracts act_jacobian
    calls = []
    real_act_jacobian = cli.act_jacobian

    def counted(element, point):
        calls.append(element)
        return real_act_jacobian(element, point)

    monkeypatch.setattr(cli, "act_jacobian", counted)
    samples = 3
    cert = build_certificate(build_model(standard_family(3), p=3), samples=samples, seed=0)
    assert _sections_by_name(cert)["isometry"]["pass"] is True
    assert len(calls) == samples + samples**2


POWER_LAW_GRID = [(n, p) for n in range(5, 27, 2) for p in (3, 4, 5)]
DEFORMED_ROWS = [(n, 3) for n in (5, 7, 9, 15, 21, 25)]
DEFORMED_PAIR = ((0.02, 0.01),)


# The verdict grid: the failing sections of build_certificate(samples=5,
# seed=0) on the power law, one row per p, one cell per n = 5, 7, ..., 25.
# omega is omega-table, E condition-e and iso isometry; 12 of 33 are green.
# A cell that changes colour, either way, fails the grid test until this
# table changes with it.
VERDICT_GRID = {
    3: ["ok", "ok", "ok", "iso", "ok", "ok", "omega", "omega"] + ["omega E iso"] * 3,
    4: ["ok", "ok", "ok", "ok", "omega"] + ["omega E"] * 3 + ["omega E iso"] * 3,
    5: ["ok", "ok", "ok", "omega"] + ["omega E"] * 4 + ["omega E iso"] * 3,
}
GRID_CELLS = {"omega": "omega-table", "E": "condition-e", "iso": "isometry"}


def _failing(cert):
    failing = [s for s in cert["sections"] if not s["pass"]]
    # every red cell is a measurement: no section raised or was skipped
    assert all(s["residual"] is not None for s in failing), failing
    return {s["name"] for s in failing}


def test_power_law_verdict_grid_at_seed_0():
    observed, expected = {}, {}
    for p, row in VERDICT_GRID.items():
        for n, cell in zip(range(5, 27, 2), row, strict=True):
            model = build_model(standard_family((n + 1) // 2), p=p)
            observed[n, p] = _failing(build_certificate(model, samples=5, seed=0))
            expected[n, p] = {GRID_CELLS[c] for c in cell.split() if c != "ok"}
    assert observed == expected
    assert sum(not cell for cell in observed.values()) == 12


# The deformed grid with DEFORMED_PAIR: the failing sections of
# build_certificate(samples=5, seed=0), one row per p, one cell per
# n = 5, 7, ..., 25, and "none" where solve_a stalls, so that no model
# exists.  eig is eigenbasis and B condition-b, which no model fails since
# each gates on its periods' closure; 12 of the 25 models are green.  As with the power-law grid, a cell that changes, either way, fails
# the test until the grid is updated with it.
DEFORMED_VERDICT_GRID = {
    3: ["ok", "ok", "ok", "iso", "ok", "ok", "omega", "omega"] + ["omega E iso"] * 3,
    4: ["ok", "ok", "ok", "ok", "omega", "omega E", "omega E"] + ["none"] * 4,
    5: ["ok", "ok", "ok", "omega", "omega E", "omega E", "omega E"] + ["none"] * 4,
}
DEFORMED_CELLS = {**GRID_CELLS, "eig": "eigenbasis", "B": "condition-b"}


def test_deformed_verdict_row_is_observed():
    observed, expected = {}, {}
    for p, row in DEFORMED_VERDICT_GRID.items():
        for n, cell in zip(range(5, 27, 2), row, strict=True):
            try:
                model = _deformed_model(n, p)
            except ValueError as exc:
                assert "the root finder stalled" in str(exc)
                observed[n, p] = "none"
            else:
                observed[n, p] = _failing(build_certificate(model, samples=5, seed=0))
            expected[n, p] = (
                cell if cell == "none" else {DEFORMED_CELLS[c] for c in cell.split() if c != "ok"}
            )
    assert observed == expected
    assert sum(cell == set() for cell in observed.values()) == 12


def _moved_off_eigenvector(start):
    """`start` moved off its eigen-direction by a relative 1e-6."""
    return start + 1e-6 * np.linalg.norm(start) * np.array([0.0, 1.0])


def _closure_failures(model):
    by_name = _sections_by_name(build_certificate(model, samples=2, seed=0))
    eigenbasis = by_name["eigenbasis"]
    details = eigenbasis["details"]
    # the sampled check reads t and t/q from one stored point and cannot
    # see the fault; the closure residual can
    assert details["sampled_residual"] <= details["tolerance"]
    assert eigenbasis["residual"] == details["closure_residual"] > details["tolerance"]
    return {name for name, s in by_name.items() if not s["pass"]}


@pytest.mark.parametrize("index", [0, 1], ids=["y-plus", "y-minus"])
def test_eigen_solution_off_its_eigenvector_fails_eigenbasis(index):
    model = _deformed_model(7, 3)
    pair = list(model.f.eigenpair)
    y = pair[index]
    q = float(model.context().q)
    pair[index] = OdeFn(model.f, _moved_off_eigenvector(y.start), y.multiplier, q)
    model.f.__dict__["eigenpair"] = tuple(pair)  # the profile's cached pair
    assert {"eigenbasis", "condition-b"} <= _closure_failures(model)


def test_forced_solution_with_a_moved_source_fails_eigenbasis(monkeypatch):
    real_forced = funcspace.ForcedOdeFn

    def moved_source(source, other, multiplier):
        moved = copy.copy(source)
        moved.start = _moved_off_eigenvector(source.start)
        return real_forced(moved, other, multiplier)

    monkeypatch.setattr(funcspace, "ForcedOdeFn", moved_source)
    assert "eigenbasis" in _closure_failures(_deformed_model(7, 3))


def _curvature_section(model, samples=5, seed=0):
    run = cli._Run(model, samples, seed, DEFAULT_TOLERANCES)
    return cli._curvature(run), run


def _counted_curvature_at(monkeypatch):
    calls = []
    real_curvature_at = cli.curvature_at

    def counted(patch, point):
        calls.append(point)
        return real_curvature_at(patch, point)

    monkeypatch.setattr(cli, "curvature_at", counted)
    return calls


def _deformed_model(n, p):
    system = standard_family((n + 1) // 2)
    profile = solve_a(PerturbationF0(DEFORMED_PAIR), system.k / 2.0, QFieldContext(p))
    return build_model(system, p=p, f=profile)


def test_curvature_section_is_exact_on_both_profiles(monkeypatch):
    # the exact identities decide the section at every n, on the power law
    # and on a deformed profile alike; finite differences cross-check them
    # at n <= 7 only
    calls = _counted_curvature_at(monkeypatch)
    models = [build_model(standard_family((n + 1) // 2), p=p) for n, p in POWER_LAW_GRID]
    models += [_deformed_model(n, p) for n, p in DEFORMED_ROWS]
    for model in models:
        del calls[:]
        section, _ = _curvature_section(model)
        assert section["pass"] is True, (model.n, model.p, model.f, section)
        assert section["residual"] == "0"
        expected = 5 if model.n <= 7 else 0
        assert len(calls) == expected, (model.n, model.p, model.f)
        assert section["details"]["cross_check"]["points"] == expected


@pytest.mark.parametrize("n, p", [(5, 3), (9, 3)], ids=["5-3", "9-3"])
def test_curvature_section_keeps_the_draw_stream(n, p):
    # the section draws its `samples` points also where it does not
    # difference, so every later section sees the same stream
    samples = 5
    _, run = _curvature_section(build_model(standard_family((n + 1) // 2), p=p), samples)
    reference = np.random.default_rng(0)
    for _ in range(samples):
        cli._random_point(reference, n - 2)
    assert run.rng.bit_generator.state == reference.bit_generator.state


def _rank_two_shift(model):
    m = model.m
    return tuple(
        tuple(int((i, j) in ((0, m - 1), (1, m - 2))) for j in range(m)) for i in range(m)
    )


def _unit_shift(model):
    # A = E_11: S = h A + A^T h has h-trace 2 and rank 2
    m = model.m
    return tuple(tuple(int(i == j == 0) for j in range(m)) for i in range(m))


def _deformed_profile(model, a, pairs):
    # a profile solve_a cannot produce: a and the harmonic pairs are set
    # directly, and the stored target trace is the power law's
    c = model.k / 2.0
    return DeformedF(
        perturbation=PerturbationF0(pairs),
        c=c,
        a_solved=a,
        target_trace=target_trace_value(c, model.context()),
        p=model.p,
    )


# control -> (its shift rows or None, its profile or None; the identities it
# fails at n = 5 and at n = 9)
CURVATURE_CONTROLS = {
    "rank-two-shift": (
        _rank_two_shift,
        None,
        {5: {"weyl_trace_free", "olszak_rank_two"}, 9: {"olszak_rank_two"}},
    ),
    "trace-shift": (
        _unit_shift,
        None,
        {5: {"weyl_trace_free", "olszak_rank_two"}, 9: {"weyl_trace_free", "olszak_rank_two"}},
    ),
    # k**2 = 1: f == 0, so nabla R = 0
    "k1-profile": (
        None,
        lambda model: HomogeneousF(1),
        {5: {"not_locally_symmetric"}, 9: {"not_locally_symmetric"}},
    ),
    # a = 1/2 and g == 0: the deformed f == 0
    "flat-deformed-profile": (
        None,
        lambda model: _deformed_profile(model, 0.5, ()),
        {5: {"not_locally_symmetric"}, 9: {"not_locally_symmetric"}},
    ),
    # A = 0: W = 0, the conformally flat control
    "zero-shift": (
        lambda model: ((0,) * model.m,) * model.m,
        None,
        {5: {"weyl_nonzero", "olszak_rank_two"}, 9: {"weyl_nonzero", "olszak_rank_two"}},
    ),
}


def _control_model(monkeypatch, n, control):
    model = build_model(standard_family((n + 1) // 2), p=3)
    shift, profile, _ = CURVATURE_CONTROLS[control]
    if profile is not None:
        return dataclasses.replace(model, f=profile(model))
    rows = shift(model)
    monkeypatch.setattr(ModelData, "shift_rows", lambda self: rows)
    return model


@pytest.mark.parametrize("control", sorted(CURVATURE_CONTROLS))
@pytest.mark.parametrize("n", [5, 9])
def test_curvature_section_fails_metrics_not_of_the_power_law_form(monkeypatch, n, control):
    calls = _counted_curvature_at(monkeypatch)
    model = _control_model(monkeypatch, n, control)
    section, _ = _curvature_section(model)
    assert section["pass"] is False
    failed = {name for name, ok in section["details"].items() if ok is False}
    assert failed == CURVATURE_CONTROLS[control][2][n]
    if n > cli.CURVATURE_CROSS_CHECK_MAX_N:
        assert calls == []
        return
    # the finite-difference cross-check flags the control on its own
    assert len(calls) == 5
    assert any(f.startswith("finite differences: ") for f in section["details"]["failures"])
    report = curvature_at(MetricPatch(model), calls[0])
    assert (
        report.olszak_dimension != 2
        or report.norm_nabla_riemann / report.norm_riemann
        < DEFAULT_TOLERANCES["curvature_nabla_riemann_min"]
    )


@pytest.mark.parametrize("n", [5, 9])
def test_deformed_profiles_that_do_not_vanish_are_not_locally_symmetric(n):
    model = build_model(standard_family((n + 1) // 2), p=3)
    # a = 1/2 and (A_1, B_1) = (0.02, 0): f'(1) = 0, yet f is not 0, so
    # nabla R = -f' h does not vanish; a one-point witness at t = 1 would
    # call this metric locally symmetric
    critical = _deformed_profile(model, 0.5, ((0.02, 0.0),))
    assert critical.deriv(1.0) == 0.0
    assert critical.deriv(1.3) != 0.0
    # g == 0 with a != 1/2: f is a nonzero power law
    unperturbed = _deformed_profile(model, model.k / 2.0, ())
    for profile in (critical, unperturbed):
        assert all(curvature_identities(dataclasses.replace(model, f=profile)).values())


def canonicalize_orbit(cert):
    return next(s for s in cert["sections"] if s["name"] == "canonicalize-orbit")


@pytest.mark.parametrize("n, p", [(7, 4), (9, 3)], ids=["7-4", "9-3"])
def test_canonicalize_orbit_decides_every_pair(n, p):
    # the exact cell route rejects no draw, also where the float cell is
    # far out of reach
    cert = build_certificate(build_model(standard_family((n + 1) // 2), p=p), samples=5, seed=0)
    section = canonicalize_orbit(cert)
    assert (section["kind"], section["pass"], section["residual"]) == ("exact", True, "0")
    assert section["details"] == {"pairs": 5, "redraws": 0}
    json.dumps(cert, allow_nan=False)


def test_word_identity_failure_turns_canonicalize_orbit_red(monkeypatch):
    # a normal form that conjugates by Xi where Xi^-1 is due
    def tampered_normal_form(sigma, word):
        power, coords = 0, (0,) * sigma.size
        for token in word:
            if isinstance(token, str):
                step = 1 if token == HAT else -1
                power, coords = power + step, xi_power(sigma, coords, step)
            else:
                coords = tuple(c + int(v) for c, v in zip(coords, token))
        return power, coords

    monkeypatch.setattr(cli, "normal_form", tampered_normal_form)
    cert = build_certificate(build_model(standard_family(3), p=3), samples=5, seed=0)
    section = canonicalize_orbit(cert)
    assert section["pass"] is False
    failures = section["details"]["failures"]
    assert failures and all(f.startswith("words differ: ") for f in failures)


def test_tampered_spectrum_fails_the_spectral_section(tmp_path):
    out = generate(tmp_path)
    data = json.loads(out.read_text())
    data["system"]["E"][0] += 1
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(data))
    code = main(["certify", str(bad), "--samples", "2"])
    assert code == 1
    cert = json.loads((tmp_path / "tampered.certificate.json").read_text())
    assert cert["overall_pass"] is False
    by_name = {s["name"]: s for s in cert["sections"]}
    assert by_name["spectral-axioms"]["pass"] is False
    assert by_name["spectral-axioms"]["details"]["failures"]
    # downstream sections are reported, not run, each with its own kind
    assert by_name["curvature"]["pass"] is False
    assert by_name["curvature"]["kind"] == "exact"
    assert "not run" in by_name["curvature"]["details"]["failures"][0]


def test_missing_file_exits_3(tmp_path, capsys):
    assert main(["certify", str(tmp_path / "nope.json")]) == 3
    assert "cannot read" in capsys.readouterr().err


def test_garbage_file_exits_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["certify", str(bad)]) == 3


def test_wrong_schema_exits_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "other/9", "p": 3}))
    assert main(["certify", str(bad)]) == 3


def _set_first_pair(pair):
    def edit(data):
        data["f"]["fourier"][0] = pair
        return data

    return edit


def _set_profile_field(name, value):
    def edit(data):
        data["f"][name] = value
        return data

    return edit


@pytest.mark.parametrize(
    "malform",
    [
        lambda data: [data],
        lambda data: {**data, "f": []},
        _set_first_pair([1]),
        _set_first_pair([0.02, 0.01, 7.0]),
        _set_profile_field("a_solved", math.nan),
        _set_profile_field("a_solved", math.inf),
        _set_profile_field("target_trace", math.nan),
        lambda data: {**data, "n": 5.5},
        lambda data: {**data, "a": [1.5, *data["a"][1:]]},
        lambda data: {**data, "eps": True},
        # a real field holds a JSON number: no string or boolean stands in
        _set_profile_field("c", "2.5"),
        lambda data: _set_profile_field("target_trace", str(data["f"]["target_trace"]))(data),
        _set_first_pair(["0.02", "0.01"]),
        _set_profile_field("a_solved", True),
        _set_first_pair([True, False]),
        _set_profile_field("c", 10**400),
        lambda data: _set_profile_field("p", 10**400)({**data, "p": 10**400}),
    ],
    ids=[
        "top-level-array", "profile-array", "short-fourier-pair", "long-fourier-pair",
        "nan-a-solved", "infinite-a-solved", "nan-target-trace",
        "fractional-n", "fractional-a-entry", "boolean-eps",
        "string-c", "string-target-trace", "string-fourier-pair",
        "boolean-a-solved", "boolean-fourier-pair", "huge-integer-c",
        "huge-integer-p",
    ],
)
def test_model_file_of_the_wrong_shape_exits_3(tmp_path, capsys, malform):
    # the file parses, but it is not a model: unreadable input, not a
    # failing section
    data = json.loads(generate(tmp_path, "--deform-coeffs", "[[0.02, 0.01]]").read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(malform(data)))
    assert main(["certify", str(bad), "--samples", "1"]) == 3
    assert "cannot read model file" in capsys.readouterr().err
    assert not (tmp_path / "bad.certificate.json").exists()


def test_deformed_model_flags_dilational_not_homogeneous(tmp_path):
    out = tmp_path / "deformed.json"
    code = main(
        [
            "generate", "--n", "5", "--p", "3",
            "--deform-coeffs", "[[0.02, 0.01], [0.005, 0.0]]",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["f"]["variant"] == "deformed"
    assert main(["certify", str(out), "--samples", "2", "--seed", "3"]) == 0
    cert = json.loads((tmp_path / "deformed.certificate.json").read_text())
    assert cert["overall_pass"] is True
    by_name = {s["name"]: s for s in cert["sections"]}
    assert by_name["holonomy"]["details"]["dilational"] is True
    assert by_name["holonomy"]["details"]["homogeneous"] is False
    assert by_name["profile-transfer"]["pass"] is True


# profile-transfer's residual at (5, 3) with DEFORMED_PAIR when a_solved is
# nudged by delta, and whether T keeps its target eigenpair there
NUDGED_TRANSFER = {
    1e-9: (6.55337650812271e-09, True),
    1e-6: (6.5533826738573e-06, False),
    1e-3: (0.006556586684499877, False),
}


@pytest.mark.parametrize("delta", sorted(NUDGED_TRANSFER))
def test_nudged_base_exponent_fails_profile_transfer_with_its_residual(delta):
    # the trace is read off the transfer matrix the eigenbasis shares; a
    # profile off its target spectrum fails profile-transfer with the
    # measured residual instead of crashing, and has no positive eigenpair
    # once the target eigenvalues are gone
    model = _deformed_model(5, 3)
    nudged = dataclasses.replace(model.f, a_solved=model.f.a_solved + delta)
    cert = build_certificate(dataclasses.replace(model, f=nudged), samples=2, seed=0)
    section = next(s for s in cert["sections"] if s["name"] == "profile-transfer")
    residual, positive = NUDGED_TRANSFER[delta]
    assert section["pass"] is False
    assert section["residual"] == residual
    assert section["details"]["eigenfunctions_positive"] is positive
    assert section["details"]["a_solved"] == nudged.a_solved
    assert cert["overall_pass"] is False


def test_tol_override_can_force_a_failure(tmp_path):
    out = generate(tmp_path)
    code = main(
        ["certify", str(out), "--samples", "2", "--tol-overrides", '{"isometry": 1e-30}']
    )
    assert code == 1
    cert = json.loads((tmp_path / "model.certificate.json").read_text())
    by_name = {s["name"]: s for s in cert["sections"]}
    assert by_name["isometry"]["pass"] is False
    assert by_name["isometry"]["details"]["tolerance"] == 1e-30


def test_unknown_tolerance_key_exits_2(tmp_path, capsys):
    # canonicalize-orbit is exact, so "canonicalize" is no tolerance key
    out = generate(tmp_path)
    for overrides in ('{"bogus": 1}', '{"canonicalize": 1e-8}'):
        assert main(["certify", str(out), "--tol-overrides", overrides]) == 2
        assert "unknown tolerance keys" in capsys.readouterr().err


def test_malformed_tolerance_json_exits_2(tmp_path, capsys):
    # anything but a JSON object of finite numbers is a usage error, not a
    # failing section (exit 1) or a list of unknown keys
    out = generate(tmp_path)
    for overrides in (
        "not json", "5", '"x"', "[]", '{"isometry": null}', '{"isometry": [1]}',
        '{"isometry": NaN}', '{"isometry": true}',
    ):
        assert main(["certify", str(out), "--tol-overrides", overrides]) == 2, overrides
        err = capsys.readouterr().err
        assert "bad --tol-overrides" in err and "unknown" not in err, overrides
    # an integer is a number
    assert main(["certify", str(out), "--samples", "1", "--tol-overrides", '{"isometry": 1}']) == 0


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_certify_without_samples_is_a_usage_error(tmp_path, capsys, samples):
    # with no draw, curvature, isometry and canonicalize-orbit would pass
    # on nothing, and the certificate would hold a non-JSON Infinity
    out = generate(tmp_path)
    capsys.readouterr()
    target = tmp_path / "cert.json"
    assert main(["certify", str(out), "--samples", samples, "--out", str(target)]) == 2
    assert main(["certify", str(out), "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bad --samples: ")
    assert not target.exists()
    assert not (tmp_path / "model.certificate.json").exists()


def test_build_certificate_rejects_unknown_keys_directly():
    model = build_model(standard_family(3), p=3)
    with pytest.raises(ValueError):
        build_certificate(model, samples=1, tolerances={"nope": 1e-3})


# -- search-even --------------------------------------------------------------------


def test_search_even_m2_is_empty_up_to_99(capsys):
    assert main(["search-even", "--m", "2", "--k-max", "99"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == 0
    assert report["systems"] == []


def test_search_even_m4_is_empty_up_to_15(capsys):
    assert main(["search-even", "--m", "4", "--k-max", "15"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 0


def test_search_odd_m3_recovers_the_family_member(capsys):
    assert main(["search-even", "--m", "3", "--k-max", "15"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["count"] >= 1
    assert any(system["k"] == 5 for system in report["systems"])


@pytest.mark.parametrize("m", ["0", "7", "-1"])
def test_search_even_bad_order_is_a_usage_error(capsys, m):
    # exit 1 would read as "the search found something"
    assert main(["search-even", "--m", m, "--k-max", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bad --m: ")


@pytest.mark.parametrize("k_max", ["-5", "0"])
def test_search_even_bad_gap_bound_is_a_usage_error(capsys, k_max):
    # below 1 no gap is scanned, so exit 0 would claim an empty search
    assert main(["search-even", "--m", "2", "--k-max", k_max]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bad --k-max: ")


def test_search_even_m2_small_range_exits_zero(capsys):
    assert main(["search-even", "--m", "2", "--k-max", "9"]) == 0
    assert json.loads(capsys.readouterr().out) == {"count": 0, "k_max": 9, "m": 2, "systems": []}


def test_default_tolerances_are_not_mutated_by_overrides(tmp_path):
    before = dict(DEFAULT_TOLERANCES)
    out = generate(tmp_path)
    main(["certify", str(out), "--samples", "2", "--tol-overrides", '{"isometry": 1e-3}'])
    assert DEFAULT_TOLERANCES == before
