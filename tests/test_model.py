"""Tests for the model layer.

The scaling exponents for the first family instances were derived on paper
from a(i) = E(2i-1) + (1-k)/2 and are frozen below; everything else is
pinned through the exact dual-route checks.
"""

import math
from dataclasses import replace

import pytest

from ecsforge.model import (
    HomogeneousF,
    ModelData,
    bridging_checks,
    build_model,
    check_model,
    conjugation_checks,
    isometry_checks,
    kappa,
)
from ecsforge.spectral import ZSpectralSystem, standard_family

FROZEN_A = {
    3: (1, 0, -1),
    4: (1, -2, 0, 2, -1),
    5: (1, 6, 7, 0, -7, -6, -1),
}


def test_build_model_frozen_exponents():
    for r, expected in FROZEN_A.items():
        model = build_model(standard_family(r), p=3)
        assert model.a == expected
        assert model.n == 2 * r - 1
        assert model.m == 2 * r - 3
        assert model.k == 2 * r - 1
        assert model.eps == 1


def test_mu_exponents():
    model = build_model(standard_family(3), p=3)
    assert model.mu_exponents == (2, -3)
    # mu+ * mu- = 1/q, i.e. the exponents sum to -1
    assert sum(model.mu_exponents) == -1


def test_inner_product_matrix():
    model = build_model(standard_family(3), p=3)
    assert model.h_rows() == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    flipped = build_model(standard_family(3), p=3, eps=-1)
    assert flipped.h_rows() == ((0, 0, -1), (0, -1, 0), (-1, 0, 0))


def test_inner_product_values():
    model = build_model(standard_family(3), p=3)
    assert model.inner((1, 2, 3), (1, 2, 3)) == 10  # 2*1*3 + 2*2
    assert model.inner((1, 0, 0), (1, 0, 0)) == 0  # e_1 is null
    assert model.inner((1, 0, 0), (0, 0, 1)) == 1
    assert model.inner((0, 1, 0), (0, 1, 0)) == 1


def test_shift_map():
    model = build_model(standard_family(3), p=3)
    assert model.shift_rows() == ((0, 0, 1), (0, 0, 0), (0, 0, 0))
    assert model.apply_shift((5.0, 6.0, 7.0)) == [7.0, 0.0, 0.0]


def test_kappa_frozen_value():
    model = build_model(standard_family(3), p=3)
    # f(1) = (25 - 1)/4 = 6; <v, v> = 10; <Av, v> = eps * v_m**2 = 9
    assert kappa(model, 1.0, (1.0, 2.0, 3.0)) == pytest.approx(69.0)
    # and the shift term flips with eps
    flipped = build_model(standard_family(3), p=3, eps=-1)
    assert kappa(flipped, 1.0, (1.0, 2.0, 3.0)) == pytest.approx(-69.0)


def test_homogeneous_profile():
    f = HomogeneousF(5)
    assert f.value(1.0) == pytest.approx(6.0)
    assert f.value(2.0) == pytest.approx(1.5)
    # derivative against a central difference
    h = 1e-6
    fd = (f.value(1.0 + h) - f.value(1.0 - h)) / (2 * h)
    assert f.deriv(1.0) == pytest.approx(fd, rel=1e-8)
    # exact self-similarity q**2 f(q t) = f(t) for any scale
    for q in (1.5, 2.0, math.sqrt(7.0)):
        for t in (0.3, 1.0, 2.7):
            assert q * q * f.value(q * t) == pytest.approx(f.value(t), rel=1e-12)


def test_homogeneous_profile_rejects_even_gap():
    with pytest.raises(ValueError):
        HomogeneousF(4)
    with pytest.raises(ValueError):
        HomogeneousF(-3)


def test_exact_dual_route_checks():
    for r in (3, 4, 5):
        for p in (3, 4, 5):
            for eps in (1, -1):
                model = build_model(standard_family(r), p=p, eps=eps)
                assert check_model(model) == ()
                assert conjugation_checks(model) == {
                    "exponent_route": True,
                    "field_route": True,
                }
                assert isometry_checks(model) == {
                    "exponent_route": True,
                    "field_route": True,
                }
                assert bridging_checks(model) == {
                    "tuple_route": True,
                    "field_route": True,
                }


def _dense_field_routes(model):
    """(C A C**-1 == q**2 A, C h C == h) from dense triple-loop products over
    the field, every term formed, zeros included."""
    ctx = model.context()
    m = model.m

    def field(rows):
        return [[ctx.element(v) for v in row] for row in rows]

    def scaling(sign):
        return [
            [ctx.q_power(sign * model.a[i]) if i == j else ctx.zero for j in range(m)]
            for i in range(m)
        ]

    def mul(left, right):
        return [
            [sum((left[i][l] * right[l][j] for l in range(m)), ctx.zero) for j in range(m)]
            for i in range(m)
        ]

    shift, h = field(model.shift_rows()), field(model.h_rows())
    q2 = ctx.q_power(2)
    conjugation = mul(mul(scaling(1), shift), scaling(-1)) == [[q2 * x for x in row] for row in shift]
    isometry = mul(mul(scaling(1), h), scaling(1)) == h
    return conjugation, isometry


@pytest.mark.parametrize("r, p", [(3, 3), (4, 5)])
def test_field_routes_reject_a_shifted_exponent_like_the_dense_product(r, p):
    model = build_model(standard_family(r), p=p)
    m = model.m
    for i in range(m):
        a = list(model.a)
        a[i] += 1
        tampered = replace(model, a=tuple(a))
        dense_conjugation, dense_isometry = _dense_field_routes(tampered)
        # only a(1) and a(m) meet the single nonzero entry of A
        assert dense_conjugation == (i not in (0, m - 1))
        assert conjugation_checks(tampered) == {
            "exponent_route": dense_conjugation,
            "field_route": dense_conjugation,
        }
        # every a(i) meets the anti-diagonal of h
        assert dense_isometry is False
        assert isometry_checks(tampered) == {
            "exponent_route": False,
            "field_route": False,
        }


def test_build_model_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_model(standard_family(3), p=2)
    with pytest.raises(ValueError):
        build_model(standard_family(3), p=3, eps=2)
    broken = ZSpectralSystem(3, 5, (3, -2, 2, -3, 1, -4), (1, 0, 0, 1, 0, 1))
    with pytest.raises(ValueError):
        build_model(broken, p=3)


def test_check_model_flags_tampered_exponents():
    model = build_model(standard_family(3), p=3)
    tampered = ModelData(
        n=model.n,
        p=model.p,
        eps=model.eps,
        system=model.system,
        a=(2, 0, -1),
        f=model.f,
    )
    messages = " ".join(check_model(tampered))
    assert "a(1)" in messages
    assert "bridging" in messages


def test_check_model_flags_profile_mismatch():
    model = build_model(standard_family(3), p=3)
    wrong_profile = ModelData(
        n=model.n,
        p=model.p,
        eps=model.eps,
        system=model.system,
        a=model.a,
        f=HomogeneousF(7),
    )
    assert any("profile" in msg for msg in check_model(wrong_profile))


def test_json_round_trip_and_tamper_detection():
    model = build_model(standard_family(4), p=4, eps=-1)
    data = model.to_json_dict()
    assert data["schema"] == "ecs-forge/1"
    rebuilt = ModelData.from_json_dict(data)
    assert rebuilt == model

    tampered = model.to_json_dict()
    tampered["a"][1] += 1
    with pytest.raises(ValueError):
        ModelData.from_json_dict(tampered)

    tampered = model.to_json_dict()
    tampered["system"]["E"][0] += 2
    with pytest.raises(ValueError):
        ModelData.from_json_dict(tampered)

    tampered = model.to_json_dict()
    tampered["schema"] = "ecs-forge/0"
    with pytest.raises(ValueError):
        ModelData.from_json_dict(tampered)

    tampered = model.to_json_dict()
    tampered["f"] = {"variant": "mystery"}
    with pytest.raises(ValueError):
        ModelData.from_json_dict(tampered)
