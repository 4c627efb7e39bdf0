"""Tests for the spectral-system layer.

The r = 3, 4, 5, 6 instances below were worked out by hand from the
seven-case table and checked against the axioms on paper; they are frozen
so the generator cannot drift.  The closed form for the exponent spectrum
(an oracle independent of the generator) is re-derived here in terms of
parity intervals.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecsforge.spectral import (
    ZSpectralSystem,
    _orbit_data,
    _systems_for_gap,
    search_systems,
    standard_family,
)

FROZEN_FAMILY = {
    3: {
        "m": 3,
        "k": 5,
        "E": (3, -2, 2, -3, 1, -4),
        "J": (1, 0, 0, 1, 1, 0),
        "selector": {1, 4, 5},
        "Y": {-3, -1, 1, 3},
    },
    4: {
        "m": 5,
        "k": 7,
        "E": (4, -3, 1, -6, 3, -4, 5, -2, 2, -5),
        "J": (0, 1, 1, 0, 1, 0, 1, 0, 0, 1),
        "selector": {2, 3, 5, 7, 10},
        "Y": {-5, -3, -1, 1, 3, 5},
    },
    5: {
        "m": 7,
        "k": 9,
        "E": (5, -4, 10, 1, 11, 2, 4, -5, -3, -12, -2, -11, 3, -6),
        "J": (1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0),
        "selector": {1, 4, 5, 8, 9, 12, 13},
        "Y": {-11, -5, -3, -1, 1, 3, 5, 11},
    },
    6: {
        "m": 9,
        "k": 11,
        "E": (6, -5, 1, -10, 2, -9, 3, -8, 5, -6, 7, -4, 8, -3, 9, -2, 4, -7),
        "J": (0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1),
        "selector": {2, 3, 6, 7, 9, 11, 14, 15, 18},
        "Y": {-9, -7, -5, -3, -1, 1, 3, 5, 7, 9},
    },
}


def family_spectrum_oracle(r: int) -> set[int]:
    """Expected exponent spectrum of the order-(2r-3) system, by parity.

    Even r: the odd integers in [-(2r-3), 2r-3].  Odd r: the odd integers in
    [-r, r] plus the two mirrored bands [-3r+4, -2r-1] and [2r+1, 3r-4]
    (empty below r = 5).
    """
    if r % 2 == 0:
        span = set(range(-2 * r + 3, 2 * r - 2))
    else:
        span = set(range(-r, r + 1))
        span |= set(range(-3 * r + 4, -2 * r))
        span |= set(range(2 * r + 1, 3 * r - 3))
    return {y for y in span if y % 2 != 0}


def test_family_frozen_instances():
    for r, data in FROZEN_FAMILY.items():
        system = standard_family(r)
        assert system.m == data["m"]
        assert system.k == data["k"]
        assert system.E == data["E"]
        assert system.J == data["J"]
        assert system.selector == frozenset(data["selector"])
        assert system.exponent_spectrum == frozenset(data["Y"])


def test_family_axioms_through_r13():
    for r in range(3, 14):
        system = standard_family(r)
        assert system.axiom_failures() == ()
        assert system.m == 2 * r - 3
        assert system.k == system.m + 2
        assert system.m % 2 == 1
        assert len(system.selector) == system.m
        assert sum(system.E_of(i) for i in system.selector) == 1
        assert system.exponent_spectrum == frozenset(family_spectrum_oracle(r))


def test_family_rejects_small_r():
    for bad in (2, 1, 0, -1):
        with pytest.raises(ValueError):
            standard_family(bad)


def test_slot_accessors():
    system = standard_family(3)
    assert system.E_of(1) == 3
    assert system.E_of(6) == -4
    assert system.J_of(5) == 1
    with pytest.raises(IndexError):
        system.E_of(0)
    with pytest.raises(IndexError):
        system.J_of(7)


def test_validate_flags_tampering():
    base = standard_family(3)

    exponents = list(base.E)
    exponents[2] += 1  # breaks (c) for j = 2 and (b) for the mirrored pair
    broken = ZSpectralSystem(base.m, base.k, tuple(exponents), base.J)
    messages = " ".join(broken.axiom_failures())
    assert "(c)" in messages
    with pytest.raises(ValueError):
        broken.validate()

    bits = list(base.J)
    bits[0] ^= 1
    broken = ZSpectralSystem(base.m, base.k, base.E, tuple(bits))
    messages = " ".join(broken.axiom_failures())
    assert "(b)" in messages and "(c)" in messages

    broken = ZSpectralSystem(base.m, base.k + 2, base.E, base.J)
    messages = " ".join(broken.axiom_failures())
    assert "(a)" in messages


def test_validate_flags_shape_problems():
    assert ZSpectralSystem(2, 5, (1, 2, 3), (0, 1, 0)).axiom_failures() != ()
    assert ZSpectralSystem(1, 5, (3, -2), (0, 2)).axiom_failures() == (
        "J must be 0/1-valued",
    )
    assert ZSpectralSystem(0, 5, (), ()).axiom_failures() != ()


def test_duplicate_selected_exponent_fails_d():
    # order 3, gap 1: the affine solution gives E = (1, 0, 0, -1, -1, -2);
    # selecting slots {1, 3, 5} makes Y = {-1, 0, 1} — symmetric but too
    # small, so axiom (d)'s cardinality clause must reject it
    system = ZSpectralSystem(
        m=3, k=1, E=(1, 0, 0, -1, -1, -2), J=(1, 0, 1, 0, 1, 0)
    )
    messages = " ".join(system.axiom_failures())
    assert "(d)" in messages
    assert "distinct" in messages


def test_json_round_trip():
    system = standard_family(4)
    data = system.to_json_dict()
    assert ZSpectralSystem(data["m"], data["k"], tuple(data["E"]), tuple(data["J"])) == system
    with pytest.raises(ValueError):
        ZSpectralSystem(data["m"], 9, tuple(data["E"]), tuple(data["J"])).validate()


# ---------------------------------------------------------------------------
# search


def test_search_even_orders_empty():
    assert search_systems(2, 99) == []
    assert search_systems(4, 15) == []


def test_search_order_three_recovers_family():
    found = search_systems(3, 9)
    assert found == [standard_family(3)]


def test_search_order_one_empty():
    # mirrored and adjacent pairings coincide for m = 1 and force
    # E(1) + E(2) = 1 != -1, so no gap admits a system
    assert search_systems(1, 21) == []


def test_search_respects_window_override():
    # shrinking the window cannot add systems; the known instance survives
    # because its orbit parameters are forced, not scanned
    assert search_systems(3, 9, window=0) == [standard_family(3)]


def test_search_guards():
    with pytest.raises(ValueError):
        search_systems(7, 5)
    with pytest.raises(ValueError):
        search_systems(0, 5)
    assert search_systems(3, 0) == []
    with pytest.raises(ValueError, match="window"):
        search_systems(3, 9, window=-1)


def product_candidates(m, k, window):
    """Every (E, J) of the orbit parametrisation, as the full product: one x
    per free orbit in |x| <= window and one J alternation per orbit.  The
    reference for the orbit join in `_systems_for_gap`."""
    orbits = _orbit_data(m, k)
    if orbits is None:
        return
    n = 2 * m
    choices = [
        (forced_x,) if forced_x is not None else tuple(range(-window, window + 1))
        for labels, parity, forced_x in orbits
    ]
    for xs in product(*choices):
        exponents = [0] * n
        for (labels, parity, forced_x), x in zip(orbits, xs):
            for slot, (alpha, beta) in labels.items():
                exponents[slot - 1] = alpha * x + beta
        for flips in product((0, 1), repeat=len(orbits)):
            bits = [0] * n
            for (labels, parity, forced_x), flip in zip(orbits, flips):
                for slot in labels:
                    bits[slot - 1] = parity[slot] ^ flip
            yield tuple(exponents), tuple(bits)


def test_search_filter_matches_full_axiom_scan():
    # the join prunes on axiom (d) alone; the full check run on every
    # candidate of the product must keep the same systems, at the default
    # window and at two overrides
    for m, window in product(range(1, 7), (None, 0, 3)):
        reference = []
        for k in range(1, 10, 2):
            w = 2 * k + 4 if window is None else window
            systems = [
                ZSpectralSystem(m=m, k=k, E=E, J=J) for E, J in product_candidates(m, k, w)
            ]
            # the parametrisation itself meets (a)-(c): only (d) can fail
            for system in systems:
                assert all(f.startswith("(d)") for f in system.axiom_failures()), system
            reference += [s for s in systems if not s.axiom_failures()]
        reference.sort(key=lambda s: (s.k, s.E, s.J))
        assert search_systems(m, 9, window=window) == reference
    assert list(_systems_for_gap(3, 5, 14)) == [standard_family(3)]


def test_search_order_five_finds_one_system_off_the_family():
    # m = 5 is the first order with a valid system besides the family's:
    # at k = 7 the second free-orbit value swaps the pairs (1, -6), (5, -2)
    family = standard_family(4)
    other = ZSpectralSystem(
        m=5, k=7, E=(4, -3, 5, -2, 3, -4, 1, -6, 2, -5), J=family.J
    )
    assert search_systems(5, 15) == [family, other]
    assert other.axiom_failures() == ()
    assert other.exponent_spectrum == family.exponent_spectrum


def test_full_check_rejects_candidate_that_passes_d():
    # changing an unselected exponent leaves Y, and so axiom (d), intact
    # but breaks the mirrored sum (b) and the adjacent difference (c)
    good = standard_family(3)
    E = list(good.E)
    E[1] -= 1  # slot 2 has J = 0
    bad = ZSpectralSystem(m=good.m, k=good.k, E=tuple(E), J=good.J)
    assert bad.exponent_spectrum == good.exponent_spectrum
    failures = bad.axiom_failures()
    assert any(f.startswith("(b)") for f in failures)
    assert not any(f.startswith("(d)") for f in failures)


@given(r=st.integers(min_value=3, max_value=20))
@settings(max_examples=18, deadline=None)
def test_family_structure_properties(r):
    system = standard_family(r)
    # the selector picks exactly one slot of each mirrored pair
    for i in range(1, system.m + 1):
        assert system.J_of(i) + system.J_of(2 * system.m + 1 - i) == 1
    # adjacent exponent pairs straddle the gap
    for j in range(1, system.m + 1):
        assert system.E_of(2 * j - 1) - system.E_of(2 * j) == system.k
    # all exponents distinct (the spectrum never collapses)
    assert len(set(system.E)) == 2 * system.m
