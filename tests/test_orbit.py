import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadtower.family import QuadraticFamily, SpecializedMap
from quadtower.orbit import (
    DigitBudgetError,
    PostCriticallyFiniteError,
    canonical_height,
    check_ingram_lower_bound,
    critical_orbit,
    is_postcritically_finite,
    orbit,
    sigma_orbit_identity,
)

from conftest import CORPUS, JONES_A

FERMAT = SpecializedMap.make(0, 1, 1)       # (x-1)^2 + 1
X2P1 = SpecializedMap.make(1, 0, 1)         # x^2 + 1


def test_orbit_fermat_numbers():
    sl = orbit(FERMAT, 3, 4)
    assert sl.values == (3, 5, 17, 257, 65537)
    assert sl.values[0] == sl.start


def test_orbit_fixed_point():
    m = SpecializedMap.make(0, 0, 0)  # x^2
    assert orbit(m, 1, 10).values == (1,) * 11


def test_orbit_x2p1():
    assert orbit(X2P1, 0, 6).values == (0, 1, 2, 5, 26, 677, 458330)


def test_orbit_budget_guard():
    with pytest.raises(DigitBudgetError) as err:
        orbit(X2P1, 0, 64, max_bits=64)
    assert err.value.partial == [0, 1, 2, 5, 26, 677, 458330, 210066388901]


@settings(max_examples=60, deadline=None)
@given(entry=st.sampled_from(CORPUS), depth=st.integers(1, 12))
def test_critical_orbit_is_the_orbit_of_gamma_from_index_1(entry, depth):
    m = entry.map()
    crit, whole = critical_orbit(m, depth), orbit(m, m.gamma_a, depth)
    assert crit.rows.first == 1
    assert crit.rows == whole.rows[1:]
    assert crit.values == whole.values[1:]


def test_critical_orbit_x2p1():
    crit = critical_orbit(X2P1, 4)
    assert crit.values == (1, 2, 5, 26)
    assert crit.condition_one_holds


def test_critical_orbit_constant_when_v_zero():
    m = SpecializedMap.make(5, 5, 5)  # gamma = c = t at a = 5
    crit = critical_orbit(m, 5)
    assert crit.values == (5,) * 5


def test_critical_orbit_condition_one_failure():
    m = SpecializedMap.make(0, 0, 0)
    crit = critical_orbit(m, 3)
    assert not crit.condition_one_holds


def test_critical_orbit_jones_fixture():
    m = QuadraticFamily.of([0, 1], [1, 1]).specialize(JONES_A)
    crit = critical_orbit(m, 6)
    diffs = [v - JONES_A for v in crit.values]
    assert diffs == [1, 2, 5, 26, 677, 458330]
    # the differences satisfy d_n = d_{n-1}^2 + 1
    for prev, cur in zip(diffs, diffs[1:]):
        assert cur == prev * prev + 1


def test_sigma_orbit_identity_examples():
    assert sigma_orbit_identity(X2P1, 6)  # gamma_a = 0: trivially exact
    m = QuadraticFamily.of([0, 1], [1, 0, 1]).specialize(3)
    assert sigma_orbit_identity(m, 6)
    jones = QuadraticFamily.of([0, 1], [1, 1]).specialize(JONES_A)
    assert sigma_orbit_identity(jones, 5)


def test_sigma_orbit_identity_random():
    rng = random.Random(307)
    for _ in range(50):
        fam = QuadraticFamily.of(
            [rng.randint(-20, 20) for _ in range(rng.randrange(1, 4))],
            [rng.randint(-20, 20) for _ in range(rng.randrange(1, 4))],
        )
        m = fam.specialize(rng.randint(-30, 30))
        assert sigma_orbit_identity(m, 8, max_bits=1 << 20)


def test_is_postcritically_finite():
    assert is_postcritically_finite(SpecializedMap.make(0, 0, -1))
    assert is_postcritically_finite(SpecializedMap.make(0, 0, -2))
    assert is_postcritically_finite(SpecializedMap.make(0, 0, 0))
    assert not is_postcritically_finite(X2P1)


def test_pcf_matches_orbit_repetition():
    # v in {0,-1,-2} exactly matches a sigma-orbit revisit within 4 steps
    for v in range(-1000, 1001):
        seen = [0]
        x = 0
        for _ in range(4):
            x = x * x + v
            seen.append(x)
        repeats = len(set(seen)) < len(seen)
        assert repeats == (v in (0, -1, -2)), v


def test_growth_law_bit_doubling():
    for entry in CORPUS:
        m = entry.map()
        if is_postcritically_finite(m):
            continue
        values = critical_orbit(m, 12).values
        for prev, cur in zip(values, values[1:]):
            bits = prev.bit_length()
            if bits > 8:
                assert 2 * bits - 2 <= cur.bit_length() <= 2 * bits + 2, entry.name


def test_canonical_height_periodic_points():
    assert canonical_height(SpecializedMap.make(0, 0, 0), 0, 1e-6) == 0.0
    assert canonical_height(SpecializedMap.make(0, 1, 0), 0, 1e-6) == 0.0  # v=-1
    # v = -1: orbit of 0 is 0 -> -1 -> 0, heights all zero
    m = SpecializedMap.make(0, 1, 0)
    assert m.v_a == -1
    assert canonical_height(m, 0, 1e-4) == 0.0


def test_canonical_height_self_consistency():
    est1 = canonical_height(X2P1, 0, 1e-3)
    est2 = canonical_height(X2P1, 0, 5e-4)
    assert abs(est1 - est2) <= 1e-3
    # deterministic: same depth, same value
    assert canonical_height(X2P1, 0, 1e-3) == est1


def test_canonical_height_halving():
    rng = random.Random(311)
    eps = 1e-4
    for _ in range(20):
        v = rng.choice([1, 2, 3, 5, -3, -4, 7])
        x = rng.randint(-8, 8)
        m = SpecializedMap.make(0, 0, v)
        if is_postcritically_finite(m):
            continue
        hx = canonical_height(m, x, eps)
        hfx = canonical_height(m, m.apply_sigma(x), eps)
        assert abs(hfx - 2 * hx) <= 3 * eps


def test_canonical_height_rational_argument():
    from fractions import Fraction

    est = canonical_height(X2P1, Fraction(1, 2), 1e-3)
    assert est > 0


def test_canonical_height_rejects_bad_eps():
    with pytest.raises(ValueError):
        canonical_height(X2P1, 0, 0.0)


def test_check_ingram_lower_bound():
    assert check_ingram_lower_bound(X2P1)
    assert check_ingram_lower_bound(SpecializedMap.make(0, 0, 10 ** 6))
    with pytest.raises(PostCriticallyFiniteError):
        check_ingram_lower_bound(SpecializedMap.make(0, 1, 0))
