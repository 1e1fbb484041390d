import math
import random
from fractions import Fraction

import pytest

from quadtower.bigpoly import IntPolynomial, ZeroPolynomialError, height_int
from quadtower.family import (
    BoundConstants,
    HallLangConstants,
    InvalidConstantsError,
    IsotrivialError,
    QuadraticFamily,
    SpecializedMap,
    index_bound,
)
from quadtower.orbit import DigitBudgetError

T = IntPolynomial((0, 1))
X2PT = QuadraticFamily.of([0], [0, 1])  # phi_a = x^2 + a


def test_specialize_examples():
    m = X2PT.specialize(1)
    assert (m.gamma_a, m.c_a, m.v_a) == (0, 1, 1)
    m = QuadraticFamily.of([0, 1], [0, 1]).specialize(7)
    assert m.v_a == 0
    m = QuadraticFamily.of([0, 1], [1, 0, 1]).specialize(2)
    assert (m.gamma_a, m.c_a, m.v_a) == (2, 5, 3)


def test_specialized_map_validates():
    with pytest.raises(ValueError):
        SpecializedMap(a=1, gamma_a=2, c_a=3, v_a=5)


def test_conjugation_identity_random():
    rng = random.Random(211)
    for _ in range(200):
        fam = QuadraticFamily.of(
            [rng.randint(-9, 9) for _ in range(rng.randrange(1, 4))],
            [rng.randint(-9, 9) for _ in range(rng.randrange(1, 4))],
        )
        a = rng.randint(-50, 50)
        x = rng.randint(-100, 100)
        m = fam.specialize(a)
        assert m.apply(x + m.gamma_a) - m.gamma_a == m.apply_sigma(x)


def test_is_isotrivial():
    assert QuadraticFamily.of([0, 1], [5, 1]).is_isotrivial
    assert not X2PT.is_isotrivial
    assert QuadraticFamily.of([0, 0, 1], [0, 0, 1]).is_isotrivial


def test_m_phi():
    assert X2PT.m_phi() == 17  # deg gamma != deg c
    fam = QuadraticFamily.of([0, 0, 1], [0, 1, 1])  # degrees (2,2), diff deg 1
    assert fam.m_phi() == 15
    fam = QuadraticFamily.of([0, 0, 0, 1], [0, 0, 0, 2])  # (3,3), diff deg 3
    assert fam.m_phi() == 13
    with pytest.raises(IsotrivialError):
        QuadraticFamily.of([0, 1], [5, 1]).m_phi()


def test_exceptional_polynomial_x2pt():
    # t^3 (t+1)^2 (t+2), assembled independently
    expected = (T ** 3) * ((T + 1) ** 2) * (T + 2)
    assert X2PT.exceptional_polynomial() == expected


def test_exceptional_polynomial_isotrivial_zero():
    fam = QuadraticFamily.of([0, 1], [0, 1])
    assert fam.exceptional_polynomial().is_zero


def test_exceptional_polynomial_shifted():
    fam = QuadraticFamily.of([0], [-1, 1])  # gamma = 0, c = t - 1
    f = T - 1
    expected = f * (f * f + f) * f * T * (T + 1)
    assert fam.exceptional_polynomial() == expected


def test_bound_constants_x2pt():
    bc = X2PT.compute_bound_constants()
    assert bc.threshold == 2
    assert bc.b1 == pytest.approx(math.log(2))
    assert bc.a3 == 0.0
    assert bc.a4 == 0.0
    assert bc.a2 == pytest.approx(math.log(2))
    assert bc.a1 == pytest.approx(math.log(2))


def test_bound_constants_scaled_monomial():
    # f = 2t has no non-leading mass, so the threshold stays at its floor
    # and the contract h(2a) >= h(a) - log 2 holds with room to spare
    bc = QuadraticFamily.of([0], [0, 2]).compute_bound_constants()
    assert bc.threshold == 2
    assert bc.b1 == pytest.approx(math.log(2))


def test_bound_constants_isotrivial():
    with pytest.raises(IsotrivialError):
        QuadraticFamily.of([0, 1], [0, 1]).compute_bound_constants()


FAMILIES = [
    QuadraticFamily.of([0], [0, 1]),
    QuadraticFamily.of([0], [0, 2]),
    QuadraticFamily.of([0, 1], [1, 0, 1]),
    QuadraticFamily.of([1, 0, 1], [1, 1, 1]),
    QuadraticFamily.of([3, -2], [-7, 0, 0, 5]),
    QuadraticFamily.of([0, 4], [11, -3, 6]),
]


def test_b1_contract():
    # h(f(a)) >= d h(a) - b1 for every integer a with f(a) != 0
    for fam in FAMILIES:
        bc = fam.compute_bound_constants()
        f = fam.difference
        d = f.degree
        for a in range(-10 ** 4, 10 ** 4 + 1):
            fa = f.evaluate(a)
            if fa == 0:
                continue
            assert height_int(fa) >= d * height_int(a) - bc.b1 - 1e-9, (fam, a)


def test_a2_orbit_contract():
    rng = random.Random(223)
    for fam in FAMILIES:
        bc = fam.compute_bound_constants()
        d = fam.difference.degree
        for _ in range(30):
            a = rng.randint(-200, 200)
            m = fam.specialize(a)
            alpha = Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))
            bound_base = height_int(alpha) + bc.a2 + d * height_int(a)
            x = alpha
            for step in range(1, 9):
                x = x * x + m.v_a
                assert height_int(x) <= (1 << step) * bound_base + 1e-9


def test_a3_a1_contracts():
    for fam in FAMILIES:
        bc = fam.compute_bound_constants()
        dg = fam.gamma.degree or 0
        for a in range(-300, 301):
            ga = fam.gamma.evaluate(a)
            assert height_int(ga) <= dg * height_int(a) + bc.a3 + 1e-9
            # lower shift bound: h(x - gamma(a)) >= h(x) - dg h(a) - a1
            for x in (-97, 3, 1001):
                assert height_int(x - ga) >= height_int(x) - dg * height_int(a) - bc.a1 - 1e-9


def test_exceptional_set_x2pt():
    assert X2PT.exceptional_set() == [-2, -1, 0, 1, 2]


def test_exceptional_set_shifted():
    fam = QuadraticFamily.of([0], [10, 1])  # c = t + 10
    out = fam.exceptional_set()
    for root in (-10, -11, -12):
        assert root in out
    threshold = fam.compute_bound_constants().threshold
    assert all(a in out for a in range(-threshold, threshold + 1))


def test_exceptional_set_contains_pcf_roots_brute_force():
    for fam in FAMILIES[:3]:
        out = set(fam.exceptional_set())
        f = fam.difference
        for a in range(-10 ** 5, 10 ** 5 + 1):
            if f.evaluate(a) in (0, -1, -2):
                assert a in out, (fam, a)


def test_exceptional_set_errors():
    with pytest.raises(IsotrivialError):
        QuadraticFamily.of([0, 1], [0, 1]).exceptional_set()
    with pytest.raises(ZeroPolynomialError):
        QuadraticFamily.of([0, -1], []).exceptional_set()  # c = 0 kills P_phi


def test_hall_lang_validation():
    with pytest.raises(InvalidConstantsError):
        HallLangConstants(0.0, 1.0, 1.0)
    with pytest.raises(InvalidConstantsError):
        HallLangConstants(1.0, -1.0, 0.0)
    with pytest.raises(InvalidConstantsError):
        HallLangConstants(math.inf, 0.0, 0.0)


def test_nphi_bound_degenerate_constants():
    # with all named constants zeroed and D = G = 1, rho_1(x) = x/x = 1
    fam = QuadraticFamily.of([0, 1], [0, 2])
    bounds = BoundConstants(a1=0.0, a2=0.0, a3=0.0, a4=0.0, b1=0.0)
    rep = fam.nphi_bound(HallLangConstants(1.0, 0.0, 0.0), bounds=bounds)
    assert rep.a_min == 2
    assert rep.m1 == 1.0


def test_nphi_bound_x2pt_spreadsheet():
    # independent flat evaluation of the bound chain for gamma=0, c=t,
    # kappa = (1, 1, 1)
    fam = X2PT
    rep = fam.nphi_bound(HallLangConstants(1.0, 1.0, 1.0))
    log2_, log3 = math.log(2), math.log(3)
    a_min = 3
    x = math.log(a_min)
    q = x - log2_
    k2p = 1.0 + 0 + 1
    k3p = 1.0 + 2 * log3 + 0.0 + 0.0 + log2_
    m1 = max((x + log2_) / q, 1.0)
    m2 = max(0.0 / q, 0.0)
    m3 = max(log2_ / q, 0.0)
    m4 = max((k2p * x + k3p) / q, k2p)
    assert rep.a_min == a_min
    assert rep.m1 == pytest.approx(m1)
    assert rep.m2 == pytest.approx(m2)
    assert rep.m3 == pytest.approx(m3)
    assert rep.m4 == pytest.approx(m4)
    m_phi = max(m1, m2, m3, m4)
    assert rep.m_phi == pytest.approx(m_phi)
    assert rep.n_phi == 1 + max(6, math.ceil(2 * math.log2(m_phi) + 19))


@pytest.mark.parametrize("kappas", [(1e308, 1.0, 1.0), (5e307, 1.0, 1.0), (1.0, 1e308, 1.0),
                                    (1.0, 1.0, 1e308)])
def test_nphi_bound_refuses_kappas_that_overflow_the_chain(kappas):
    # finite kappas whose bound chain reaches inf, where ceil(log2) would fail
    with pytest.raises(InvalidConstantsError, match="overflows"):
        X2PT.nphi_bound(HallLangConstants(*kappas))


def test_nphi_clamps_at_six():
    # tiny M_phi forces the clamp branch: n_phi = 1 + 6
    fam = QuadraticFamily.of([0, 1], [0, 2])
    bounds = BoundConstants(a1=0.0, a2=0.0, a3=0.0, a4=0.0, b1=0.0)
    rep = fam.nphi_bound(HallLangConstants(2.0 ** -40, 0.0, 0.0), bounds=bounds)
    assert rep.m4 >= 1.0  # kappa2' floor keeps real families above the clamp
    fam2 = QuadraticFamily.of([0, 1], [0, 2])
    # exercise the branch through the formula itself
    report = fam2.nphi_bound(HallLangConstants(1.0, 0.0, 0.0), bounds=bounds)
    assert report.n_phi == 1 + max(6, math.ceil(2 * math.log2(report.m_phi) + 19))


def test_nphi_monotone_in_kappas():
    fam = QuadraticFamily.of([0, 1], [1, 0, 1])
    base = fam.nphi_bound(HallLangConstants(1.0, 1.0, 1.0))
    for bumped in (
        HallLangConstants(2.0, 1.0, 1.0),
        HallLangConstants(1.0, 5.0, 1.0),
        HallLangConstants(1.0, 1.0, 9.0),
    ):
        rep = fam.nphi_bound(bumped)
        assert rep.m_phi >= base.m_phi - 1e-12
        assert rep.n_phi >= base.n_phi


def test_nphi_isotrivial():
    with pytest.raises(IsotrivialError):
        QuadraticFamily.of([0, 1], [3, 1]).nphi_bound(HallLangConstants(1, 0, 0))


def test_index_bound():
    assert index_bound(2) == 2
    assert index_bound(3) == 16
    assert index_bound(8) == 1 << 247
    assert index_bound(1) == 1
    with pytest.raises(ValueError):
        index_bound(0)


def test_index_bound_bit_budget():
    # the value needs 2^n - n bits
    assert index_bound(20).bit_length() == 2 ** 20 - 20
    with pytest.raises(DigitBudgetError):
        index_bound(21)
    assert index_bound(6, max_bits=58) == 1 << 57
    with pytest.raises(DigitBudgetError):
        index_bound(7, max_bits=120)
