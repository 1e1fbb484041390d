import decimal
import math
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadtower.bigpoly import DigitBudgetError, IntPolynomial, decimal_str, height_int
from quadtower.factor import Budget, IncompleteFactorizationError
from quadtower.family import (
    HallLangConstants,
    InvalidConstantsError,
    IsotrivialError,
    QuadraticFamily,
    SpecializedMap,
    index_bound,
)

from conftest import CORPUS, compose

T = IntPolynomial((0, 1))
X2PT = QuadraticFamily.of([0], [0, 1])  # phi_a = x^2 + a


def test_specialize_examples():
    m = X2PT.specialize(1)
    assert (m.gamma_a, m.c_a, m.v_a) == (0, 1, 1)
    m = QuadraticFamily.of([0, 1], [0, 1]).specialize(7)
    assert m.v_a == 0
    m = QuadraticFamily.of([0, 1], [1, 0, 1]).specialize(2)
    assert (m.gamma_a, m.c_a, m.v_a) == (2, 5, 3)


def test_specialized_map_derives_v_a_from_its_three_fields():
    for a, g, c in ((1, 2, 3), (0, -5, 7), (-4, 10 ** 40, -(10 ** 41))):
        m = SpecializedMap(g, c)
        assert m.v_a == c - g
        assert SpecializedMap.make(a, g, c) == m
        assert SpecializedMap(str(g), str(c)) == m  # each field is coerced to int
        copy = pickle.loads(pickle.dumps(m))
        assert copy == m and hash(copy) == hash(m) and copy.v_a == m.v_a


def test_specialized_map_is_phi_a_alone():
    # c = t^2 gives phi_1 = phi_-1 = x^2 + 1: the point a is not part of the map
    fam = QuadraticFamily.of([0], [0, 0, 1])
    m = fam.specialize(1)
    assert m == fam.specialize(-1) and hash(m) == hash(fam.specialize(-1))


@settings(max_examples=60, deadline=None)
@given(entry=st.sampled_from(CORPUS), k=st.integers(0, 4), x=st.integers(-20, 20))
def test_phi_polynomial_is_the_kth_iterate(entry, k, x):
    m = entry.map()
    phi_k = m.phi_polynomial(k)
    y = x
    for _ in range(k):
        y = m.apply(y)
    assert phi_k.evaluate(x) == y
    # the independent reference: the k-fold composition of phi_a
    composed = IntPolynomial((0, 1))
    for _ in range(k):
        composed = compose(composed, m.phi_polynomial())
    assert phi_k == composed and phi_k.degree == 2 ** k


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
    expected = T * T * T * (T + 1) * (T + 1) * (T + 2)
    assert X2PT.info().exceptional_polynomial == expected


def test_exceptional_polynomial_isotrivial_zero():
    fam = QuadraticFamily.of([0, 1], [0, 1])
    assert fam.info().exceptional_polynomial.is_zero


def test_exceptional_polynomial_shifted():
    fam = QuadraticFamily.of([0], [-1, 1])  # gamma = 0, c = t - 1
    f = T - 1
    expected = f * (f * f + f) * f * T * (T + 1)
    assert fam.info().exceptional_polynomial == expected


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


def test_bound_constants_print_a_long_threshold_as_a_decimal_string():
    # P_phi vanishes for c = 0, so family-info prints the threshold however
    # long it is: a JSON number up to 2,048 bits, a decimal string above
    for big in (10 ** 600, 10 ** 5000):
        bc = QuadraticFamily.of([big, 1], [0]).compute_bound_constants()
        assert bc.threshold == 2 * big + 1
        expected = bc.threshold if big == 10 ** 600 else decimal_str(bc.threshold)
        assert bc.to_json_dict()["threshold"] == expected


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
    assert X2PT.info().exceptional_set == [-2, -1, 0, 1, 2]
    # the same c - gamma = t with c = 2^1000 t: phi^2(gamma) = t (t + 2^1000)
    fam = QuadraticFamily.of([0, 2 ** 1000 - 1], [0, 2 ** 1000])
    assert fam.info().exceptional_set == [-(2 ** 1000), -2, -1, 0, 1, 2]


def test_exceptional_set_shifted():
    fam = QuadraticFamily.of([0], [10, 1])  # c = t + 10
    out = fam.info().exceptional_set
    for root in (-10, -11, -12):
        assert root in out
    threshold = fam.compute_bound_constants().threshold
    assert all(a in out for a in range(-threshold, threshold + 1))


def test_exceptional_set_contains_pcf_roots_brute_force():
    for fam in FAMILIES[:3]:
        out = set(fam.info().exceptional_set)
        f = fam.difference
        for a in range(-10 ** 5, 10 ** 5 + 1):
            if f.evaluate(a) in (0, -1, -2):
                assert a in out, (fam, a)


_SMALL_COEFFS = st.lists(st.integers(-30, 30), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(_SMALL_COEFFS, _SMALL_COEFFS)
@example(f=[0, 1], c=[30, 1])  # c has the root -30, outside the ball |a| <= 2
@example(f=[0, 1], c=[30, -1, -1])  # f^2 + c = 30 - t has the root 30
def test_exceptional_set_matches_the_integer_roots_of_all_five_factors(f, c):
    # info() reads roots from c and (c - gamma)^2 + c only; the reference
    # takes sympy's integer roots of every factor of P_phi.  Drawing f =
    # c - gamma apart from c lets c's roots fall outside the ball f sets.
    sympy = pytest.importorskip("sympy")
    c = IntPolynomial(c)
    fam = QuadraticFamily(c - IntPolynomial(f), c)
    assume(not fam.is_isotrivial and not fam.info().exceptional_polynomial.is_zero)
    f, t = fam.difference, sympy.Symbol("t")
    threshold = fam.compute_bound_constants().threshold
    expected = set(range(-threshold, threshold + 1))
    for p in (fam.c, f * f + fam.c, f, f + 1, f + 2):
        roots = sympy.Poly(p.coeffs[::-1], t).ground_roots()
        expected.update(int(r) for r in roots if r.is_integer)
    assert fam.info().exceptional_set == sorted(expected)


def test_exceptional_set_tries_only_divisors_within_the_root_bound(monkeypatch):
    # c = K (1 + t + ... + t^59), K = 9999999999: the trailing coefficients
    # K and K^2 + K have 48 and 5,808 divisors, but Cauchy's bound keeps
    # only |r| <= 2 for c and |r| <= 61 for c^2 + c
    calls = []
    evaluate = IntPolynomial.evaluate
    monkeypatch.setattr(IntPolynomial, "evaluate",
                        lambda self, x: calls.append(x) or evaluate(self, x))
    fam = QuadraticFamily.of([0], [9999999999] * 60)
    assert fam.info().exceptional_set == list(range(-119, 120))
    assert len(calls) <= 100


def test_info_refuses_before_it_multiplies_p_phi_out(monkeypatch):
    # c = N + t with N = 10007 * 10009, which no rho iteration is left to
    # split: info() is refused with no product of P_phi's factors
    products = []
    prod = math.prod

    def recording_prod(factors, **kwargs):
        factors = list(factors)
        if any(isinstance(p, IntPolynomial) for p in factors):
            products.append(factors)
        return prod(factors, **kwargs)

    monkeypatch.setattr(math, "prod", recording_prod)
    n = 10007 * 10009
    fam = QuadraticFamily.of([n], [n, 1])
    with pytest.raises(IncompleteFactorizationError):
        fam.info(Budget(trial_bound=100, rho_iters=0))
    assert products == []
    fam.info()
    assert len(products) == 1


def test_exceptional_set_errors():
    # no F_phi for an isotrivial family, nor when c = 0 kills P_phi
    isotrivial = QuadraticFamily.of([0, 1], [0, 1]).info()
    assert (isotrivial.m_phi, isotrivial.bounds, isotrivial.exceptional_set) == (None, None, None)
    vanishing = QuadraticFamily.of([0, -1], []).info()
    assert vanishing.exceptional_polynomial.is_zero and vanishing.exceptional_set is None


def test_hall_lang_validation():
    with pytest.raises(InvalidConstantsError):
        HallLangConstants(0.0, 1.0, 1.0)
    with pytest.raises(InvalidConstantsError):
        HallLangConstants(1.0, -1.0, 0.0)
    with pytest.raises(InvalidConstantsError):
        HallLangConstants(math.inf, 0.0, 0.0)


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


@settings(max_examples=200, deadline=None)
@given(gamma=st.lists(st.integers(-50, 50), max_size=4),
       c=st.lists(st.integers(-50, 50), max_size=4),
       kappas=st.tuples(st.floats(2.0 ** -40, 1e6), st.floats(0.0, 1e6), st.floats(0.0, 1e6)))
def test_nphi_floor_of_six_never_binds(gamma, c, kappas):
    # kappa2' = kappa2 + G + D >= D, so M4 >= kappa2'/D >= 1 and
    # n_phi = 1 + ceil(2 log2 M_phi + 19) >= 20: the max(6, .) never decides
    fam = QuadraticFamily.of(gamma, c)
    assume(not fam.is_isotrivial)
    rep = fam.nphi_bound(HallLangConstants(*kappas))
    assert rep.a_min == fam.compute_bound_constants().threshold + 1
    assert rep.m4 >= 1.0
    assert rep.n_phi == 1 + math.ceil(2 * math.log2(rep.m_phi) + 19) >= 20


def _ln(n):
    return Decimal(n).ln()


def _nphi_reference(fam, k1, k2, k3):
    """n_phi from the bound chain of QuadraticFamily.nphi_bound evaluated in
    60-digit decimal, with the exact integer threshold and exact logs."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        f, big_d, big_g = fam.difference, fam.difference.degree, fam.gamma.degree or 0
        a3 = _ln(max(1, sum(map(abs, fam.gamma.coeffs))))
        a4 = _ln(max(1, sum(map(abs, f.coeffs))))
        a1, a2 = a3 + _ln(2), a4 + _ln(2)
        threshold = fam.compute_bound_constants().threshold
        x_min = _ln(threshold + 1)
        denom = big_d * (x_min - _ln(threshold))
        k1, k2, k3 = map(Decimal, (k1, k2, k3))
        height = _ln(max([1, *map(abs, fam.gamma.coeffs)]))
        k2p = k2 + big_g + big_d
        k3p = k3 + 2 * _ln(3) + height + a4 + _ln(2)

        def sup(slope, const):
            return max((slope * x_min + const) / denom, slope / big_d)

        m_phi = max(sup(k1 * big_d, k1 * a2), sup(k1 * big_g, k1 * a3),
                    sup(k1 * big_g, k1 * a1), sup(k2p, k3p))
        return 1 + max(6, math.ceil(2 * m_phi.ln() / _ln(2) + 19))


@pytest.mark.parametrize("k", range(1, 41))
def test_nphi_bound_agrees_with_a_decimal_reference_on_large_thresholds(k):
    # D*log(threshold + 1) - B1 cancels in floats: at 10^14 it gives n_phi
    # 128 against 129, and from 10^15 on it is 0.0
    fam = QuadraticFamily.of([0], [10 ** k, 1])
    assert fam.nphi_bound(HallLangConstants(1.0, 1.0, 1.0)).n_phi == _nphi_reference(fam, 1, 1, 1)


# On x^2 + t with kappa1 = kappa2 = 1: for each n from 31 to 60, the least
# float kappa3 at which the reference reaches n_phi = n, found by bisecting
# kappa3 against it.  There 2*log2(M_phi) + 19 lies just above an integer,
# and the float chain, rounded onto that integer, gave n - 1.
_NPHI_BOUNDARIES = [
    7.887287124228877, 13.261659823348072, 20.862170583690137, 31.61091598192853,
    46.81193750261266, 68.30942829908945, 98.7114713404577, 141.70645293341127,
    202.5105390161478, 288.5005022020549, 410.10867436752795, 582.0886007393423,
    825.3049450702883, 1169.2647978139169, 1655.697486475809, 2343.617191963066,
    3316.4825692868503, 4692.321980261365, 6638.052734908933, 9389.731556857962,
    13281.193066153099, 18784.550710051157, 26567.47372864143, 37574.18901643754,
    53140.03505361809, 75153.46562921032, 106285.15770357141, 150312.01885475588,
    212575.40300347807, 300629.125305847,
]


@pytest.mark.parametrize("n, kappa3", zip(range(31, 61), _NPHI_BOUNDARIES))
def test_nphi_bound_is_exact_at_rounding_boundaries(n, kappa3):
    # n at the boundary, and n - 1 one float below it: no under-report, and
    # the outward rounding adds no level either
    for k3, want in ((kappa3, n), (math.nextafter(kappa3, 0.0), n - 1)):
        rep = X2PT.nphi_bound(HallLangConstants(1.0, 1.0, k3))
        assert rep.n_phi == want == _nphi_reference(X2PT, 1.0, 1.0, k3), k3


@settings(max_examples=200, deadline=None)
@given(gamma=st.lists(st.integers(-50, 50), max_size=4),
       c=st.lists(st.integers(-50, 50), max_size=4),
       kappas=st.tuples(st.floats(2.0 ** -40, 1e6), st.floats(0.0, 1e6), st.floats(0.0, 1e6)))
@example(gamma=[0], c=[0, 1], kappas=(1.0, 1.0, 13.261659823348088))
def test_nphi_bound_is_never_below_the_decimal_reference(gamma, c, kappas):
    fam = QuadraticFamily.of(gamma, c)
    assume(not fam.is_isotrivial)
    assert fam.nphi_bound(HallLangConstants(*kappas)).n_phi >= _nphi_reference(fam, *kappas)


def test_nphi_bound_refuses_a_threshold_that_leaves_the_float_range():
    # M4 overflows even at the smallest kappas
    for k in (305, 306, 400):
        fam = QuadraticFamily.of([0], [10 ** k, 1])
        with pytest.raises(ValueError, match="leaves the float range at threshold 2000"):
            fam.nphi_bound(HallLangConstants(2.0 ** -40, 0.0, 0.0))


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
    assert index_bound(2).value == 2
    assert index_bound(3).value == 16
    assert index_bound(8).value == 1 << 247
    assert index_bound(1).value == 1
    with pytest.raises(ValueError):
        index_bound(0)


def test_index_bound_bit_budget():
    # the value needs 2^n - n bits
    assert index_bound(20).value.bit_length() == 2 ** 20 - 20
    with pytest.raises(DigitBudgetError):
        index_bound(21)
    assert index_bound(6, Budget(max_bits=58)).value == 1 << 57
    with pytest.raises(DigitBudgetError):
        index_bound(7, Budget(max_bits=120))
