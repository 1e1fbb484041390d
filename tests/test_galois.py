import decimal
import importlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadtower.bigpoly as bigpoly_mod
import quadtower.galois as galois_mod
from quadtower.bigpoly import (DigitBudgetError, IntPolynomial, decimal_str, discriminant_direct,
                               is_perfect_square)
from quadtower.factor import (
    Budget,
    IncompleteFactorizationError,
    SquareFreeDecomposition,
    squarefree_decompose,
    stripped_cofactor,
)
from quadtower.family import QuadraticFamily, SpecializedMap
from quadtower.galois import (
    CERTIFIED_MAXIMAL,
    FAILED_SQUARE_OVER_Q,
    UNKNOWN,
    MaximalityCertificate,
    SingularModelError,
    certify_tower,
    curve_model,
    discriminant_report,
    primitive_divisor_certificate,
    primitive_divisor_exact,
    search_integral_points,
    stability_scan,
    verify_forced_point,
)
from quadtower.orbit import CriticalOrbit, canonical_height, critical_orbit, orbit

from conftest import (
    ACCEPTANCE_MAPS,
    CORPUS,
    JONES_A,
    compose,
    full_strip,
    plain_primes,
    root_counts_mod_p,
)

X2P1 = SpecializedMap(0, 1)
X2P2 = SpecializedMap(0, 2)


def test_stability_scan_examples():
    # level 1 is Q(sqrt(-c_a)): Q(i) for x^2 + 1, and 1, 2, 5, 26, 677, 458330
    # holds no square after it
    rep = stability_scan(X2P1, 6)
    assert rep.verdict == "NoSquareUpTo(6)"
    assert rep.squares_found == ()

    rep = stability_scan(SpecializedMap(0, -9), 1)  # x^2 - 9
    assert rep.verdict == "SquareFoundAt(1)"
    assert rep.squares_found == ((1, 3),)

    rep = stability_scan(X2P2, 6)
    assert rep.verdict == "NoSquareUpTo(6)"
    assert rep.squares_found == ()


def _binary_rescan(m, depth):
    """Oracle: the squares of the adjusted critical orbit -c_a, v_2, v_3, ...,
    found by math.isqrt on the binary critical values."""
    values = critical_orbit(m, depth).values
    adjusted = (-values[0],) + values[1:]
    return tuple(
        (n, math.isqrt(v)) for n, v in enumerate(adjusted, start=1)
        if v >= 0 and math.isqrt(v) ** 2 == v
    )


def test_stability_scan_negative_start():
    m = SpecializedMap(0, -16)  # x^2 - 16
    rep = stability_scan(m, 6)
    assert rep.squares_found[0] == (1, 4)  # -c_a = 16
    assert rep.squares_found == _binary_rescan(m, 6)


@pytest.mark.parametrize("m, depth", [
    *((e.map(), 9) for e in ACCEPTANCE_MAPS),
    (SpecializedMap(0, -1), 12),  # x^2 - 1: -1, 0, -1, 0, ...
    (SpecializedMap(0, -9), 12),  # x^2 - 9
    (SpecializedMap(0, -16), 12),  # x^2 - 16
    (SpecializedMap(2, -4), 12),  # (x - 2)^2 - 4: 0 is fixed
    (SpecializedMap(5, 5), 12),  # (x - 5)^2 + 5: bounded, stays at 5
    (SpecializedMap(3, 0), 12),  # (x - 3)^2: c_a = 0, every level a square
    (QuadraticFamily.of([0, 1], [1, 1]).specialize(JONES_A), 9),  # a square at level 9
], ids=[e.name for e in ACCEPTANCE_MAPS] + [
    "x2-1", "x2-9", "x2-16", "shift-2-minus-4", "shift-5-plus-5", "shift-3-square", "jones"])
def test_stability_scan_matches_a_binary_rescan(m, depth):
    # the scan reads the decimal orbit through CriticalOrbit; the oracle
    # square-roots the binary critical values
    squares = stability_scan(m, depth).squares_found
    assert squares == _binary_rescan(m, depth)
    # each root is the walk's Decimal, the witness certify prints at that level
    certificates = certify_tower(m, 1, depth).certificates
    for n, root in squares:
        assert isinstance(root, decimal.Decimal)
        assert certificates[n - 1].status == FAILED_SQUARE_OVER_Q
        assert certificates[n - 1].witness == str(root)


def test_stability_scan_jones_square_at_level_nine():
    m = QuadraticFamily.of([0, 1], [1, 1]).specialize(JONES_A)
    rep = stability_scan(m, 9)
    assert rep.verdict == "SquareFoundAt(9)"
    (level, root), = rep.squares_found
    assert level == 9
    assert root == 44127887745906175987803
    assert int(root) ** 2 == critical_orbit(m, 9).values[8]


def test_square_root_matches_isqrt_of_the_exact_adjusted_value():
    # (x - g)^2 + c over a grid holding c = 0 maps, whose levels n >= 2 are
    # all squares, and x^2 - 1 (g = 0, c = -1), whose squares fall at n >= 2
    squares = 0
    for g in range(-4, 5):
        for c in range(-8, 9):
            m = SpecializedMap(g, c)
            crit = critical_orbit(m, 10)
            for n, a in enumerate((-c,) + crit.values[1:], start=1):
                root = crit.square_root(n)
                expected = math.isqrt(a) if a >= 0 and math.isqrt(a) ** 2 == a else None
                if expected is None:
                    assert root is None, (g, c, n)
                    continue
                squares += 1
                assert isinstance(root, decimal.Decimal)
                assert str(root) == decimal_str(expected), (g, c, n)
    assert squares >= 150, squares  # 166: the grid is not vacuous


def test_stability_square_test_takes_no_decimal_root(monkeypatch):
    # every level of (x - 3)^2 is a square; level 22 has about 2.6 million
    # bits, whose exact root took seconds.  With c_a = 0 each root is
    # |v_(n-1) - 3|, read off the walk: no int of more than 1,024 bits may
    # have its root taken, and no text of more than 1,024 digits be read back
    def refuse_large(f, size):
        def check(value):
            assert size(value) <= 1024, "the square test took an exact root of a large value"
            return f(value)
        return check

    # the package attribute quadtower.orbit is the orbit function, not the module
    orbit_mod = importlib.import_module("quadtower.orbit")
    monkeypatch.setattr(orbit_mod, "is_perfect_square",
                        refuse_large(is_perfect_square, int.bit_length))
    monkeypatch.setattr(orbit_mod, "parse_int", refuse_large(bigpoly_mod.parse_int, len))
    report = stability_scan(SpecializedMap(3, 0), 22, Budget(max_bits=4194304))
    assert [n for n, _ in report.squares_found] == list(range(1, 23))


def test_discriminant_recurrence_x2p1():
    assert discriminant_report(X2P1, 1).recurrence == 4
    assert discriminant_report(X2P1, 2).recurrence == 512
    phi = X2P1.phi_polynomial()
    assert phi == IntPolynomial((1, 0, 1))
    phi2 = compose(phi, phi)
    assert abs(discriminant_direct(phi2)) == 512
    phi3 = compose(phi2, phi)
    rep = discriminant_report(X2P1, 3, direct=True)
    assert rep.recurrence == rep.direct == abs(discriminant_direct(phi3))


def test_discriminant_recurrence_matches_direct_random():
    rng = random.Random(401)
    for _ in range(20):
        m = SpecializedMap(rng.randint(-50, 50), rng.randint(-50, 50) )
        phi = m.phi_polynomial()
        assert discriminant_report(m, 2).recurrence == abs(discriminant_direct(compose(phi, phi)))
    for _ in range(5):
        m = SpecializedMap(rng.randint(-20, 20), rng.randint(-20, 20))
        phi = m.phi_polynomial()
        phi3 = compose(compose(phi, phi), phi)
        assert discriminant_report(m, 3).recurrence == abs(discriminant_direct(phi3))


def test_certify_level_examples():
    cert = certify_tower(X2P2, 3, 3).certificates[0]
    assert cert.status == CERTIFIED_MAXIMAL
    assert cert.witness == "19"

    # level 1 is Q(sqrt(-c_a)) = Q(i): -1 is no square, and the odd part 1
    # of c_a = 1 proves nothing
    cert = certify_tower(X2P1, 1, 1).certificates[0]
    assert cert.status == UNKNOWN
    assert cert.witness == "1"

    # x^2 - 9 = (x - 3)(x + 3): -c_a = 9 is the square of the witness
    cert = certify_tower(SpecializedMap(0, -9), 1, 1).certificates[0]
    assert cert.status == FAILED_SQUARE_OVER_Q
    assert cert.witness == "3"

    # x^2 + 9: -9 is no square, but the odd part 9 of c_a is, so nothing proved
    cert = certify_tower(SpecializedMap(0, 9), 1, 1).certificates[0]
    assert cert.status == UNKNOWN
    assert cert.witness == "9"

    # x^2 - 12: odd part 3 of c_a is a non-square, so -c_a = 12 is one too
    cert = certify_tower(SpecializedMap(0, -12), 1, 1).certificates[0]
    assert cert.status == CERTIFIED_MAXIMAL
    assert cert.witness == "3"

    # c_a = 0: x^2 is reducible, witness 0
    cert = certify_tower(SpecializedMap(0, 0), 1, 1).certificates[0]
    assert cert.status == FAILED_SQUARE_OVER_Q
    assert cert.witness == "0"

    # 2^k times a square: nothing survives stripping
    m = SpecializedMap(0, 8)
    cert = certify_tower(m, 1, 1).certificates[0]
    assert cert.status == UNKNOWN
    assert cert.witness == "1"


def test_certify_tower_x2p2():
    report = certify_tower(X2P2, 1, 6)
    statuses = [c.status for c in report.certificates]
    assert statuses[0] == UNKNOWN  # level-1 value 2 strips to 1
    assert all(s == CERTIFIED_MAXIMAL for s in statuses[1:])
    assert report.counts[CERTIFIED_MAXIMAL] == 5


def test_certify_tower_x2p1():
    report = certify_tower(X2P1, 1, 3)
    assert [c.status for c in report.certificates] == [UNKNOWN, UNKNOWN, CERTIFIED_MAXIMAL]
    assert report.certificates[0].witness == "1"


def test_certify_tower_v_zero_degenerate():
    m = SpecializedMap(5, 5)  # constant critical orbit at 5
    report = certify_tower(m, 1, 5)
    assert report.certificates[0].status == CERTIFIED_MAXIMAL  # value 5 itself
    assert all(c.status == UNKNOWN for c in report.certificates[1:])


def test_certify_tower_partial_on_budget():
    # the partial certifies every level walked within the budget, the same
    # certificates as a call that stops at the last of them
    budget = Budget(max_bits=256)
    with pytest.raises(DigitBudgetError) as walked:
        critical_orbit(X2P2, 40, budget)
    last = len(walked.value.partial)
    for first in (1, 3):
        with pytest.raises(DigitBudgetError) as err:
            certify_tower(X2P2, first, 40, budget)
        partial = err.value.partial
        assert [c.level for c in partial.certificates] == list(range(first, last + 1))
        assert partial.certificates == certify_tower(X2P2, first, last, budget).certificates


def test_a_refused_certify_walks_the_orbit_once(monkeypatch):
    # certify_tower reads the orbit that critical_orbit walks; refused, it
    # certifies the rows the refusal carries instead of walking them again
    orbit_mod = importlib.import_module("quadtower.orbit")
    walks = []
    decimal_orbit = orbit_mod.decimal_orbit

    def counting_orbit(*args):
        walks.append(args)
        return decimal_orbit(*args)

    monkeypatch.setattr(orbit_mod, "decimal_orbit", counting_orbit)
    with pytest.raises(DigitBudgetError) as err:
        certify_tower(X2P2, 1, 40, Budget(max_bits=256))
    assert len(walks) == 1
    partial = err.value.partial.certificates
    assert 1 <= len(partial) < 12
    assert partial == certify_tower(X2P2, 1, 12).certificates[:len(partial)]


@pytest.mark.parametrize("call, least", [
    (lambda m: critical_orbit(m, 0), 1),
    (lambda m: stability_scan(m, 0), 1),
    (lambda m: primitive_divisor_exact(m, 0), 1),
    (lambda m: primitive_divisor_certificate(m, 0), 1),
    (lambda m: orbit(m, 0, -1), 0),  # the orbit of b starts at depth 0
], ids=["critical_orbit", "stability_scan", "primitive_divisor_exact",
        "primitive_divisor_certificate", "orbit"])
def test_depth_below_the_first_row_is_refused(call, least):
    with pytest.raises(ValueError, match=f"^depth must be >= {least}$"):
        call(X2P2)


def test_failed_square_iff_stability_square():
    for entry in ACCEPTANCE_MAPS:
        m = entry.map()
        report = certify_tower(m, 1, 8)
        scan = stability_scan(m, 8)
        square_levels = {n for n, _ in scan.squares_found}
        for cert in report.certificates:
            assert (cert.status == FAILED_SQUARE_OVER_Q) == (cert.level in square_levels)


def test_certificates_against_sympy_galois_groups():
    # level 1: phi_a is irreducible exactly when the level-1 step is maximal;
    # level 2: G_2 is the dihedral group of order 8 when both steps are
    # maximal, and smaller when a square shows up
    sympy = pytest.importorskip("sympy")
    from sympy.polys.numberfields.galoisgroups import galois_group

    x = sympy.symbols("x")
    checked = {CERTIFIED_MAXIMAL: 0, FAILED_SQUARE_OVER_Q: 0}
    for gamma in range(-2, 3):
        for c in range(-20, 21):
            m = SpecializedMap(gamma, c)
            level1, level2 = certify_tower(m, 1, 2).certificates
            phi = sympy.Poly((x - gamma) ** 2 + c, x)
            assert (level1.status == FAILED_SQUARE_OVER_Q) == (not phi.is_irreducible), (gamma, c)
            phi2 = sympy.Poly(phi.as_expr().subs(x, phi.as_expr()), x)
            statuses = {level1.status, level2.status}
            if statuses == {CERTIFIED_MAXIMAL}:
                assert galois_group(phi2, by_name=False)[0].order() == 8, (gamma, c)
                checked[CERTIFIED_MAXIMAL] += 1
            elif FAILED_SQUARE_OVER_Q in statuses:
                assert (not phi2.is_irreducible
                        or galois_group(phi2, by_name=False)[0].order() < 8), (gamma, c)
                checked[FAILED_SQUARE_OVER_Q] += 1
    assert min(checked.values()) >= 10, checked


def test_certified_witness_invariants():
    from quadtower.bigpoly import is_perfect_square

    for entry in ACCEPTANCE_MAPS:
        m = entry.map()
        values = critical_orbit(m, 8).values
        for cert in certify_tower(m, 1, 8).certificates:
            if cert.status != CERTIFIED_MAXIMAL:
                continue
            r = int(cert.witness)
            assert r > 1
            assert r % 2 == 1
            assert is_perfect_square(r) is None
            assert values[cert.level - 1] % r == 0
            assert all(math.gcd(r, v) == 1 for v in values[: cert.level - 1])


def test_certificates_never_factor(monkeypatch):
    import quadtower.factor as factor_mod

    before = certify_tower(X2P2, 1, 8)

    def boom(*args, **kwargs):
        raise AssertionError("certification must not factor anything")

    monkeypatch.setattr(factor_mod, "factorize", boom)
    assert certify_tower(X2P2, 1, 8) == before


def _strip_certificate(values, n) -> MaximalityCertificate:
    """Reference: strip the binary level-n value against the full lower
    values; level 1 square-tests the adjusted value -c_a.  The witness is
    converted to decimal on its own."""
    value = values[n - 1]
    root = is_perfect_square(-value if n == 1 else value)
    if root is not None:
        return MaximalityCertificate(level=n, status=FAILED_SQUARE_OVER_Q,
                                     witness=decimal_str(root))
    if 0 in values[: n - 1]:
        return MaximalityCertificate(level=n, status=UNKNOWN, witness=None)
    r, certified = full_strip(values, n)
    status = CERTIFIED_MAXIMAL if certified else UNKNOWN
    return MaximalityCertificate(level=n, status=status, witness=decimal_str(r))


small_coeffs = st.lists(st.integers(-4, 4), max_size=3)


@settings(max_examples=80, deadline=None)
@given(gamma=small_coeffs, c=small_coeffs, a=st.integers(-4, 4), depth=st.integers(1, 12))
def test_rigid_gcd_stripping_matches_full_stripping(gamma, c, a, depth):
    m = QuadraticFamily.of(gamma, c).specialize(a)
    values = critical_orbit(m, depth).values
    expected = tuple(_strip_certificate(values, n) for n in range(1, depth + 1))
    assert certify_tower(m, 1, depth).certificates == expected
    assert certify_tower(m, depth, depth).certificates[0] == expected[-1]


def test_rigid_gcd_stripping_matches_full_stripping_on_corpus():
    for entry in CORPUS:
        m = entry.map()
        values = critical_orbit(m, 10).values
        for cert in certify_tower(m, 1, 10).certificates:
            assert cert == _strip_certificate(values, cert.level)


@settings(max_examples=100, deadline=None)
@given(gamma=st.lists(st.integers(-9, 9), max_size=2),
       c=st.tuples(st.one_of(st.integers(-9, 9), st.integers(-10 ** 6, -1000),
                             st.integers(1000, 10 ** 6)), st.integers(-9, 9)),
       a=st.integers(-9, 9), depth=st.one_of(st.integers(1, 12), st.integers(13, 14)))
def test_witness_strs_and_rigid_gcds_match_direct(gamma, c, a, depth):
    # |c| of 1000 or more puts levels 13 and 14 above 2^15 bits, so some
    # witnesses are far wider than one decimal_str leaf
    m = QuadraticFamily.of(gamma, c).specialize(a)
    walked = critical_orbit(m, depth)
    values = walked.values
    assert certify_tower(m, 1, depth).certificates == tuple(
        _strip_certificate(values, n) for n in range(1, depth + 1)
    )
    for n in range(1, depth + 1):
        if 0 not in values[: n - 1]:
            direct = [math.gcd(abs(values[n - 1]), abs(v)) for v in values[: n - 1]]
            # every v_k exact, and none: then the smaller of the two orbits
            # steps until v_k or w_(n-k) is exact
            for exact in (True, False):
                orbit = CriticalOrbit(m, walked.rows)
                if exact:
                    orbit.value(n)
                assert [orbit._rigid_gcd(n, k) for k in range(1, n)] == direct


@pytest.mark.parametrize("gamma, c", [
    (5, 5), (3, 1), (4, 2), (-5, -5),  # the critical orbit is bounded, 0 escapes
    (0, -1), (0, -2),  # both orbits are bounded
    (2, -4),  # 0 is fixed, the critical orbit escapes
    (0, 2), (1, 3), (0, -3),  # both orbits escape
])
def test_rigid_gcd_matches_gcd_of_exact_values(gamma, c):
    # where one orbit is bounded, its exact prefix mostly reaches the index a
    # gcd needs first; a fresh reader, readers shared in both orders and one
    # with both orbits exact to level 12 cover every mix of exact and reduced
    # values
    m = SpecializedMap(gamma, c)
    rows = critical_orbit(m, 12).rows
    exact = CriticalOrbit(m, rows)
    values = exact.values
    pairs = [(n, k) for n in range(2, 13) for k in range(1, n) if values[k - 1]]
    exact.w.value(12)
    for order in (pairs, pairs[::-1]):
        shared = CriticalOrbit(m, rows)
        for n, k in order:
            direct = math.gcd(values[n - 1], values[k - 1])
            assert CriticalOrbit(m, rows)._rigid_gcd(n, k) == direct
            assert shared._rigid_gcd(n, k) == direct
            assert exact._rigid_gcd(n, k) == direct


@pytest.mark.parametrize("gamma, c, depth", [
    ((0,), (-9,), 1),  # x^2 - 9: -c_a = 9 is a square at level 1
    ((0,), (-18,), 3),  # x^2 - 18: v_1 < 0 strips to the square R = 9
    ((0, 1), (1, 1), 3),  # shifted-jones-small at a = 4: v_3 is a square
    ((0,), (-1,), 6),  # x^2 - 1: the critical orbit -1, 0, -1, 0, ... passes 0
    ((2,), (-4,), 9),  # (x - 2)^2 - 4: 0 is fixed, so w_j = 0 and v_k divides v_n
    ((5,), (5,), 12),  # v = 0: the critical orbit stays at 5 while 0 escapes
    # bounded critical orbits to depth 64, the CLI maximum
    ((0,), (-2,), 64),  # x^2 - 2: -2, 2, 2, ...
    ((0,), (-1,), 64),  # x^2 - 1: -1, 0, -1, 0, ...
    ((1,), (-1,), 64),  # (x - 1)^2 - 1: -1, 3, 3, ...
    ((5,), (5,), 64),  # 0 -> 30 -> 630 -> ... escapes: w_31 has 10^9 digits
])
def test_certificates_on_squares_and_orbits_through_zero(gamma, c, depth):
    m = QuadraticFamily.of(gamma, c).specialize(4)
    values = critical_orbit(m, depth).values
    expected = tuple(_strip_certificate(values, n) for n in range(1, depth + 1))
    assert certify_tower(m, 1, depth).certificates == expected
    if c == (-9,) or gamma == (0, 1):
        assert expected[-1].status == FAILED_SQUARE_OVER_Q
    reader = critical_orbit(m, depth)
    for n in range(1, depth + 1):
        if 0 in values[:n]:
            break
        assert abs(values[n - 1]) // reader._cofactor(n) == stripped_cofactor(
            values[n - 1], values[: n - 1])


def test_certificates_without_the_square_filter_primes(monkeypatch):
    # with no filter primes, every value that passes mod 64 goes to the
    # exact square root; no certificate may change
    maps = [e.map() for e in ACCEPTANCE_MAPS] + [
        SpecializedMap(0, c) for c in (-9, -1, 0, 9, -12, 8, -16)
    ]
    before = [certify_tower(m, 1, 12) for m in maps]
    monkeypatch.setattr(bigpoly_mod, "_SQUARE_FILTER_PRIMES", ())
    assert bigpoly_mod.square_filter_modulus() == 64
    assert [certify_tower(m, 1, 12) for m in maps] == before


def test_square_stripped_cofactor_above_640_digits():
    # x^2 + c at a = c = -2s^2: v_1 = -2s^2 strips to R = s^2, 1,401 digits
    # and a square, so level 1 stays Unknown; v_2 = c(c + 1) strips to
    # 2s^2 - 1, which certifies level 2.  R's root is taken from its text by
    # parse_int, which int() could not read under a 640-digit limit
    s = 10 ** 700 + 3
    c = -2 * s * s
    level1, level2 = certify_tower(SpecializedMap(0, c), 1, 2).certificates
    assert (level1.status, level2.status) == (UNKNOWN, CERTIFIED_MAXIMAL)
    assert level1.witness == decimal_str(s * s)


@pytest.mark.parametrize("entry", [e for e in CORPUS if e.name in (
    "x2+1", "x2+2", "x2+3", "shifted-jones-small")] + [
    e for e in ACCEPTANCE_MAPS if e.name in ("x2-3", "shift-by-1")], ids=lambda e: e.name)
def test_certify_tower_level_20_matches_full_stripping(entry):
    m = entry.map()
    values = critical_orbit(m, 20).values
    expected = tuple(_strip_certificate(values, n) for n in range(1, 21))
    assert certify_tower(m, 1, 20).certificates == expected


def test_certify_tower_builds_no_binary_value_above_half_depth(monkeypatch):
    # every binary critical value and every w_j = phi^j(0) comes out of
    # SpecializedMap.apply; none may be bigger than level 10 of x^2 + 2
    # (gamma = 0, so both orbits are the same there)
    limit = critical_orbit(X2P2, 10).values[-1].bit_length()
    biggest = []
    apply = SpecializedMap.apply

    def recording_apply(self, x):
        y = apply(self, x)
        biggest.append(y.bit_length())
        return y

    monkeypatch.setattr(SpecializedMap, "apply", recording_apply)
    report = certify_tower(X2P2, 1, 20)
    assert len(report.certificates) == 20
    assert biggest and max(biggest) == limit
    # on its own, _cofactor(n) makes exactly v_1..v_(n // 2) exact (v_1 at n = 1);
    # reader.v also holds v_0 = gamma_a
    rows = critical_orbit(X2P2, 20).rows
    for n in range(1, 21):
        reader = CriticalOrbit(X2P2, rows)
        reader._cofactor(n)
        assert len(reader.v) - 1 == max(1, n // 2)


def test_residues_step_a_negative_value_as_it_is(monkeypatch):
    # v_1 = -s^2 is negative: reduced first, it would be a residue as wide
    # as each saturation modulus of v_2's cofactor (80,008 bits here)
    s = 2 ** 5000 - 12345
    m = SpecializedMap(0, -s * s)
    apply_mod = SpecializedMap.apply_mod
    widths = []

    def recording_apply_mod(self, x, p):
        widths.append(x.bit_length())
        return apply_mod(self, x, p)

    monkeypatch.setattr(SpecializedMap, "apply_mod", recording_apply_mod)
    report = certify_tower(m, 1, 2)
    assert [c.status for c in report.certificates] == [FAILED_SQUARE_OVER_Q, CERTIFIED_MAXIMAL]
    assert max(widths, default=0) <= 2 * (s * s).bit_length() + 2


@pytest.mark.parametrize("gamma, c", [(5, 5), (3, 1), (4, 2), (-3, -5)])
def test_bounded_critical_orbit_builds_no_big_value_while_0_escapes(monkeypatch, gamma, c):
    # c - gamma in {0, -2} keeps the critical orbit bounded while the orbit
    # of 0 escapes; at level 64 the rigid gcds must read the small exact v_k,
    # never w_j for j near 32, which has about 2^j digits
    m = SpecializedMap(gamma, c)
    apply = SpecializedMap.apply

    def capped_apply(self, x):
        y = apply(self, x)
        assert y.bit_length() <= 64
        return y

    monkeypatch.setattr(SpecializedMap, "apply", capped_apply)
    assert certify_tower(m, 1, 64).counts[UNKNOWN] == 63
    assert not primitive_divisor_certificate(m, 64).certified


def test_certify_tower_level_20_within_budget():
    # phi^19(0) needs more than the default 2^20-bit budget on this map, so
    # the stripping must never build the orbit of 0 at full size
    m = next(e for e in CORPUS if e.name == "shifted-jones-small").map()
    with pytest.raises(DigitBudgetError):
        orbit(m, 0, 19)
    report = certify_tower(m, 1, 20)
    assert [c.level for c in report.certificates] == list(range(1, 21))


def test_curve_model_x2p1_level4():
    dec = squarefree_decompose(26)
    model = curve_model(X2P1, 4, dec, genus=1)
    # 26 (X - 1) (X^2 + 1), expanded independently
    expected = IntPolynomial((-1, 1)) * IntPolynomial((1, 0, 1)) * 26
    assert model.rhs == expected
    assert model.equation() == "Y^2 = 26X^3 - 26X^2 + 26X - 26"

    model2 = curve_model(X2P1, 4, dec, genus=2)
    phi2 = compose(IntPolynomial((1, 0, 1)), IntPolynomial((1, 0, 1)))
    assert model2.rhs == IntPolynomial((-1, 1)) * phi2 * 26
    assert model2.rhs.degree == 5


def test_curve_model_singular():
    m = SpecializedMap(0, 0)
    dec = SquareFreeDecomposition(e=0, d=1, y=1)
    with pytest.raises(SingularModelError):
        curve_model(m, 1, dec, genus=1)


def _singular(m, genus, e, d):
    try:
        curve_model(m, genus + 1, SquareFreeDecomposition(e=e, d=d, y=1), genus)
    except SingularModelError:
        return True
    return False


def test_curve_model_is_singular_exactly_where_a_critical_value_is_0():
    # (X - c_a) * phi_a^g(X) has a repeated root exactly when one of
    # v_1..v_(g+1) is 0: phi_a^g has one where v_1 or (g = 2) v_2 is 0, and
    # c_a is a root of it where v_(g+1) is.  So condition (1) is the genus-1
    # verdict
    for g, c in itertools.product(range(-8, 9), range(-20, 21)):
        m = SpecializedMap(g, c)
        values = critical_orbit(m, 3).values
        for genus in (1, 2):
            for e, d in ((0, 1), (1, -3), (0, 5)):
                assert _singular(m, genus, e, d) == (0 in values[:genus + 1]), (g, c, genus, e, d)
        assert critical_orbit(m, 2).condition_one_holds == (0 not in values[:2])
    # the grid holds a map whose genus-2 model alone is singular
    assert critical_orbit(SpecializedMap(-5, -4), 3).values == (-4, -3, 0)


def test_forced_point_x2p1_level4():
    dec = squarefree_decompose(26)
    model = curve_model(X2P1, 4, dec, genus=1)
    assert verify_forced_point(model, critical_orbit(X2P1, 4), dec)
    # the displayed point is (5, 52): 52^2 == 26 * 4 * 26
    assert model.rhs.evaluate(5) == 52 * 52


def test_forced_point_boundary_level_two():
    dec = squarefree_decompose(2)
    model = curve_model(X2P1, 2, dec, genus=1)
    assert verify_forced_point(model, critical_orbit(X2P1, 2), dec)


def test_forced_point_with_negative_level_value():
    # (x+2)^2 - 3 has critical values -3, -2, -3, -2, ... so d < 0 throughout
    m = SpecializedMap(-2, -3)
    values = critical_orbit(m, 3).values
    assert values == (-3, -2, -3)
    dec = squarefree_decompose(values[2])
    assert dec.d == -3
    model = curve_model(m, 3, dec, genus=1)
    assert verify_forced_point(model, critical_orbit(m, 3), dec)


def test_forced_point_rejects_wrong_decomposition():
    dec = squarefree_decompose(26)
    model = curve_model(X2P1, 4, dec, genus=1)
    with pytest.raises(ValueError, match="does not reconstruct"):  # v_3 = 5, not 26
        verify_forced_point(curve_model(X2P1, 3, dec, genus=1), critical_orbit(X2P1, 3), dec)
    model2 = curve_model(X2P1, 4, dec, genus=2)
    with pytest.raises(ValueError, match="genus-1"):
        verify_forced_point(model2, critical_orbit(X2P1, 4), dec)
    with pytest.raises(ValueError, match="depth"):  # the orbit stops below the model's level
        verify_forced_point(model, critical_orbit(X2P1, 3), dec)


@pytest.mark.parametrize("call, message", [
    (lambda: discriminant_report(X2P1, 0), "level must be >= 1"),
    (lambda: curve_model(X2P1, 2, squarefree_decompose(2), genus=3), "genus must be 1 or 2"),
    (lambda: search_integral_points(curve_model(X2P1, 2, squarefree_decompose(2)), 0),
     "xbound must be >= 1"),
    *[(lambda read=read, n=n: getattr(critical_orbit(X2P2, 5), read)(n),
       "level must be in 1..the orbit's depth")
      for read in ("stripped_witness", "square_root") for n in (0, -1, 6)],
    (lambda: canonical_height(SpecializedMap(0, 1), 0, float("nan")), "eps must be positive"),
])
def test_library_guards_refuse_with_their_own_message(call, message):
    # the CLI's range checks stop these inputs first, so only a library
    # call reaches the guards.  A level outside the walked 1..depth once read
    # rows[n - 1] from the wrong end, and stripped_witness(0) on x^2 + 2
    # never returned: with gamma_a = 0 its modulus was squared for ever.  A
    # NaN eps once passed `eps <= 0` and returned h(x) as if converged
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError and str(err.value) == message


def test_courtesy_factorization_stops_at_its_bit_cap(monkeypatch):
    # x^2 + 2 certifies levels 8-13; the witness R is factored once on each
    # of levels 8-10 (158, 331 and 650 bits) and never on levels 11-13, where
    # R has 405 to 1,618 digits, above _COURTESY_MAX_BITS
    calls = []
    factorize = galois_mod.factorize
    monkeypatch.setattr(galois_mod, "factorize",
                        lambda n, budget: calls.append((level, n.bit_length())) or factorize(n, budget))
    digits = {}
    for level in range(8, 14):
        rep = primitive_divisor_certificate(X2P2, level)
        assert rep.certified
        digits[level] = len(rep.witness)
    assert calls == [(8, 158), (9, 331), (10, 650)]
    assert [digits[n] for n in range(11, 14)] == [405, 794, 1618]


def test_forced_point_across_corpus():
    budget = Budget(trial_bound=10 ** 5, rho_iters=10 ** 5)
    verified = 0
    for entry in ACCEPTANCE_MAPS:
        m = entry.map()
        crit = critical_orbit(m, 6)
        values = crit.values
        for n in range(2, 7):
            try:
                dec = squarefree_decompose(values[n - 1], budget)
            except IncompleteFactorizationError:
                continue
            model = curve_model(m, n, dec, genus=1)
            assert verify_forced_point(model, crit, dec), (entry.name, n)
            verified += 1
    assert verified >= 40


def test_search_integral_points_finds_forced_point():
    dec = squarefree_decompose(26)
    model = curve_model(X2P1, 4, dec, genus=1)
    pts = search_integral_points(model, 10)
    coords = {(p.x, p.y) for p in pts}
    assert (5, 52) in coords and (5, -52) in coords
    for p in pts:
        assert p.y * p.y == model.rhs.evaluate(p.x)
        assert p.hall_lang_ratio >= 0


def test_search_integral_points_matches_double_loop():
    dec = squarefree_decompose(6)  # x^2+2 level 2
    model = curve_model(X2P2, 2, dec, genus=1)
    xbound = 200
    pts = {(p.x, p.y) for p in search_integral_points(model, xbound)}
    expected = set()
    for x in range(-xbound, xbound + 1):
        rhs = model.rhs.evaluate(x)
        if rhs < 0:
            continue
        y = 0
        while y * y < rhs:
            y += 1
        if y * y == rhs:
            expected.add((x, y))
            if y:
                expected.add((x, -y))
    assert pts == expected


def _stoll_maximal(a):
    """Stoll's criterion (1992, as cited by Jones 2008): x^2 + a has the full
    group Aut(T_n) at every level n when a > 0 and a = 1, 2 (mod 4), or when
    a < 0, a = 0 (mod 4) and -a is not a square."""
    if a > 0:
        return a % 4 in (1, 2)
    return a < 0 and a % 4 == 0 and math.isqrt(-a) ** 2 != -a


def test_certify_tower_never_refutes_a_map_stoll_proves_maximal():
    # an independent oracle for FailedSquareOverQ: on maps with G_n = Aut(T_n)
    # at every level no level may fail, and the count of Unknown may only fall
    maps = [a for a in range(-400, 401) if _stoll_maximal(a)]
    assert len(maps) == 290
    statuses = [cert.status for a in maps
                for cert in certify_tower(SpecializedMap(0, a), 1, 10).certificates]
    assert len(statuses) == 2900
    assert FAILED_SQUARE_OVER_Q not in statuses
    assert statuses.count(UNKNOWN) <= 31


# The six maps of the tower-20 benchmark workload.  Frobenius statistics say
# x^2+3 and shifted-jones-small drop at level 3: there a_3 is a square in K_2.
TOWER_MAPS = {e.name: e.map() for e in CORPUS + ACCEPTANCE_MAPS if e.name in (
    "x2+1", "x2+2", "x2-3", "x2+3", "shift-by-1", "shifted-jones-small")}
ORACLE_PRIMES = plain_primes(10 ** 5)[1:]  # the odd primes up to 10^5
ORACLE_LEVELS = 4
# Chi-square against P_k over those primes reads at most 6.3 on the four
# maximal maps at levels 1-4, and at least 14.2 on the two others at 3 and 4.
CHI_SQUARE_BOUND = 10


@pytest.fixture(scope="module")
def tower_maps_mod_p():
    """name -> [(p, roots, adjusted)] over ORACLE_PRIMES, where roots[k - 1]
    counts the roots of phi_a^k mod p and adjusted[n - 1] is a_n mod p
    (a_1 = -c_a, a_n = phi_a^n(gamma_a) above), for k, n <= ORACLE_LEVELS.
    Stdlib only: the preimage tree of 0 and the orbit stepped mod p."""
    data = {}
    for name, m in TOWER_MAPS.items():
        rows = []
        for p in ORACLE_PRIMES:
            adjusted, v = [-m.c_a % p], m.c_a % p
            for _ in range(ORACLE_LEVELS - 1):
                v = ((v - m.gamma_a) ** 2 + m.c_a) % p
                adjusted.append(v)
            rows.append((p, root_counts_mod_p(m.gamma_a, m.c_a, p, ORACLE_LEVELS), adjusted))
        data[name] = rows
    return data


def _fixed_point_distribution(k):
    """{r: share of Aut(T_k) fixing exactly r leaves}, from Odoni's
    P_0(z) = z, P_k(z) = (P_(k-1)(z)^2 + 1) / 2."""
    dist = {1: Fraction(1)}
    for _ in range(k):
        square = {0: Fraction(1)}
        for (i, x), (j, y) in itertools.product(dist.items(), repeat=2):
            square[i + j] = square.get(i + j, 0) + x * y
        dist = {r: x / 2 for r, x in square.items()}
    return dist


def _chi_square(counts, k):
    """Chi-square of the level-k root counts against P_k; from the most roots
    down, cells are pooled until each expects at least 5 primes."""
    dist, observed = _fixed_point_distribution(k), Counter(counts)
    assert set(observed) <= set(dist), observed
    cells, seen, expected = [], 0, 0.0
    for r in sorted(dist, reverse=True):
        seen, expected = seen + observed[r], expected + len(counts) * float(dist[r])
        if expected >= 5:
            cells.append((seen, expected))
            seen, expected = 0, 0.0
    cells[-1] = (cells[-1][0] + seen, cells[-1][1] + expected)
    return sum((o - e) ** 2 / e for o, e in cells)


def _statuses(name):
    return {c.level: c.status for c in certify_tower(TOWER_MAPS[name], 1, ORACLE_LEVELS).certificates}


def test_root_counts_mod_p_follow_the_fixed_points_of_aut_t_k(tower_maps_mod_p):
    # Chebotarev: over the unramified primes the roots of phi_a^k mod p are
    # distributed as the fixed leaves of G_k, which is Aut(T_k) only when
    # every level up to k is maximal
    chi = {}
    for name, rows in tower_maps_mod_p.items():
        unramified = [roots for _, roots, adjusted in rows if all(adjusted)]
        for k in range(1, ORACLE_LEVELS + 1):
            chi[name, k] = _chi_square([roots[k - 1] for roots in unramified], k)
    for name in ("x2+1", "x2+2", "x2-3", "shift-by-1"):
        for k in range(1, ORACLE_LEVELS + 1):
            assert chi[name, k] < CHI_SQUARE_BOUND, (name, k, chi[name, k])
    for name in ("x2+3", "shifted-jones-small"):
        for k in (3, 4):
            assert chi[name, k] > CHI_SQUARE_BOUND, (name, k, chi[name, k])
    # a G_k that is no Aut(T_k) has some non-maximal level up to k; where
    # G_(k-1) still reads as Aut(T_(k-1)), that level is k
    for name in TOWER_MAPS:
        statuses = _statuses(name)
        for k in range(2, ORACLE_LEVELS + 1):
            if chi[name, k] > CHI_SQUARE_BOUND:
                assert any(statuses[n] != CERTIFIED_MAXIMAL for n in range(2, k + 1)), (name, k)
                if chi[name, k - 1] < CHI_SQUARE_BOUND:
                    assert statuses[k] != CERTIFIED_MAXIMAL, (name, k)


def test_frobenius_witnesses_agree_with_the_certified_levels(tower_maps_mod_p):
    # at an odd p dividing none of a_1..a_n where phi_a^(n-1) splits into
    # 2^(n-1) roots, Frobenius is trivial on K_(n-1): a square of K_(n-1) is
    # a residue mod p, so one non-residue proves a_n no square in K_(n-1)
    checked = set()
    for name, rows in tower_maps_mod_p.items():
        for n, status in _statuses(name).items():
            residues = [pow(adjusted[n - 1], (p - 1) // 2, p) == 1 for p, roots, adjusted in rows
                        if all(adjusted[:n]) and (n == 1 or roots[n - 2] == 2 ** (n - 1))]
            if status == CERTIFIED_MAXIMAL:
                assert not all(residues), (name, n)
            elif status == FAILED_SQUARE_OVER_Q:
                assert residues and all(residues), (name, n)
            checked.add(status)
    assert {CERTIFIED_MAXIMAL, FAILED_SQUARE_OVER_Q} <= checked


# x^2 + a for every |a| <= 400 outside F_phi = [-2, 2]: 288 of the 290
# Stoll maps, with x^2 + 1 and x^2 + 2 in TOWER_MAPS above
SWEEP_A = [a for a in range(-400, 401) if abs(a) > 2]
SWEEP_LEVELS = 8


@pytest.fixture(scope="module")
def x2_plus_t_sweep():
    """a -> {level: status} of certify_tower on x^2 + a at levels 1-8."""
    return {a: {c.level: c.status for c in certify_tower(SpecializedMap(0, a), 1,
                                                         SWEEP_LEVELS).certificates}
            for a in SWEEP_A}


def test_verdict_census_of_x2_plus_t(x2_plus_t_sweep):
    # the census of ROADMAP item 13 at levels 1-8: a changed count is a
    # verdict change, whose reason belongs in CHANGES.md
    census = Counter((n, status) for statuses in x2_plus_t_sweep.values()
                     for n, status in statuses.items() if status != CERTIFIED_MAXIMAL)
    assert census == {(1, FAILED_SQUARE_OVER_Q): 19, (1, UNKNOWN): 45, (2, UNKNOWN): 64,
                      (3, UNKNOWN): 1}
    assert sorted(a for a, statuses in x2_plus_t_sweep.items()
                  if statuses[1] == FAILED_SQUARE_OVER_Q) == [-s * s for s in range(20, 1, -1)]
    assert [a for a, statuses in x2_plus_t_sweep.items() if statuses[3] == UNKNOWN] == [3]


def test_verdict_census_of_the_isotrivial_family():
    # (x - t)^2 + t + 1 is isotrivial (c - gamma = 1): each map is x^2 + 1
    # shifted by a, so v_n = u_n + a with u = 1, 2, 5, 26, 677, ...  It has
    # no F_phi to leave out, so the census runs over every |a| <= 400.
    # Unlike x^2 + t, non-maximal levels rise with |a|, up to level 8.
    family = QuadraticFamily.of([0, 1], [1, 1])
    sweep = {a: {c.level: c.status for c in certify_tower(family.specialize(a), 1,
                                                          SWEEP_LEVELS).certificates}
             for a in range(-400, 401)}
    census = Counter((n, status) for statuses in sweep.values()
                     for n, status in statuses.items() if status != CERTIFIED_MAXIMAL)
    failed = [20, 21, 21, 21, 16, 1, 1, 1]
    unknown = [48, 47, 85, 179, 112, 8, 3, 3]
    assert census == {**{(n, FAILED_SQUARE_OVER_Q): k for n, k in enumerate(failed, 1)},
                      **{(n, UNKNOWN): k for n, k in enumerate(unknown, 1)}}
    # the oracle: the adjusted value -c_a = -1 - a at level 1, and u_n + a
    # above, is a square exactly where the level fails
    u = [1]
    while len(u) < SWEEP_LEVELS:
        u.append(u[-1] ** 2 + 1)
    for n in range(1, SWEEP_LEVELS + 1):
        adjusted = {a: -1 - a if n == 1 else u[n - 1] + a for a in sweep}
        assert {a for a, statuses in sweep.items() if statuses[n] == FAILED_SQUARE_OVER_Q} == {
            a for a, x in adjusted.items() if x >= 0 and math.isqrt(x) ** 2 == x}, n
    # a = -1 starts at 0 and fails at every level; the Unknowns of levels 7
    # and 8 lie above a zero (v_4, v_3 and v_2 = 0), with no witness
    for n in (7, 8):
        assert [a for a, statuses in sweep.items() if statuses[n] == UNKNOWN] == [-26, -5, -2]
    for a in (-26, -5, -2):
        assert [(c.status, c.witness) for c in certify_tower(family.specialize(a), 7, 8)
                .certificates] == [(UNKNOWN, None)] * 2


def test_frobenius_witnesses_cover_the_certified_levels_of_x2_plus_t(x2_plus_t_sweep):
    # the witness of test_frobenius_witnesses_agree_with_the_certified_levels
    # on the sweep at levels 1-4, each map's primes walked until every
    # CertifiedMaximal level has one.  Level 5 stays out: most Stoll maps
    # find no level-5 witness below 10^5.
    for a, statuses in x2_plus_t_sweep.items():
        levels = range(1, ORACLE_LEVELS + 1)
        pending = {n for n in levels if statuses[n] == CERTIFIED_MAXIMAL}
        failed = {n for n in levels if statuses[n] == FAILED_SQUARE_OVER_Q}
        residues = []
        for p in ORACLE_PRIMES:
            if not pending:
                break
            adjusted, v = [-a % p], a % p
            for _ in range(ORACLE_LEVELS - 1):
                v = (v * v + a) % p
                adjusted.append(v)
            roots = root_counts_mod_p(0, a, p, max(pending | failed) - 1)
            for n in sorted(pending | failed):
                if all(adjusted[:n]) and (n == 1 or roots[n - 2] == 2 ** (n - 1)):
                    residue = pow(adjusted[n - 1], (p - 1) // 2, p) == 1
                    if n in failed:
                        residues.append(residue)
                    elif not residue:
                        pending.discard(n)
        assert not pending, (a, pending)
        assert not failed or (residues and all(residues)), (a, failed)


# (gamma, c, level): families whose generic adjusted orbit a_1(t) = -c(t),
# a_n(t) = phi^n(gamma)(t) has a product ending in a_level that is a square
# in Q(t).  All seven level-2 drops and five level-1 drops of the search in
# test_generic_drops_of_small_families_are_never_certified_maximal.
GENERIC_DROPS = [
    ((), (-1, 0, -1), 2),  # a_1 * a_2 = t^2 (1 + t^2)^2
    ((), (-2, -2, -1), 2),
    ((), (-2, 2, -1), 2),
    ((0, -1), (-1, -2), 2),
    ((0, 1), (-1, 2), 2),
    ((1, -1), (1, -2), 2),
    ((1, 1), (1, 2), 2),
    ((), (0, 0, -1), 1),  # a_1 = t^2
    ((), (-1, 2, -1), 1),
    ((2,), (-1, -2, -1), 1),
    ((0, 1), (-1,), 1),
    ((-2, 2), (0, 0, -1), 1),
]


def _generic_drop_level(sympy, gamma, c, depth):
    """The first level n <= depth at which some product of a_1(t), ...,
    a_n(t) that takes a_n is a square in Q(t), by sympy's factor_list; None
    when there is none or one of the a_n vanishes identically."""
    t = sympy.symbols("t")
    g = sum(k * t ** i for i, k in enumerate(gamma))
    cc = sum(k * t ** i for i, k in enumerate(c))
    adjusted, v = [sympy.expand(-cc)], cc
    for _ in range(depth - 1):
        v = sympy.expand((v - g) ** 2 + cc)
        adjusted.append(v)
    if 0 in adjusted:
        return None

    def is_square(p):
        content, factors = sympy.factor_list(sympy.expand(p), t)
        return (content > 0 and sympy.sqrt(content).is_rational
                and all(e % 2 == 0 for _, e in factors))

    for n in range(1, depth + 1):
        lower = adjusted[:n - 1]
        for r in range(n):
            if any(is_square(sympy.prod(sub) * adjusted[n - 1])
                   for sub in itertools.combinations(lower, r)):
                return n
    return None


def _certified_at(gamma, c, level):
    """The a in [-30, 30] whose level-n step certify_tower proves maximal."""
    fam = QuadraticFamily.of(gamma, c)
    return [a for a in range(-30, 31)
            if certify_tower(fam.specialize(a), level, level).certificates[0].status
            == CERTIFIED_MAXIMAL]


@pytest.mark.parametrize("gamma, c, level", GENERIC_DROPS)
def test_no_specialization_of_a_generic_drop_is_certified_maximal(gamma, c, level):
    # a square in Q(t) specializes to a square in Q at every t = a, so the
    # level-n step is maximal at no a: CertifiedMaximal there would over-claim
    sympy = pytest.importorskip("sympy")
    assert _generic_drop_level(sympy, gamma, c, level) == level
    assert _certified_at(gamma, c, level) == []


@pytest.mark.slow
def test_generic_drops_of_small_families_are_never_certified_maximal():
    # every non-isotrivial family with gamma of degree <= 1 and c of degree
    # <= 2, coefficients in [-2, 2], whose generic tower drops at level 1 or 2
    sympy = pytest.importorskip("sympy")
    found = []
    for gamma in itertools.product(range(-2, 3), repeat=2):
        for c in itertools.product(range(-2, 3), repeat=3):
            fam = QuadraticFamily.of(gamma, c)
            if fam.is_isotrivial:
                continue
            gamma_t, c_t = fam.gamma.coeffs, fam.c.coeffs
            level = _generic_drop_level(sympy, gamma_t, c_t, 2)
            if level is not None:
                found.append((gamma_t, c_t, level))
    assert set(GENERIC_DROPS) <= set(found)
    assert [n for *_, n in found].count(2) == 7
    for gamma, c, level in found:
        assert _certified_at(gamma, c, level) == [], (gamma, c, level)
