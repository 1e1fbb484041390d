import contextlib
import random
import signal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadtower.family import QuadraticFamily, SpecializedMap
from quadtower.bigpoly import DigitBudgetError, height_int
from quadtower.factor import Budget
from quadtower.orbit import (CriticalOrbit, Orbit, OrbitRows, canonical_height, critical_orbit,
                             orbit)

from conftest import CORPUS, JONES_A

FERMAT = SpecializedMap(1, 1)       # (x-1)^2 + 1
X2P1 = SpecializedMap(0, 1)         # x^2 + 1


def _exact(m, b, first, last):
    """phi^k(b) for k = first..last as ints, stepped by Orbit.value, beside
    the decimal walk that gives the rows."""
    exact = Orbit(m, b)
    return [exact.value(k) for k in range(first, last + 1)]


def test_orbit_fermat_numbers():
    rows = orbit(FERMAT, 3, 4)
    assert rows.first == 0
    assert rows == _exact(FERMAT, 3, 0, 4) == [3, 5, 17, 257, 65537]


def test_orbit_fixed_point():
    m = SpecializedMap(0, 0)  # x^2
    assert orbit(m, 1, 10) == _exact(m, 1, 0, 10) == [1] * 11


def test_orbit_x2p1():
    assert orbit(X2P1, 0, 6) == _exact(X2P1, 0, 0, 6) == [0, 1, 2, 5, 26, 677, 458330]


def test_orbit_budget_guard():
    with pytest.raises(DigitBudgetError) as err:
        orbit(X2P1, 0, 64, Budget(max_bits=64))
    assert err.value.partial == [0, 1, 2, 5, 26, 677, 458330, 210066388901]


@settings(max_examples=60, deadline=None)
@given(entry=st.sampled_from(CORPUS), depth=st.integers(1, 12))
def test_critical_orbit_is_the_orbit_of_gamma_from_index_1(entry, depth):
    m = entry.map()
    crit, whole = critical_orbit(m, depth), orbit(m, m.gamma_a, depth)
    assert crit.rows.first == 1
    assert crit.rows == whole[1:]
    assert list(crit.values) == _exact(m, m.gamma_a, 1, depth)


def _reader(entry, which, b):
    """A fresh orbit of entry's map: the orbit of b, the critical orbit
    walked to level 1 or its orbit w of 0."""
    crit = critical_orbit(entry.map(), 1)
    return {"b": Orbit(crit.map, b), "critical": crit, "w": crit.w}[which]


@settings(max_examples=300, deadline=None)
@given(entry=st.sampled_from(CORPUS), which=st.sampled_from(["b", "critical", "w"]),
       b=st.integers(-3, 3), j=st.integers(0, 12), k=st.integers(0, 12),
       kind=st.sampled_from(["small", "2^64+13", "value", "last"]),
       small=st.integers(1, 50), delta=st.integers(-1, 1))
# x^2 - 16: the exact prefix ends at v_1 = -16, stepped as it is mod 17
@example(entry=CORPUS[3], which="critical", b=0, j=1, k=6, kind="last", small=1, delta=1)
def test_residue_is_the_exact_value_mod_m(entry, which, b, j, k, kind, small, delta):
    # residue(k, m) steps from the last exact value, index j here
    reader = _reader(entry, which, b)
    reader.value(j)
    value = _reader(entry, which, b).value(k)
    last = reader.v[-1]
    m = {"small": small, "2^64+13": 2 ** 64 + 13,
         "value": max(1, abs(value) + delta), "last": max(1, abs(last) + delta)}[kind]
    assert reader.residue(k, m) == value % m


def test_critical_orbit_x2p1():
    crit = critical_orbit(X2P1, 4)
    assert crit.values == (1, 2, 5, 26)
    assert crit.condition_one_holds


def test_an_orbit_is_built_walked():
    # a walk that could run again appended a second copy of the rows,
    # 1, 2, 5, 1, 2 for x^2 + 1, so every reader of rows took v_4 for 1; now
    # the walk gives the rows and no orbit object can be walked
    for cls in (Orbit, CriticalOrbit):
        assert not hasattr(cls, "walk"), cls
    assert not any(hasattr(Orbit(X2P1, 0), name) for name in ("rows", "start", "first"))
    with pytest.raises(TypeError):
        CriticalOrbit(X2P1)
    rows = orbit(X2P1, 0, 2)
    assert type(rows) is OrbitRows and rows == [0, 1, 2]
    crit = critical_orbit(X2P1, 3)
    assert type(crit.rows) is OrbitRows and crit.rows == [1, 2, 5]


def test_reading_values_leaves_the_verdicts_prefix_as_it_was(monkeypatch):
    # values once grew the shared exact prefix to full depth, so a later
    # stripped_witness reduced the orbit of 0 modulo full-size critical
    # values, a path no verdict that skips values takes
    m = SpecializedMap(0, 3)  # x^2 + 3
    apply_mod = SpecializedMap.apply_mod
    widest, witnesses = [], []
    for read in (False, True):
        crit = critical_orbit(m, 20)
        if read:
            prefix = len(crit.v)
            assert len(crit.values) == 20
            assert len(crit.v) == prefix
        moduli = []
        monkeypatch.setattr(SpecializedMap, "apply_mod",
                            lambda self, x, p: moduli.append(p) or apply_mod(self, x, p))
        witnesses.append(crit.stripped_witness(20))
        monkeypatch.undo()
        widest.append(max(moduli))
    assert widest[0] == widest[1]
    assert witnesses[0] == witnesses[1]


def test_critical_orbit_constant_when_v_zero():
    m = SpecializedMap(5, 5)  # gamma = c = t at a = 5
    crit = critical_orbit(m, 5)
    assert crit.values == (5,) * 5


@contextlib.contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in the block once seconds of wall time have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_stripped_witness_at_and_above_a_zero():
    # x^2 - 1: -1, 0, -1, 0, ...; every prime divides 0, so from level 2 on
    # no prime is primitive and no cofactor is stripped
    m = SpecializedMap(0, -1)
    assert critical_orbit(m, 5).stripped_witness(1) == ("1", False)
    for n in (2, 5):
        with _time_limit(1):
            assert critical_orbit(m, n).stripped_witness(n) == (None, False)


def test_critical_orbit_condition_one_failure():
    m = SpecializedMap(0, 0)
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


def _assert_sigma_orbit_identity(m, depth):
    # sigma_a^n(0) == phi_a^n(gamma_a) - gamma_a for n <= depth, each side
    # computed on its own: sigma's by apply_sigma, phi's by critical_orbit
    sig = 0
    for n, phi in enumerate(critical_orbit(m, depth).values, start=1):
        sig = m.apply_sigma(sig)
        assert sig == phi - m.gamma_a, (m, n)


def test_sigma_orbit_identity_examples():
    _assert_sigma_orbit_identity(X2P1, 6)  # gamma_a = 0: trivially exact
    m = QuadraticFamily.of([0, 1], [1, 0, 1]).specialize(3)
    _assert_sigma_orbit_identity(m, 6)
    jones = QuadraticFamily.of([0, 1], [1, 1]).specialize(JONES_A)
    _assert_sigma_orbit_identity(jones, 5)


def test_sigma_orbit_identity_random():
    rng = random.Random(307)
    for _ in range(50):
        fam = QuadraticFamily.of(
            [rng.randint(-20, 20) for _ in range(rng.randrange(1, 4))],
            [rng.randint(-20, 20) for _ in range(rng.randrange(1, 4))],
        )
        m = fam.specialize(rng.randint(-30, 30))
        _assert_sigma_orbit_identity(m, 8)


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
        if m.v_a in (0, -1, -2):  # post-critically finite
            continue
        values = critical_orbit(m, 12).values
        for prev, cur in zip(values, values[1:]):
            bits = prev.bit_length()
            if bits > 8:
                assert 2 * bits - 2 <= cur.bit_length() <= 2 * bits + 2, entry.name


def test_canonical_height_periodic_points():
    assert canonical_height(SpecializedMap(0, 0), 0, 1e-6) == 0.0
    assert canonical_height(SpecializedMap(1, 0), 0, 1e-6) == 0.0  # v=-1
    # v = -1: orbit of 0 is 0 -> -1 -> 0, heights all zero
    m = SpecializedMap(1, 0)
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
        m = SpecializedMap(0, v)
        if m.v_a in (0, -1, -2):  # post-critically finite
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
    # Ingram's floor h_hat(0) >= max(h(v_a), 1) / 32 for a wandering critical
    # orbit, read from an estimate within eps, so only a genuine violation fails
    eps = 1 / 32
    for m in (X2P1, SpecializedMap(0, 10 ** 6)):
        assert canonical_height(m, 0, eps) + eps >= max(height_int(m.v_a), 1.0) / 32
