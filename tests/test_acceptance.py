"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; every check is exact unless a runtime or epsilon is written into
the criterion itself.
"""

import functools
import random
import time

import pytest

from quadtower.bigpoly import discriminant_direct, height_int
from quadtower.density import density_curve, primes_up_to
from quadtower.factor import (
    Budget,
    IncompleteFactorizationError,
    factorize,
    is_probable_prime,
    squarefree_decompose,
)
from quadtower.family import QuadraticFamily, SpecializedMap
from quadtower.galois import (
    CERTIFIED_MAXIMAL,
    certify_tower,
    curve_model,
    discriminant_recurrence,
    primitive_divisor_exact,
    verify_forced_point,
)
from quadtower.orbit import canonical_height, critical_orbit, orbit

from conftest import ACCEPTANCE_MAPS, JONES_A, compose, naive_orbit_member


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:02d} FAIL: {desc}")
                raise
            print(f"ACCEPTANCE {num:02d} PASS: {desc}")
            return result

        return wrapper

    return deco


@criterion(1, "Fermat fixture: orbit of 3 under (x-1)^2+1 and F_5 = 641 * 6700417")
def test_criterion_01_fermat_fixture():
    start = time.perf_counter()
    m = SpecializedMap(0, 1, 1)
    values = orbit(m, 3, 5).values
    assert values[1:] == (5, 17, 257, 65537, 4294967297)
    fac = factorize(4294967297)
    assert fac.complete
    assert fac.factors == ((641, 1), (6700417, 1))
    assert time.perf_counter() - start < 1.0


@criterion(2, "conjugation identity on 50 random families, depth 8, 2^20-bit budget")
def test_criterion_02_conjugation_identity():
    rng = random.Random(12021)
    for _ in range(50):
        fam = QuadraticFamily.of(
            [rng.randint(-20, 20) for _ in range(rng.randrange(1, 4))],
            [rng.randint(-20, 20) for _ in range(rng.randrange(1, 4))],
        )
        m = fam.specialize(rng.randint(-30, 30))
        # sigma_a^n(0) == phi_a^n(gamma_a) - gamma_a, each side computed on its own
        sig = 0
        for phi in critical_orbit(m, 8, max_bits=1 << 20).values:
            sig = m.apply_sigma(sig)
            assert sig == phi - m.gamma_a, m


@criterion(3, "discriminant recurrence == direct resultant (|D2| x20, |D3| x5)")
def test_criterion_03_discriminant_agreement():
    start = time.perf_counter()
    rng = random.Random(12031)
    x2p1 = SpecializedMap(1, 0, 1)
    assert discriminant_recurrence(critical_orbit(x2p1, 2), 2) == 512
    for _ in range(20):
        m = SpecializedMap(0, rng.randint(-100, 100), rng.randint(-100, 100))
        phi = m.phi_polynomial()
        crit = critical_orbit(m, 2)
        assert discriminant_recurrence(crit, 2) == abs(discriminant_direct(compose(phi, phi)))
    for _ in range(5):
        m = SpecializedMap(0, rng.randint(-30, 30), rng.randint(-30, 30))
        phi = m.phi_polynomial()
        phi3 = compose(compose(phi, phi), phi)
        assert discriminant_recurrence(critical_orbit(m, 3), 3) == abs(discriminant_direct(phi3))
    assert time.perf_counter() - start < 30.0


@pytest.mark.slow
@criterion(4, "forced-point identity at levels 2..9 wherever decompositions complete")
def test_criterion_04_forced_point():
    budget = Budget(trial_bound=10 ** 6, rho_iters=10 ** 6)
    verified = 0
    for entry in ACCEPTANCE_MAPS:
        m = entry.map()
        crit = critical_orbit(m, 9)
        values = crit.values
        for n in range(2, 10):
            try:
                dec = squarefree_decompose(values[n - 1], budget)
            except IncompleteFactorizationError:
                continue
            model = curve_model(m, n, dec, genus=1)
            assert verify_forced_point(model, crit, dec), (entry.name, n)
            verified += 1
    assert verified >= 30


@criterion(5, "CertifiedMaximal implies an exact square-free primitive prime divisor")
def test_criterion_05_certificate_soundness():
    confirmations = 0
    for entry in ACCEPTANCE_MAPS:
        m = entry.map()
        values = critical_orbit(m, 9).values
        report = certify_tower(m, 1, 9)
        for cert in report.certificates:
            if cert.status != CERTIFIED_MAXIMAL:
                continue
            if abs(values[cert.level - 1]) >= 1 << 128:
                continue
            try:
                exact = primitive_divisor_exact(m, cert.level, Budget(rho_iters=10 ** 6))
            except IncompleteFactorizationError:
                try:
                    exact = primitive_divisor_exact(m, cert.level, Budget(rho_iters=10 ** 7))
                except IncompleteFactorizationError:
                    continue  # cannot evaluate, not a counterexample
            assert exact.primes, (entry.name, cert.level)
            for p in exact.primes:
                assert p % 2 == 1
                assert values[cert.level - 1] % p == 0
                assert all(v % p != 0 for v in values[: cert.level - 1])
            confirmations += 1
    assert confirmations >= 20


@criterion(6, "square-free decomposition round-trip on 500 integers up to 2^192")
def test_criterion_06_squarefree_round_trip():
    rng = random.Random(12061)
    small_pool = [p for p in primes_up_to(10 ** 4)]
    budget = Budget(trial_bound=10 ** 5, rho_iters=10 ** 6, seed=3)

    def random_probable_prime(bits):
        while True:
            cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
            if is_probable_prime(cand):
                return cand

    for _ in range(500):
        truth: dict[int, int] = {}
        n = 1
        for _ in range(rng.randrange(0, 6)):
            p = rng.choice(small_pool)
            e = rng.randrange(1, 4)
            if n.bit_length() + e * p.bit_length() > 192:
                break
            truth[p] = truth.get(p, 0) + e
            n *= p ** e
        for _ in range(rng.randrange(0, 3)):
            p = random_probable_prime(rng.randrange(20, 30))
            if n.bit_length() + p.bit_length() > 192:
                break
            truth[p] = truth.get(p, 0) + 1
            n *= p
        if rng.random() < 0.4:
            bits = rng.randrange(40, 140)
            if n.bit_length() + bits <= 192:
                p = random_probable_prime(bits)
                truth[p] = truth.get(p, 0) + 1
                n *= p
        sign = rng.choice((1, -1))
        n *= sign
        if abs(n) == 1:
            continue
        dec = squarefree_decompose(n, budget)
        assert (1 << dec.e) * dec.d * dec.y * dec.y == n
        # ground-truth square-free part
        expected_d = sign
        for p, e in truth.items():
            if p != 2 and e % 2 == 1:
                expected_d *= p
        expected_e = truth.get(2, 0) % 2
        assert dec.d == expected_d
        assert dec.e == expected_e


@criterion(7, "density oracle: x^2+1, b=0, X=1000 matches naive iteration prime-by-prime")
def test_criterion_07_density_oracle():
    m = SpecializedMap(1, 0, 1)
    curve = density_curve(m, 0, 1000)
    expected = [p for p in primes_up_to(1000) if naive_orbit_member(0, 1, 0, p)]
    assert list(curve.member_primes) == expected
    assert 2 in curve.member_primes
    assert 5 in curve.member_primes
    assert 3 not in curve.member_primes


@criterion(8, "density determinism across shard counts 1/4/16 at X = 10^5, < 60 s")
def test_criterion_08_density_determinism():
    m = SpecializedMap(1, 0, 1)
    base = density_curve(m, 0, 10 ** 5, shards=1, workers=1).to_csv()
    four = density_curve(m, 0, 10 ** 5, shards=4, workers=1).to_csv()
    start = time.perf_counter()
    sixteen = density_curve(m, 0, 10 ** 5, shards=16, workers=2).to_csv()
    elapsed = time.perf_counter() - start
    assert base == four == sixteen
    assert elapsed < 60.0


@criterion(9, "m_phi table: deg mismatch -> 17; (2,2,1) -> 15; (3,3,3) -> 13")
def test_criterion_09_m_phi_table():
    assert QuadraticFamily.of([0], [0, 1]).m_phi() == 17
    assert QuadraticFamily.of([0, 0, 1], [0, 1, 1]).m_phi() == 15
    assert QuadraticFamily.of([0, 0, 0, 1], [0, 0, 0, 2]).m_phi() == 13


@criterion(10, "exceptional set of x^2+t is {-2, -1, 0, 1, 2}")
def test_criterion_10_exceptional_set():
    assert QuadraticFamily.of([0], [0, 1]).info().exceptional_set == [-2, -1, 0, 1, 2]


@criterion(11, "Ingram floor for 1 <= |v| <= 1000 and canonical-height self-consistency")
def test_criterion_11_ingram_floor():
    # h_hat(0) >= max(h(v), 1) / 32, read from an estimate within eps = 1/32,
    # so only a genuine violation of the floor fails
    eps = 1 / 32
    for v in range(-1000, 1001):
        if v in (0, -1, -2):  # post-critically finite
            continue
        m = SpecializedMap(0, 0, v)
        assert canonical_height(m, 0, eps) + eps >= max(height_int(v), 1.0) / 32, v
    # self-consistency at eps = 1e-6: the next refinement stays within eps
    # (depth ~21 doubles values past 2^20 bits, so raise the budget knob)
    for v in (1, 2):
        m = SpecializedMap(0, 0, v)
        est = canonical_height(m, 0, 1e-6, max_bits=1 << 22)
        refined = canonical_height(m, 0, 5e-7, max_bits=1 << 22)
        assert abs(est - refined) <= 1e-6


@criterion(12, "Jones stress fixture: depth-6 critical orbit in < 1 s with exact differences")
def test_criterion_12_jones_fixture():
    start = time.perf_counter()
    m = QuadraticFamily.of([0, 1], [1, 1]).specialize(JONES_A)
    values = critical_orbit(m, 6).values
    diffs = [v - JONES_A for v in values]
    assert diffs == [1, 2, 5, 26, 677, 458330]
    for prev, cur in zip(diffs, diffs[1:]):
        assert cur == prev * prev + 1
    assert time.perf_counter() - start < 1.0
