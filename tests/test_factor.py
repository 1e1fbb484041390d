import math
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import quadtower.factor as factor_mod
from quadtower.bigpoly import BudgetError, DigitBudgetError, decimal_str
from quadtower.factor import (
    Budget,
    Factorization,
    IncompleteFactorizationError,
    ZeroInputError,
    factorize,
    is_probable_prime,
    squarefree_decompose,
    stripped_cofactor,
)
from quadtower.family import QuadraticFamily
from quadtower.galois import (
    PrimitiveDivisorReport,
    primitive_divisor_certificate,
    primitive_divisor_exact,
)
from quadtower.orbit import critical_orbit

from conftest import CORPUS, full_strip, plain_primes

def _x2(c):
    """The map x^2 + c."""
    return QuadraticFamily.of([0], [0, 1]).specialize(c)


def test_budget_bounds_trial_bound():
    # the trial-division table takes 2.7 MB and 0.4 s at 10^7, so the bound is
    # capped there
    assert Budget(trial_bound=2).trial_bound == 2
    assert Budget(trial_bound=10 ** 7).trial_bound == 10 ** 7
    for bound in (1, 10 ** 7 + 1, 10 ** 10):
        with pytest.raises(ValueError, match="trial_bound"):
            Budget(trial_bound=bound)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_trial_table_at_the_cap_stays_compact():
    # the primes up to 10^7 take 2.7 MB as four-byte entries, and about 35 MB
    # as a tuple of Python ints
    code = ("import resource\n"
            "from quadtower.factor import Budget, factorize\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "assert factorize(2 ** 61 - 1, Budget(trial_bound=10 ** 7)).complete\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)")
    src = pathlib.Path(factor_mod.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 8 * 1024


def test_factorize_fermat_number():
    fac = factorize(4294967297)
    assert fac.complete
    assert fac.factors == ((641, 1), (6700417, 1))
    assert fac.value() == 4294967297


def test_factorize_negative():
    fac = factorize(-12)
    assert fac.sign == -1
    assert fac.factors == ((2, 2), (3, 1))
    assert fac.complete and fac.value() == -12


def test_factorize_orbit_value():
    fac = factorize(458330)
    assert fac.factors == ((2, 1), (5, 1), (45833, 1))
    assert fac.complete


def test_factorize_units_and_zero():
    assert factorize(1).factors == ()
    assert factorize(-1).sign == -1
    with pytest.raises(ZeroInputError):
        factorize(0)


def test_factorize_reconstructs_and_certifies():
    rng = random.Random(101)
    budget = Budget(trial_bound=10 ** 4, rho_iters=10 ** 5, seed=5)
    for _ in range(50):
        n = rng.randint(2, 10 ** 12)
        fac = factorize(n, budget)
        assert fac.value() == n
        if fac.complete:
            for p, _ in fac.factors:
                assert is_probable_prime(p)


def test_factorize_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(103)
    for _ in range(30):
        n = rng.randint(2, 10 ** 12)
        fac = factorize(n)
        assert fac.complete
        assert dict(fac.factors) == sympy.factorint(n)


def test_factorize_deterministic():
    n = 10 ** 20 + 39       # needs rho after trial division
    a = factorize(n, Budget(trial_bound=10 ** 3, rho_iters=10 ** 6, seed=9))
    b = factorize(n, Budget(trial_bound=10 ** 3, rho_iters=10 ** 6, seed=9))
    assert a == b
    assert a.value() == n


def test_factorize_incomplete_on_hard_semiprime():
    p = 1000000007 * 1000000009 * 999999937  # three ~2^30 primes
    fac = factorize(p, Budget(trial_bound=10 ** 3, rho_iters=50, seed=0))
    assert not fac.complete
    assert fac.cofactor > 1
    assert fac.value() == p


def test_pm1_splits_semiprime_out_of_rho_reach(monkeypatch):
    # p - 1 is 100-smooth, so p-1 stage 1 at B1 = 10^4 // 100 finds p; rho
    # would need about sqrt(p) ~ 2^31 steps.  q - 1 has a prime above 100.
    p = 2 * 3 * 5 * 7 * 13 * 23 * 31 * 37 * 41 * 47 * 53 * 61 * 67 * 79 + 1
    q = 2 ** 67 + 3
    assert is_probable_prime(p) and is_probable_prime(q)
    budget = Budget(rho_iters=10 ** 4)
    fac = factorize(p * q, budget)
    assert fac.complete
    assert fac.factors == ((p, 1), (q, 1))
    monkeypatch.setattr(factor_mod, "_pollard_pm1", lambda n, bound: None)
    fac = factorize(p * q, budget)
    assert not fac.complete
    assert fac.cofactor == p * q


# a 46-bit prime whose p - 1 has the prime 511243 > 10^4, so p-1 stage 1 at
# B1 = 10^6 // 100 misses it and rho would need about 2^23 steps
ECM_P = 35184372088891
ECM_Q = 2 ** 100 + 277


def test_ecm_splits_semiprime_out_of_rho_reach(monkeypatch):
    assert is_probable_prime(ECM_P) and is_probable_prime(ECM_Q)
    budget = Budget(rho_iters=10 ** 6)
    fac = factorize(ECM_P * ECM_Q, budget)
    assert fac.complete
    assert fac.factors == ((ECM_P, 1), (ECM_Q, 1))
    monkeypatch.setattr(factor_mod, "_ecm", lambda n, rng, curves: None)
    fac = factorize(ECM_P * ECM_Q, budget)
    assert not fac.complete
    assert fac.cofactor == ECM_P * ECM_Q


def test_ecm_needs_stage_two_for_the_semiprime(monkeypatch):
    plan = factor_mod._ecm_stage2_plan()
    monkeypatch.setattr(factor_mod, "_ecm_stage2_plan", lambda: tuple(() for _ in plan))
    assert not factorize(ECM_P * ECM_Q, Budget(rho_iters=10 ** 6)).complete


def test_ecm_run_is_deterministic(monkeypatch):
    calls = []
    ecm = factor_mod._ecm

    def spy(n, rng, curves):
        calls.append(curves)
        return ecm(n, rng, curves)

    monkeypatch.setattr(factor_mod, "_ecm", spy)
    budget = Budget(rho_iters=10 ** 6, seed=3)
    first = factorize(ECM_P * ECM_Q, budget)
    assert factorize(ECM_P * ECM_Q, budget) == first
    assert calls == [14, 14]  # (10^6 - 2^17) // 60,000 curves, each time
    assert first.complete


def test_ecm_curve_count_follows_rho_iters(monkeypatch):
    calls = []
    monkeypatch.setattr(factor_mod, "_ecm", lambda n, rng, curves: calls.append(curves))
    monkeypatch.setattr(factor_mod, "_brent_rho", lambda n, rng, iters: calls.append(iters))
    for rho_iters in (2 ** 17, 2 ** 17 + 59_999, 2 ** 17 + 60_000, 10 ** 7):
        factorize(ECM_P * ECM_Q, Budget(trial_bound=10 ** 3, rho_iters=rho_iters))
    assert calls == [2 ** 17, 2 ** 17, 2 ** 17, 1, 2 ** 17, 164]


@settings(max_examples=40, deadline=None)
@given(p=st.integers(2 ** 20, 2 ** 40), q=st.integers(2 ** 20, 2 ** 60),
       seed=st.integers(0, 3))
def test_ecm_returns_a_proper_divisor(p, q, seed):
    n = (2 * p + 1) * (2 * q + 1)
    g = factor_mod._ecm(n, random.Random(seed), 2)
    assert g is None or (1 < g < n and n % g == 0)



class _CountingModulus(int):
    """An int that counts the reductions `x % self` taken with it."""

    def __new__(cls, value):
        self = super().__new__(cls, value)
        self.mods = 0
        return self

    def __rmod__(self, other):
        self.mods += 1
        return int.__rmod__(self, other)


RHO_SEMIPRIME = (2 ** 64 - 59) * (2 ** 63 + 29)  # far out of rho's reach


def _rho_spend(max_iters):
    """Map evaluations of the whole Brent rounds that fit in max_iters: k
    rounds of r = 1, 2, ..., 2^(k-1) cost 2r each, 2(2^k - 1) in all."""
    k = (max_iters // 2 + 1).bit_length() - 1
    return 2 * (2 ** k - 1)


@pytest.mark.parametrize("max_iters, mods", [
    (10, 9), (100, 93), (2 ** 17, 196_605), (2 * (2 ** 13 - 1), 24_573),
])
def test_brent_rho_reductions_at_fixed_budgets(max_iters, mods):
    # a round of 2r map evaluations takes r reductions for x's stretch and
    # 2r (the map and the product) for the batches; the old loop ran one
    # more round past the budget: 21, 189 and 393,213 reductions at the
    # first three budgets
    assert all(is_probable_prime(p) for p in (2 ** 64 - 59, 2 ** 63 + 29))
    n = _CountingModulus(RHO_SEMIPRIME)
    assert factor_mod._brent_rho(n, random.Random(0), max_iters) is None
    assert n.mods == mods == 3 * _rho_spend(max_iters) // 2


@settings(max_examples=40, deadline=None)
@given(max_iters=st.integers(0, 5000), seed=st.integers(0, 3))
def test_brent_rho_spends_whole_rounds_within_its_budget(max_iters, seed):
    n = _CountingModulus(RHO_SEMIPRIME)
    rng, drawn = random.Random(seed), random.Random(seed)
    assert factor_mod._brent_rho(n, rng, max_iters) is None
    evaluations = 2 * n.mods // 3
    assert evaluations == _rho_spend(max_iters) <= max_iters
    # one (y, c) is drawn, and none when not even the first round fits
    if max_iters >= 2:
        drawn.randrange(1, n)
        drawn.randrange(1, n - 1)
    assert rng.getstate() == drawn.getstate()


def _xdbl_reference(p, a24, n):
    s, d = (p[0] + p[1]) ** 2 % n, (p[0] - p[1]) ** 2 % n
    t = s - d
    return s * d % n, t * (d + a24 * t) % n


def _xadd_reference(p, q, diff, n):
    u = (p[0] - p[1]) * (q[0] + q[1]) % n
    v = (p[0] + p[1]) * (q[0] - q[1]) % n
    return diff[1] * (u + v) ** 2 % n, diff[0] * (u - v) ** 2 % n


def _ladder_reference(k, p, a24, n):
    r0, r1 = p, _xdbl_reference(p, a24, n)
    for bit in bin(k)[3:]:
        if bit == "1":
            r0, r1 = _xadd_reference(r0, r1, p, n), _xdbl_reference(r1, a24, n)
        else:
            r0, r1 = _xdbl_reference(r0, a24, n), _xadd_reference(r0, r1, p, n)
    return r0


def _ecm_curve_reference(n, sigma):
    """One ECM curve as first written: projective ladders throughout and a
    stage 2 that multiplies each plan pair by the giant step's Z."""
    u = (sigma * sigma - 5) % n
    v = 4 * sigma % n
    u3, v3 = pow(u, 3, n), pow(v, 3, n)
    den = 16 * u3 * v3 % n
    g = math.gcd(den, n)
    if g != 1:
        return g
    w = pow(den, -1, n)
    a24 = pow(v - u, 3, n) * (3 * u + v) * v * v * w % n
    q = _ladder_reference(factor_mod._prime_power_product(factor_mod._ECM_B1),
                          (16 * u3 * u3 * w % n, 1), a24, n)
    g = math.gcd(q[1], n)
    if g != 1:
        return g
    q2 = _xdbl_reference(q, a24, n)
    odd = [q, _xadd_reference(q2, q, q, n)]
    while len(odd) < factor_mod._ECM_D // 4:
        odd.append(_xadd_reference(odd[-1], q2, odd[-2], n))
    babies = [odd[j // 2] for j in factor_mod._ECM_BABIES]
    prefix = [1]
    for _x, z in babies:
        prefix.append(prefix[-1] * z % n)
    g = math.gcd(prefix[-1], n)
    if g != 1:
        return g
    inv = pow(prefix[-1], -1, n)
    xs = [0] * len(babies)
    for i in range(len(babies) - 1, -1, -1):
        xs[i] = babies[i][0] * prefix[i] % n * inv % n
        inv = inv * babies[i][1] % n
    step = _ladder_reference(factor_mod._ECM_D, q, a24, n)
    plan = factor_mod._ecm_stage2_plan()
    giants = [step, _xdbl_reference(step, a24, n)]
    while len(giants) < len(plan):
        giants.append(_xadd_reference(giants[-1], step, giants[-2], n))
    acc = 1
    for (gx, gz), row in zip(giants, plan):
        for i in row:
            acc = acc * (gx - xs[i] * gz) % n
    return math.gcd(acc, n)


def _next_prime(x):
    while not is_probable_prime(x):
        x += 1
    return x


# (p, q, sigma) for each way a curve ends; "giant Z" is a curve on which the
# Z of some giant step m*D*Q shares the prime 1033381 with n
ECM_OUTCOMES = {
    "stage 1": (9549677, 14217587, 3445702198),
    "stage 2": (520249739, 495057593, 3117513190),
    "failure": (11461001023597, 13874374801087, 901749043),
    "giant Z": (1033381, 904651204433, 728849876),
}


def _ecm_outcome(n, sigma, monkeypatch):
    """Where the reference curve splits n: in stage 1 (with the baby steps),
    in stage 2, or not at all."""
    if not 1 < _ecm_curve_reference(n, sigma) < n:
        return "failure"
    plan = factor_mod._ecm_stage2_plan()
    with monkeypatch.context() as m:
        m.setattr(factor_mod, "_ecm_stage2_plan", lambda: tuple(() for _ in plan))
        return "stage 1" if 1 < _ecm_curve_reference(n, sigma) < n else "stage 2"


def test_ecm_outcomes_cover_both_stages_and_failure(monkeypatch):
    for name, (p, q, sigma) in ECM_OUTCOMES.items():
        assert is_probable_prime(p) and is_probable_prime(q)
        expected = "failure" if name == "giant Z" else name
        assert _ecm_outcome(p * q, sigma, monkeypatch) == expected, name


def _ecm_curve_and_inversions(n, sigma):
    """_ecm_curve(n, sigma) and, for each batch inversion of its stage 2,
    whether the batch had no inverse mod n."""
    affine, failed = factor_mod._affine_xs, []

    def spy(points, n):
        xs = affine(points, n)
        failed.append(xs is None)
        return xs

    with pytest.MonkeyPatch.context() as m:
        m.setattr(factor_mod, "_affine_xs", spy)
        return factor_mod._ecm_curve(n, sigma), failed


@settings(max_examples=30, deadline=None)
@given(p=st.integers(2 ** 15, 2 ** 48), q=st.integers(2 ** 15, 2 ** 48),
       sigma=st.integers(6, 2 ** 32 - 1))
@example(*ECM_OUTCOMES["stage 1"])
@example(*ECM_OUTCOMES["stage 2"])
@example(*ECM_OUTCOMES["failure"])
def test_ecm_curve_matches_reference(p, q, sigma):
    # where the baby and giant steps invert as one batch, the curve is the
    # reference's; where they do not, some Z shares a prime with n, a find
    p, q = _next_prime(p), _next_prime(q)
    assume(p != q)
    g, failed = _ecm_curve_and_inversions(p * q, sigma)
    if failed == [True]:
        assert 1 < g < p * q and (p * q) % g == 0
    else:
        assert g == _ecm_curve_reference(p * q, sigma)


@pytest.mark.parametrize("bits", [130, 400, 800])
def test_ladder_matches_the_reference_ladder(bits):
    # the swapped ladder against the one written with both branches, on odd
    # moduli; k = 1 takes no step, the B1 product is stage 1's
    rng = random.Random(bits)
    n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
    ks = (1, 2, 3, factor_mod._ECM_D, factor_mod._prime_power_product(factor_mod._ECM_B1))
    for _ in range(3):
        x, a24 = rng.randrange(n), rng.randrange(n)
        for k in ks:
            assert factor_mod._ladder(k, x, a24, n) == _ladder_reference(k, (x, 1), a24, n)


def test_ecm_curve_finds_the_prime_a_giant_z_shares_with_n():
    # the batch of baby and giant steps has no inverse mod n, as the Z of a
    # giant step is 0 mod 1033381: that prime is the find, where the
    # reference, stripping with projective giants, fails with n
    p, q, sigma = ECM_OUTCOMES["giant Z"]
    assert _ecm_curve_reference(p * q, sigma) == p * q
    assert _ecm_curve_and_inversions(p * q, sigma) == (p, [True])


def _pm1_rho_reference(n, budget):
    """factorize as it was before ECM: trial division, p-1 stage 1 to
    B1 = rho_iters // 100, then Brent rho for all of rho_iters, on one queue
    of (piece, multiplicity) pairs."""
    sign = -1 if n < 0 else 1
    m = abs(n)
    counts = {}
    for p in plain_primes(budget.trial_bound):
        if p * p > m:
            break
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    pending = [(m, 1)] if m > 1 else []
    rng = random.Random(f"rho:{budget.seed}:{abs(n)}")
    cofactor = 1
    while pending:
        x, k = pending.pop()
        if x < budget.trial_bound ** 2 or is_probable_prime(x, budget):
            counts[x] = counts.get(x, 0) + k
            continue
        root = math.isqrt(x)
        if root * root == x:
            pending.append((root, 2 * k))
            continue
        f = factor_mod._pollard_pm1(x, budget.rho_iters // 100)
        if f is None:
            f = factor_mod._brent_rho(x, rng, budget.rho_iters)
        if f is None:
            cofactor *= x ** k
            continue
        pending += [(f, k), (x // f, k)]
    return sign, tuple(sorted(counts.items())), cofactor


@settings(max_examples=60, deadline=None)
@given(
    parts=st.lists(st.integers(2, 2 ** 40), min_size=1, max_size=3),
    sign=st.sampled_from((1, -1)),
    rho_iters=st.one_of(st.integers(0, 3000), st.sampled_from((16_382, 65_534, 2 ** 17))),
    seed=st.integers(0, 2),
)
# composite squares: (1009 * 1013)^2 splits, and with no rho iteration
# (1009 * 1013)^4 stays whole
@example(parts=[1009 * 1013, 1009 * 1013], sign=1, rho_iters=3000, seed=0)
@example(parts=[(1009 * 1013) ** 2, (1009 * 1013) ** 2], sign=-1, rho_iters=0, seed=0)
def test_factorize_matches_pm1_rho_up_to_rho_cap(parts, sign, rho_iters, seed):
    # up to 2^17 rho iterations no ECM curve runs, so nothing may change
    n = sign * math.prod(parts)
    budget = Budget(trial_bound=10 ** 3, rho_iters=rho_iters, seed=seed)
    fac = factorize(n, budget)
    assert (fac.sign, fac.factors, fac.cofactor) == _pm1_rho_reference(n, budget)


def test_factorize_tries_a_composite_square_root_once(monkeypatch):
    # the budget is per composite piece: N^2 pushes its root N once, with
    # multiplicity 2, so p-1, rho and ECM each run once on N, and what
    # resists them comes back whole as N^2
    n = (10 ** 18 + 3) * (10 ** 18 + 9)
    calls = []
    for name in ("_pollard_pm1", "_brent_rho", "_ecm"):
        def counted(x, *args, _name=name, _real=getattr(factor_mod, name)):
            calls.append((_name, x))
            return _real(x, *args)

        monkeypatch.setattr(factor_mod, name, counted)
    fac = factorize(n ** 2, Budget(rho_iters=10 ** 6))
    assert calls == [("_pollard_pm1", n), ("_brent_rho", n), ("_ecm", n)]
    assert fac == Factorization(sign=1, factors=(), cofactor=n ** 2)
    # a prime square above the trial bound is one prime with exponent 2,
    # and nested squares multiply the exponents
    p = 10 ** 18 + 3
    assert factorize(p ** 2).factors == ((p, 2),)
    assert factorize(-((1009 * 1013) ** 4), Budget(trial_bound=100)).factors == (
        (1009, 4), (1013, 4))
    # 2400971 * 798638215261 resists p-1 and 4,000 rho iterations: its square
    # comes back whole, with none of its primes listed beside it
    n = 2400971 * 798638215261
    fac = factorize(n ** 2, Budget(trial_bound=100, rho_iters=4000))
    assert fac == Factorization(sign=1, factors=(), cofactor=n ** 2)


def test_factorize_completes_x2p7_levels_7_and_8():
    from quadtower.orbit import critical_orbit

    values = critical_orbit(QuadraticFamily.of([0], [0, 1]).specialize(7), 8).values
    budget = Budget(rho_iters=10 ** 6)
    start = time.perf_counter()
    for n in (7, 8):
        fac = factorize(values[n - 1], budget)
        assert fac.complete, n
        assert fac.value() == values[n - 1]
        assert all(is_probable_prime(p) for p, _ in fac.factors)
    assert time.perf_counter() - start < 1.0


@settings(max_examples=60, deadline=None)
@given(
    parts=st.lists(st.integers(2, 2 ** 64), min_size=1, max_size=4),
    sign=st.sampled_from((1, -1)),
)
def test_factorize_reconstructs_with_probable_primes(parts, sign):
    n = sign * math.prod(parts)
    fac = factorize(n, Budget(trial_bound=10 ** 3, rho_iters=10 ** 4))
    assert fac.value() == n
    assert all(is_probable_prime(p) for p, _ in fac.factors)
    assert fac.complete == (fac.cofactor == 1)
    if not fac.complete:
        assert not is_probable_prime(fac.cofactor)


def test_factorize_respects_trial_bound_despite_warm_cache():
    factorize(10 ** 12 + 39)  # warm the shared sieve past 10^3
    n = 1009 * 1013  # both primes above the budget's trial bound
    fac = factorize(n, Budget(trial_bound=10 ** 3, rho_iters=2, seed=0))
    assert not fac.complete
    assert fac.cofactor == n
    # around the end of the sieve's first segment (2^16 integers from 2) the
    # largest prime up to the bound comes off, and the next two stay together
    for bound in (2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1, 2 ** 16 + 2):
        p = plain_primes(bound)[-1]
        q = _next_prime(bound + 1)
        r = _next_prime(q + 1)
        fac = factorize(p * q * r, Budget(trial_bound=bound, rho_iters=0))
        assert (fac.factors, fac.cofactor) == (((p, 1),), q * r), bound


def test_is_probable_prime():
    assert is_probable_prime(2) and is_probable_prime(3)
    assert not is_probable_prime(1) and not is_probable_prime(561)  # Carmichael
    assert is_probable_prime((1 << 89) - 1)       # Mersenne prime
    assert not is_probable_prime((1 << 67) - 1)   # classical composite Mersenne
    small = [n for n in range(2, 200) if is_probable_prime(n)]
    assert small[:10] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_squarefree_decompose_examples():
    d = squarefree_decompose(26)
    assert (d.e, d.d, d.y) == (1, 13, 1)
    d = squarefree_decompose(16)
    assert (d.e, d.d, d.y) == (0, 1, 4)
    d = squarefree_decompose(-8)
    assert (d.e, d.d, d.y) == (1, -1, 2)
    with pytest.raises(ZeroInputError):
        squarefree_decompose(0)


def test_squarefree_decompose_round_trip():
    rng = random.Random(107)
    for _ in range(200):
        n = rng.randint(1, 10 ** 10) * rng.choice((1, -1))
        d = squarefree_decompose(n)
        assert d.value() == n
        assert d.e in (0, 1)
        assert d.d % 2 != 0
        assert d.y >= 1
        # square-free: no prime appears twice in d
        for p, k in factorize(d.d).factors:
            assert k == 1


def test_factorize_returns_values_above_the_cap_untouched():
    # 3^1292 has 2,048 bits and is still factored; 2^2048 has 2,049
    assert factorize(3 ** 1292).factors == ((3, 1292),)
    n = -(1 << factor_mod.MAX_FACTOR_BITS)
    assert factorize(n) == Factorization(sign=-1, factors=(), cofactor=-n)
    with pytest.raises(IncompleteFactorizationError,
                       match="^a 2049-bit value is not factored; factoring stops at 2048 bits$"):
        squarefree_decompose(n)


def test_squarefree_decompose_incomplete_carries_partial():
    n = 1000000007 * 1000000009
    with pytest.raises(IncompleteFactorizationError) as err:
        squarefree_decompose(n, Budget(trial_bound=10 ** 3, rho_iters=50))
    assert err.value.partial.value() == n


def test_stripped_cofactor_examples():
    assert stripped_cofactor(26, [1, 2, 5]) == 13
    assert stripped_cofactor(100, [10]) == 1
    assert stripped_cofactor(677, [1, 2, 5, 26]) == 677
    with pytest.raises(ZeroInputError):
        stripped_cofactor(0, [1])
    with pytest.raises(ZeroInputError):
        stripped_cofactor(10, [0])


def test_stripped_cofactor_is_coprime_to_inputs():
    rng = random.Random(109)
    for _ in range(200):
        value = rng.randint(1, 10 ** 12) * rng.choice((1, -1))
        earlier = [rng.randint(1, 10 ** 9) * rng.choice((1, -1)) for _ in range(3)]
        r = stripped_cofactor(value, earlier)
        assert r % 2 == 1
        assert all(math.gcd(r, e) == 1 for e in earlier)
        assert abs(value) % r == 0


def test_primitive_divisor_exact_x2p1():
    # x^2 + 1: 1, 2, 5, 26, 677, ...
    rep = primitive_divisor_exact(_x2(1), 4)
    assert rep.primes == (13,)
    assert rep.certified and rep.method == "exact"
    rep = primitive_divisor_exact(_x2(1), 3)
    assert rep.primes == (5,)
    rep = primitive_divisor_exact(_x2(1), 2)
    assert rep.primes == ()
    assert not rep.certified
    assert rep.two_primitive is True


def _list_exact(map, n, budget, max_bits):
    """Reference: the exact route over the full binary critical orbit, each
    prime tested against every lower value by e % p."""
    values = critical_orbit(map, n, max_bits).values
    value = values[n - 1]
    if value == 0:
        raise ZeroInputError("level value is zero")
    fac = factorize(value, budget)
    if not fac.complete:
        raise IncompleteFactorizationError(f"level {n} value resists the factoring budget", fac)
    primes, two_primitive = [], False
    for p, k in fac.factors:
        if k % 2 == 0:
            continue
        fresh = all(e % p != 0 for e in values[: n - 1])
        if p == 2:
            two_primitive = fresh
        elif fresh:
            primes.append(p)
    return PrimitiveDivisorReport(n, tuple(primes), "exact", bool(primes),
                                  two_primitive=two_primitive)


def _outcome(route, *args):
    """route's report, or the refusal it raised: its type, message and partial."""
    try:
        return route(*args)
    except (ZeroInputError, BudgetError) as err:
        return type(err), str(err), getattr(err, "partial", None)


def test_primitive_divisor_exact_matches_the_list_oracle():
    # a small budget and a 512-bit cap, so that zero values, incomplete
    # factorizations and bit-budget refusals all occur beside the reports
    budget = Budget(trial_bound=1000, rho_iters=1000)
    seen = set()
    for gamma, c in [([0], [0, 1]), ([0, 1], [1, 1]), ([1], [3]), ([0], [-1, 0, 1])]:
        family = QuadraticFamily.of(gamma, c)
        for a in range(-25, 26):
            m = family.specialize(a)
            for n in range(1, 10):
                want = _outcome(_list_exact, m, n, budget, 512)
                assert _outcome(primitive_divisor_exact, m, n, budget, 512) == want, (c, a, n)
                seen.add(bool(want.primes) if isinstance(want, PrimitiveDivisorReport)
                         else want[0])
    assert seen == {True, False, ZeroInputError, IncompleteFactorizationError,
                    DigitBudgetError}


def test_primitive_divisor_certificate_x2p1():
    rep = primitive_divisor_certificate(_x2(1), 4)
    assert rep.certified
    assert rep.witness == "13"
    assert rep.primes == (13,)


def test_primitive_divisor_certificate_square_cofactor():
    # x^2 - 9 at level 1: R is the odd part of |c_a| = 9, a perfect square,
    # so nothing can be certified
    rep = primitive_divisor_certificate(_x2(-9), 1)
    assert rep.witness == "9"
    assert not rep.certified


def test_primitive_divisor_certificate_unit():
    rep = primitive_divisor_certificate(_x2(1), 1)
    assert rep.witness == "1"
    assert not rep.certified


def test_primitive_divisor_certificate_refuses_a_zero_level():
    # x^2 - 1: -1, 0, -1, 0, ...; the level value 0 itself is refused
    with pytest.raises(ZeroInputError, match="^level value is zero$"):
        primitive_divisor_certificate(_x2(-1), 4)


def test_primitive_divisor_certificate_above_a_zero_certifies_nothing():
    # every prime divides v_2 = 0, so no prime is primitive at level 3, and
    # no witness is stripped: the exact route's answer, without factoring
    rep = primitive_divisor_certificate(_x2(-1), 3)
    assert rep == PrimitiveDivisorReport(3, (), "certificate", False, witness=None)
    assert not primitive_divisor_exact(_x2(-1), 3).certified


@settings(max_examples=60, deadline=None)
@given(gamma=st.lists(st.integers(-3, 3), max_size=2), c=st.lists(st.integers(-5, 5), max_size=3),
       a=st.integers(-6, 6), n=st.integers(1, 8))
@example(gamma=[0], c=[-1], a=0, n=2)  # x^2 - 1: -1, 0, -1, 0, ...
@example(gamma=[0], c=[-1], a=0, n=5)
def test_primitive_divisor_certificate_matches_full_stripping(gamma, c, a, n):
    m = QuadraticFamily.of(gamma, c).specialize(a)
    crit = critical_orbit(m, n)
    if crit.values[-1] == 0:
        with pytest.raises(ZeroInputError, match="^level value is zero$"):
            primitive_divisor_certificate(m, n)
        return
    rep = primitive_divisor_certificate(m, n)
    if 0 in crit.values:
        # above a zero no prime is primitive, which both routes answer; the
        # exact one wherever its factorization completes
        assert (rep.certified, rep.witness) == (False, None)
        try:
            assert not primitive_divisor_exact(m, n, Budget(10 ** 4, 10 ** 4)).certified
        except IncompleteFactorizationError:
            pass
        return
    assert (int(rep.witness), rep.certified) == full_strip(crit.values, n)
    assert rep.witness == rep.to_json_dict()["witness"] == decimal_str(int(rep.witness))


# orbits through 0: x^2 - 1, and (x - a)^2 + a + 1, whose v_n = u_n + a for
# u = 1, 2, 5, 26, ... of x^2 + 1, at a = -2, -5, -26 (v_2, v_3, v_4 = 0)
THROUGH_ZERO = {"x2-1": _x2(-1), **{f"isotrivial a={a}": QuadraticFamily.of([0, 1], [1, 1])
                                     .specialize(a) for a in (-2, -5, -26)}}


def test_exact_and_certificate_agree_on_corpus():
    maps = {e.name: e.map() for e in CORPUS} | THROUGH_ZERO
    above_zero = 0
    for name, m in maps.items():
        values = critical_orbit(m, 7).values
        for n in range(1, 8):
            if values[n - 1] == 0 or abs(values[n - 1]) >= 1 << 128:
                continue
            cert = primitive_divisor_certificate(m, n)
            try:
                exact = primitive_divisor_exact(m, n)
            except IncompleteFactorizationError:
                continue
            if 0 in values[: n - 1]:
                # above a zero every prime divides a lower value
                assert (cert.certified, cert.witness, exact.certified) == (False, None, False), (
                    name, n)
                above_zero += 1
            if cert.certified:
                # soundness: the certificate promises an odd primitive prime
                assert exact.primes, (name, n)
            if exact.primes and not cert.certified:
                # the only way exact wins: every primitive prime also divides
                # the paired square part y^2 through an earlier gcd strip
                assert all(int(cert.witness) % p != 0 for p in exact.primes)
    assert above_zero > 0


class PreconditionError(ValueError):
    """A stated divisibility hypothesis does not hold."""


def doubling_check(map, n: int, m: int, p: int) -> bool:
    """Consistency check behind the floor(n/2) refinement: a prime p dividing
    the critical values at levels m < n must divide the n-m orbit value of 0.

    Verifies the divisibility hypotheses mod p first and raises
    PreconditionError when they fail; the returned verdict must be True
    whenever they hold.
    """
    if not 1 <= m < n:
        raise PreconditionError("need 1 <= m < n")
    if p < 2:
        raise PreconditionError("p must be a prime >= 2")
    x = map.gamma_a % p
    for j in range(1, n + 1):
        x = map.apply_mod(x, p)
        if j == m and x != 0:
            raise PreconditionError(f"{p} does not divide the level-{m} value")
        if j == n and x != 0:
            raise PreconditionError(f"{p} does not divide the level-{n} value")
    z = 0
    for _ in range(n - m):
        z = map.apply_mod(z, p)
    return z == 0


def test_doubling_check():
    m = QuadraticFamily.of([0], [0, 1]).specialize(1)  # x^2 + 1
    assert doubling_check(m, 6, 3, 5) is True
    assert doubling_check(m, 4, 2, 2) is True
    with pytest.raises(PreconditionError):
        doubling_check(m, 5, 2, 13)  # 13 does not divide level 2
    with pytest.raises(PreconditionError):
        doubling_check(m, 2, 2, 5)   # needs m < n
    with pytest.raises(PreconditionError):
        doubling_check(m, 4, 2, 1)


def test_doubling_check_holds_wherever_preconditions_do():
    for entry in CORPUS:
        m = entry.map()
        values = critical_orbit(m, 6).values
        for n in range(2, 7):
            try:
                fac = factorize(values[n - 1])
            except ZeroInputError:
                continue
            for p, _ in fac.factors:
                for mm in range(1, n):
                    if values[mm - 1] % p == 0:
                        assert doubling_check(m, n, mm, p) is True

