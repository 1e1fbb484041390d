"""Desk-scale integer factorization and prime tables.

One segmented sieve feeds every prime table: the trial-division table (an
array('I') per bound), the prime-power products of p-1 and ECM stage 1, the
ECM stage-2 plan and the density sweep's base primes and shards.

Trial division, Pollard p-1 stage 1 to B1 = rho_iters // 100, Brent-variant
Pollard rho in whole rounds within min(rho_iters, 2^17) map evaluations
(131,070 at the cap), then elliptic-curve factoring (ECM) with the rest of
rho_iters; strong-probable-prime tests and square-free decompositions
2^e * d * y^2.  Everything is deterministic given the budget and its seed.
stripped_cofactor strips a value against earlier values by plain gcds; the
tower certificates get the same cofactor from residues instead
(orbit.CriticalOrbit.stripped_witness), so no CLI command calls it.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from array import array
from typing import Iterator, NamedTuple

from quadtower.bigpoly import BudgetError, FrozenSlots, decimal_str, is_perfect_square


class ZeroInputError(ValueError):
    """Zero was passed where a nonzero integer is required."""


class IncompleteFactorizationError(BudgetError):
    """The factoring budget ran out; .partial is the Factorization that
    stopped, whose cofactor holds what was not factored."""

    error = "incomplete-factorization"


# Trial division walks prime_table(trial_bound), which the segmented sieve
# builds in about 0.4 s at 10^7 and stores in 2.7 MB: 664,579 four-byte
# entries (Python 3.11, 2 vCPUs)
MAX_TRIAL_BOUND = 10 ** 7
# p-1 stage 1 raises 2 to the product of the prime powers <= rho_iters // 100.
# That product took 0.02 s to build at the default 10^7, 0.1 s at the cap and
# 3 s at 10^8, where its growth is quadratic (Python 3.11, 2 vCPUs)
MAX_RHO_ITERS = 2 * 10 ** 7
# The largest max_bits: at 2^22 the slowest command, discriminant just past
# its budget, took about 1.5 s (2^23: 6 s, 2^24: 13 s; Python 3.11, 2 vCPUs).
MAX_BITS = 1 << 22
# factorize returns a number above this many bits unfactored.  On a 2,048-bit
# semiprime the default budget's p-1 took 2.5 s, rho 3.7 s and each of its
# 164 ECM curves 1.0 s, about 175 s in all (CPython 3.11.7, 2 vCPUs); level
# 13 of x^2 + 1 (2,408 bits) was still being factored after 60 s.
MAX_FACTOR_BITS = 2048


class Budget(FrozenSlots):
    """The limits of one call, each an int; defaults favour reproducibility.

    trial_bound -- trial-divide by primes up to this bound, at most 10^7
    rho_iters   -- factoring effort per composite cofactor, in Brent rho
                   iterations, at most 2 * 10^7: p-1 stage 1 runs first to
                   B1 = rho_iters // 100, then rho in whole Brent rounds
                   within min(rho_iters, 2^17) map evaluations (131,070 at
                   the cap), then (rho_iters - 2^17) // 60,000 ECM curves
                   (14 at 10^6, 164 at 10^7), each costing at most about
                   60,000 rho iterations of wall time; up to 2^17 no curve
                   runs
    seed        -- seeds rho parameters and the large Miller-Rabin bases
    max_bits    -- the bit budget, at most 2^22: an orbit value, discriminant
                   or index bound above it raises bigpoly.DigitBudgetError;
                   the default 2^20 (phi^15(gamma) of a small map is ~32k
                   bits) stops runaway doubling early
    """

    __slots__ = _fields = ("trial_bound", "rho_iters", "seed", "max_bits")

    def __init__(self, trial_bound: int = 10 ** 6, rho_iters: int = 10 ** 7, seed: int = 0,
                 max_bits: int = 1 << 20):
        values = (trial_bound, rho_iters, seed, max_bits)
        if wrong := [name for name, v in zip(self._fields, values) if not isinstance(v, int)]:
            raise ValueError(f"{wrong[0]} must be an int")
        if not 2 <= trial_bound <= MAX_TRIAL_BOUND:
            raise ValueError(f"trial_bound must be in [2, {MAX_TRIAL_BOUND}]")
        if rho_iters < 0:
            raise ValueError("rho_iters must be >= 0")
        if rho_iters > MAX_RHO_ITERS:
            raise ValueError(f"rho_iters must be <= {MAX_RHO_ITERS}")
        if not 1 <= max_bits <= MAX_BITS:
            raise ValueError(f"max_bits must be in [1, {MAX_BITS}]")
        self._set(*values)


DEFAULT_BUDGET = Budget()

# Deterministic strong-probable-prime bases; complete below 2^64.
_MR_BASES_SMALL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Seeded random strong-probable-prime rounds for inputs >= 2^64.
MR_ROUNDS = 40


class Factorization(NamedTuple):
    """sign * prod(p^e) * cofactor == the input; cofactor > 1 means
    incomplete, and the property complete reads cofactor == 1."""

    sign: int
    factors: tuple[tuple[int, int], ...]
    cofactor: int

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    def value(self) -> int:
        out = self.sign
        for p, e in self.factors:
            out *= p ** e
        return out * self.cofactor

    def to_json_dict(self) -> dict:
        return {
            "sign": self.sign,
            "factors": [[decimal_str(p), e] for p, e in self.factors],
            "cofactor": decimal_str(self.cofactor),
            "complete": self.complete,
        }


class SquareFreeDecomposition(NamedTuple):
    """value == 2^e * d * y^2 with e in {0, 1}, d odd and square-free.

    d carries the sign of the input; y >= 1.
    """

    e: int
    d: int
    y: int

    def value(self) -> int:
        return (1 << self.e) * self.d * self.y * self.y


# -- primes ------------------------------------------------------------------

# The segmented sieve flags SEGMENT_SIZE integers at a time, in about 1.5
# bytes each while a segment is crossed off.  The primes up to 10^7 took
# 0.43 s at 2^16, 0.41 s at 2^18 and 2^20, and 1.2 s at 2^12 (Python 3.11,
# 2 vCPUs), so a larger segment buys little time for its memory.
SEGMENT_SIZE = 2 ** 16


def primes_in_range(lo: int, hi: int) -> Iterator[int]:
    """The primes in [lo, hi] in increasing order, by a segmented sieve.

    Each segment is a bytearray of SEGMENT_SIZE flags, crossed off by the
    cached prime_table up to a power of two >= sqrt(hi), so the shards of one
    density sweep share a few base tables.
    """
    start = max(lo, 2)
    if hi < start:
        return
    # the base bound is below hi for every hi >= 2, so the recursion ends
    base = prime_table(1 << (math.isqrt(hi) - 1).bit_length())
    while start <= hi:
        end = min(start + SEGMENT_SIZE - 1, hi)
        flags = bytearray([1]) * (end - start + 1)
        for p in base:
            if p * p > end:
                break
            # crossing off starts at p^2, so the base primes stay flagged
            first = max(p * p, (start + p - 1) // p * p)
            flags[first - start :: p] = bytes(len(range(first, end + 1, p)))
        yield from itertools.compress(range(start, end + 1), flags)
        start = end + 1


@functools.lru_cache(maxsize=8)
def prime_table(bound: int) -> array:
    """The primes <= bound as a compact array('I'); the last few bounds are
    cached."""
    return array("I", primes_in_range(2, bound))


def is_probable_prime(n: int, budget: Budget = DEFAULT_BUDGET) -> bool:
    """Strong-probable-prime test.

    Deterministic (and in fact exact) for n < 2^64 via a fixed base set;
    above that, MR_ROUNDS random bases seeded by budget.seed.
    """
    if n < 2:
        return False
    for p in _MR_BASES_SMALL:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    if n >> 64:
        rng = random.Random(f"sprp:{decimal_str(budget.seed)}:{decimal_str(n)}")
        bases = [rng.randrange(2, n - 1) for _ in range(MR_ROUNDS)]
    else:
        bases = _MR_BASES_SMALL
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, rng: random.Random, max_iters: int) -> int | None:
    """Brent's cycle variant of Pollard rho; returns a nontrivial factor of
    the odd composite n, or None once max_iters map evaluations are spent.

    The walk runs in rounds of r = 1, 2, 4, ... that each cost 2r map
    evaluations, and only whole rounds that fit in max_iters run: k rounds
    spend 2(2^k - 1), so 131,070 at max_iters = 2^17.  When the next round
    does not fit, no fresh parameters are drawn from rng.
    """
    used = 0
    while used + 2 <= max_iters:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n - 1)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            if used + 2 * r > max_iters:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            used += r
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                used += min(m, r - k)
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
        # the cycle collapsed: every factor of n appeared at once; retry fresh
    return None


@functools.lru_cache(maxsize=8)
def _prime_power_product(bound: int) -> int:
    """The product of the maximal prime powers <= bound: every integer whose
    prime powers are all <= bound divides it.  The last few bounds are cached:
    every ECM curve uses the one at B1."""
    e = 1
    for p in primes_in_range(2, bound):
        q = p
        while q * p <= bound:
            q *= p
        e *= q
    return e


def _pollard_pm1(n: int, bound: int) -> int | None:
    """Pollard p-1 stage 1 with base 2 on the odd composite n.

    Returns a nontrivial factor when some prime p | n has the order of 2
    mod p dividing the product of the prime powers <= bound (so whenever
    p - 1 divides it), and None when no prime or every prime of n does.
    """
    if bound < 2:
        return None
    g = math.gcd(pow(2, _prime_power_product(bound), n) - 1, n)
    return g if 1 < g < n else None


def _xdbl(p: tuple[int, int], a24: int, n: int) -> tuple[int, int]:
    """x(2P) from x(P) = (X:Z) mod n on the Montgomery curve with
    (A + 2) / 4 = a24."""
    s, d = (p[0] + p[1]) ** 2 % n, (p[0] - p[1]) ** 2 % n
    t = s - d
    return s * d % n, t * (d + a24 * t) % n


def _xadd(p: tuple[int, int], q: tuple[int, int], diff: tuple[int, int], n: int) -> tuple[int, int]:
    """x(P + Q) from x(P), x(Q) and x(P - Q), all projective (X:Z) mod n."""
    u = (p[0] - p[1]) * (q[0] + q[1]) % n
    v = (p[0] + p[1]) * (q[0] - q[1]) % n
    return diff[1] * (u + v) ** 2 % n, diff[0] * (u - v) ** 2 % n


def _ladder(k: int, x: int, a24: int, n: int) -> tuple[int, int]:
    """x(k*P) = (X:Z) mod n for k >= 1 from the affine x(P) = x by the
    Montgomery ladder, which keeps the pair (j*P, (j + 1)*P) = (x0:z0),
    (x1:z1) so that each addition knows its difference P = (x:1).  A 0 bit
    doubles the first point and adds; a 1 bit does the same with the pair
    swapped before and after, so each bit costs one _xdbl and one _xadd,
    written out here."""
    x0, z0 = x, 1
    x1, z1 = _xdbl((x, 1), a24, n)
    for bit in bin(k)[3:]:
        if bit == "1":
            x0, z0, x1, z1 = x1, z1, x0, z0
        # _xadd of the pair, whose difference is (x:1)
        u = (x0 - z0) * (x1 + z1) % n
        v = (x0 + z0) * (x1 - z1) % n
        x1, z1 = (u + v) ** 2 % n, x * ((u - v) ** 2 % n) % n
        # _xdbl of the first point
        s, d = (x0 + z0) ** 2 % n, (x0 - z0) ** 2 % n
        t = s - d
        x0, z0 = s * d % n, t * (d + a24 * t) % n
        if bit == "1":
            x0, z0, x1, z1 = x1, z1, x0, z0
    return x0, z0


# rho spends at most _RHO_ITERS_CAP map evaluations per composite cofactor;
# the rest of rho_iters buys ECM curves at _ECM_CURVE_COST evaluations each.
# One curve took the wall time of 30-36k rho map evaluations on 123-788-bit
# cofactors (CPython 3.11.7 on a 2-core x86-64 host, best of 7 runs), so the
# curves take no longer than the rho evaluations they replace.
_RHO_ITERS_CAP = 1 << 17
_ECM_CURVE_COST = 60_000
_ECM_B1 = 2000
_ECM_B2 = 100 * _ECM_B1
_ECM_D = 2310  # 2*3*5*7*11
_ECM_BABIES = tuple(j for j in range(1, _ECM_D // 2, 2) if math.gcd(j, _ECM_D) == 1)


@functools.cache
def _ecm_stage2_plan() -> tuple[bytes, ...]:
    """Entry m - 1 lists the baby steps j (as indices into _ECM_BABIES, one
    byte each: there are 240) that pair with the giant step m*D: each prime
    p in (B1, B2] is m*D +- j with 0 < j < D/2 and gcd(j, D) = 1, and
    x(m*D*Q) = x(j*Q) mod p exactly when (m*D + j)*Q or (m*D - j)*Q vanishes
    mod p."""
    index = {j: i for i, j in enumerate(_ECM_BABIES)}
    plan: list[list[int]] = [[] for _ in range((_ECM_B2 + _ECM_D // 2) // _ECM_D)]
    for p in primes_in_range(_ECM_B1 + 1, _ECM_B2):
        m = (p + _ECM_D // 2) // _ECM_D
        plan[m - 1].append(index[abs(p - m * _ECM_D)])
    return tuple(bytes(sorted(set(row))) for row in plan)


def _ecm(n: int, rng: random.Random, curves: int) -> int | None:
    """Lenstra's elliptic-curve method on the odd composite n: up to `curves`
    curves, each with its sigma drawn from rng.  Returns a nontrivial
    factor, or None when every curve failed."""
    for _ in range(curves):
        g = _ecm_curve(n, rng.randrange(6, 1 << 32))
        if 1 < g < n:
            return g
    return None


def _ecm_curve(n: int, sigma: int) -> int:
    """One ECM curve: the x-only Montgomery curve of Suyama's
    parametrization at sigma, stage 1 to B1 = _ECM_B1 and Montgomery's
    baby-step giant-step stage 2 to B2 = _ECM_B2.

    Returns a divisor of n found along the way: 1 or n when the curve failed.
    A failed inversion of the curve's start or of any stage-2 step's Z is a
    find like any other.
    """
    u = (sigma * sigma - 5) % n
    v = 4 * sigma % n
    # one inversion gives both a24 = (v - u)^3 (3u + v) / (16 u^3 v) and the
    # normalized start x = u^3 / v^3
    u3, v3 = pow(u, 3, n), pow(v, 3, n)
    den = 16 * u3 * v3 % n
    g = math.gcd(den, n)
    if g != 1:
        return g
    w = pow(den, -1, n)
    a24 = pow(v - u, 3, n) * (3 * u + v) * v * v * w % n
    q = _ladder(_prime_power_product(_ECM_B1), 16 * u3 * u3 * w % n, a24, n)
    g = math.gcd(q[1], n)
    if g != 1:
        return g
    # baby steps j*Q for odd j < D/2, keeping those coprime to D
    q2 = _xdbl(q, a24, n)
    odd = [q, _xadd(q2, q, q, n)]
    while len(odd) < _ECM_D // 4:
        odd.append(_xadd(odd[-1], q2, odd[-2], n))
    babies = [odd[j // 2] for j in _ECM_BABIES]
    # giant steps m*D*Q, m = 1, 2, ...
    step = _ladder(_ECM_D, q[0] * pow(q[1], -1, n) % n, a24, n)
    plan = _ecm_stage2_plan()
    giants = [step, _xdbl(step, a24, n)]
    while len(giants) < len(plan):
        giants.append(_xadd(giants[-1], step, giants[-2], n))
    # one inversion gives the affine x of every baby and giant step.  A Z
    # with no inverse mod n is a find like any other: j*Q or m*D*Q is the
    # identity mod some p | n, so p divides that Z
    xs = _affine_xs(babies + giants, n)
    if xs is None:
        g = math.gcd(math.prod(z for _x, z in babies), n)
        return g if g != 1 else math.gcd(math.prod(z for _x, z in giants), n)
    # accumulate x_G - x_j over the plan, one gcd per curve
    acc = 1
    for gx, row in zip(xs[len(babies):], plan):
        for i in row:
            acc = acc * (gx - xs[i]) % n
    return math.gcd(acc, n)


def _affine_xs(points: list[tuple[int, int]], n: int) -> list[int] | None:
    """x = X/Z mod n of each projective (X:Z) in points, by one inversion
    (Montgomery's simultaneous inversion); None when the product of the Z is
    not a unit mod n."""
    prefix = [1]
    for _x, z in points:
        prefix.append(prefix[-1] * z % n)
    if math.gcd(prefix[-1], n) != 1:
        return None
    inv = pow(prefix[-1], -1, n)
    xs = [0] * len(points)
    for i in range(len(points) - 1, -1, -1):
        xs[i] = points[i][0] * prefix[i] % n * inv % n
        inv = inv * points[i][1] % n
    return xs


def factorize(n: int, budget: Budget = DEFAULT_BUDGET) -> Factorization:
    """Factor n by trial division, Pollard p-1 stage 1, Brent rho, then ECM,
    all within budget.rho_iters per composite cofactor.

    Every reported prime passes the strong-probable-prime test; whatever
    resists the budget is returned as a composite cofactor, which makes
    complete False.  An |n| above MAX_FACTOR_BITS bits is returned that way
    at once, untouched.  Deterministic for a fixed budget.

    >>> factorize(4294967297).factors
    ((641, 1), (6700417, 1))
    """
    if n == 0:
        raise ZeroInputError("cannot factor 0")
    sign = -1 if n < 0 else 1
    m = abs(n)
    if m.bit_length() > MAX_FACTOR_BITS:
        return Factorization(sign=sign, factors=(), cofactor=m)
    counts: dict[int, int] = {}
    if m > 1:
        for p in prime_table(budget.trial_bound):
            if p * p > m:
                break
            while m % p == 0:
                counts[p] = counts.get(p, 0) + 1
                m //= p
    # (piece, multiplicity): each piece gets the budget once, whatever its
    # multiplicity
    pending = [(m, 1)] if m > 1 else []
    rng = random.Random(f"rho:{decimal_str(budget.seed)}:{decimal_str(abs(n))}")
    ecm_curves = (budget.rho_iters - _RHO_ITERS_CAP) // _ECM_CURVE_COST
    cofactor = 1
    while pending:
        x, k = pending.pop()
        if x < budget.trial_bound * budget.trial_bound or is_probable_prime(x, budget):
            # no factor below trial_bound survives, so x < bound^2 is prime
            counts[x] = counts.get(x, 0) + k
            continue
        root = is_perfect_square(x)
        if root is not None:
            pending.append((root, 2 * k))
            continue
        f = _pollard_pm1(x, budget.rho_iters // 100)
        if f is None:
            f = _brent_rho(x, rng, min(budget.rho_iters, _RHO_ITERS_CAP))
        if f is None and ecm_curves > 0:
            f = _ecm(x, rng, ecm_curves)
        if f is None:
            cofactor *= x ** k
        else:
            pending += [(f, k), (x // f, k)]
    return Factorization(sign=sign, factors=tuple(sorted(counts.items())), cofactor=cofactor)


def factorize_fully(n: int, budget: Budget) -> Factorization:
    """factorize(n, budget) when it completes; otherwise the one refusal of
    an incomplete factorization, an IncompleteFactorizationError carrying it.

    A value factorize returned untried, above MAX_FACTOR_BITS, is refused by
    naming the cap; one the budget ran out on by naming the cofactor left.
    Every caller shares these two texts.
    """
    fac = factorize(n, budget)
    if not fac.complete:
        bits = fac.cofactor.bit_length()
        raise IncompleteFactorizationError(
            f"a {bits}-bit value is not factored; factoring stops at {MAX_FACTOR_BITS} bits"
            if bits > MAX_FACTOR_BITS
            else f"budget exhausted on cofactor {decimal_str(fac.cofactor)}", fac)
    return fac


def squarefree_decompose(n: int, budget: Budget = DEFAULT_BUDGET) -> SquareFreeDecomposition:
    """Write n as 2^e * d * y^2 with d odd square-free carrying the sign.

    The 2-adic valuation v2 contributes v2 mod 2 to e and floor(v2/2) to y.

    >>> squarefree_decompose(-8)
    SquareFreeDecomposition(e=1, d=-1, y=2)
    """
    fac = factorize_fully(n, budget)
    e, d, y = 0, 1, 1
    for p, k in fac.factors:
        if p == 2:
            e = k & 1
            y <<= k >> 1
        else:
            if k & 1:
                d *= p
            y *= p ** (k >> 1)
    return SquareFreeDecomposition(e=e, d=fac.sign * d, y=y)


def stripped_cofactor(value: int, earlier: list[int] | tuple[int, ...]) -> int:
    """The part of |value| coprime to 2 and to every earlier value.

    No factoring: remove all factors of 2, then repeatedly divide by
    gcds with each earlier value until coprime.  Every prime p of the result
    satisfies v_p(result) = v_p(value), p odd, and p divides no earlier value.
    """
    if value == 0:
        raise ZeroInputError("cannot strip 0")
    if any(e == 0 for e in earlier):
        raise ZeroInputError("earlier values must be nonzero")
    r = abs(value)
    r >>= (r & -r).bit_length() - 1
    for e in earlier:
        g = math.gcd(r, e)
        while g > 1:
            r //= g
            g = math.gcd(r, e)
    return r
