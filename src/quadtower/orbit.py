"""Exact big-integer orbits and canonical heights.

Orbit values double in bit length per step, so every iterating routine runs
under a configurable bit budget and converts runaway growth into a clean
DigitBudgetError carrying whatever was already computed.

Every walked orbit is one Orbit: walked once in exact decimal arithmetic
(bigpoly.decimal_orbit), which checks the budget and gives the printed rows,
and stepped in ints only as far as exact values are read (exact_prefix).
orbit() walks the orbit of b from index 0.  The critical orbit is the Orbit
of gamma_a read from index 1, a CriticalOrbit, which adds the square test
and the stripped witnesses; critical_orbit and the verdicts of galois read
the critical orbit through one.
"""

from __future__ import annotations

import decimal
import json
import math
from fractions import Fraction
from itertools import islice

# DigitBudgetError is importable from here as well as from bigpoly
from quadtower.bigpoly import (DEFAULT_MAX_BITS, DigitBudgetError, check_bits, decimal_bit_length,
                               decimal_difference, decimal_isqrt, decimal_orbit, decimal_quotient,
                               height_int, is_perfect_square, parse_int,
                               passes_square_filter, square_filter_modulus)
from quadtower.family import SpecializedMap

_LOG2 = math.log(2.0)


class OrbitRows(list):
    """Orbit values as exact integer decimal.Decimal values, numbered from
    first: 0 for the orbit of b, 1 for the critical orbit.  Renders as rows;
    DigitBudgetError.partial carries the values walked before the budget ran
    out as one."""

    def __init__(self, first: int, values=()):
        super().__init__(values)
        self.first = first

    def to_json_dict(self) -> list[dict]:
        """One row {"n", "value", "bits"} per value, read off the Decimal."""
        return [{"n": n, "value": str(x), "bits": decimal_bit_length(x)}
                for n, x in enumerate(self, start=self.first)]

    def text_lines(self):
        return (f"{r['n']}: {r['value']} ({r['bits']} bits)" for r in self.to_json_dict())


def exact_prefix(map: SpecializedMap, orbit: list[int], k: int) -> list[int]:
    """The list orbit of consecutive orbit values, extended in place by
    stepping phi_a until it reaches index k."""
    while len(orbit) <= k:
        orbit.append(map.apply(orbit[-1]))
    return orbit


class Orbit:
    """The orbit phi_a^n(start), read from index first on: 0 for the orbit
    of b, 1 for the critical orbit.

    walk(count, max_bits) steps the orbit once in exact decimal arithmetic
    (decimal_orbit) and keeps the count values from index first on as rows,
    an OrbitRows(first); an orbit is walked once.  value(k) and values build
    exact ints from start (the exact prefix v) only when they are read.
    """

    def __init__(self, map: SpecializedMap, start: int, first: int = 0):
        self.map = map
        self.start = start
        self.rows = OrbitRows(first)  # as walked, from index first
        self.v = [start]  # phi_a^0(start), phi_a^1(start), ... as ints

    def walk(self, count: int, max_bits: int = DEFAULT_MAX_BITS) -> Orbit:
        """Walk the count values from index first on, each an exact
        decimal.Decimal; one over max_bits raises DigitBudgetError carrying
        the rows below it.  The values before index first are skipped, not
        checked."""
        if count < 1:
            raise ValueError("depth must be >= 1")
        m, rows = self.map, self.rows
        for x in islice(decimal_orbit(m.gamma_a, m.c_a, self.start), rows.first, rows.first + count):
            check_bits(x, max_bits, "orbit value", rows)
            rows.append(x)
        return self

    def value(self, k: int) -> int:
        """phi_a^k(start), exactly; the values up to index k are kept."""
        return exact_prefix(self.map, self.v, k)[k]

    @property
    def values(self) -> tuple[int, ...]:
        """The walked values as ints."""
        first = self.rows.first
        last = first + len(self.rows) - 1
        return tuple(exact_prefix(self.map, self.v, last)[first:last + 1])

    def text_lines(self):
        return self.rows.text_lines()

    def json_lines(self):
        """One JSON object per row: orbit dumps are JSON lines."""
        return map(json.dumps, self.rows.to_json_dict())


class CriticalOrbit(Orbit):
    """The critical orbit v_n = phi_a^n(gamma_a) read from v_1 = c_a, the
    one critical-orbit object: critical_orbit returns one walked, and the
    verdicts of galois (certify_tower, stability_scan and both
    primitive-divisor routes) each walk their own.

    Besides what every Orbit gives (rows, values, value(k)), the walked
    orbit is read through:

    - first_zero: the first walked level whose value is 0, read off rows;
    - condition_one_holds: whether v_1 and v_2 are nonzero, the
      nonsingularity hypothesis behind the curve models;
    - to_json_dict and text_lines: the rows and condition (1);
    - square_root(n): the root of the adjusted value a_n (-c_a at level 1,
      v_n above) when a_n is a square;
    - residue(n, m): v_n mod m;
    - cofactor(n): the part q of v_n built from primes of lower values;
    - stripped_witness(n): the stripped cofactor R = |v_n| / q in decimal,
      and whether it certifies a primitive divisor.

    Both orbits, v and the orbit w_j = phi_a^j(0) of 0, are kept as exact
    prefixes from index 0 (v_0 = gamma_a, w_0 = 0), extended by exact_prefix
    and read modulo m by _residue, which steps from the last exact value.
    cofactor(n) makes v exact up to level n // 2 (at least 1), value(k) up
    to level k, and the rigid gcds extend whichever orbit is smaller (see
    _rigid_gcd).
    """

    def __init__(self, map: SpecializedMap):
        super().__init__(map, map.gamma_a, first=1)
        self.w = [0]  # w_0, w_1, ...
        self.square_modulus = square_filter_modulus()

    @property
    def first_zero(self) -> int | None:
        return next((n for n, x in enumerate(self.rows, start=1) if x.is_zero()), None)

    @property
    def condition_one_holds(self) -> bool:
        # the walk reaches v_2 = v_a^2 + c_a only from depth 2
        m = self.map
        second = self.rows[1] if len(self.rows) >= 2 else m.v_a ** 2 + m.c_a
        return not self.rows[0].is_zero() and second != 0

    def to_json_dict(self) -> dict:
        return {"condition_one_holds": self.condition_one_holds, "values": self.rows.to_json_dict()}

    def text_lines(self):
        yield from super().text_lines()
        yield f"condition (1) holds: {self.condition_one_holds}"

    def _residue(self, orbit: list[int], k: int, m: int) -> int:
        """orbit[k] mod m, stepped modulo m from the last exact value.  A
        negative last value above -m is stepped as it is: its residue would
        be as wide as m before it is squared."""
        if k < len(orbit):
            return orbit[k] % m
        x, steps = orbit[-1], k + 1 - len(orbit)
        if -m < x < 0:
            x, steps = self.map.apply(x) % m, steps - 1
        for _ in range(steps):
            x = self.map.apply_mod(x, m)
        return x

    def residue(self, n: int, m: int) -> int:
        """v_n mod m."""
        return self._residue(self.v, n, m)

    def square_root(self, n: int):
        """The square root, as a Decimal, of the adjusted value a_n (-c_a at
        level 1, v_n above) of the walked orbit; None when a_n is no square.

        Decided exactly, from c_a at level 1 and from v_(n-1) above: there
        a_n = y^2 + c_a with y = v_(n-1) - gamma_a.  With c_a = 0 the root is
        |y|.  Otherwise s^2 - y^2 = c_a forces |y| <= |c_a|, so only a y that
        small is tested, as an int.
        """
        c = self.map.c_a
        if n == 1:
            a = -c
        else:
            y = decimal_difference(self.rows[n - 2], self.map.gamma_a).copy_abs()
            if c == 0:
                return y
            if y > self.rows[0].copy_abs():  # rows[0] is c_a
                return None
            a = parse_int(str(y)) ** 2 + c  # int(y) is quadratic in y's digits
        root = is_perfect_square(a)
        return None if root is None else decimal.Decimal(root)

    def _rigid_gcd(self, n: int, k: int) -> int:
        """gcd(v_n, v_k) for 1 <= k < n, where v_k is nonzero.

        phi_a has integer coefficients, so v_n = phi_a^j(v_k) is congruent
        to w_j mod v_k (j = n - k), and gcd(v_n, v_k) = gcd(v_k, w_j).  One
        of v_k and w_j is made exact and the other is reduced modulo it.
        w_j = 0 makes the gcd |v_k| itself.

        Until one of the two is exact, the orbit whose last exact value is
        smaller takes the next step, so about the cheaper one is built: the
        bounded one when only one orbit escapes, and mostly w_j, below level
        n / 2, when both do.
        """
        j = n - k
        v, w = self.v, self.w
        while k >= len(v) and j >= len(w):
            smaller = v if abs(v[-1]) <= abs(w[-1]) else w
            exact_prefix(self.map, smaller, len(smaller))
        if k < len(v):
            m = abs(v[k])
            return math.gcd(m, self._residue(w, j, m))
        if w[j] == 0:
            return abs(self.value(k))
        m = abs(w[j])
        return math.gcd(m, self._residue(v, k, m))

    def cofactor(self, n: int) -> int:
        """q, the largest divisor of v_n != 0 built from the primes of
        P = 2 * lcm(gcd(v_n, v_k) : k < n); |v_n| / q is the stripped
        cofactor R.  None of v_1..v_(n-1) may be 0.

        q_E = gcd(v_n, P^E) grows with E until every prime of P is
        saturated, and q_E = q_2E means it is: a prime p with p^a exactly
        dividing v_n gives the same part of both only if a <= E * v_p(P).
        """
        self.value(max(1, n // 2))
        # a list, not a generator: CPython builds a generator's argument tuple
        # by resizing, so each call moved one tuple between free lists, which
        # grew by megabytes over many calls until a full collection
        modulus = 2 * math.lcm(*[self._rigid_gcd(n, k) for k in range(1, n)])
        q = math.gcd(self.residue(n, modulus), modulus)
        while True:
            modulus *= modulus
            nxt = math.gcd(self.residue(n, modulus), modulus)
            if nxt == q:
                return q
            q = nxt

    def stripped_witness(self, n: int) -> tuple[str, bool]:
        """(R in decimal, certified) for the walked level n, whose value is
        nonzero, with none of the lower values 0.

        R = |v_n| / q, the stripped cofactor of v_n against all lower values,
        is odd, unramified below, and keeps full valuations (stripping removes
        whole primes, and gcd(v_n, v_k) has exactly the primes v_n shares with
        v_k).  So R > 1 and not a square certify a square-free primitive
        prime divisor.  R is a square only if (v_n mod q * M) / q, its residue
        up to sign modulo M = square_filter_modulus(), passes the filter and
        the exact root of R's decimal value squares back to it.
        """
        x, q = self.rows[n - 1], self.cofactor(n)
        r = decimal_quotient(x.copy_abs(), q)
        certified = False
        if r > 1:
            m = self.square_modulus
            residue = self.residue(n, q * m) // q
            if x < 0:
                residue = -residue % m
            certified = not passes_square_filter(residue) or decimal_isqrt(r) is None
        return str(r), certified


def orbit(map: SpecializedMap, b: int, depth: int, max_bits: int = DEFAULT_MAX_BITS) -> Orbit:
    """The Orbit of b walked to depth: b, ..., phi^depth(b); one value over
    max_bits raises DigitBudgetError carrying those below."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return Orbit(map, int(b)).walk(depth + 1, max_bits)


def critical_orbit(map: SpecializedMap, depth: int, max_bits: int = DEFAULT_MAX_BITS) -> CriticalOrbit:
    """The CriticalOrbit of map walked to depth: critical values
    phi_a^n(gamma_a) for n = 1..depth (so values[0] = c_a)."""
    return CriticalOrbit(map).walk(depth, max_bits)


def canonical_height(
    map: SpecializedMap,
    x: "int | Fraction",
    eps: float,
    max_bits: int = DEFAULT_MAX_BITS,
) -> float:
    """Canonical height of x under sigma_a = x^2 + v_a, within eps.

    Returns h(sigma_a^k(x)) / 2^k for the smallest k with
    (h(v_a) + log 2) / 2^k <= eps; the depth is fixed a priori from that
    error bound, so results are deterministic.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    err = height_int(map.v_a) + _LOG2
    k = 0
    while err > eps * (1 << k):
        k += 1
    cur = Fraction(x)
    for _ in range(k):
        cur = map.apply_sigma(cur)
        check_bits(max(abs(cur.numerator), cur.denominator), max_bits, "orbit value")
    return height_int(cur) / (1 << k)

