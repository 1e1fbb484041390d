"""Exact big-integer orbits and canonical heights.

Orbit values double in bit length per step, so every iterating routine runs
under budget.max_bits, the bit budget of a factor.Budget (2^20 by default),
and turns runaway growth into a clean bigpoly.DigitBudgetError carrying
whatever was already computed; the error is imported from bigpoly, not here.

Every orbit is walked by one function, _walk, in exact decimal arithmetic
(bigpoly.decimal_orbit(map, start), self-checked by map.apply_mod), which
checks the budget and gives the printed rows, an OrbitRows.  orbit() returns
the rows of the orbit of b from index 0.  An Orbit is the exact prefix of an
orbit in ints, stepped only as far as exact values are read (Orbit.value) or
read modulo m from the last exact one (Orbit.residue).  The critical orbit
is the orbit of gamma_a read from index 1, a CriticalOrbit built on its
walked rows, which adds the square test and the stripped witnesses, none at
or above a zero; critical_orbit walks one for every verdict of galois.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

from quadtower.bigpoly import (_to_decimal, check_bits, decimal_bit_length, decimal_difference,
                               decimal_orbit, decimal_quotient, height_int, is_perfect_square,
                               parse_int, passes_square_filter, square_filter_modulus)
from quadtower.factor import DEFAULT_BUDGET, Budget
from quadtower.family import SpecializedMap

_LOG2 = math.log(2.0)


class OrbitRows(list):
    """Orbit values as exact integer decimal.Decimal values, numbered from
    first: 0 for the orbit of b, 1 for the critical orbit.  Renders as rows;
    DigitBudgetError.partial carries the values walked before the budget ran
    out as one."""

    def __init__(self, first: int):
        super().__init__()
        self.first = first

    def to_json_dict(self) -> list[dict]:
        """One row {"n", "value", "bits"} per value, read off the Decimal."""
        return [{"n": n, "value": str(x), "bits": decimal_bit_length(x)}
                for n, x in enumerate(self, start=self.first)]

    def text_lines(self):
        return (f"{r['n']}: {r['value']} ({r['bits']} bits)" for r in self.to_json_dict())


def _walk(map: SpecializedMap, start: int, first: int, count: int, budget: Budget) -> OrbitRows:
    """The count values phi_a^n(start) from index first on, stepped in
    exact decimal arithmetic (decimal_orbit); one over budget.max_bits raises
    DigitBudgetError carrying the rows below it.  The values before index
    first are skipped, not checked."""
    if count < 1:
        raise ValueError("depth must be >= 1")
    rows = OrbitRows(first)
    for x in islice(decimal_orbit(map, start), first, first + count):
        check_bits(x, budget.max_bits, "orbit value", rows)
        rows.append(x)
    return rows


class Orbit:
    """The exact prefix v = [start, phi_a(start), ...] of the orbit of
    start, as ints: value(k) grows it only as far as it is read, and
    residue(k, m) steps modulo m from its last value."""

    def __init__(self, map: SpecializedMap, start: int):
        self.map = map
        self.v = [start]  # phi_a^0(start), phi_a^1(start), ... as ints

    def value(self, k: int) -> int:
        """phi_a^k(start), exactly; the values up to index k are kept."""
        v = self.v
        while len(v) <= k:
            v.append(self.map.apply(v[-1]))
        return v[k]

    def residue(self, k: int, m: int) -> int:
        """phi_a^k(start) mod m, stepped modulo m from the last exact value.
        A negative last value above -m is stepped as it is: its residue
        would be as wide as m before it is squared."""
        v = self.v
        if k < len(v):
            return v[k] % m
        x, steps = v[-1], k + 1 - len(v)
        if -m < x < 0:
            x, steps = self.map.apply(x) % m, steps - 1
        for _ in range(steps):
            x = self.map.apply_mod(x, m)
        return x


class CriticalOrbit(Orbit):
    """The critical orbit v_n = phi_a^n(gamma_a) read from v_1 = c_a, the
    one critical-orbit object, built on its walked rows (an OrbitRows(1)):
    critical_orbit returns one, which every verdict of galois reads.

    Besides the exact prefix of every Orbit (value(k), residue(n, m)), the
    walked orbit is read through:

    - values: the walked values as ints, from an Orbit of their own, so a
      read leaves the exact prefix the verdicts extend as it was;
    - first_zero: the first walked level whose value is 0, read off rows;
    - condition_one_holds: whether v_1 and v_2 are nonzero, the
      nonsingularity hypothesis behind the curve models;
    - to_json_dict and text_lines: the rows and condition (1);
    - square_root(n): the root of the adjusted value a_n (-c_a at level 1,
      v_n above) when a_n is a square;
    - stripped_witness(n): the stripped cofactor R = |v_n| / q in decimal,
      and whether it certifies a primitive divisor; (None, False) at and
      above a zero, where every prime divides some value up to level n;
      both refuse a level outside 1..len(rows) with a ValueError.

    The orbit w_j = phi_a^j(0) of 0 is the Orbit w, so both orbits keep
    exact prefixes from index 0 (v_0 = gamma_a, w_0 = 0), grown by
    Orbit.value and read modulo m by Orbit.residue.  _cofactor(n) makes v
    exact up to level n // 2 (at least 1), value(k) up to level k, and the
    rigid gcds extend whichever orbit is smaller (see _rigid_gcd).
    """

    def __init__(self, map: SpecializedMap, rows: OrbitRows):
        super().__init__(map, map.gamma_a)
        self.rows = rows  # v_1, v_2, ... as walked
        self.w = Orbit(map, 0)  # the orbit of 0, read by _rigid_gcd

    @property
    def values(self) -> tuple[int, ...]:
        """The walked values v_1, v_2, ... as ints."""
        orbit = Orbit(self.map, self.map.gamma_a)
        return tuple(orbit.value(k) for k in range(1, len(self.rows) + 1))

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
        yield from self.rows.text_lines()
        yield f"condition (1) holds: {self.condition_one_holds}"

    def square_root(self, n: int):
        """The square root, as a Decimal, of the adjusted value a_n (-c_a at
        level 1, v_n above) of the walked orbit; None when a_n is no square.

        Decided exactly, from c_a at level 1 and from v_(n-1) above: there
        a_n = y^2 + c_a with y = v_(n-1) - gamma_a.  With c_a = 0 the root is
        |y|.  Otherwise s^2 - y^2 = c_a forces |y| <= |c_a|, so only a y that
        small is tested, as an int.
        """
        self._check_level(n)
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
        return None if root is None else _to_decimal(root)

    def _check_level(self, n: int) -> None:
        if not 1 <= n <= len(self.rows):  # rows[n - 1] is v_n only there
            raise ValueError("level must be in 1..the orbit's depth")

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
        j, w = n - k, self.w
        while k >= len(self.v) and j >= len(w.v):
            smaller = self if abs(self.v[-1]) <= abs(w.v[-1]) else w
            smaller.value(len(smaller.v))
        if k < len(self.v):
            m = abs(self.v[k])
            return math.gcd(m, w.residue(j, m))
        if w.v[j] == 0:
            return abs(self.value(k))
        m = abs(w.v[j])
        return math.gcd(m, self.residue(k, m))

    def _cofactor(self, n: int) -> int:
        """q, the largest divisor of v_n != 0 built from the primes of
        P = 2 * lcm(gcd(v_n, v_k) : k < n); |v_n| / q is the stripped
        cofactor R.  None of v_1..v_n may be 0 (stripped_witness sees to it).

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

    def stripped_witness(self, n: int) -> tuple[str | None, bool]:
        """(R in decimal, certified) for the walked level n; (None, False)
        when some value up to level n is 0, as nothing is primitive there.

        R = |v_n| / q, the stripped cofactor of v_n against all lower values,
        is odd, unramified below, and keeps full valuations (stripping removes
        whole primes, and gcd(v_n, v_k) has exactly the primes v_n shares with
        v_k).  So R > 1 and not a square certify a square-free primitive
        prime divisor.  R is a square only if (v_n mod q * M) / q, its residue
        up to sign modulo M = square_filter_modulus(), passes the filter and
        is_perfect_square finds a root of R, read back from its decimal text
        by parse_int; almost no non-square gets that far.
        """
        self._check_level(n)
        if (zero := self.first_zero) is not None and zero <= n:
            return None, False
        x, q = self.rows[n - 1], self._cofactor(n)
        r = decimal_quotient(x.copy_abs(), q)
        text, certified = str(r), False
        if r > 1:
            m = square_filter_modulus()
            residue = self.residue(n, q * m) // q
            if x < 0:
                residue = -residue % m
            certified = (not passes_square_filter(residue)
                         or is_perfect_square(parse_int(text)) is None)
        return text, certified


def orbit(map: SpecializedMap, b: int, depth: int, budget: Budget = DEFAULT_BUDGET) -> OrbitRows:
    """The rows of the orbit of b walked to depth: b, ..., phi^depth(b); one
    value over budget.max_bits raises DigitBudgetError carrying those below."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return _walk(map, int(b), 0, depth + 1, budget)


def critical_orbit(map: SpecializedMap, depth: int,
                   budget: Budget = DEFAULT_BUDGET) -> CriticalOrbit:
    """The CriticalOrbit of map walked to depth: critical values
    phi_a^n(gamma_a) for n = 1..depth (so values[0] = c_a)."""
    return CriticalOrbit(map, _walk(map, map.gamma_a, 1, depth, budget))


def canonical_height(
    map: SpecializedMap, x: "int | Fraction", eps: float, budget: Budget = DEFAULT_BUDGET
) -> float:
    """Canonical height of x under sigma_a = x^2 + v_a, within eps.

    Returns h(sigma_a^k(x)) / 2^k for the smallest k with
    (h(v_a) + log 2) / 2^k <= eps; the depth is fixed a priori from that
    error bound, so results are deterministic.
    """
    if not eps > 0:  # NaN too
        raise ValueError("eps must be positive")
    err = height_int(map.v_a) + _LOG2
    k = 0
    while err > eps * (1 << k):
        k += 1
    cur = Fraction(x)
    for _ in range(k):
        cur = map.apply_sigma(cur)
        check_bits(max(abs(cur.numerator), cur.denominator), budget.max_bits, "orbit value")
    return height_int(cur) / (1 << k)

