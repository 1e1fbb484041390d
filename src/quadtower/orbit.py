"""Exact big-integer orbits, conjugation identities, and canonical heights.

Orbit values double in bit length per step, so every iterating routine runs
under a configurable bit budget and converts runaway growth into a clean
DigitBudgetError carrying whatever was already computed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import NamedTuple

# DigitBudgetError is importable from here as well as from bigpoly
from quadtower.bigpoly import DEFAULT_MAX_BITS, DigitBudgetError, check_bits, decimal_orbit, height_int
from quadtower.family import SpecializedMap

_LOG2 = math.log(2.0)


class PostCriticallyFiniteError(ValueError):
    """The check only applies to wandering critical orbits (v not in {0,-1,-2})."""


class OrbitRows(list):
    """Orbit values v_i with v_(i+1) = map(v_i), numbered from first: 0 for
    the orbit of b, 1 for the critical orbit.  A plain list of ints that also
    renders as rows; DigitBudgetError.partial carries the values computed
    before the budget ran out as one."""

    def __init__(self, map: SpecializedMap, first: int, values=()):
        super().__init__(values)
        self.map = map
        self.first = first

    def to_json_dict(self) -> list[dict]:
        """One row {"n", "value", "bits"} per value; the decimal text comes
        from stepping the orbit once in decimal arithmetic (decimal_orbit)."""
        texts = decimal_orbit(self.map.gamma_a, self.map.c_a, self[0]) if self else ()
        return [{"n": n, "value": str(x), "bits": v.bit_length()}
                for n, (v, x) in enumerate(zip(self, texts), start=self.first)]

    def text_lines(self):
        return (f"{r['n']}: {r['value']} ({r['bits']} bits)" for r in self.to_json_dict())


class OrbitSlice(NamedTuple):
    """values[n] = phi_a^n(start) for n = 0..N, exactly."""

    map: SpecializedMap
    start: int
    values: tuple[int, ...]

    def text_lines(self):
        return OrbitRows(self.map, 0, self.values).text_lines()

    def json_lines(self):
        """One JSON object per row: orbit dumps are JSON lines."""
        return map(json.dumps, OrbitRows(self.map, 0, self.values).to_json_dict())


class CriticalOrbit(NamedTuple):
    """values[n-1] = phi_a^n(gamma_a) for n = 1..N.

    condition_one_holds records whether the first two values are nonzero,
    the nonsingularity hypothesis behind the curve models.
    """

    map: SpecializedMap
    values: tuple[int, ...]
    condition_one_holds: bool

    def to_json_dict(self) -> dict:
        rows = OrbitRows(self.map, 1, self.values).to_json_dict()
        return {"condition_one_holds": self.condition_one_holds, "values": rows}

    def text_lines(self):
        yield from OrbitRows(self.map, 1, self.values).text_lines()
        yield f"condition (1) holds: {self.condition_one_holds}"


def _walk(rows: OrbitRows, x: int, steps: int, max_bits: int) -> OrbitRows:
    """Append phi(x), ..., phi^steps(x) to rows; a value over max_bits raises
    DigitBudgetError carrying rows as they stand."""
    for _ in range(steps):
        x = rows.map.apply(x)
        check_bits(x, max_bits, "orbit value", rows)
        rows.append(x)
    return rows


def orbit(map: SpecializedMap, b: int, depth: int, max_bits: int = DEFAULT_MAX_BITS) -> OrbitSlice:
    """The first depth+1 orbit values b, phi(b), ..., phi^depth(b)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    x = int(b)
    values = OrbitRows(map, 0, [x])
    check_bits(x, max_bits, "orbit value", values)
    return OrbitSlice(map=map, start=x, values=tuple(_walk(values, x, depth, max_bits)))


def critical_orbit(map: SpecializedMap, depth: int, max_bits: int = DEFAULT_MAX_BITS) -> CriticalOrbit:
    """Critical values phi_a^n(gamma_a) for n = 1..depth (so values[0] = c_a)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    values = _walk(OrbitRows(map, 1), map.gamma_a, depth, max_bits)
    second = values[1] if depth >= 2 else map.apply(values[0])
    return CriticalOrbit(
        map=map,
        values=tuple(values),
        condition_one_holds=values[0] != 0 and second != 0,
    )


def sigma_orbit_identity(map: SpecializedMap, depth: int, max_bits: int = DEFAULT_MAX_BITS) -> bool:
    """Check sigma_a^n(0) == phi_a^n(gamma_a) - gamma_a for all n <= depth,
    computing the two sides independently: phi's from critical_orbit."""
    sig = 0
    for phi in critical_orbit(map, depth, max_bits).values:
        sig = map.apply_sigma(sig)
        if sig != phi - map.gamma_a:
            return False
    return True


def is_postcritically_finite(map: SpecializedMap) -> bool:
    """For integer parameters the critical orbit is finite exactly when
    v_a lies in {0, -1, -2} (the integer points of the Mandelbrot interval)."""
    return map.v_a in (0, -1, -2)


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
        cur = cur * cur + map.v_a
        check_bits(max(abs(cur.numerator), cur.denominator), max_bits, "orbit value")
    return height_int(cur) / (1 << k)


def check_ingram_lower_bound(
    map: SpecializedMap,
    eps: float = 0.03125,
    max_bits: int = DEFAULT_MAX_BITS,
) -> bool:
    """One-sided check of the wandering-point height floor
    h_hat(0) >= max(h(v_a), 1) / 32, via a canonical-height estimate within
    eps (so the check can only fail if the floor is genuinely violated)."""
    if is_postcritically_finite(map):
        raise PostCriticallyFiniteError(f"v_a = {map.v_a} is post-critically finite")
    est = canonical_height(map, 0, eps, max_bits)
    return est + eps >= max(height_int(map.v_a), 1.0) / 32.0
