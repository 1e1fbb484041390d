"""One-sided certificates for the arboreal Galois tower.

Stability scanning (perfect squares in the adjusted critical orbit
-c_a, phi^2(gamma_a), phi^3(gamma_a), ...), the discriminant
recurrence, level-maximality certificates built from stripped cofactors,
hyperelliptic curve models with their forced integral points, and a naive
integral-point search.  Certificates never over-claim: CertifiedMaximal and
FailedSquareOverQ are proved, Unknown is exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from quadtower.bigpoly import (
    IntPolynomial,
    check_bits,
    decimal_str,
    discriminant_direct,
    height_int,
    is_perfect_square,
    orbit_divisor_strs,
    poly_height,
)
from quadtower.factor import (
    Budget,
    PrimitiveDivisorReport,
    SquareFreeDecomposition,
    ZeroInputError,
    factorize,
    stripped_cofactor,
)
from quadtower.family import SpecializedMap
from quadtower.orbit import DEFAULT_MAX_BITS, CriticalOrbit, DigitBudgetError, critical_orbit

CERTIFIED_MAXIMAL = "CertifiedMaximal"
FAILED_SQUARE_OVER_Q = "FailedSquareOverQ"
UNKNOWN = "Unknown"

# A small budget, only to list a certificate witness's primes when that is easy.
_COURTESY_BUDGET = Budget(trial_bound=10 ** 4, rho_iters=10 ** 5)


class SingularModelError(ValueError):
    """The requested curve has a repeated root on its right-hand side."""


@dataclass(frozen=True)
class StabilityReport:
    """Square scan of the adjusted critical orbit -c_a, phi_a^n(gamma_a)
    (n >= 2) up to some depth.

    A square at level n witnesses that the level-n tower step is not maximal;
    it is not a witness of instability.  No square up to depth N is a
    one-sided no-obstruction certificate, not a proof of stability.
    """

    map: SpecializedMap
    depth: int
    squares_found: tuple[tuple[int, int], ...]

    @property
    def first_square(self) -> tuple[int, int] | None:
        return self.squares_found[0] if self.squares_found else None

    @property
    def verdict(self) -> str:
        if self.squares_found:
            return f"SquareFoundAt({self.squares_found[0][0]})"
        return f"NoSquareUpTo({self.depth})"

    def to_json_dict(self) -> dict:
        return {
            "depth": self.depth,
            "verdict": self.verdict,
            "squares_found": [
                {"level": n, "root": decimal_str(r)} for n, r in self.squares_found
            ],
        }


@dataclass(frozen=True)
class MaximalityCertificate:
    """Level-n tower evidence.

    CertifiedMaximal: witness is the stripped cofactor R > 1, non-square,
    coprime to 2 and to all lower critical values.  FailedSquareOverQ:
    witness is the integer square root of the adjusted value (-c_a at level
    1, the critical value above).  Unknown: nothing survived stripping.
    """

    level: int
    status: str
    witness: int | None

    def to_json_dict(self, witness_text: str | None = None) -> dict:
        """witness_text, when given, is the witness already in decimal."""
        if witness_text is None and self.witness is not None:
            witness_text = decimal_str(self.witness)
        return {"level": self.level, "status": self.status, "witness": witness_text}


@dataclass(frozen=True)
class TowerReport:
    """Certificates for first_level..last_level; values is the critical orbit
    phi_a^n(gamma_a), n = 1.., they were computed from (shorter than
    last_level when the bit budget ran out)."""

    map: SpecializedMap
    first_level: int
    last_level: int
    certificates: tuple[MaximalityCertificate, ...]
    values: tuple[int, ...] = field(repr=False)

    @property
    def counts(self) -> dict[str, int]:
        out = {CERTIFIED_MAXIMAL: 0, UNKNOWN: 0, FAILED_SQUARE_OVER_Q: 0}
        for cert in self.certificates:
            out[cert.status] += 1
        return out

    def witness_strs(self) -> list[str | None]:
        """Each certificate's witness in decimal, or None.  A witness R is an
        exact divisor of its critical value, so it prints along the critical
        orbit (see orbit_divisor_strs) rather than by base conversion."""
        divisors: list[int | None] = [None] * len(self.values)
        for cert in self.certificates:
            divisors[cert.level - 1] = cert.witness
        texts = orbit_divisor_strs(self.map.gamma_a, self.map.c_a, self.values, divisors)
        return [texts[cert.level - 1] for cert in self.certificates]

    def to_json_dict(self) -> dict:
        return {
            "from": self.first_level,
            "to": self.last_level,
            "certificates": [
                c.to_json_dict(text) for c, text in zip(self.certificates, self.witness_strs())
            ],
            "counts": self.counts,
        }


@dataclass(frozen=True)
class CurveModel:
    """Y^2 = 2^e * d * (X - c_a) * g(X) with g = phi_a (genus 1, cubic RHS)
    or g = phi_a^2 (genus 2, quintic RHS)."""

    rhs: IntPolynomial
    level: int
    genus: int
    e: int
    d: int
    c_a: int

    def equation(self) -> str:
        return f"Y^2 = {self.rhs.to_string(var='X')}"

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "genus": self.genus,
            "e": self.e,
            "d": decimal_str(self.d),
            "rhs_coeffs": [decimal_str(c) for c in self.rhs.coeffs],
            "equation": self.equation(),
        }


@dataclass(frozen=True)
class IntegralPoint:
    x: int
    y: int
    hall_lang_ratio: float

    def to_json_dict(self) -> dict:
        return {
            "x": decimal_str(self.x),
            "y": decimal_str(self.y),
            "hall_lang_ratio": self.hall_lang_ratio,
        }


def stability_scan(
    map: SpecializedMap, depth: int, max_bits: int = DEFAULT_MAX_BITS
) -> StabilityReport:
    """Square-test the adjusted critical orbit -c_a, phi_a^n(gamma_a) for
    n = 2..depth: level 1 is Q(sqrt(-c_a)), level n >= 2 adjoins
    sqrt(phi_a^n(gamma_a)) over level n - 1."""
    crit = critical_orbit(map, depth, max_bits)
    squares = []
    for n, value in enumerate(crit.values, start=1):
        root = is_perfect_square(-value if n == 1 else value)
        if root is not None:
            squares.append((n, root))
    return StabilityReport(map=map, depth=depth, squares_found=tuple(squares))


def discriminant_recurrence(
    map: SpecializedMap, n: int, max_bits: int = DEFAULT_MAX_BITS
) -> int:
    """|disc(phi_a^n)| via |D_n| = D_{n-1}^2 * 2^(2^n) * |phi_a^n(gamma_a)|,
    seeded by the directly computed quadratic discriminant D_1."""
    if n < 1:
        raise ValueError("level must be >= 1")
    delta = abs(discriminant_direct(map.phi_polynomial()))
    if n == 1:
        return delta
    crit = critical_orbit(map, n, max_bits)
    for k in range(2, n + 1):
        if (1 << k) > max_bits:  # the 2^(2^k) factor alone would overflow
            raise DigitBudgetError(
                f"discriminant at level {k} needs more than {max_bits} bits"
            )
        delta = delta * delta * (1 << (1 << k)) * abs(crit.values[k - 1])
        check_bits(delta, max_bits, "discriminant")
    return delta


def _rigid_gcds(map: SpecializedMap, values: tuple[int, ...], n: int) -> list[int]:
    """gcd(v_n, v_k) for k = 1..n-1, where v_k = phi_a^k(gamma_a) is nonzero.

    phi_a has integer coefficients, so v_n = phi_a^(n-k)(v_k) is congruent to
    phi_a^(n-k)(0) mod v_k and gcd(v_n, v_k) = gcd(v_k, phi_a^(n-k)(0)).  The
    residue is iterated mod |v_k| and kept in (-|v_k|/2, |v_k|/2], so neither
    v_n nor the orbit of 0 is ever touched at full size, and a small residue
    such as -3 stays small instead of becoming |v_k| - 3 and being squared.
    """
    gcds = []
    for k, v in enumerate(values[: n - 1], start=1):
        modulus = abs(v)
        x = 0
        for _ in range(n - k):
            x = map.apply(x) % modulus
            if 2 * x > modulus:
                x -= modulus
        gcds.append(math.gcd(modulus, x))
    return gcds


def _primitive_cofactor(map: SpecializedMap, values: tuple[int, ...], n: int) -> int | None:
    """The stripped cofactor R of v_n against v_1, ..., v_(n-1), or None when
    one of those is 0.

    Stripping removes whole primes, and gcd(v_n, v_k) has exactly the primes
    v_n shares with v_k, so stripping against the small rigid gcds gives the
    cofactor that stripping against the full lower values would.
    """
    if 0 in values[: n - 1]:
        return None
    return stripped_cofactor(values[n - 1], _rigid_gcds(map, values, n))


def _certify_from_values(
    map: SpecializedMap, values: tuple[int, ...], n: int
) -> MaximalityCertificate:
    """Certify maximality of the level-n tower step.

    A perfect-square adjusted value (-c_a at level 1, the critical value
    phi_a^n(gamma_a) above) disproves maximality over Q.  Otherwise the
    stripped cofactor R of the level value against all lower values is odd,
    unramified below, and keeps full valuations; R > 1 and non-square certify
    a square-free primitive prime divisor and hence maximality.  Everything
    else is Unknown (the criterion is sufficient, not necessary).
    """
    value = values[n - 1]
    # level 1 is Q(sqrt(-c_a)), where phi_a(gamma_a) = c_a; past the square
    # test, a non-square odd part of |c_a| still certifies it below
    root = is_perfect_square(-value if n == 1 else value)
    if root is not None:
        return MaximalityCertificate(level=n, status=FAILED_SQUARE_OVER_Q, witness=root)
    r = _primitive_cofactor(map, values, n)
    if r is None:
        # degenerate orbit through 0; nothing can be stripped meaningfully
        return MaximalityCertificate(level=n, status=UNKNOWN, witness=None)
    if r > 1 and is_perfect_square(r) is None:
        return MaximalityCertificate(level=n, status=CERTIFIED_MAXIMAL, witness=r)
    return MaximalityCertificate(level=n, status=UNKNOWN, witness=r)


def certify_tower(
    map: SpecializedMap,
    first_level: int,
    last_level: int,
    max_bits: int = DEFAULT_MAX_BITS,
) -> TowerReport:
    """Per-level certificates over an inclusive level range, sharing one
    critical-orbit prefix.  On budget overflow the DigitBudgetError carries a
    TowerReport for the levels that were still computable."""
    if not 1 <= first_level <= last_level:
        raise ValueError("need 1 <= first_level <= last_level")
    budget_error = None
    try:
        values = critical_orbit(map, last_level, max_bits).values
    except DigitBudgetError as err:
        values = tuple(err.partial)
        budget_error = err
    certs = tuple(
        _certify_from_values(map, values, n)
        for n in range(first_level, min(last_level, len(values)) + 1)
    )
    report = TowerReport(
        map=map,
        first_level=first_level,
        last_level=last_level,
        certificates=certs,
        values=values,
    )
    if budget_error is not None:
        raise DigitBudgetError(str(budget_error), partial=report)
    return report


def curve_model(
    map: SpecializedMap,
    n: int,
    dec: SquareFreeDecomposition,
    genus: int = 1,
) -> CurveModel:
    """Emit Y^2 = 2^e * d * (X - c_a) * phi_a(X) (genus 1) or the phi_a^2
    variant (genus 2) for the level-n decomposition 2^e * d * y^2."""
    if genus not in (1, 2):
        raise ValueError("genus must be 1 or 2")
    phi = map.phi_polynomial()
    g = phi if genus == 1 else phi.compose(phi)
    rhs = IntPolynomial((-map.c_a, 1)) * g * ((1 << dec.e) * dec.d)
    if discriminant_direct(rhs) == 0:
        raise SingularModelError("right-hand side has a repeated root")
    return CurveModel(rhs=rhs, level=n, genus=genus, e=dec.e, d=dec.d, c_a=map.c_a)


def verify_forced_point(
    model: CurveModel,
    crit: CriticalOrbit,
    n: int,
    dec: SquareFreeDecomposition,
) -> bool:
    """Substitute the forced integral point
    (phi^(n-1)(gamma), 2^e * d * y * (phi^(n-2)(gamma) - gamma)) into the
    genus-1 model, reading the values from the critical orbit crit; this is
    an algebraic identity of the whole pipeline and must come back True for
    every n >= 2."""
    if model.genus != 1:
        raise ValueError("the forced point lives on the genus-1 model")
    if not 2 <= n <= len(crit.values):
        raise ValueError("the forced point needs 2 <= level <= the orbit's depth")
    if dec.value() != crit.values[n - 1]:
        raise ValueError("decomposition does not reconstruct the level value")
    x = crit.values[n - 2]
    gamma = crit.map.gamma_a
    prev = crit.values[n - 3] if n >= 3 else gamma
    y = (1 << dec.e) * dec.d * dec.y * (prev - gamma)
    return y * y == model.rhs.evaluate(x)


def primitive_divisor_certificate(crit: CriticalOrbit, n: int) -> PrimitiveDivisorReport:
    """Certify a square-free primitive prime divisor at level n without
    factoring.

    R, the stripped cofactor of the level-n value against the lower values,
    is odd, coprime to every lower level, and keeps full valuations, so
    R > 1 and R not a perfect square force some prime of R to divide level n
    to odd order while dividing nothing earlier.  One-sided: not certified
    only means unknown.  R is an exact divisor of the level-n value, so its
    decimal text prints along the orbit.
    """
    if not 1 <= n <= len(crit.values):
        raise ValueError(f"level {n} outside computed orbit")
    if crit.values[n - 1] == 0:
        raise ZeroInputError("level value is zero")
    r = _primitive_cofactor(crit.map, crit.values, n)
    if r is None:
        raise ZeroInputError("earlier values must be nonzero")
    certified = r > 1 and is_perfect_square(r) is None
    primes: tuple[int, ...] = ()
    if certified:
        # annotate the witness with its primes when that happens to be easy
        fac = factorize(r, _COURTESY_BUDGET)
        if fac.complete:
            primes = tuple(p for p, _ in fac.factors)
    text = orbit_divisor_strs(crit.map.gamma_a, crit.map.c_a, crit.values[:n],
                              [None] * (n - 1) + [r])[-1]
    return PrimitiveDivisorReport(
        level=n,
        primes=primes,
        method="certificate",
        certified=certified,
        witness=r,
        witness_text=text,
    )


def search_integral_points(model: CurveModel, xbound: int) -> list[IntegralPoint]:
    """All integral points with |X| <= xbound, by testing whether the RHS is a
    perfect square; each point carries the ratio h(X)/max(1, h(RHS)) probed
    against the conjectural integral-point bound."""
    if xbound < 1:
        raise ValueError("xbound must be >= 1")
    scale = max(1.0, poly_height(model.rhs))
    points: list[IntegralPoint] = []
    for x in range(-xbound, xbound + 1):
        value = model.rhs.evaluate(x)
        if value < 0:
            continue
        root = is_perfect_square(value)
        if root is None:
            continue
        ratio = height_int(x) / scale
        points.append(IntegralPoint(x=x, y=root, hall_lang_ratio=ratio))
        if root:
            points.append(IntegralPoint(x=x, y=-root, hall_lang_ratio=ratio))
    return points
