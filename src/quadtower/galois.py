"""One-sided certificates for the arboreal Galois tower.

Stability scanning (perfect squares in the adjusted critical orbit
-c_a, phi^2(gamma_a), phi^3(gamma_a), ...), the discriminant
recurrence, level-maximality certificates built from stripped cofactors,
hyperelliptic curve models with their forced integral points, and a naive
integral-point search.  Certificates never over-claim: CertifiedMaximal and
FailedSquareOverQ are proved, Unknown is exactly that.

Square-free primitive prime divisors come two ways: exactly, by factoring
the level value (primitive_divisor_exact), or without factoring, from its
stripped cofactor (primitive_divisor_certificate).

Every verdict reads the one orbit.CriticalOrbit that critical_orbit walks:
certify_tower, stability_scan, both primitive-divisor routes and the
discriminant and curve pipelines.  When the bit budget runs out,
certify_tower certifies the rows walked within it.  They read one exact
square test of the adjusted value and one stripped witness per level
(none above a zero); the exact route and the curve factor the level value.
"""

from __future__ import annotations

import decimal
from typing import NamedTuple

from quadtower.bigpoly import (
    DigitBudgetError,
    IntPolynomial,
    check_bits,
    decimal_product,
    decimal_str,
    discriminant_direct,
    height_int,
    is_perfect_square,
    parse_int,
    poly_height,
)
from quadtower.factor import (
    DEFAULT_BUDGET,
    Budget,
    SquareFreeDecomposition,
    ZeroInputError,
    factorize,
    factorize_fully,
    squarefree_decompose,
)
from quadtower.family import SpecializedMap
from quadtower.orbit import CriticalOrbit, critical_orbit

CERTIFIED_MAXIMAL = "CertifiedMaximal"
FAILED_SQUARE_OVER_Q = "FailedSquareOverQ"
UNKNOWN = "Unknown"

# A small budget, only to list a certificate witness's primes when that is
# easy.  Above _COURTESY_MAX_BITS it is not tried: no R of 1,200 bits or more
# on the acceptance maps ever completed, and each failure cost 0.6-18.5 s.
_COURTESY_BUDGET = Budget(trial_bound=10 ** 4, rho_iters=10 ** 5)
_COURTESY_MAX_BITS = 1024

# phi_a^n has degree 2^n, and its resultant grows steeply: for x^2 + 1,
# 0.24 s at level 9, 2.3 s at level 10 and 37 s at level 11 (CPython 3.11.7,
# 2 vCPUs), so higher levels are refused.
DIRECT_DISCRIMINANT_MAX_LEVEL = 10


class SingularModelError(ValueError):
    """The requested curve has a repeated root on its right-hand side."""


class PrimitiveDivisorReport(NamedTuple):
    """Square-free primitive prime divisors of the level-n critical value.

    method "exact" lists every odd prime with odd valuation at level n and
    valuation zero at all lower levels; certified means the list is nonempty.
    method "certificate" carries the stripped cofactor R, in decimal, as
    witness; certified means R > 1 and R is not a perfect square, which
    proves such a prime exists without factoring (one-sided: not-certified
    means unknown).  two_primitive is exact-route metadata for the excluded
    prime 2.
    """

    level: int
    primes: tuple[int, ...]
    method: str
    certified: bool
    witness: str | None = None
    two_primitive: bool | None = None

    def to_json_dict(self) -> dict:
        out = {
            "level": self.level,
            "method": self.method,
            "certified": self.certified,
            "primes": [decimal_str(p) for p in self.primes],
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.two_primitive is not None:
            out["two_primitive"] = self.two_primitive
        return out

    def text_lines(self):
        out = self.to_json_dict()
        yield f"level {self.level} ({self.method}): certified={self.certified}"
        if "witness" in out:
            yield f"witness R = {out['witness']}"
        if self.primes:
            yield "primes: " + ", ".join(out["primes"])


class StabilityReport(NamedTuple):
    """Square scan of the adjusted critical orbit -c_a, phi_a^n(gamma_a)
    (n >= 2) up to some depth.

    A square at level n witnesses that the level-n tower step is not maximal;
    it is not a witness of instability.  No square up to depth N is a
    one-sided no-obstruction certificate, not a proof of stability.  Roots
    are the walk's exact Decimals, printed by str(); Decimal arithmetic rounds
    to the thread's context (28 digits by default), so square a root by
    bigpoly.decimal_product(root, root) or parse_int(str(root)) ** 2: int()
    of a Decimal is quadratic in its digits.
    """

    depth: int
    squares_found: tuple[tuple[int, decimal.Decimal], ...]

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
                {"level": n, "root": str(r)} for n, r in self.squares_found
            ],
        }

    def text_lines(self):
        yield f"verdict: {self.verdict}"
        for n, root in self.squares_found:
            yield f"level {n}: square with root {root}"


class MaximalityCertificate(NamedTuple):
    """Level-n tower evidence; witness is in decimal.

    CertifiedMaximal: witness is the stripped cofactor R > 1, non-square,
    coprime to 2 and to all lower critical values.  FailedSquareOverQ:
    witness is the integer square root of the adjusted value (-c_a at level
    1, the critical value above).  Unknown: nothing survived stripping.
    """

    level: int
    status: str
    witness: str | None

    def to_json_dict(self) -> dict:
        return {"level": self.level, "status": self.status, "witness": self.witness}


class TowerReport(NamedTuple):
    """Certificates for first_level..last_level (fewer when the bit budget
    ran out)."""

    first_level: int
    last_level: int
    certificates: tuple[MaximalityCertificate, ...]

    @property
    def counts(self) -> dict[str, int]:
        out = {CERTIFIED_MAXIMAL: 0, UNKNOWN: 0, FAILED_SQUARE_OVER_Q: 0}
        for cert in self.certificates:
            out[cert.status] += 1
        return out

    def to_json_dict(self) -> dict:
        return {
            "from": self.first_level,
            "to": self.last_level,
            "certificates": [c.to_json_dict() for c in self.certificates],
            "counts": self.counts,
        }

    def text_lines(self):
        for cert in self.certificates:
            witness = "" if cert.witness is None else f" (witness {cert.witness})"
            yield f"level {cert.level}: {cert.status}{witness}"
        yield "counts: " + ", ".join(f"{k}={v}" for k, v in self.counts.items())


class CurveModel(NamedTuple):
    """Y^2 = 2^e * d * (X - c_a) * g(X) with g = phi_a (genus 1, cubic RHS)
    or g = phi_a^2 (genus 2, quintic RHS)."""

    rhs: IntPolynomial
    level: int
    genus: int
    e: int
    d: int

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


class IntegralPoint(NamedTuple):
    x: int
    y: int
    hall_lang_ratio: float

    def to_json_dict(self) -> dict:
        return {
            "x": decimal_str(self.x),
            "y": decimal_str(self.y),
            "hall_lang_ratio": self.hall_lang_ratio,
        }


class CurveReport(NamedTuple):
    """A level curve model, its forced-point check (None unless genus 1 and
    level >= 2) and the integral points of a search (None when none ran)."""

    model: CurveModel
    forced_point_verified: bool | None
    points: tuple[IntegralPoint, ...] | None

    def to_json_dict(self) -> dict:
        out = self.model.to_json_dict()
        if self.forced_point_verified is not None:
            out["forced_point_verified"] = self.forced_point_verified
        if self.points is not None:
            out["integral_points"] = [p.to_json_dict() for p in self.points]
        return out

    def text_lines(self):
        yield self.model.equation()
        if self.forced_point_verified is not None:
            yield f"forced point verified: {self.forced_point_verified}"
        for p in self.points or ():
            yield f"point ({decimal_str(p.x)}, {decimal_str(p.y)}) ratio {p.hall_lang_ratio}"


class DiscriminantReport(NamedTuple):
    """|disc(phi_a^n)| by the recurrence, an integer decimal.Decimal, and,
    when asked for, directly from the polynomial phi_a^n, an int."""

    level: int
    recurrence: decimal.Decimal
    direct: int | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"level": self.level, "recurrence": str(self.recurrence)}
        if self.direct is not None:
            out["direct"] = decimal_str(self.direct)
            out["agree"] = out["direct"] == out["recurrence"]
        return out

    def text_lines(self):
        out = self.to_json_dict()
        yield f"|disc(phi_a^{self.level})| = {out['recurrence']}"
        if "direct" in out:
            yield f"direct: {out['direct']} (agree: {out['agree']})"


def stability_scan(
    map: SpecializedMap, depth: int, budget: Budget = DEFAULT_BUDGET
) -> StabilityReport:
    """Square-test the adjusted critical orbit -c_a, phi_a^n(gamma_a) for
    n = 2..depth: level 1 is Q(sqrt(-c_a)), level n >= 2 adjoins
    sqrt(phi_a^n(gamma_a)) over level n - 1.  The orbit is walked in
    decimal by critical_orbit; a value over budget.max_bits raises
    DigitBudgetError carrying the critical values below it."""
    orbit = critical_orbit(map, depth, budget)
    roots = ((n, orbit.square_root(n)) for n in range(1, depth + 1))
    # a root Decimal('0') is a square too, so test for None, not truth
    return StabilityReport(depth, tuple((n, r) for n, r in roots if r is not None))


def discriminant_report(
    map: SpecializedMap, n: int, direct: bool = False, budget: Budget = DEFAULT_BUDGET
) -> DiscriminantReport:
    """|disc(phi_a^n)| by the recurrence and, with direct, from the
    polynomial map.phi_polynomial(n), which is refused above
    DIRECT_DISCRIMINANT_MAX_LEVEL.  Both refusals of a level come
    before any orbit value is computed.

    The recurrence |D_k| = D_{k-1}^2 * 2^(2^k) * |phi_a^k(gamma_a)| from
    D_0 = 1 (so D_1 = 4|c_a|) multiplies the decimal critical values of the
    orbit walked to level n, exactly; a D_k over budget.max_bits raises
    DigitBudgetError."""
    if n < 1:
        raise ValueError("level must be >= 1")
    if direct and n > DIRECT_DISCRIMINANT_MAX_LEVEL:
        raise DigitBudgetError(
            f"direct discriminant at level {decimal_str(n)} is refused; "
            f"--direct goes up to level {DIRECT_DISCRIMINANT_MAX_LEVEL}"
        )
    # from level 2 on, 2^n > budget.max_bits makes the factor 2^(2^n) alone
    # outgrow the budget: refuse at once, naming the first such level
    first = max(2, budget.max_bits.bit_length())
    if n >= first:
        raise DigitBudgetError(
            f"discriminant at level {first} needs more than {budget.max_bits} bits")
    delta, power = decimal.Decimal(1), decimal.Decimal(2)  # D_0 and 2^(2^0)
    for row in critical_orbit(map, n, budget).rows:
        power = decimal_product(power, power)  # 2^(2^k)
        # the two small factors first: one big product besides the square
        delta = decimal_product(power, row.copy_abs(), decimal_product(delta, delta))
        check_bits(delta, budget.max_bits, "discriminant")
    exact = abs(discriminant_direct(map.phi_polynomial(n))) if direct else None
    return DiscriminantReport(level=n, recurrence=delta, direct=exact)


def _tower_report(orbit: CriticalOrbit, first_level: int, last_level: int) -> TowerReport:
    """Certify maximality of each tower step of orbit from first_level to its
    last walked level, from its exact decimal values and its residues.

    A perfect-square adjusted value (-c_a at level 1, the critical value
    phi_a^n(gamma_a) above) disproves maximality over Q.  Otherwise a
    stripped cofactor R > 1 that is no square certifies maximality (see
    CriticalOrbit.stripped_witness, which gives no witness above a zero),
    and anything else is Unknown: the criterion is sufficient, not
    necessary.  Level 1 is Q(sqrt(-c_a)), where phi_a(gamma_a) = c_a; past
    the square test, a non-square odd part of |c_a| still certifies it.
    """
    certificates = []
    for n in range(first_level, len(orbit.rows) + 1):
        root = orbit.square_root(n)
        if root is not None:
            status, text = FAILED_SQUARE_OVER_Q, str(root)
        else:
            text, certified = orbit.stripped_witness(n)
            status = CERTIFIED_MAXIMAL if certified else UNKNOWN
        certificates.append(MaximalityCertificate(level=n, status=status, witness=text))
    return TowerReport(first_level, last_level, tuple(certificates))


def certify_tower(
    map: SpecializedMap, first_level: int, last_level: int, budget: Budget = DEFAULT_BUDGET
) -> TowerReport:
    """Per-level certificates over an inclusive level range.

    The critical orbit is walked first, in exact decimal arithmetic
    (critical_orbit): that decides the bit budget, zeros, the few exact
    square roots and prints the witnesses.  Then each walked level from
    first_level on is certified.  Everything else is read from residues of
    the orbit modulo small numbers and from exact binary values below about
    level last_level / 2 (see CriticalOrbit), so no binary critical value
    near full size is ever built.  On budget overflow the DigitBudgetError
    carries a TowerReport for the levels walked within the budget, read off
    the CriticalOrbit of the rows it carried.
    """
    if not 1 <= first_level <= last_level:
        raise ValueError("need 1 <= first_level <= last_level")
    try:
        orbit = critical_orbit(map, last_level, budget)
    except DigitBudgetError as err:
        err.partial = _tower_report(CriticalOrbit(map, err.partial), first_level, last_level)
        raise
    return _tower_report(orbit, first_level, last_level)


def _nonzero_level(map: SpecializedMap, n: int, budget: Budget) -> CriticalOrbit:
    """The critical orbit walked to level n, refused when its level-n value is
    zero, which neither a curve model nor a primitive divisor can read."""
    orbit = critical_orbit(map, n, budget)
    if orbit.rows[-1].is_zero():
        raise ZeroInputError("level value is zero")
    return orbit


def curve_model(
    map: SpecializedMap,
    n: int,
    dec: SquareFreeDecomposition,
    genus: int = 1,
) -> CurveModel:
    """Emit Y^2 = 2^e * d * (X - c_a) * phi_a^genus(X), the phi_a (genus 1)
    or phi_a^2 (genus 2) model, for the level-n decomposition 2^e * d * y^2;
    phi_a^genus is map.phi_polynomial(genus)."""
    if genus not in (1, 2):
        raise ValueError("genus must be 1 or 2")
    rhs = IntPolynomial((-map.c_a, 1)) * map.phi_polynomial(genus) * ((1 << dec.e) * dec.d)
    if discriminant_direct(rhs) == 0:
        raise SingularModelError("right-hand side has a repeated root")
    return CurveModel(rhs=rhs, level=n, genus=genus, e=dec.e, d=dec.d)


def curve_report(
    map: SpecializedMap, n: int, genus: int = 1, search: int = 0, budget: Budget = DEFAULT_BUDGET
) -> CurveReport:
    """The level-n curve pipeline: the critical orbit walked to level n, the
    square-free decomposition of its exact level-n value, the model, the
    forced point checked on the genus-1 model from level 2 on, and the
    integral points with |X| <= search when search is nonzero."""
    crit = _nonzero_level(map, n, budget)
    dec = squarefree_decompose(crit.value(n), budget)
    model = curve_model(map, n, dec, genus)
    verified = verify_forced_point(model, crit, dec) if genus == 1 and n >= 2 else None
    points = tuple(search_integral_points(model, search)) if search else None
    return CurveReport(model=model, forced_point_verified=verified, points=points)


def verify_forced_point(
    model: CurveModel,
    crit: CriticalOrbit,
    dec: SquareFreeDecomposition,
) -> bool:
    """Substitute the forced integral point
    (phi^(n-1)(gamma), 2^e * d * y * (phi^(n-2)(gamma) - gamma)) into the
    genus-1 model of level n = model.level, reading the exact values from the
    critical orbit crit; this is an algebraic identity of the whole pipeline
    and must come back True for every n >= 2."""
    n = model.level
    if model.genus != 1:
        raise ValueError("the forced point lives on the genus-1 model")
    if not 2 <= n <= len(crit.rows):
        raise ValueError("the forced point needs 2 <= level <= the orbit's depth")
    if dec.value() != crit.value(n):
        raise ValueError("decomposition does not reconstruct the level value")
    y = (1 << dec.e) * dec.d * dec.y * (crit.value(n - 2) - crit.map.gamma_a)
    return y * y == model.rhs.evaluate(crit.value(n - 1))


def primitive_divisor_exact(
    map: SpecializedMap, n: int, budget: Budget = DEFAULT_BUDGET
) -> PrimitiveDivisorReport:
    """Factor the level-n critical value and list its square-free primitive
    prime divisors: odd primes with odd valuation there and zero valuation
    at all lower levels.  2 is reported separately via two_primitive.

    The critical orbit is walked to level n by _nonzero_level, which
    decides the bit budget and the zero check; then v_n is factored within
    budget.  A prime p is new at level n when v_k mod p is nonzero for every
    k < n, so a lower value 0 leaves no prime new.  A factorization that
    does not complete raises factor.factorize_fully's
    IncompleteFactorizationError carrying it.
    """
    orbit = _nonzero_level(map, n, budget)
    fac = factorize_fully(orbit.value(n), budget)
    primes = []
    two_primitive = False
    for p, k in fac.factors:
        if k % 2 == 0:
            continue
        fresh = all(orbit.residue(j, p) != 0 for j in range(1, n))
        if p == 2:
            two_primitive = fresh
        elif fresh:
            primes.append(p)
    return PrimitiveDivisorReport(
        level=n,
        primes=tuple(primes),
        method="exact",
        certified=bool(primes),
        two_primitive=two_primitive,
    )


def primitive_divisor_certificate(
    map: SpecializedMap, n: int, budget: Budget = DEFAULT_BUDGET
) -> PrimitiveDivisorReport:
    """Certify a square-free primitive prime divisor at level n without
    factoring.

    The critical orbit is walked to level n by _nonzero_level, which
    decides the bit budget (only budget.max_bits is read) and refuses a zero
    level value.  The status and the decimal text of R, the stripped
    cofactor of the level-n value, come from the routine certify uses
    (stripped_witness): above a zero,
    certified=False with no witness.  R > 1 and R not a perfect square
    force some prime of R to divide level n to odd order while dividing
    nothing earlier.  One-sided: not certified only means unknown.  R's
    primes are listed when a small courtesy factorization finds them, which
    is not tried above _COURTESY_MAX_BITS.
    """
    orbit = _nonzero_level(map, n, budget)
    text, certified = orbit.stripped_witness(n)
    primes: tuple[int, ...] = ()
    # 2^1024 has 309 digits, so the digit count rules out most large R unparsed
    if certified and len(text) <= 309 and (r := parse_int(text)).bit_length() <= _COURTESY_MAX_BITS:
        fac = factorize(r, _COURTESY_BUDGET)
        if fac.complete:
            primes = tuple(p for p, _ in fac.factors)
    return PrimitiveDivisorReport(
        level=n, primes=primes, method="certificate", certified=certified, witness=text
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
