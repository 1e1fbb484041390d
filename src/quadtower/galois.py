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

stability_scan, certify_tower and both primitive-divisor routes read the
critical orbit through one CriticalResidues: one walk in exact decimal
arithmetic, one square test of the adjusted value and one stripped witness;
the exact route factors the reader's exact level value and tests lower levels
by residues.  The curve and discriminant pipelines build the binary
CriticalOrbit instead, since they read every exact value.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import NamedTuple

from quadtower.bigpoly import (
    IntPolynomial,
    check_bits,
    decimal_isqrt,
    decimal_orbit,
    decimal_quotient,
    decimal_str,
    discriminant_direct,
    height_int,
    is_perfect_square,
    parse_int,
    passes_square_filter,
    poly_height,
    square_filter_modulus,
)
from quadtower.factor import (
    DEFAULT_BUDGET,
    Budget,
    IncompleteFactorizationError,
    SquareFreeDecomposition,
    ZeroInputError,
    factorize,
    squarefree_decompose,
)
from quadtower.family import SpecializedMap
from quadtower.orbit import DEFAULT_MAX_BITS, CriticalOrbit, DigitBudgetError, OrbitRows, critical_orbit

CERTIFIED_MAXIMAL = "CertifiedMaximal"
FAILED_SQUARE_OVER_Q = "FailedSquareOverQ"
UNKNOWN = "Unknown"

# A small budget, only to list a certificate witness's primes when that is
# easy.  Above _COURTESY_MAX_BITS it is not tried: no R of 1,200 bits or more
# on the acceptance maps ever completed, and each failure cost 0.6-18.5 s.
_COURTESY_BUDGET = Budget(trial_bound=10 ** 4, rho_iters=10 ** 5)
_COURTESY_MAX_BITS = 1024

# phi_a^n has degree 2^n, and composing it then taking its resultant grows
# steeply: for x^2 + 1, 0.8 s at level 9, 4.8 s at level 10 and 54 s at
# level 11 (CPython 3.11, one core), so higher levels are refused.
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
    one-sided no-obstruction certificate, not a proof of stability.
    """

    depth: int
    squares_found: tuple[tuple[int, int], ...]

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

    def text_lines(self):
        yield f"verdict: {self.verdict}"
        for n, root in self.squares_found:
            yield f"level {n}: square with root {decimal_str(root)}"


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
    """|disc(phi_a^n)| by the recurrence and, when asked for, directly from
    the composed polynomial phi_a^n."""

    level: int
    recurrence: int
    direct: int | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"level": self.level, "recurrence": decimal_str(self.recurrence)}
        if self.direct is not None:
            out["direct"] = decimal_str(self.direct)
            out["agree"] = self.direct == self.recurrence
        return out

    def text_lines(self):
        yield f"|disc(phi_a^{self.level})| = {decimal_str(self.recurrence)}"
        if self.direct is not None:
            agree = self.direct == self.recurrence
            yield f"direct: {decimal_str(self.direct)} (agree: {agree})"


def stability_scan(
    map: SpecializedMap, depth: int, max_bits: int = DEFAULT_MAX_BITS
) -> StabilityReport:
    """Square-test the adjusted critical orbit -c_a, phi_a^n(gamma_a) for
    n = 2..depth: level 1 is Q(sqrt(-c_a)), level n >= 2 adjoins
    sqrt(phi_a^n(gamma_a)) over level n - 1.  The orbit is walked once in
    decimal (CriticalResidues); a value over max_bits raises DigitBudgetError
    carrying the critical values below it."""
    orbit = CriticalResidues(map)
    squares = []
    for n, x in orbit.walk(depth, max_bits):
        root = orbit.square_root(n, x)
        if root is not None:
            squares.append((n, int(root)))
    return StabilityReport(depth=depth, squares_found=tuple(squares))


def _check_discriminant_level(n: int, max_bits: int) -> None:
    """Refuse a level n >= 2 with 2^n > max_bits, whose factor 2^(2^n) alone
    outgrows the budget, naming the first such level; 2^n is never built."""
    first = max(2, max_bits.bit_length())
    if n >= first:
        raise DigitBudgetError(f"discriminant at level {first} needs more than {max_bits} bits")


def discriminant_recurrence(
    crit: CriticalOrbit, n: int, max_bits: int = DEFAULT_MAX_BITS
) -> int:
    """|disc(phi_a^n)| via |D_n| = D_{n-1}^2 * 2^(2^n) * |phi_a^n(gamma_a)|,
    seeded by the directly computed quadratic discriminant D_1 of crit.map
    and reading the critical values from crit, which must reach level n."""
    if not 1 <= n <= len(crit.values):
        raise ValueError(f"level {n} outside computed orbit")
    _check_discriminant_level(n, max_bits)
    delta = abs(discriminant_direct(crit.map.phi_polynomial()))
    for k in range(2, n + 1):
        delta = delta * delta * (1 << (1 << k)) * abs(crit.values[k - 1])
        check_bits(delta, max_bits, "discriminant")
    return delta


def discriminant_report(
    map: SpecializedMap, n: int, direct: bool = False, max_bits: int = DEFAULT_MAX_BITS
) -> DiscriminantReport:
    """|disc(phi_a^n)| by the recurrence and, with direct, by composing
    phi_a^n, which is refused above DIRECT_DISCRIMINANT_MAX_LEVEL.  Every
    refusal comes before any orbit value is computed; level 1 needs none."""
    if n < 1:
        raise ValueError("level must be >= 1")
    if direct and n > DIRECT_DISCRIMINANT_MAX_LEVEL:
        raise DigitBudgetError(
            f"direct discriminant at level {n} is refused; "
            f"--direct goes up to level {DIRECT_DISCRIMINANT_MAX_LEVEL}"
        )
    _check_discriminant_level(n, max_bits)
    phi = map.phi_polynomial()
    if n == 1:
        value = abs(discriminant_direct(phi))
    else:
        value = discriminant_recurrence(critical_orbit(map, n, max_bits), n, max_bits)
    if not direct:
        return DiscriminantReport(level=n, recurrence=value)
    phi_n = phi
    for _ in range(n - 1):
        phi_n = phi_n.compose(phi)
    return DiscriminantReport(level=n, recurrence=value, direct=abs(discriminant_direct(phi_n)))


class CriticalResidues:
    """The critical orbit v_n = phi_a^n(gamma_a), the one reader behind the
    verdicts of certify_tower, stability_scan, primitive_divisor_exact and
    primitive_divisor_certificate.

    walk(depth, max_bits) steps the orbit once in exact decimal arithmetic
    (decimal_orbit), yielding (n, v_n as a Decimal).  It checks each value
    against the bit budget and records the first level whose value is 0
    (first_zero).  A reader is walked once.

    The verdicts then read the orbit through:

    - value(n): v_n as an exact int;
    - square_root(n, x): the root of the adjusted value a_n (-c_a at level 1,
      v_n above) when a_n is a square, given v_n as x;
    - residue(n, m): v_n mod m;
    - cofactor(n): the part q of v_n built from primes of lower values;
    - stripped_witness(n, x): the stripped cofactor R = |v_n| / q in decimal,
      and whether it certifies a primitive divisor.

    Both orbits, v and the orbit w_j = phi_a^j(0) of 0, are kept as exact
    prefixes from index 0 (v_0 = gamma_a, w_0 = 0), extended by _exact and
    read modulo m by _residue, which steps from the last exact value.
    cofactor(n) makes v exact up to level n // 2 (at least 1), value(k) up
    to level k, and the rigid gcds extend whichever orbit is smaller (see
    _rigid_gcd).
    """

    def __init__(self, map: SpecializedMap):
        self.map = map
        self.v = [map.gamma_a]  # v_0, v_1, ...
        self.w = [0]  # w_0, w_1, ...
        self.first_zero: int | None = None  # first walked level whose value is 0
        self.square_modulus = square_filter_modulus()

    def walk(self, depth: int, max_bits: int = DEFAULT_MAX_BITS, partial=None):
        """(n, v_n) for n = 1..depth, v_n an exact decimal.Decimal.

        A value over max_bits raises DigitBudgetError carrying partial(), or
        without partial the exact critical values below it as orbit rows.
        """
        if depth < 1:
            raise ValueError("depth must be >= 1")
        m = self.map
        for n, x in enumerate(islice(decimal_orbit(m.gamma_a, m.c_a, m.c_a), depth), start=1):
            try:
                check_bits(x, max_bits, "orbit value")
            except DigitBudgetError as err:
                err.partial = partial() if partial else OrbitRows(
                    m, 1, [self.value(k) for k in range(1, n)])
                raise
            if self.first_zero is None and x.is_zero():
                self.first_zero = n
            yield n, x

    def _exact(self, orbit: list[int], k: int) -> int:
        """orbit[k], exactly; the orbit's exact prefix reaches index k from
        then on."""
        while len(orbit) <= k:
            orbit.append(self.map.apply(orbit[-1]))
        return orbit[k]

    def _residue(self, orbit: list[int], k: int, m: int) -> int:
        """orbit[k] mod m, stepped modulo m from the last exact value."""
        if k < len(orbit):
            return orbit[k] % m
        x = orbit[-1] % m
        for _ in range(k + 1 - len(orbit)):
            x = self.map.apply_mod(x, m)
        return x

    def value(self, k: int) -> int:
        """v_k, exactly; v_1..v_k are kept from then on."""
        return self._exact(self.v, k)

    def residue(self, n: int, m: int) -> int:
        """v_n mod m."""
        return self._residue(self.v, n, m)

    def square_root(self, n: int, x):
        """The square root, as a Decimal, of the adjusted value a_n (-x at
        level 1, x above) for the walked level-n value x; None when a_n is no
        square.

        Zero is its own root and a negative a_n has none.  Otherwise a_n mod
        square_filter_modulus() must pass the filter before the exact root
        of its decimal value is taken.
        """
        adjusted = x.copy_negate() if n == 1 else x
        if adjusted.is_zero():
            return adjusted.copy_abs()
        if adjusted < 0:
            return None
        residue = self.residue(n, self.square_modulus)
        if n == 1:
            residue = -residue % self.square_modulus
        return decimal_isqrt(adjusted) if passes_square_filter(residue) else None

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
            self._exact(smaller, len(smaller))
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

    def stripped_witness(self, n: int, x) -> tuple[str, bool]:
        """(R in decimal, certified) for the walked level-n value x != 0,
        with none of the lower values 0.

        R = |v_n| / q, the stripped cofactor of v_n against all lower values,
        is odd, unramified below, and keeps full valuations (stripping removes
        whole primes, and gcd(v_n, v_k) has exactly the primes v_n shares with
        v_k).  So R > 1 and not a square certify a square-free primitive
        prime divisor.  R is a square only if (v_n mod q * M) / q, its residue
        up to sign modulo M = square_filter_modulus(), passes the filter and
        the exact root of R's decimal value squares back to it.
        """
        q = self.cofactor(n)
        r = decimal_quotient(x.copy_abs(), q)
        certified = False
        if r > 1:
            m = self.square_modulus
            residue = self.residue(n, q * m) // q
            if x < 0:
                residue = -residue % m
            certified = not passes_square_filter(residue) or decimal_isqrt(r) is None
        return str(r), certified


def _certify_level(orbit: CriticalResidues, n: int, x) -> MaximalityCertificate:
    """Certify maximality of the level-n tower step from the level's exact
    decimal value x and the residues of the critical orbit.

    A perfect-square adjusted value (-c_a at level 1, the critical value
    phi_a^n(gamma_a) above) disproves maximality over Q.  A lower value 0
    leaves Unknown with no witness: nothing can be stripped meaningfully.
    Otherwise a stripped cofactor R > 1 that is no square certifies
    maximality (see CriticalResidues.stripped_witness), and anything else is
    Unknown: the criterion is sufficient, not necessary.  Level 1 is
    Q(sqrt(-c_a)), where phi_a(gamma_a) = c_a; past the square test, a
    non-square odd part of |c_a| still certifies it.
    """
    root = orbit.square_root(n, x)
    if root is not None:
        return MaximalityCertificate(level=n, status=FAILED_SQUARE_OVER_Q, witness=str(root))
    if orbit.first_zero is not None and orbit.first_zero < n:
        return MaximalityCertificate(level=n, status=UNKNOWN, witness=None)
    text, certified = orbit.stripped_witness(n, x)
    return MaximalityCertificate(
        level=n, status=CERTIFIED_MAXIMAL if certified else UNKNOWN, witness=text
    )


def certify_tower(
    map: SpecializedMap,
    first_level: int,
    last_level: int,
    max_bits: int = DEFAULT_MAX_BITS,
) -> TowerReport:
    """Per-level certificates over an inclusive level range.

    The critical orbit is stepped once, in exact decimal arithmetic
    (decimal_orbit): that decides the bit budget, zeros, the few exact
    square roots and prints the witnesses.  Everything else is read from
    residues of the orbit modulo small numbers and from exact binary values
    below about level last_level / 2 (see CriticalResidues), so no binary
    critical value near full size is ever built.  On budget overflow the
    DigitBudgetError carries a TowerReport for the levels that were still
    computable.
    """
    if not 1 <= first_level <= last_level:
        raise ValueError("need 1 <= first_level <= last_level")
    orbit = CriticalResidues(map)
    certs: list[MaximalityCertificate] = []
    for n, x in orbit.walk(last_level, max_bits,
                           lambda: TowerReport(first_level, last_level, tuple(certs))):
        if n >= first_level:
            certs.append(_certify_level(orbit, n, x))
    return TowerReport(first_level, last_level, tuple(certs))


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


def curve_report(
    map: SpecializedMap, n: int, genus: int = 1, search: int = 0,
    budget: Budget = DEFAULT_BUDGET, max_bits: int = DEFAULT_MAX_BITS,
) -> CurveReport:
    """The level-n curve pipeline: the critical orbit to level n, the
    square-free decomposition of its level-n value, the model, the forced
    point checked on the genus-1 model from level 2 on, and the integral
    points with |X| <= search when search is nonzero."""
    crit = critical_orbit(map, n, max_bits)
    dec = squarefree_decompose(crit.values[n - 1], budget)
    model = curve_model(map, n, dec, genus)
    verified = verify_forced_point(model, crit, n, dec) if genus == 1 and n >= 2 else None
    points = tuple(search_integral_points(model, search)) if search else None
    return CurveReport(model=model, forced_point_verified=verified, points=points)


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


def _walk_to_level(map: SpecializedMap, n: int, max_bits: int):
    """A CriticalResidues walked to level n, and v_n as a Decimal; a zero v_n
    raises ZeroInputError."""
    orbit = CriticalResidues(map)
    for _, x in orbit.walk(n, max_bits):
        pass
    if x.is_zero():
        raise ZeroInputError("level value is zero")
    return orbit, x


def primitive_divisor_exact(
    map: SpecializedMap, n: int, budget: Budget = DEFAULT_BUDGET,
    max_bits: int = DEFAULT_MAX_BITS,
) -> PrimitiveDivisorReport:
    """Factor the level-n critical value and list its square-free primitive
    prime divisors: odd primes with odd valuation there and zero valuation
    at all lower levels.  2 is reported separately via two_primitive.

    The critical orbit is walked once to level n (CriticalResidues), which
    decides the bit budget and the zero check.  A prime p is new at level n
    when v_k mod p is nonzero for every k < n, so a lower value 0 leaves no
    prime new.  A factorization the budget cannot finish raises
    IncompleteFactorizationError carrying it.
    """
    orbit, _ = _walk_to_level(map, n, max_bits)
    fac = factorize(orbit.value(n), budget)
    if not fac.complete:
        raise IncompleteFactorizationError(
            f"level {n} value resists the factoring budget", fac
        )
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
    map: SpecializedMap, n: int, max_bits: int = DEFAULT_MAX_BITS
) -> PrimitiveDivisorReport:
    """Certify a square-free primitive prime divisor at level n without
    factoring.

    The critical orbit is walked once to level n (CriticalResidues), which
    decides the bit budget and the zero checks.  The status and the decimal
    text of R, the stripped cofactor of the level-n value against the lower
    values, come from the routine certify uses (stripped_witness).  R > 1
    and R not a perfect square force some prime of R to divide level n to
    odd order while dividing nothing earlier.  One-sided: not certified only
    means unknown.  R's primes are listed when a small courtesy
    factorization finds them, which is not tried above _COURTESY_MAX_BITS.
    """
    orbit, x = _walk_to_level(map, n, max_bits)
    if orbit.first_zero is not None:
        raise ZeroInputError("earlier values must be nonzero")
    text, certified = orbit.stripped_witness(n, x)
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
