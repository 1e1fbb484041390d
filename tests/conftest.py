import functools
import itertools
import math
import sys
from dataclasses import dataclass

from quadtower.bigpoly import IntPolynomial
from quadtower.family import QuadraticFamily


def lift_int_limit(convert, *args):
    """convert(*args), such as str(n) or int(text), with the interpreter's
    limit on int-to-str digits lifted for this one call and restored after.

    Only test oracles convert big integers this way; the library reads and
    prints them through bigpoly.parse_int and decimal_str under any limit.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        return convert(*args)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return convert(*args)
    finally:
        sys.set_int_max_str_digits(limit)


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    gamma: tuple[int, ...]
    c: tuple[int, ...]
    a: int

    def family(self) -> QuadraticFamily:
        return QuadraticFamily(IntPolynomial(self.gamma), IntPolynomial(self.c))

    def map(self):
        return self.family().specialize(self.a)


# Small-coefficient maps used across property tests.
CORPUS = [
    CorpusEntry("x2+1", (0,), (0, 1), 1),
    CorpusEntry("x2+2", (0,), (0, 1), 2),
    CorpusEntry("x2+3", (0,), (0, 1), 3),
    CorpusEntry("x2-16", (0,), (0, 1), -16),
    CorpusEntry("shifted-jones-small", (0, 1), (1, 1), 4),
    CorpusEntry("gamma-t-c-t2p1", (0, 1), (1, 0, 1), 2),
    CorpusEntry("quadratic-gamma", (1, 0, 1), (1, 1, 1), 3),
    CorpusEntry("mixed-degrees", (0, 2), (0, 0, 1), 3),
    CorpusEntry("constant-pair", (5,), (7,), 0),
    CorpusEntry("fermat", (1,), (1,), 0),
]

# Ten maps with condition (1) and small v, used by the forced-point and
# certificate acceptance criteria (levels up to 9 stay desk-sized).
ACCEPTANCE_MAPS = [
    CorpusEntry("x2+2", (0,), (0, 1), 2),
    CorpusEntry("x2+3", (0,), (0, 1), 3),
    CorpusEntry("x2+5", (0,), (0, 1), 5),
    CorpusEntry("x2+6", (0,), (0, 1), 6),
    CorpusEntry("x2+7", (0,), (0, 1), 7),
    CorpusEntry("x2+10", (0,), (0, 1), 10),
    CorpusEntry("x2+11", (0,), (0, 1), 11),
    CorpusEntry("x2-3", (0,), (0, 1), -3),
    CorpusEntry("shift-by-1", (1,), (3,), 0),
    CorpusEntry("shifted-jones-small", (0, 1), (1, 1), 4),
]

JONES_A = 88255775491812351975604


# -- independent oracles -------------------------------------------------------


def plain_primes(bound: int) -> tuple[int, ...]:
    """The primes <= bound, by a plain sieve of Eratosthenes over one bytearray."""
    if bound < 2:
        return ()
    flags = bytearray([1]) * (bound + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, bound + 1, i)))
    return tuple(itertools.compress(range(bound + 1), flags))


def bareiss_det(matrix: list[list[int]]) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    m = [row[:] for row in matrix]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def sylvester_resultant(p: IntPolynomial, q: IntPolynomial) -> int:
    """Resultant as the determinant of the Sylvester matrix."""
    dp, dq = p.degree, q.degree
    assert dp is not None and dq is not None
    if dq == 0:
        return q.leading_coefficient ** dp
    if dp == 0:
        return p.leading_coefficient ** dq
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    rows = [[0] * i + pc + [0] * (dq - 1 - i) for i in range(dq)]
    rows += [[0] * i + qc + [0] * (dp - 1 - i) for i in range(dp)]
    return bareiss_det(rows)


def naive_orbit_member(gamma_a: int, c_a: int, b: int, p: int) -> bool:
    """Membership oracle: iterate the map mod p for a full p steps."""
    x = b % p
    g = gamma_a % p
    c = c_a % p
    for _ in range(p):
        y = (x - g) % p
        x = (y * y + c) % p
        if x == 0:
            return True
    return False


@functools.lru_cache(maxsize=None)
def _tonelli_constants(p: int) -> tuple[int, int, int]:
    """(q, s, z^q) for p - 1 = q * 2^s with q odd and z a non-residue mod p."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = next(z for z in itertools.count(2) if pow(z, (p - 1) // 2, p) == p - 1)
    return q, s, pow(z, q, p)


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo the odd prime p by Tonelli-Shanks, or None
    when a is a non-residue."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s, c = _tonelli_constants(p)
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def root_counts_mod_p(gamma_a: int, c_a: int, p: int, depth: int) -> list[int]:
    """The numbers of distinct roots of phi^1, ..., phi^depth modulo the odd
    prime p, phi(x) = (x - gamma_a)^2 + c_a, by walking the preimage tree of
    0: the roots of phi^k are gamma_a +- sqrt(y - c_a) over the roots y of
    phi^(k-1)."""
    roots, counts = [0], []
    for _ in range(depth):
        below = []
        for y in roots:
            s = sqrt_mod(y - c_a, p)
            if s is not None:
                below += {(gamma_a + s) % p, (gamma_a - s) % p}
        roots = below
        counts.append(len(roots))
    return counts
