"""Empirical density of prime divisors of orbits.

A prime p belongs to the divisor set of the orbit of b when some iterate
phi_a^n(b) with n >= 1 vanishes mod p (n = 0 does not count).  Membership is
decided in one pass of Brent's cycle search on the map mod p, which visits
every orbit value before it stops (about 1.9 sqrt(p) steps on average for
x^2 + 1 at p near 10^6).  The density curve sweeps all primes up to X
with checkpointed exact proportions, optionally sharded across processes
with bit-identical output.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from fractions import Fraction
from typing import Iterator, NamedTuple

from quadtower.bigpoly import decimal_str
from quadtower.factor import primes_in_range
from quadtower.family import SpecializedMap

# density_curve refuses more shards than MAX_SHARDS.  Each shard keeps its
# counts until the merge: for x^2 + 1 at X = 10^6, 10^4 shards cost what one
# does, while 10^5 added 5 s and 40 MB and 10^6 added 112 s and 400 MB
# (Python 3.11, 2 vCPUs).
MAX_SHARDS = 10 ** 4


class DensityRow(NamedTuple):
    x: int
    primes_tested: int
    members: int
    proportion: Fraction


class DensityCurve(NamedTuple):
    b: int
    rows: tuple[DensityRow, ...]
    member_primes: tuple[int, ...]

    def to_csv(self) -> str:
        lines = ["X,primes_tested,members,proportion"]
        for r in self.rows:
            lines.append(
                f"{r.x},{r.primes_tested},{r.members},{float(r.proportion)!r}"
            )
        return "\n".join(lines) + "\n"

    def text_lines(self):
        for r in self.rows:
            yield f"X={r.x}: {r.members}/{r.primes_tested} = {float(r.proportion)!r}"

    def to_json_dict(self) -> dict:
        return {
            "b": decimal_str(self.b),
            "checkpoints": [
                {
                    "X": r.x,
                    "primes_tested": r.primes_tested,
                    "members": r.members,
                    "proportion": float(r.proportion),
                }
                for r in self.rows
            ],
        }


def primes_up_to(x: int) -> Iterator[int]:
    """All primes <= x in increasing order, by factor's segmented sieve."""
    if x < 2:
        raise ValueError("need x >= 2")
    return primes_in_range(2, x)


def orbit_hits_zero_mod_p(map: SpecializedMap, b: int, p: int) -> bool:
    """True iff phi_a^n(b) == 0 mod p for some n >= 1.

    One Brent cycle search (Brent 1980) that tests each hare value.  It stops
    at x_t == x_(t+lam) with t >= the tail length and lam the cycle length,
    by which point the hare has visited x_1 .. x_(t+lam): every value of the
    orbit with n >= 1.  The walk runs on the conjugate y = x - gamma_a, where
    the map is y -> y^2 + v_a and x == 0 is y == -gamma_a.
    """
    v = map.v_a % p
    target = -map.gamma_a % p
    tortoise = (b - map.gamma_a) % p
    hare = (tortoise * tortoise + v) % p
    power = lam = 1
    while hare != tortoise:
        if hare == target:
            return True
        if power == lam:
            tortoise = hare
            power <<= 1
            lam = 0
        hare = (hare * hare + v) % p
        lam += 1
    return hare == target


def _scan_shard(args: tuple) -> tuple[list[int], list[int]]:
    """Scan the primes in [lo, hi]: for each checkpoint, how many of them are
    <= it, and the members among them."""
    map, b, lo, hi, checkpoints = args
    tested: list[int] = []
    members: list[int] = []
    count = 0
    for p in primes_in_range(lo, hi):
        while len(tested) < len(checkpoints) and checkpoints[len(tested)] < p:
            tested.append(count)
        count += 1
        if orbit_hits_zero_mod_p(map, b, p):
            members.append(p)
    tested += [count] * (len(checkpoints) - len(tested))
    return tested, members


def default_checkpoints(x: int) -> list[int]:
    """Powers of ten up to x, always ending at x itself."""
    out = [10 ** k for k in range(1, 19) if 10 ** k < x]
    out.append(x)
    return [c for c in out if c >= 2]


def density_curve(
    map: SpecializedMap,
    b: int,
    x_max: int,
    checkpoints: list[int] | None = None,
    shards: int = 1,
    workers: int = 1,
) -> DensityCurve:
    """Sweep all primes p <= x_max for orbit membership.

    The prime range splits into contiguous shards whose merge is order-fixed,
    so any shard count and worker count produce identical curves; a shard
    count above x_max - 1 would leave shards empty and counts as x_max - 1.
    Worker processes only pay off for large x_max.  At most min(workers,
    shards, os.cpu_count()) processes start.  A shard count still above
    MAX_SHARDS after that clamp raises ValueError before any shard runs.
    """
    if x_max < 2:
        raise ValueError("need x_max >= 2")
    if shards < 1 or workers < 1:
        raise ValueError("shards and workers must be >= 1")
    if checkpoints is None:
        checkpoints = default_checkpoints(x_max)
    if not checkpoints or sorted(set(checkpoints)) != list(checkpoints):
        raise ValueError("checkpoints must be strictly increasing")
    if checkpoints[0] < 2 or checkpoints[-1] > x_max:
        raise ValueError("checkpoints must lie in [2, x_max]")

    span = x_max - 1  # integers 2..x_max
    shards = min(shards, span)
    if shards > MAX_SHARDS:
        raise ValueError(f"shards must be <= {MAX_SHARDS}")
    bounds = [2 + span * i // shards for i in range(shards + 1)]
    jobs = [(map, b, bounds[i], bounds[i + 1] - 1, checkpoints) for i in range(shards)]
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers == 1:
        results = [_scan_shard(job) for job in jobs]
    else:
        # imported here: the pool machinery costs every CLI start about 20 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_shard, jobs))

    members: list[int] = []
    for _, shard_members in results:
        members.extend(shard_members)
    rows = []
    for i, cp in enumerate(checkpoints):
        tested = sum(counts[i] for counts, _ in results)
        hit = bisect_right(members, cp)
        rows.append(
            DensityRow(x=cp, primes_tested=tested, members=hit, proportion=Fraction(hit, tested))
        )
    return DensityCurve(b=b, rows=tuple(rows), member_primes=tuple(members))
