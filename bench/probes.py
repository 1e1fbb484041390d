"""Direct probes of single public functions, and set-up timing.

Density's sweep runs in forked workers whose spans are lost, so the density
per-layer numbers come from calling `orbit_hits_zero_mod_p`, `primes_up_to`
and `density_curve` here.  The rho probe times `factorize` at two budgets on
a seeded semiprime so that the difference is pure rho iterations.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_CODE = (
    "import time; t = time.perf_counter(); import quadtower.cli as c; "
    "c.build_parser(); print(time.perf_counter() - t)"
)

# factor._brent_rho stops once used >= budget, after rounds that bring
# `used` to 2*(2^k - 1); budgets of that form are spent exactly.
RHO_BUDGETS = (2 * (2 ** 13 - 1), 2 * (2 ** 15 - 1))
RHO_BITS = (300, 600, 900)
WALK_DECADES = (10 ** 4, 10 ** 5, 10 ** 6)
WALK_SAMPLE = 100
PARALLEL_X = 2 * 10 ** 5


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def setup_seconds(root: Path) -> float:
    """Seconds a fresh interpreter spends importing quadtower.cli and building
    the parser, timed inside that interpreter."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=child_env(root),
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


class SetupSampler:
    """Takes set-up samples on request through a helper process (this file run
    as a script), so that the sampled interpreters are the helper's children,
    not the caller's, and stay out of the caller's RUSAGE_CHILDREN."""

    def __init__(self, root: Path):
        self.samples: list[float] = []
        self._proc = subprocess.Popen([sys.executable, __file__, str(root)], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def sample(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("set-up helper stopped")
        return float(line)

    def take(self) -> None:
        self.samples.append(self.sample())

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=60)


def import_self_times(root: Path, repeats: int) -> dict[str, float]:
    """Median self seconds per quadtower module from `python -X importtime`,
    plus `other`: everything else imported under `import quadtower.cli`."""
    runs: list[dict[str, float]] = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import quadtower.cli"],
                              cwd=root, env=child_env(root), capture_output=True, text=True,
                              check=True, timeout=60)
        own: dict[str, float] = {}
        top = 0.0
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line or "self [us]" in line:
                continue
            self_us, cumulative_us, name = line[len("import time:"):].split("|")
            name = name.strip()
            if name == "quadtower" or name.startswith("quadtower."):
                own[name] = int(self_us) / 1e6
                top = max(top, int(cumulative_us) / 1e6)
        own["other"] = top - sum(own.values())
        runs.append(own)
    return {k: statistics.median(r.get(k, 0.0) for r in runs) for k in runs[0]}


def _primes_between(lo: int, hi: int) -> list[int]:
    flags = bytearray([1]) * (hi + 1)
    flags[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(hi) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, hi + 1, i)))
    return [p for p in range(lo, hi + 1) if flags[p]]


def walk_ns_per_sqrtp(rng: random.Random) -> list[float]:
    """orbit_hits_zero_mod_p time / sqrt(p) on x^2+1, b = 0, for seeded
    samples of primes just above 10^4, 10^5 and 10^6."""
    from quadtower.density import orbit_hits_zero_mod_p
    from quadtower.family import SpecializedMap

    m = SpecializedMap.make(1, 0, 1)
    out = []
    for lo in WALK_DECADES:
        for p in rng.sample(_primes_between(lo, lo + lo // 10), WALK_SAMPLE):
            t = time.perf_counter_ns()
            orbit_hits_zero_mod_p(m, 0, p)
            out.append((time.perf_counter_ns() - t) / math.sqrt(p))
    return out


def sieve_seconds(repeats: int) -> list[float]:
    from quadtower.density import primes_up_to

    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        for _ in primes_up_to(10 ** 6):
            pass
        times.append(time.perf_counter() - t)
    return times


def parallel_efficiency() -> float:
    """Wall time of one worker over twice the wall time of two, same sweep."""
    from quadtower.density import density_curve
    from quadtower.family import SpecializedMap

    m = SpecializedMap.make(1, 0, 1)
    walls = {}
    for workers in (1, 2):
        t = time.perf_counter()
        density_curve(m, 0, PARALLEL_X, shards=8, workers=workers)
        walls[workers] = time.perf_counter() - t
    return walls[1] / (2 * walls[2])


def _probable_prime(n: int, rng: random.Random) -> bool:
    """Miller-Rabin of the probe's own, so that its inputs do not depend on
    the factor module it measures."""
    if n < 4 or n % 2 == 0:
        return n in (2, 3)
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for _ in range(20):
        x = pow(rng.randrange(2, n - 1), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def semiprime(bits: int, rng: random.Random) -> int:
    """A product of two random primes of bits/2 bits each, exactly `bits` long."""
    while True:
        p, q = (_random_prime(bits // 2, rng) for _ in range(2))
        if (p * q).bit_length() == bits:
            return p * q


def _random_prime(bits: int, rng: random.Random) -> int:
    while True:
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _probable_prime(n, rng):
            return n


def rho_ns_per_iter(rng: random.Random) -> dict[int, float]:
    """Slope of factorize time between the two rho budgets, per iteration."""
    from quadtower.factor import Budget, factorize

    out = {}
    for bits in RHO_BITS:
        n = semiprime(bits, rng)
        walls = []
        for iters in RHO_BUDGETS:
            t = time.perf_counter_ns()
            result = factorize(n, Budget(trial_bound=1000, rho_iters=iters))
            walls.append(time.perf_counter_ns() - t)
            if result.complete:
                raise RuntimeError(f"rho split the {bits}-bit probe semiprime; pick larger factors")
        out[bits] = (walls[1] - walls[0]) / (RHO_BUDGETS[1] - RHO_BUDGETS[0])
    return out


if __name__ == "__main__":
    # Set-up helper: one sample per line read from stdin.
    for _ in sys.stdin:
        print(setup_seconds(Path(sys.argv[1])), flush=True)
