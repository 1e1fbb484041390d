import json
import pathlib
from fractions import Fraction

import pytest

import quadtower.density as density_mod
import quadtower.factor as factor_mod
from quadtower.bigpoly import decimal_str
from quadtower.density import (
    DensityCurve,
    default_checkpoints,
    density_curve,
    orbit_hits_zero_mod_p,
    primes_up_to,
)
from quadtower.factor import prime_table
from quadtower.family import SpecializedMap

from conftest import CORPUS, lift_int_limit, naive_orbit_member, plain_primes

X2P1 = SpecializedMap(0, 1)
FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "density_x2p1.json"


def test_primes_up_to_small():
    assert list(primes_up_to(10)) == [2, 3, 5, 7]
    assert list(primes_up_to(2)) == [2]
    assert len(list(primes_up_to(100))) == 25
    with pytest.raises(ValueError):
        list(primes_up_to(1))


def test_primes_up_to_against_independent_sieve():
    # the segmented sieve, streamed and as factor's table, against the tests'
    # plain sieve
    assert tuple(primes_up_to(10 ** 6)) == plain_primes(10 ** 6)
    assert tuple(prime_table(10 ** 6)) == plain_primes(10 ** 6)
    assert len(plain_primes(10 ** 6)) == 78498


def test_segment_size_does_not_matter(monkeypatch):
    # 64-integer segments put many segment boundaries below 10^5
    monkeypatch.setattr(factor_mod, "SEGMENT_SIZE", 64)
    assert tuple(primes_up_to(10 ** 5)) == plain_primes(10 ** 5)


def test_orbit_hits_zero_examples():
    assert orbit_hits_zero_mod_p(X2P1, 0, 2) is True
    assert orbit_hits_zero_mod_p(X2P1, 0, 3) is False
    assert orbit_hits_zero_mod_p(X2P1, 0, 5) is True


def test_orbit_membership_ignores_n_zero():
    # b == 0 mod p alone must not count; only n >= 1 hits do
    m = SpecializedMap(0, 3)  # x^2 + 3: orbit of 0 is 3, 12, 147...
    assert orbit_hits_zero_mod_p(m, 0, 5) is False
    assert naive_orbit_member(0, 3, 0, 5) is False


def test_brent_matches_naive_iteration():
    for entry in CORPUS[:5]:
        m = entry.map()
        for p in primes_up_to(10 ** 4):
            assert orbit_hits_zero_mod_p(m, 0, p) == naive_orbit_member(
                m.gamma_a, m.c_a, 0, p
            ), (entry.name, p)
    # (gamma_a, c_a, b, members among all p), None where p decides it
    stop_rule_cases = [
        (0, 1, 3, None),    # b != 0
        (1, 3, -5, None),   # b != 0, gamma_a != 0
        (0, -1, 0, True),   # 0 -> -1 -> 0: b on its own 2-cycle, no tail
        (0, -1, -1, True),  # the same cycle entered at -1
        (0, 0, 0, True),    # x^2 fixes 0: the walk stops at once, on x_0
        (1, -1, 0, True),   # (x - 1)^2 - 1 fixes 0
        (0, 0, 1, False),   # x^2 fixes 1
        (1, 1, 1, False),   # (x - 1)^2 + 1 fixes 1
        (0, -2, 2, None),   # x^2 - 2 fixes 2, a member only at p = 2
    ]
    for gamma_a, c_a, b, members in stop_rule_cases:
        m = SpecializedMap(gamma_a, c_a)
        for p in primes_up_to(10 ** 3):  # from p = 2 and 3 on
            # b itself, then two starts that are 0 mod p but not 0
            for start in (b, p, -3 * p):
                got = orbit_hits_zero_mod_p(m, start, p)
                assert got == naive_orbit_member(gamma_a, c_a, start, p), (m, start, p)
            if members is not None:
                assert orbit_hits_zero_mod_p(m, b, p) is members, (m, b, p)
    x2m2 = SpecializedMap(0, -2)
    assert [p for p in primes_up_to(100) if orbit_hits_zero_mod_p(x2m2, 2, p)] == [2]


def test_density_curve_x2p1_oracle():
    curve = density_curve(X2P1, 0, 100)
    expected_members = [
        p for p in primes_up_to(100) if naive_orbit_member(0, 1, 0, p)
    ]
    assert list(curve.member_primes) == expected_members
    last = curve.rows[-1]
    assert last.proportion == Fraction(len(expected_members), 25)


def test_density_power_map():
    m = SpecializedMap(0, 0)  # x^2; orbit of 2 is 2^(2^n)
    curve = density_curve(m, 2, 1000)
    assert list(curve.member_primes) == [2]
    assert curve.rows[-1].proportion == Fraction(1, 168)


def test_density_fermat_map_contains_641():
    m = SpecializedMap(1, 1)  # (x - 1)^2 + 1, orbit of 3 = Fermat numbers
    curve = density_curve(m, 3, 10 ** 4)
    assert 641 in curve.member_primes  # 641 | F_5
    # every member divides some Fermat number 2^(2^n) + 1
    for p in curve.member_primes:
        hits = False
        power = 2
        for _ in range(5 * p.bit_length()):
            power = power * power % p
            if (power + 1) % p == 0:
                hits = True
                break
        assert hits, p


def test_density_rows_monotone():
    curve = density_curve(X2P1, 0, 10 ** 4)
    for a, b in zip(curve.rows, curve.rows[1:]):
        assert a.x < b.x
        assert a.primes_tested <= b.primes_tested
        assert a.members <= b.members


@pytest.mark.parametrize("shards", [1, 3, 7, 50, 999])
def test_density_primes_tested_counts_each_checkpoint(shards):
    # checkpoints on primes, between them and below most shards' ranges
    checkpoints = [2, 3, 10, 97, 98, 500, 997, 1000]
    curve = density_curve(X2P1, 0, 1000, checkpoints=checkpoints, shards=shards)
    primes = plain_primes(1000)
    assert [r.primes_tested for r in curve.rows] == [
        sum(p <= cp for p in primes) for cp in checkpoints
    ]


def test_density_shard_determinism():
    curves = [
        density_curve(X2P1, 0, 10 ** 4, shards=k, workers=w)
        for k, w in ((1, 1), (4, 1), (16, 2), (5, 1))
    ]
    csvs = {c.to_csv() for c in curves}
    assert len(csvs) == 1
    assert curves[0].member_primes == curves[1].member_primes


def test_density_checkpoint_validation():
    with pytest.raises(ValueError):
        density_curve(X2P1, 0, 100, checkpoints=[50, 50])
    with pytest.raises(ValueError):
        density_curve(X2P1, 0, 100, checkpoints=[200])
    with pytest.raises(ValueError):
        density_curve(X2P1, 0, 1)
    with pytest.raises(ValueError):
        density_curve(X2P1, 0, 100, shards=0)


def test_density_json_prints_b_through_decimal_str(monkeypatch):
    # a 12,000-digit b must not go through the quadratic str() of an int
    b = -(10 ** 12000 + 7)
    converted = []

    def recording(n):
        converted.append(n)
        return decimal_str(n)

    monkeypatch.setattr(density_mod, "decimal_str", recording)
    curve = DensityCurve(b=b, rows=(), member_primes=())
    assert curve.to_json_dict() == {"b": lift_int_limit(str, b), "checkpoints": []}
    assert converted == [b]


def test_default_checkpoints():
    assert default_checkpoints(10 ** 5) == [10, 100, 1000, 10 ** 4, 10 ** 5]
    assert default_checkpoints(500) == [10, 100, 500]
    assert default_checkpoints(10) == [10]


def test_density_fixture_x1000_exact():
    data = json.loads(FIXTURE.read_text())
    curve = density_curve(X2P1, 0, 1000)
    recorded = {row["X"]: row for row in data["rows"]}
    last = curve.rows[-1]
    assert last.members == recorded[1000]["members"] == 17
    assert last.primes_tested == recorded[1000]["primes_tested"] == 168


def test_density_decay_from_fixture():
    data = json.loads(FIXTURE.read_text())
    rows = {row["X"]: Fraction(row["proportion_num"], row["proportion_den"]) for row in data["rows"]}
    assert rows[10 ** 6] < rows[10 ** 3]


@pytest.mark.parametrize("workers, shards, cores, expected", [
    (64, 8, 3, 3),       # capped at the core count
    (64, 2, 16, 2),      # capped at the shard count
    (4, 8, 16, 4),       # as asked
    (8, 1, 16, None),    # one shard: no pool at all
    (8, 8, None, None),  # core count unknown: no pool at all
])
def test_density_worker_count_is_clamped(monkeypatch, workers, shards, cores, expected):
    import quadtower.density as density_mod

    seen = []

    class RecordingPool:
        """Records max_workers and maps in this process: no worker starts."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    # density_curve imports the pool only when it starts one
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(density_mod.os, "cpu_count", lambda: cores)
    curve = density_curve(X2P1, 0, 1000, shards=shards, workers=workers)
    assert seen == ([] if expected is None else [expected])
    assert curve.to_csv() == density_curve(X2P1, 0, 1000).to_csv()


@pytest.mark.slow
def test_density_x1e6_regression_matches_fixture():
    data = json.loads(FIXTURE.read_text())
    curve = density_curve(X2P1, 0, 10 ** 6, shards=8, workers=2)
    for row, recorded in zip(curve.rows, data["rows"]):
        assert row.x == recorded["X"]
        assert row.primes_tested == recorded["primes_tested"]
        assert row.members == recorded["members"]
        assert row.proportion == Fraction(
            recorded["proportion_num"], recorded["proportion_den"]
        )
