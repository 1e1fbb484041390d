import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadtower
from quadtower.bigpoly import DigitBudgetError, decimal_str
import quadtower.cli
from quadtower.cli import COMMANDS, GROUPS, MAX_BITS, MAX_CONFIG_BYTES, MAX_LEVEL, main
from quadtower.density import MAX_SHARDS
import quadtower.factor
from quadtower.factor import MAX_RHO_ITERS
import quadtower.family
from quadtower.family import (
    MAX_DIVISORS,
    MAX_EXCEPTIONAL_DEGREE,
    MAX_EXCEPTIONAL_THRESHOLD,
    HallLangConstants,
    QuadraticFamily,
)
from quadtower.galois import certify_tower
from quadtower.orbit import critical_orbit, orbit

from conftest import ACCEPTANCE_MAPS, CorpusEntry, lift_int_limit


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args, **kwargs):
    """python *args in a fresh interpreter that imports this quadtower, with
    a 60 s timeout."""
    src = pathlib.Path(quadtower.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=60, **kwargs)


def run_subprocess(*args, **kwargs):
    """The CLI in a fresh interpreter, for inputs whose regression would hang
    or exhaust the test process."""
    return run_python("-m", "quadtower.cli", *args, **kwargs)


def run_capped(*args):
    """run_subprocess under a 1 GiB address-space cap, so that an input whose
    regression would exhaust the machine fails with a MemoryError instead."""
    resource = pytest.importorskip("resource")
    cap = 1 << 30

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return run_subprocess(*args, preexec_fn=limit)


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # every process pays for its imports: dataclasses pulls in inspect, ast,
    # dis and tokenize, and its decorator execs about six methods per class
    proc = run_python("-c", "import quadtower.cli, sys; "
                            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("c, threshold", [("10000000,1", 20000001),
                                          ("1000000000000,1", 2000000000001)])
def test_family_info_refuses_a_large_exceptional_ball(c, threshold):
    # F_phi lists every |a| <= threshold: 4 * 10^7 and 4 * 10^12 ints here
    start = time.perf_counter()
    proc = run_capped("family-info", "--gamma", "0", "--c", c)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout) == {"error": "budget-exceeded", "partial": None}
    assert proc.stderr == (f"quadtower: budget: F_phi would list every |a| <= {threshold}; "
                           f"the limit is {MAX_EXCEPTIONAL_THRESHOLD}\n")


def test_family_info_refuses_a_trailing_coefficient_with_too_many_divisors(capsys):
    # c = k(t + 1) with k = 73# (the product of the primes to 73): the
    # trailing coefficient k of P_phi's factor c alone has 2^21 > MAX_DIVISORS
    # divisors.  A valid family, so a budget refusal, not a usage error.
    k = 40729680599249024150621323470
    code, out, err = run(capsys, "family-info", "--gamma", "0", "--c", f"{k},{k}")
    assert code == 2
    assert json.loads(out) == {"error": "budget-exceeded", "partial": None}
    assert err == (f"quadtower: budget: the trailing coefficient of P_phi has more than "
                   f"{MAX_DIVISORS} divisors\n")


def test_family_info_refuses_before_it_tries_a_divisor(capsys):
    # c = k(1 + t) with k = 71#: c's 2^20 divisors pass the guard, but the
    # trailing coefficient k(k + 1) of (c - gamma)^2 + c has more, so the
    # call is refused before any of c's divisors is tried as a root
    k = math.prod(p for p in range(2, 72) if all(p % q for q in range(2, p)))
    start = time.perf_counter()
    code, out, err = run(capsys, "family-info", "--gamma", "0", "--c", f"{k},{k}")
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert json.loads(out) == {"error": "budget-exceeded", "partial": None}
    assert err == (f"quadtower: budget: the trailing coefficient of P_phi has more than "
                   f"{MAX_DIVISORS} divisors\n")


def test_family_info_skips_the_factors_whose_roots_stay_in_the_ball(capsys):
    # gamma = -2^256, c = 2^256 t: the trailing coefficient 2^256 + 1 of
    # c - gamma + 1 does not split within the default budget, but no root of
    # c - gamma + j can lie outside the ball |a| <= 3
    start = time.perf_counter()
    code, out, err = run(capsys, "family-info", f"--gamma=-{2 ** 256}", "--c", f"0,{2 ** 256}",
                         "--json")
    assert time.perf_counter() - start < 1
    assert code == 0, err
    assert json.loads(out)["exceptional_set"] == [-3, -2, -1, 0, 1, 2, 3]


def test_family_info_factors_at_most_two_trailing_coefficients(capsys, monkeypatch):
    # each of P_phi's five factors has a trailing coefficient above 1 here;
    # family factors them through factor.factorize_fully
    calls = []
    factorize = quadtower.factor.factorize
    monkeypatch.setattr(quadtower.factor, "factorize",
                        lambda n, budget: calls.append(n) or factorize(n, budget))
    code, out, _ = run(capsys, "family-info", "--gamma", "0", "--c", "6,1", "--json")
    assert code == 0
    assert json.loads(out)["exceptional_set"] == list(range(-13, 14))
    assert 1 <= len(calls) <= 2


@pytest.mark.parametrize("gamma, c, degree", [
    ("0", ",".join(["1"] * 668), 4002),
    ("0", ",".join(["1"] * 64_000), 383_994),  # about what a 128 KiB argument holds
    ("0," * 800 + "1", "0,1", 4001),
])
def test_family_info_refuses_a_large_exceptional_degree(gamma, c, degree):
    # deg c + max(2 deg f, deg c) + 3 deg f bounds deg P_phi before any
    # product; the product for 64,000 coefficients takes minutes
    start = time.perf_counter()
    proc = run_capped("family-info", "--gamma", gamma, "--c", c)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout) == {"error": "budget-exceeded", "partial": None}
    assert proc.stderr == (f"quadtower: budget: P_phi would have degree up to {degree}; "
                           f"the limit is {MAX_EXCEPTIONAL_DEGREE}\n")


def test_family_info_expands_a_p_phi_at_the_degree_limit(capsys):
    # gamma = t^800, c = 1: the bound 2 * 800 + 3 * 800 is the limit itself
    code, out, err = run(capsys, "family-info", "--gamma", "0," * 800 + "1", "--c", "1", "--json")
    assert code == 0, err
    data = json.loads(out)
    assert data["exceptional_polynomial"]["display"].startswith(f"-t^{MAX_EXCEPTIONAL_DEGREE} + ")
    assert data["exceptional_set"] == list(range(-1601, 1602))


@pytest.mark.parametrize("fmt", [(), ("--json",)])
def test_family_info_computes_each_family_constant_once(capsys, monkeypatch, fmt):
    # every P_phi, expanded or not, starts from _exceptional_factors
    calls = {"_exceptional_factors": 0, "compute_bound_constants": 0}
    for name in calls:
        method = getattr(QuadraticFamily, name)

        def counted(self, _method=method, _name=name):
            calls[_name] += 1
            return _method(self)

        monkeypatch.setattr(QuadraticFamily, name, counted)
    code, _, _ = run(capsys, "family-info", "--gamma", "0", "--c", "0,1", *fmt)
    assert code == 0
    assert calls == {"_exceptional_factors": 1, "compute_bound_constants": 1}


def test_family_info_json(capsys):
    code, out, _ = run(capsys, "family-info", "--gamma", "0", "--c", "0,1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["m_phi"] == 17
    assert data["exceptional_set"] == [-2, -1, 0, 1, 2]
    assert data["isotrivial"] is False
    assert data["bound_constants"]["threshold"] == 2


def test_family_info_isotrivial(capsys):
    code, out, _ = run(capsys, "family-info", "--gamma", "0,1", "--c", "5,1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["isotrivial"] is True
    assert data["m_phi"] is None


def test_certify_matches_library(capsys):
    code, out, _ = run(
        capsys, "certify", "--gamma", "0", "--c", "0,1", "--a", "2", "--to", "6", "--json"
    )
    assert code == 0
    data = json.loads(out)
    report = certify_tower(QuadraticFamily.of([0], [0, 1]).specialize(2), 1, 6)
    assert data["certificates"] == [c.to_json_dict() for c in report.certificates]
    assert data["counts"]["CertifiedMaximal"] == 5


# The maps the tower-20 benchmark certifies to level 20.
TOWER_MAPS = [CorpusEntry("x2+1", (0,), (0, 1), 1)] + [
    e for e in ACCEPTANCE_MAPS
    if e.name in ("x2+2", "x2+3", "x2-3", "shift-by-1", "shifted-jones-small")
]


def _certify_rendering(report) -> tuple[str, str]:
    """Reference for certify's text and JSON output, built from the report's
    decimal witnesses (test_galois checks them against binary stripping)."""
    witnesses = [c.witness for c in report.certificates]
    lines = [f"level {c.level}: {c.status}" + ("" if w is None else f" (witness {w})")
             for c, w in zip(report.certificates, witnesses)]
    lines.append("counts: " + ", ".join(f"{k}={v}" for k, v in report.counts.items()))
    doc = {
        "from": report.first_level,
        "to": report.last_level,
        "certificates": [{"level": c.level, "status": c.status, "witness": w}
                         for c, w in zip(report.certificates, witnesses)],
        "counts": report.counts,
    }
    return "\n".join(lines) + "\n", json.dumps(doc, indent=2) + "\n"


def _map_args(entry):
    return ("--gamma", ",".join(map(str, entry.gamma)), "--c", ",".join(map(str, entry.c)),
            f"--a={entry.a}")


@pytest.mark.parametrize("entry", TOWER_MAPS, ids=lambda e: e.name)
def test_certify_level_20_prints_every_witness_as_decimal_str(capsys, entry):
    text, doc = _certify_rendering(certify_tower(entry.map(), 1, 20))
    args = ("certify", *_map_args(entry), "--from", "1", "--to", "20")
    assert run(capsys, *args) == (0, text, "")
    assert run(capsys, *args, "--format", "json") == (0, doc, "")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_certify_partial_report_prints_as_decimal_str(capsys, fmt):
    # levels 17 and 18 of x^2+2 (85 and 170 kbit) fit 200,000 bits, level 19 not
    m = QuadraticFamily.of([0], [0, 1]).specialize(2)
    with pytest.raises(DigitBudgetError) as err:
        certify_tower(m, 1, 20, max_bits=200_000)
    partial = err.value.partial
    assert len(partial.certificates) == 18
    code, out, _ = run(capsys, "certify", "--gamma", "0", "--c", "0,1", "--a", "2",
                       "--to", "20", "--bits", "200000", "--format", fmt)
    assert code == 2
    assert json.loads(out)["partial"] == json.loads(_certify_rendering(partial)[1])


def test_orbit_rows_print_as_decimal_str(capsys):
    m = QuadraticFamily.of([0, 1], [1, 1]).specialize(4)
    args = ("--gamma", "0,1", "--c", "1,1", "--a", "4", "--depth", "18")
    values = critical_orbit(m, 18).values
    assert values[-1].bit_length() > 1 << 16
    code, out, _ = run(capsys, "critical-orbit", *args)
    assert code == 0
    assert out.splitlines()[:-1] == [
        f"{n}: {decimal_str(v)} ({v.bit_length()} bits)" for n, v in enumerate(values, 1)
    ]
    code, out, _ = run(capsys, "critical-orbit", *args, "--json")
    assert [row["value"] for row in json.loads(out)["values"]] == list(map(decimal_str, values))

    values = orbit(m, -5, 18).values
    code, out, _ = run(capsys, "orbit", *args, "--b=-5", "--json")
    assert code == 0
    assert [json.loads(line) for line in out.splitlines()] == [
        {"n": n, "value": decimal_str(v), "bits": v.bit_length()} for n, v in enumerate(values)
    ]


def test_orbit_json_lines(capsys):
    code, out, _ = run(
        capsys, "orbit", "--gamma", "1", "--c", "1", "--a", "0",
        "--b", "3", "--depth", "4", "--json",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["value"] for r in rows] == ["3", "5", "17", "257", "65537"]
    assert rows[4]["bits"] == 17


def test_output_byte_identical_across_runs(capsys):
    args = ("density", "--gamma", "0", "--c", "0,1", "--a", "1",
            "--b", "0", "--X", "2000", "--format", "csv")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_density_csv_and_json(capsys):
    code, out, _ = run(
        capsys, "density", "--gamma", "0", "--c", "0,1", "--a", "1",
        "--b", "0", "--X", "1000", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "X,primes_tested,members,proportion"
    assert lines[-1].startswith("1000,168,17,")

    code, out, _ = run(
        capsys, "density", "--gamma", "0", "--c", "0,1", "--a", "1",
        "--b", "0", "--X", "1000", "--json",
    )
    data = json.loads(out)
    assert data["checkpoints"][-1]["members"] == 17


def test_critical_orbit_and_stability(capsys):
    code, out, _ = run(
        capsys, "critical-orbit", "--gamma", "0", "--c", "0,1",
        "--a", "1", "--depth", "4", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert [r["value"] for r in data["values"]] == ["1", "2", "5", "26"]
    assert data["condition_one_holds"] is True

    code, out, _ = run(
        capsys, "stability", "--gamma", "0", "--c", "0,1",
        "--a", "2", "--depth", "6", "--json",
    )
    data = json.loads(out)
    assert data["verdict"] == "NoSquareUpTo(6)"


def test_primitive_divisors_both_methods(capsys):
    base = ("primitive-divisors", "--gamma", "0", "--c", "0,1", "--a", "1", "--level", "4")
    code, out, _ = run(capsys, *base, "--method", "exact", "--json")
    assert code == 0
    assert json.loads(out)["primes"] == ["13"]
    code, out, _ = run(capsys, *base, "--method", "certificate", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["certified"] is True
    assert data["witness"] == "13"


@pytest.mark.parametrize("level", ["12", "40"])
def test_discriminant_direct_refuses_above_level_ten(level):
    # a separate process with a timeout: composing phi^12 took over 90 s
    proc = run_subprocess("discriminant", "--gamma", "0", "--c", "0,1", "--a", "1",
                          "--level", level, "--direct")
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout) == {"error": "digit-budget-exceeded", "partial": None}
    assert f"level {level}" in proc.stderr


def test_discriminant_direct_cross_check(capsys):
    code, out, _ = run(
        capsys, "discriminant", "--gamma", "0", "--c", "0,1", "--a", "1",
        "--level", "2", "--direct", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["recurrence"] == "512"
    assert data["direct"] == "512"
    assert data["agree"] is True


def test_curve_with_search(capsys):
    code, out, _ = run(
        capsys, "curve", "--gamma", "0", "--c", "0,1", "--a", "1",
        "--level", "4", "--search", "6", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["forced_point_verified"] is True
    assert {(p["x"], p["y"]) for p in data["integral_points"]} >= {("5", "52"), ("5", "-52")}


@pytest.mark.parametrize("kappa, digest", [
    ("--kappa1", "1caca3877d3a54d9de790e7c73c05e03f152acdf60e2db6a30536473e8603c8d"),
    ("--kappa2", "c80065031ce5eaf1d4d272b676f73e4f979eebe3ebb5ff0874db00250d4bbc3d"),
    ("--kappa3", "3fd4892ad095a731bb85d6e7ab4c2768d3c51be2119e735bfeb5a14c84ae4d8f"),
])
def test_nphi_bound_refuses_a_kappa_that_overflows_the_chain(capsys, kappa, digest):
    def call(value):
        kappas = [arg for k in ("--kappa1", "--kappa2", "--kappa3")
                  for arg in (k, value if k == kappa else "1")]
        return run(capsys, "nphi-bound", "--gamma", "0", "--c", "0,1", *kappas)

    code, out, _ = call("1e300")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)
    assert call("1e308") == (1, "", "quadtower: error: the bound chain overflows a float; "
                                    "use smaller kappas\n")


def test_nphi_bound_and_index_bound(capsys):
    code, out, _ = run(
        capsys, "nphi-bound", "--gamma", "0", "--c", "0,1",
        "--kappa1", "1", "--kappa2", "1", "--kappa3", "1", "--json",
    )
    assert code == 0
    data = json.loads(out)
    fam = QuadraticFamily.of([0], [0, 1])
    rep = fam.nphi_bound(HallLangConstants(1.0, 1.0, 1.0))
    assert data["n_phi"] == rep.n_phi
    assert data["M_phi"] == rep.m_phi

    code, out, _ = run(capsys, "index-bound", "--n", "3", "--json")
    assert json.loads(out)["index_bound"] == "16"


@pytest.mark.parametrize("exponent", [15, 20, 40, 400])
def test_nphi_bound_refuses_a_threshold_whose_denominator_cancels(capsys, exponent):
    # D*log(threshold + 1) - B1 is 0.0 in floats from a threshold near 10^15
    # on, so the chain must divide by D*log1p(1/threshold); only a threshold
    # that takes the chain out of the float range is refused
    code, out, err = run(capsys, "nphi-bound", "--gamma", "0", "--c", f"{10 ** exponent},1",
                         "--kappa1", "1", "--kappa2", "1", "--kappa3", "1", "--json")
    if exponent < 305:
        fam = QuadraticFamily.of([0], [10 ** exponent, 1])
        assert code == 0
        assert json.loads(out)["n_phi"] == fam.nphi_bound(HallLangConstants(1.0, 1.0, 1.0)).n_phi
    else:
        assert (code, out) == (1, "")
        assert err == ("quadtower: error: the bound chain leaves the float range at threshold "
                       f"{2 * 10 ** exponent + 1}\n")


def test_nphi_bound_below_the_cancellation_keeps_its_output(capsys):
    # the float difference of logs gives n_phi 128 here; the exact chain gives 129
    code, out, _ = run(capsys, "nphi-bound", "--gamma", "0", "--c", "100000000000000,1",
                       "--kappa1", "1", "--kappa2", "1", "--kappa3", "1")
    assert "n_phi: 129\n" in out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
        0, "31a243b81ad30e6db3b0a1d85b0382695feab872d4854c905007de9f097cda12")


def test_csv_restricted_to_density(capsys):
    code, _, err = run(capsys, "certify", "--gamma", "0", "--c", "0,1",
                       "--a", "2", "--to", "3", "--format", "csv")
    assert code == 1
    assert "csv" in err


def test_usage_errors_exit_one(capsys):
    code, _, err = run(capsys, "orbit", "--gamma", "0", "--c", "0,1", "--a", "1")
    assert code == 1  # missing --b
    assert "--b" in err

    code, _, err = run(capsys, "nphi-bound", "--gamma", "0,1", "--c", "5,1",
                       "--kappa1", "1", "--kappa2", "0", "--kappa3", "0")
    assert code == 1  # isotrivial family

    # x^2 at a = 0: every critical value is 0, and each route that factors or
    # strips the level value refuses it by name before it tries
    for argv in (("curve",), ("primitive-divisors", "--method", "exact"),
                 ("primitive-divisors", "--method", "certificate")):
        code, _, err = run(capsys, *argv, "--gamma", "0", "--c", "0,1", "--a", "0", "--level", "2")
        assert (code, err) == (1, "quadtower: error: level value is zero\n"), argv

    with pytest.raises(SystemExit) as exc:
        main(["orbit", "--no-such-flag"])
    assert exc.value.code == 1


def test_budget_error_exits_two_with_partial(capsys):
    code, out, err = run(
        capsys, "orbit", "--gamma", "0", "--c", "0,1", "--a", "1",
        "--b", "0", "--depth", "30", "--bits", "64",
    )
    assert code == 2
    data = json.loads(out)
    assert data["error"] == "digit-budget-exceeded"
    assert [row["value"] for row in data["partial"]][:4] == ["0", "1", "2", "5"]
    assert "budget" in err


def test_budget_error_without_orbit_prints_null_partial(capsys):
    # no orbit lies behind these refusals, so there is nothing partial to print;
    # discriminant refuses level 25 (2^25 > 2^20 bits) before the orbit, and
    # its level-1 value 4|c_a| = 4 needs 3 bits like any other level's
    for argv in (("index-bound", "--n", "7", "--bits", "120"),
                 ("discriminant", "--gamma", "0", "--c", "0,1", "--a", "1",
                  "--level", "3", "--bits", "16"),
                 ("discriminant", "--gamma", "0", "--c", "0,1", "--a", "1",
                  "--level", "1", "--bits", "2"),
                 ("discriminant", "--gamma", "0", "--c", "0,1", "--a", "1", "--level", "25")):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == '{\n  "error": "digit-budget-exceeded",\n  "partial": null\n}\n'
        assert "budget" in err
    err = DigitBudgetError("refused")
    assert (err.partial, err.what, err.bits, err.max_bits) == (None, None, None, None)


_EMPTY_TOWER = {"from": 1, "to": 6, "certificates": [],
                "counts": {"CertifiedMaximal": 0, "Unknown": 0, "FailedSquareOverQ": 0}}


@pytest.mark.parametrize("argv, partial", [
    (("stability", "--depth", "6"), []),
    (("primitive-divisors", "--level", "4", "--method", "certificate"), []),
    (("primitive-divisors", "--level", "4", "--method", "exact"), []),
    (("certify", "--to", "6"), _EMPTY_TOWER),
    (("critical-orbit", "--depth", "6"), []),
])
def test_level_one_refusal_prints_an_empty_partial(capsys, argv, partial):
    # c_a = 2 needs 2 bits, so the budget refuses before any value is kept
    code, out, err = run(capsys, argv[0], "--gamma", "0", "--c", "0,1", "--a", "2",
                         *argv[1:], "--bits", "1")
    assert (code, err) == (2, "quadtower: budget: orbit value needs 2 bits; budget is 1\n")
    assert out == json.dumps({"error": "digit-budget-exceeded", "partial": partial},
                             indent=2) + "\n"


def _rows(doc):
    return [(row["n"], row["value"]) for row in doc]


@pytest.mark.parametrize("argv", [
    ("critical-orbit", "--depth", "10"),
    ("stability", "--depth", "10"),
    ("discriminant", "--level", "8"),
    ("curve", "--level", "8"),
    ("primitive-divisors", "--level", "8"),
])
def test_partial_critical_values_are_a_prefix_of_the_full_rows(capsys, argv):
    # c_a = 10^6 doubles from 20 bits, so level 5 is the first past 300 bits
    fam = ("--gamma", "0", "--c", "0,1", "--a", "1000000")
    code, out, _ = run(capsys, argv[0], *fam, *argv[1:], "--bits", "300")
    assert code == 2
    partial = _rows(json.loads(out)["partial"])
    assert [n for n, _ in partial] == [1, 2, 3, 4]
    code, out, _ = run(capsys, "critical-orbit", *fam, "--depth", "10", "--json")
    assert code == 0
    assert partial == _rows(json.loads(out)["values"])[:4]


def test_partial_orbit_values_are_a_prefix_of_the_full_rows(capsys):
    argv = ("orbit", "--gamma", "0", "--c", "0,1", "--a", "1000000", "--b=-7", "--depth", "10")
    code, out, _ = run(capsys, *argv, "--bits", "300")
    assert code == 2
    partial = _rows(json.loads(out)["partial"])
    assert [n for n, _ in partial] == [0, 1, 2, 3, 4]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert partial == _rows(map(json.loads, out.splitlines()))[:5]


def test_traced_cli_sees_every_layer():
    # the benchmark's tracer swaps module bindings such as
    # quadtower.cli.certify_tower; a command that held the functions
    # themselves would leave those layers without spans
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    import quadtower.cli

    tracer = tracing.Tracer()
    fam = ("--gamma", "0", "--c", "0,1", "--a", "1")
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert quadtower.cli.main(["certify", *fam, "--to", "6"]) == 0
        assert quadtower.cli.main(["curve", *fam, "--level", "4"]) == 0
    assert {s.name for s in tracer.spans} >= {
        "cli.main", "galois.certify_tower", "orbit.critical_orbit",
        "factor.squarefree_decompose", "galois.curve_model", "galois.verify_forced_point",
    }


def test_incomplete_factorization_exits_two(capsys):
    code, out, err = run(
        capsys, "curve", "--gamma", "0", "--c", "0,1", "--a", "2",
        "--level", "6", "--trial-bound", "100", "--rho-iters", "10",
    )
    assert code == 2
    data = json.loads(out)
    assert data["error"] == "incomplete-factorization"
    assert data["partial"]["complete"] is False
    assert "budget" in err


def test_incomplete_partial_lists_no_prime_of_its_cofactor(capsys):
    # x^2 + a at level 1 factors a = N^2, N = 2400971 * 798638215261; its
    # root N is tried once and resists, so N^2 comes back whole
    n = 2400971 * 798638215261
    code, out, err = run(
        capsys, "curve", "--gamma", "0", "--c", "0,1", "--a", str(n * n),
        "--level", "1", "--trial-bound", "100", "--rho-iters", "4000", "--json",
    )
    assert code == 2
    partial = json.loads(out)["partial"]
    cofactor = int(partial["cofactor"])
    assert not any(cofactor % int(p) == 0 for p, _e in partial["factors"])
    assert partial["sign"] * cofactor * math.prod(
        int(p) ** e for p, e in partial["factors"]) == n * n
    assert partial == {"sign": 1, "factors": [], "cofactor": str(n * n), "complete": False}


def test_family_info_exits_two_when_the_trailing_coefficient_resists(capsys):
    # P_phi's first factor c = N + t has trailing coefficient N = 10007 * 10009,
    # which no rho iteration is left to split
    n = 10007 * 10009
    code, out, err = run(capsys, "family-info", "--gamma", str(n), "--c", f"{n},1",
                         "--rho-iters", "0", "--trial-bound", "100")
    assert code == 2
    data = json.loads(out)
    assert data["error"] == "incomplete-factorization"
    assert data["partial"] == {"sign": 1, "factors": [], "cofactor": str(n), "complete": False}
    assert err == "quadtower: budget: cannot enumerate divisors of the trailing coefficient\n"


@pytest.mark.parametrize("argv", [("curve",), ("primitive-divisors", "--method", "exact")])
@pytest.mark.parametrize("level", [13, 20])
def test_values_above_max_factor_bits_exit_two_unfactored(argv, level):
    # x^2 + 1 at level 13 is 2,408 bits; factoring it ran past 60 s before the cap
    start = time.perf_counter()
    proc = run_capped(argv[0], "--gamma", "0", "--c", "0,1", "--a", "1",
                      "--level", str(level), *argv[1:])
    assert time.perf_counter() - start < 5
    assert proc.returncode == 2, proc.stderr
    partial = json.loads(proc.stdout)["partial"]
    assert partial["complete"] is False
    value = partial["sign"] * lift_int_limit(int, partial["cofactor"])
    for p, e in partial["factors"]:
        value *= int(p) ** e
    assert value == critical_orbit(QuadraticFamily.of([0], [0, 1]).specialize(1), level).values[-1]
    # both commands name the cap, not the budget: the value was never tried
    assert proc.stderr == (f"quadtower: budget: a {value.bit_length()}-bit value is not factored; "
                           "factoring stops at 2048 bits\n")


def test_family_info_names_the_factoring_cap_above_it(capsys):
    # P_phi's first factor c = K + t has the 2,101-bit trailing coefficient K
    k = decimal_str(2 ** 2100 + 1)
    code, out, err = run(capsys, "family-info", "--gamma", k, "--c", f"{k},1")
    assert code == 2
    assert json.loads(out)["partial"] == {"sign": 1, "factors": [], "cofactor": k, "complete": False}
    assert err == "quadtower: budget: a 2101-bit value is not factored; factoring stops at 2048 bits\n"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter has no limit on int-to-str digits")
def test_main_leaves_the_int_str_limit_alone():
    # in a fresh interpreter, so that no earlier call has moved the limit
    proc = run_python("-c", "import sys; from quadtower.cli import main; "
                            "limit = sys.get_int_max_str_digits(); "
                            "codes = [main(['index-bound', '--n', '20']), "
                            "main(['critical-orbit', '--gamma', '0', '--c', '0,1', '--a', '1', "
                            "'--depth', '14'])]; "
                            "print(codes, sys.get_int_max_str_digits() == limit, file=sys.stderr)")
    assert proc.stderr == "[0, 0] True\n"


_HUGE = "7" * 100_000


@pytest.mark.parametrize("argv", [
    ("critical-orbit", "--gamma", "0", "--c", "0,1", "--a", _HUGE, "--depth", "2"),
    ("density", "--gamma", "0", "--c", "0,1", "--a", "1", "--b", _HUGE, "--X", "100", "--json"),
    ("family-info", "--gamma", _HUGE, "--c", _HUGE),
    ("family-info", "--gamma", f"{_HUGE},1", "--c", "0", "--json"),
    ("curve", "--gamma", "0", "--c", "0,1", "--a", "1000000000000", "--level", "2",
     "--trial-bound", "2", "--seed", _HUGE),
], ids=["a", "b", "c", "threshold", "seed"])
def test_hundred_thousand_digit_values_need_no_lift_of_the_int_str_limit(capsys, argv):
    # the fresh interpreter keeps its own limit: the default, or what
    # PYTHONINTMAXSTRDIGITS sets
    proc = run_subprocess(*argv)
    code, out, _ = lift_int_limit(run, capsys, *argv)
    assert proc.returncode == code == 0, proc.stderr[-500:]
    assert proc.stdout == out


@pytest.mark.parametrize("argv", [
    ("index-bound", "--n", _HUGE),
    ("discriminant", "--gamma", "0", "--c", "0,1", "--a", "1", "--level", _HUGE, "--direct"),
], ids=["n", "level"])
def test_hundred_thousand_digit_levels_are_budget_refusals(capsys, argv):
    # the refusal names the level through decimal_str, so it is a budget
    # error under any limit, not the interpreter's "Exceeds the limit"
    refusal = '{\n  "error": "digit-budget-exceeded",\n  "partial": null\n}\n'
    proc = run_subprocess(*argv)
    code, out, err = run(capsys, *argv)
    assert proc.returncode == code == 2, proc.stderr[-500:]
    assert proc.stdout == out == refusal
    assert proc.stderr == err and _HUGE in err


@pytest.mark.slow
def test_values_at_the_factoring_cap_keep_their_output():
    # level 12 of x^2 + 1 (1,206 bits) is factored as before the cap; the
    # digest is of the output recorded without it
    proc = run_subprocess("curve", "--gamma", "0", "--c", "0,1", "--a", "1", "--level", "12")
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == "b3d57fedcfc2df63024b9668c5856d257d9ec84e402a1d82b483ddd39ece7d27"


@pytest.mark.parametrize("direct", [(), ("--direct",)])
def test_discriminant_at_level_one_is_four_times_c(capsys, direct):
    code, out, _ = run(capsys, "discriminant", "--gamma", "0", "--c", "0,1", "--a=-7",
                       "--level", "1", *direct, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["recurrence"] == "28"
    if direct:
        assert (data["direct"], data["agree"]) == ("28", True)


def test_density_bad_checkpoints_exit_one(capsys):
    code, out, err = run(capsys, "density", "--gamma", "0", "--c", "0,1", "--a", "1",
                         "--b", "0", "--X", "100", "--checkpoints", "10,x")
    assert (code, out) == (1, "")
    assert err.startswith("quadtower: error: bad integer list for --checkpoints")


def test_missing_config_file_exits_one(capsys, tmp_path):
    code, out, err = run(capsys, "orbit", "--config", str(tmp_path / "missing.json"))
    assert (code, out) == (1, "")
    assert err.startswith("quadtower: error: cannot read config")


def test_depth_zero_is_usage_error(capsys):
    # orbit --depth 0 prints b alone; these two commands start at level 1
    for command in ("critical-orbit", "stability"):
        assert run(capsys, command, "--gamma", "0", "--c", "0,1", "--a", "1", "--depth", "0") == (
            1, "", f"quadtower: error: --depth must be in [1, {MAX_LEVEL}]\n")


def test_seed_only_where_a_budget_is_built(capsys):
    takes_seed = {name for name in COMMANDS
                  if "--seed" in (names[0] for names, _ in quadtower.cli._flags(name))}
    assert takes_seed == {"family-info", "primitive-divisors", "curve"}
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--gamma", "0", "--c", "0,1", "--a", "2", "--seed", "5"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra", [
    ("critical-orbit", ("--depth", "3")),
    ("certify", ("--to", "3")),
])
@pytest.mark.parametrize("bits", ["-5", "-1", "0"])
def test_bits_below_one_is_usage_error(capsys, command, extra, bits):
    code, out, err = run(capsys, command, "--gamma", "0", "--c", "0,1",
                         "--a", "2", *extra, "--bits", bits)
    assert code == 1
    assert out == ""
    assert "--bits" in err


@pytest.mark.parametrize("argv", [
    ("orbit", "--b", "0", "--depth"),
    ("critical-orbit", "--depth"),
    ("stability", "--depth"),
    ("certify", "--from", "1", "--to"),
    ("certify", "--to", str(MAX_LEVEL), "--from"),
    ("curve", "--level"),
    ("primitive-divisors", "--level"),
])
def test_level_flags_stop_at_max_level(capsys, argv):
    fam = ("--gamma", "0", "--c", "0,1", "--a=-2")  # x^2 - 2: -2, 2, 2, ...
    code, out, err = run(capsys, argv[0], *fam, *argv[1:], str(MAX_LEVEL + 1))
    lo = 0 if argv[0] == "orbit" else 1
    assert (code, out, err) == (1, "", f"quadtower: error: {argv[-1]} must be in "
                                       f"[{lo}, {MAX_LEVEL}]\n")
    code, _, err = run(capsys, argv[0], *fam, *argv[1:], str(MAX_LEVEL))
    assert code == 0, err


def test_every_integer_flag_declares_its_range():
    declared = [*(flag for group in GROUPS.values() for flag in group),
                *(flag for command in COMMANDS.values() for flag in command.flags)]
    for names, kwargs in declared:
        if kwargs.get("type") is int and "choices" not in kwargs:
            assert "range" in kwargs, names[0]
        if kwargs.get("range") is not None:
            lo, hi = kwargs["range"]
            assert isinstance(lo, int) and (hi is None or lo <= hi), names[0]


def _ranged(name):
    """(flag, lo, hi) for each of command name's flags with a bounded range."""
    return [(names[0], *kwargs["range"]) for names, kwargs in quadtower.cli._flags(name)
            if kwargs.get("range") is not None]


RANGED = [(name, *row) for name in COMMANDS for row in _ranged(name)]


def _cheap_argv(name):
    """A call of command name on x^2 - 2, whose orbits of 0 and of the
    critical point stay bounded (-2, 2, 2, ...), so that it runs fast at any
    level."""
    if name == "index-bound":
        return [name, "--n", "3"]
    point = [] if name in ("family-info", "nphi-bound") else ["--a=-2"]
    extra = {"orbit": ["--b", "0"], "density": ["--b", "0", "--X", "100"],
             "certify": ["--to", str(MAX_LEVEL)],
             "nphi-bound": ["--kappa1", "1", "--kappa2", "1", "--kappa3", "1"]}.get(name, [])
    return [name, "--gamma", "0", "--c", "0,1", *point, *extra]


# the flags each command cannot run without, in table order
REQUIRED = {
    "family-info": ("--gamma", "--c"),
    "orbit": ("--gamma", "--c", "--a", "--b"),
    "critical-orbit": ("--gamma", "--c", "--a"),
    "stability": ("--gamma", "--c", "--a"),
    "certify": ("--gamma", "--c", "--a"),
    "primitive-divisors": ("--gamma", "--c", "--a"),
    "discriminant": ("--gamma", "--c", "--a"),
    "curve": ("--gamma", "--c", "--a"),
    "density": ("--gamma", "--c", "--a", "--b"),
    "nphi-bound": ("--gamma", "--c", "--kappa1", "--kappa2", "--kappa3"),
    "index-bound": ("--n",),
}
REQUIRED_FLAGS = [(name, flag) for name, flags in REQUIRED.items() for flag in flags]


def test_the_table_marks_exactly_the_required_flags():
    marked = {name: tuple(names[0] for names, kwargs in quadtower.cli._flags(name)
                          if kwargs.get("required")) for name in COMMANDS}
    assert marked == REQUIRED


@pytest.mark.parametrize("name, flag", REQUIRED_FLAGS, ids=[f"{n}:{f}" for n, f in REQUIRED_FLAGS])
def test_leaving_out_a_required_flag_exits_one(capsys, name, flag):
    argv = _cheap_argv(name)
    assert run(capsys, *argv)[0] == 0
    # the flag is one token (--a=-2) or two (--n 3)
    i = next(i for i, token in enumerate(argv) if token.split("=")[0] == flag)
    rest = argv[:i] + argv[i + 1 + (argv[i] == flag):]
    assert run(capsys, *rest) == (1, "", f"quadtower: error: {flag} is required\n")


@pytest.mark.parametrize("name, flag, lo, hi", RANGED, ids=[f"{n}:{f}" for n, f, *_ in RANGED])
def test_integer_flag_outside_its_range_exits_one(capsys, name, flag, lo, hi):
    bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    error = f"quadtower: error: {flag} must be {bound}\n"
    argv = _cheap_argv(name)
    # lo - 6 is negative for every declared lo, and is passed as its own token
    outside = [lo - 1, lo - 6] + ([] if hi is None else [hi + 1])
    for value in outside:
        # refused before the map or any other flag is read
        assert run(capsys, name, flag, str(value)) == (1, "", error)
        assert run(capsys, *argv, f"{flag}={value}") == (1, "", error)
    assert run(capsys, *argv, f"{flag}={lo}")[2] != error
    if hi is not None:
        # one call: the upper end passes the range check and runs to exit 0
        code, _, err = run(capsys, *argv, f"{flag}={hi}")
        assert code == 0 and err != error
        # a value far past the end would have run unbounded or exhausted
        # memory; under a 1 GiB cap it is refused before any work
        proc = run_capped(*argv, f"{flag}={hi * 1000}")
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", error)


# among x^2 + a with |a| <= 2000, starting at |b| <= 40, these orbits escape
# slowest; their values fit MAX_BITS up to level 23 (x^2 + 1 from 0 is also
# the critical orbit of x^2 + 1)
@pytest.mark.parametrize("a, b", [(1, 0), (-4, 2), (-5, -2)])
def test_no_escaping_orbit_reaches_the_level_cap(a, b):
    m = QuadraticFamily.of([0], [0, 1]).specialize(a)
    with pytest.raises(DigitBudgetError) as err:
        orbit(m, b, MAX_LEVEL, MAX_BITS)
    assert len(err.value.partial) == 24


@pytest.mark.parametrize("argv, flag", [
    (("certify", "--a=-1", "--to", "1000000000"), "--to"),
    (("critical-orbit", "--a=-1", "--depth", "1000000000"), "--depth"),
    (("critical-orbit", "--a=3", "--depth", "40", "--bits", "100000000000"), "--bits"),
])
def test_huge_level_or_bits_exits_one_before_the_orbit(argv, flag):
    # x^2 - 1's orbit -1, 0, -1, ... never trips the bit budget, and a huge
    # budget lets x^2 + 3's orbit grow until memory runs out
    proc = run_capped(argv[0], "--gamma", "0", "--c", "0,1", *argv[1:])
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"quadtower: error: {flag} must be"), proc.stderr


def test_index_bound_small_n_unchanged(capsys):
    for n in range(1, 9):
        code, out, _ = run(capsys, "index-bound", "--n", str(n))
        assert code == 0
        assert out == f"[Aut(T_inf) : G_inf] <= {1 << (2 ** n - n - 1)}\n"
    code, out, _ = run(capsys, "index-bound", "--n", "7", "--bits", "120")
    assert code == 2
    assert json.loads(out)["error"] == "digit-budget-exceeded"


def test_index_bound_n40_stops_at_the_guard():
    # 2^(2^40 - 41) would take about 128 GiB
    proc = run_capped("index-bound", "--n", "40")
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout) == {"error": "digit-budget-exceeded", "partial": None}
    assert "2^40 - 40 bits" in proc.stderr


# Each cap is checked before the work it bounds: p-1's prime-power product to
# B1 = rho_iters // 100, the list of shard bounds (after the clamp to X - 1).
# --rho-iters 10^12 and --shards 10^11 used to die with a MemoryError
# traceback under the 1 GiB cap.
@pytest.mark.parametrize("argv, message", [
    (("curve", "--gamma", "0", "--c", "0,1", "--a", "2", "--level", "8",
      "--rho-iters", str(MAX_RHO_ITERS + 1)), f"--rho-iters must be in [0, {MAX_RHO_ITERS}]"),
    (("density", "--gamma", "0", "--c", "0,1", "--a", "1", "--b", "0", "--X", str(10 ** 12),
      "--shards", str(MAX_SHARDS + 1)),
     f"shards must be <= {MAX_SHARDS}"),
], ids=["rho-iters", "shards"])
def test_effort_caps_exit_one_before_they_allocate(argv, message):
    proc = run_capped(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"quadtower: error: {message}\n")


def test_density_shards_above_x_are_clamped():
    # a billion shard bounds would not fit in 1 GiB
    argv = ("density", "--gamma", "0", "--c", "0,1", "--a", "1", "--b", "0", "--X", "100")
    proc = run_capped(*argv, "--shards", "1000000000")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_subprocess(*argv, "--shards", "1").stdout


def test_discriminant_refuses_a_huge_level_before_the_orbit():
    # the bounded orbit of x^2 - 1 would be stepped a billion times first
    proc = run_capped("discriminant", "--gamma", "0", "--c", "0,1", "--a=-1",
                      "--level", "1000000000")
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout) == {"error": "digit-budget-exceeded", "partial": None}
    # the default budget of 2^20 bits first fails at level 21
    assert "discriminant at level 21 needs more than 1048576 bits" in proc.stderr


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "gamma": "0", "c": [0, 1], "a": 1, "b": 0, "depth": 3, "format": "json",
    }))
    code, out, _ = run(capsys, "orbit", "--config", str(cfg))
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["value"] for r in rows] == ["0", "1", "2", "5"]

    # explicit flags win over the file
    code, out, _ = run(capsys, "orbit", "--config", str(cfg), "--depth", "1")
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 2


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"gamma": "0", "c": "0,1", "bogus": 1}))
    code, _, err = run(capsys, "family-info", "--config", str(cfg))
    assert code == 1
    assert "bogus" in err


# A bounded grid of subcommands and small flag values, valid and invalid.
# Flags whose default would mean a long run (--X, --rho-iters) are always
# set, and --direct stays at level 8 or below, or at refused levels.
_FAMILIES = st.sampled_from([("0", "0,1"), ("0", "0,1"), ("0,1", "1,1"), ("1", "0,-1"),
                             ("0", "-1,0,1"), ("1", "3"), ("0", "x")])
_POINT = st.integers(-3, 12)
_SMALL = st.one_of(st.integers(1, 12), st.sampled_from([None, -1, 0]))
_RHO = st.sampled_from([0, 10, 1000])
_FLAGS = {
    "family-info": {"--rho-iters": _RHO},
    "orbit": {"--a": _POINT, "--b": _POINT, "--depth": _SMALL,
              "--bits": st.sampled_from([None, -1, 0, 64, 4096])},
    "critical-orbit": {"--a": _POINT, "--depth": _SMALL,
                       "--bits": st.sampled_from([None, 0, 64, 4096])},
    "stability": {"--a": _POINT, "--depth": _SMALL, "--bits": st.sampled_from([None, 64])},
    "certify": {"--a": _POINT, "--from": _SMALL, "--to": _SMALL,
                "--bits": st.sampled_from([None, -5, 256])},
    "primitive-divisors": {"--a": _POINT, "--level": st.integers(-1, 7),
                           "--method": st.sampled_from([None, "exact", "certificate"]),
                           "--rho-iters": _RHO},
    "discriminant": {"--a": _POINT,
                     "--level": st.one_of(st.integers(-1, 8),
                                          st.sampled_from([11, 12, 40, 10 ** 6])),
                     "--direct": st.sampled_from([None, True]),
                     "--bits": st.sampled_from([None, 16, 64])},
    "curve": {"--a": _POINT, "--level": st.integers(-1, 7),
              "--genus": st.sampled_from([None, 1, 2]), "--search": st.integers(0, 20),
              "--rho-iters": _RHO},
    "density": {"--a": _POINT, "--b": _POINT, "--X": st.integers(-10, 3000),
                "--shards": st.sampled_from([None, 0, 1, 3, 5000])},
    "nphi-bound": {"--kappa1": st.sampled_from([None, -1, 0.5, 1, 2.5]),
                   "--kappa2": st.sampled_from([0, 1, 3]),
                   "--kappa3": st.sampled_from([0, 1, 3])},
    "index-bound": {"--n": st.integers(-2, 40), "--bits": st.sampled_from([None, 0, 120])},
}


@st.composite
def _cli_argv(draw):
    """A call, and whether it sets a flag just outside its declared range."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    if command != "index-bound":
        gamma, c = draw(_FAMILIES)
        argv += ["--gamma", gamma, "--c", c]
    for flag, values in _FLAGS[command].items():
        value = draw(values)
        if value is True:
            argv.append(flag)
        elif value is not None:
            argv.append(f"{flag}={value}")
    if draw(st.booleans()):
        argv.append("--json")
    ranged = _ranged(command)
    outside = bool(ranged) and draw(st.integers(0, 3)) == 0
    if outside:  # last, so that it wins over a drawn value of the same flag
        flag, lo, hi = draw(st.sampled_from(ranged))
        value = lo - 1 if hi is None else draw(st.sampled_from([lo - 1, hi + 1]))
        argv.append(f"{flag}={value}")
    return argv, outside


@settings(max_examples=120, deadline=None)
@given(call=_cli_argv())
def test_cli_exit_code_is_0_1_or_2_and_quick(call):
    argv, outside = call
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags themselves
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert code == 1 or not outside, argv
    assert time.perf_counter() - start < 20, argv


def test_discriminant_direct_refusal_needs_a_map_first(capsys):
    # without a map the call is a usage error; with one, the level refusal
    # prints the budget error before any composing
    code, out, err = run(capsys, "discriminant", "--level", "12", "--direct")
    assert (code, out, err) == (1, "", "quadtower: error: --gamma, --c, --a are required\n")
    code, out, err = run(capsys, "discriminant", "--gamma", "0", "--c", "0,1", "--a", "1",
                         "--level", "12", "--direct")
    assert code == 2
    assert out == '{\n  "error": "digit-budget-exceeded",\n  "partial": null\n}\n'
    assert "level 12" in err


# every config key: a long flag without its dashes, with - written as _
CONFIG_KEYS = {
    "gamma", "c", "a", "b", "depth", "bits", "trial_bound", "rho_iters", "X", "checkpoints",
    "format", "seed", "shards", "threads", "level", "genus", "search",
    "from", "to", "method", "kappa1", "kappa2", "kappa3", "n", "direct",
}


def _run_config(capsys, tmp_path, text, *argv):
    """run() with a config file holding text; argparse's exit is a return."""
    cfg = tmp_path / "run.json"
    cfg.write_text(text)
    try:
        return run(capsys, *argv, "--config", str(cfg))
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


def test_config_that_is_not_utf8_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "certify", "--gamma", "0", "--c", "0,1", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err.startswith(f"quadtower: error: cannot read config {cfg}: ")


def test_config_keys_are_the_long_flags(tmp_path, capsys):
    assert len(CONFIG_KEYS) == 25
    for key in CONFIG_KEYS:
        # index-bound takes only format, bits and n; it ignores the rest
        _, _, err = _run_config(capsys, tmp_path, json.dumps({key: "1"}),
                                "index-bound", "--n", "1")
        assert "unknown config key" not in err, key
    for key in ("config", "json", "help", "trial-bound", "rho-iters", "x_max", "fmt"):
        code, out, err = _run_config(capsys, tmp_path, json.dumps({key: "1"}),
                                     "index-bound", "--n", "1")
        assert (code, out) == (1, ""), key
        assert f"unknown config key: {key!r}" in err


@pytest.mark.parametrize("text, argv", [
    ('{"a": 2.7}', ("orbit", "--gamma", "0", "--c", "0,1", "--b", "0")),
    ('{"a": true}', ("orbit", "--gamma", "0", "--c", "0,1", "--b", "0")),
    ('{"a": 1, "depth": false}', ("orbit", "--gamma", "0", "--c", "0,1", "--b", "0")),
    ('{"a": null}', ("orbit", "--gamma", "0", "--c", "0,1", "--b", "0")),
    ('{"a": {"value": 1}}', ("orbit", "--gamma", "0", "--c", "0,1", "--b", "0")),
    ('{"c": [0, true]}', ("orbit", "--gamma", "0", "--a", "1", "--b", "0")),
    ('{"direct": "false"}', ("discriminant", "--gamma", "0", "--c", "0,1", "--a", "1")),
    ('{"X": 1e3}', ("density", "--gamma", "0", "--c", "0,1", "--a", "1", "--b", "0")),
    ('{"genus": 3}', ("curve", "--gamma", "0", "--c", "0,1", "--a", "1", "--level", "2")),
    ('{"format": "xml"}', ("index-bound", "--n", "1")),
    ('[1, 2]', ("index-bound", "--n", "1")),
])
def test_config_values_of_the_wrong_type_exit_one(tmp_path, capsys, text, argv):
    code, out, err = _run_config(capsys, tmp_path, text, *argv)
    assert (code, out) == (1, ""), err
    assert err


@pytest.mark.parametrize("config, flags", [
    ({"c": [-1, 0, 1]}, ("--c=-1,0,1",)),
    ({"a": -3}, ("--a=-3",)),
    ({"gamma": [0, 1], "c": "1,1", "a": "4", "depth": 5, "format": "json"},
     ("--gamma", "0,1", "--c", "1,1", "--a", "4", "--depth", "5", "--json")),
])
def test_config_values_read_as_the_flags_text(tmp_path, capsys, config, flags):
    base = {"gamma": "0", "c": "0,1", "a": 2}
    argv = ["critical-orbit", "--gamma", "0", "--c", "0,1", "--a", "2", "--depth", "4", *flags]
    expected = run(capsys, *argv)
    assert expected[0] == 0
    cfg = {**base, "depth": 4, **config}
    assert _run_config(capsys, tmp_path, json.dumps(cfg), "critical-orbit") == expected


def test_config_direct_and_other_commands_keys(tmp_path, capsys):
    argv = ("discriminant", "--gamma", "0", "--c", "0,1", "--a", "1", "--level", "2")
    assert (_run_config(capsys, tmp_path, '{"direct": true}', *argv)
            == run(capsys, *argv, "--direct"))
    assert _run_config(capsys, tmp_path, '{"direct": false}', *argv) == run(capsys, *argv)
    # kappa1 belongs to nphi-bound; orbit ignores it
    argv = ("orbit", "--gamma", "0", "--c", "0,1", "--a", "1", "--b", "0", "--depth", "3")
    assert _run_config(capsys, tmp_path, '{"kappa1": 0.5}', *argv) == run(capsys, *argv)


def test_config_above_its_size_cap_exits_one_before_it_is_parsed(tmp_path, capsys):
    argv = ("critical-orbit", "--gamma", "0", "--c", "0,1", "--depth", "2")
    text = '{"a": 2}'
    at_cap = text + " " * (MAX_CONFIG_BYTES - len(text))
    assert _run_config(capsys, tmp_path, at_cap, *argv) == run(capsys, *argv, "--a", "2")
    error = (f"quadtower: error: config {tmp_path / 'run.json'} is larger than "
             f"{MAX_CONFIG_BYTES} bytes\n")
    assert _run_config(capsys, tmp_path, at_cap + " ", *argv) == (1, "", error)
    # int() would take seconds on these 10^6 digits
    start = time.perf_counter()
    assert _run_config(capsys, tmp_path, '{"a": 7%s}' % ("0" * 10 ** 6), *argv) == (1, "", error)
    assert time.perf_counter() - start < 1


def test_config_explicit_flags_win(tmp_path, capsys):
    argv = ("certify", "--gamma", "0", "--c", "0,1", "--a=-3", "--to", "4", "--format", "text")
    text = json.dumps({"a": 2, "to": 9, "format": "json", "c": "0,2", "bits": 8})
    assert _run_config(capsys, tmp_path, text, *argv, "--bits", "1000") == run(capsys, *argv)


def _help(capsys, *argv) -> str:
    with pytest.raises(SystemExit) as exc:
        main([*argv, "-h"])
    assert exc.value.code == 0
    return capsys.readouterr().out


def _declared(name) -> list[str]:
    command = COMMANDS[name]
    flags = [flag for group in ("common", *command.groups) for flag in GROUPS[group]]
    return [names[0] for names, _ in flags + list(command.flags)]


@pytest.mark.parametrize("name", COMMANDS)
def test_command_help_lists_its_declared_flags_in_order(capsys, name):
    out = _help(capsys, name)
    assert out.startswith(f"usage: quadtower {name} [-h]")
    options = re.split(r"\n(?:options|optional arguments):\n", out)[1]  # 3.10 says the latter
    assert re.findall(r"^  (-[-\w]+)", options, re.M) == ["-h", *_declared(name)]


def test_top_level_help_names_every_command(capsys):
    out = _help(capsys)
    for name, command in COMMANDS.items():
        assert re.search(rf"^  {name} +{re.escape(command.help)}$", out, re.M), name


@pytest.mark.parametrize("config", [False, True])
def test_a_call_adds_only_its_commands_flags(capsys, tmp_path, monkeypatch, config):
    added = []

    def record(parser, flags):
        added.append([names[0] for names, _ in flags])
        return add_flags(parser, flags)

    add_flags = quadtower.cli._add_flags
    monkeypatch.setattr(quadtower.cli, "_add_flags", record)
    argv = ["certify", "--gamma", "0", "--c", "0,1", "--a", "2", "--to", "3"]
    if config:
        cfg = tmp_path / "run.json"
        cfg.write_text('{"to": 4, "kappa1": 1}')
        argv[-2:] = ["--config", str(cfg)]
    assert run(capsys, *argv)[0] == 0
    assert added == [_declared("certify")]
