"""Golden CLI outputs: every call below must print the same stdout and
return the same exit code as when tests/fixtures/cli_golden.json was
recorded.

The fixture holds one entry per call, in the order of ARGVS: the call as a
shell line, its exit code, the sha256 of its stdout and, for a call that
prints at most TEXT_LIMIT bytes, the stdout itself split at newlines, so a
re-recorded output reads as a line diff.  The 7 level-20 calls print 92-199 KB
each and keep the digest only.  On a mismatch the test prints a unified diff
of the recorded and the new stdout where the text is kept.

Re-record the fixture only when an output is meant to change; it lists each
call whose digest or exit code changed:

    PYTHONPATH=src python tests/test_cli_golden.py

A deliberate output change updates, in the same commit: this fixture; the
stdout_sha256 values that CI's bench-smoke job pins in
.github/workflows/tests.yml, when a benchmark workload prints it;
check_certificate in bench/workloads.py, when the certify output moves; and
CHANGES.md, which records all of them.
"""

import contextlib
import difflib
import hashlib
import io
import json
import pathlib
import shlex

from quadtower.cli import main

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "cli_golden.json"
# a call whose stdout has at most this many bytes keeps its text in the fixture
TEXT_LIMIT = 4096

# name -> (gamma, c, a)
_MAPS = {
    "x2+1": ("0", "0,1", "1"),
    "x2-3": ("0", "0,1", "-3"),  # negative c
    "shifted-jones-small": ("0,1", "1,1", "4"),  # gamma != 0
    "shift-by-1": ("1", "3", "0"),
    "x2-1": ("0", "0,1", "-1"),  # the critical orbit passes through 0
}

_PER_MAP = [
    ("critical-orbit", "--depth", "6"),
    ("orbit", "--b=-2", "--depth", "5"),
    ("stability", "--depth", "6"),
    ("certify", "--from", "1", "--to", "8"),
    ("primitive-divisors", "--level", "4", "--method", "certificate"),
    ("primitive-divisors", "--level", "4", "--method", "exact"),
    ("discriminant", "--level", "4"),
    ("discriminant", "--level", "3", "--direct"),
    ("curve", "--level", "4", "--search", "10"),
    ("density", "--b", "0", "--X", "2000"),
]


def _map_flags(name):
    gamma, c, a = _MAPS[name]
    return ["--gamma", gamma, "--c", c, f"--a={a}"]


ARGVS = [
    [command, *_map_flags(name), *rest, *fmt]
    for name in _MAPS
    for command, *rest in _PER_MAP
    for fmt in ([], ["--format", "json"])
]
ARGVS += [["density", *_map_flags(name), "--b=-1", "--X", "3000", "--checkpoints", "10,500,3000",
           "--format", "csv"] for name in _MAPS]
ARGVS += [
    [command, *_map_flags("x2+1"), *rest, *fmt]
    for command, *rest in [
        ("curve", "--level", "3", "--genus", "2"),
        ("curve", "--level", "2"),
        ("critical-orbit", "--depth", "1"),
        ("certify", "--from", "3", "--to", "5"),
        ("density", "--b", "0", "--X", "5000", "--shards", "3"),
        ("primitive-divisors", "--level", "1"),
    ]
    for fmt in ([], ["--json"])
]
ARGVS += [
    ["family-info", "--gamma", gamma, f"--c={c}", *fmt]
    for gamma, c in [("0", "0,1"), ("0,1", "1,1"), ("1", "0,-1"), ("0", "-1,0,1"),
                     ("1", "-2,0,1"), ("0,1", "5,1")]
    for fmt in ([], ["--json"])
]
ARGVS += [
    ["nphi-bound", "--gamma", gamma, "--c", c, "--kappa1", k1, "--kappa2", "1", "--kappa3", "2",
     *fmt]
    for gamma, c, k1 in [("0", "0,1", "1"), ("1", "0,-1", "0.5"), ("0,1", "5,1", "1")]
    for fmt in ([], ["--json"])
]
ARGVS += [["index-bound", "--n", str(n), *fmt] for n in (1, 3, 6) for fmt in ([], ["--json"])]
# budget errors: exit 2 with a partial result (or null) on stdout
BUDGET_ARGVS = [
    ["orbit", *_map_flags("x2+1"), "--b", "0", "--depth", "30", "--bits", "64"],
    ["orbit", *_map_flags("shifted-jones-small"), "--b=-5", "--depth", "30", "--bits", "64",
     "--json"],
    ["critical-orbit", *_map_flags("x2-3"), "--depth", "20", "--bits", "300"],
    ["certify", "--gamma", "0", "--c", "0,1", "--a", "2", "--to", "20", "--bits", "200000"],
    ["certify", "--gamma", "0", "--c", "0,1", "--a", "2", "--to", "20", "--bits", "200000",
     "--json"],
    ["certify", *_map_flags("shifted-jones-small"), "--to", "12", "--bits", "1000"],
    ["index-bound", "--n", "7", "--bits", "120"],
    ["discriminant", *_map_flags("x2+1"), "--level", "3", "--bits", "16"],
    ["discriminant", *_map_flags("x2+1"), "--level", "11", "--direct"],
    ["curve", "--gamma", "0", "--c", "0,1", "--a", "2", "--level", "6",
     "--trial-bound", "100", "--rho-iters", "10"],
    ["curve", "--gamma", "0", "--c", "0,1", "--a", "2", "--level", "6",
     "--trial-bound", "100", "--rho-iters", "10", "--json"],
    ["primitive-divisors", "--gamma", "0", "--c", "0,1", "--a", "2", "--level", "6",
     "--method", "exact", "--trial-bound", "100", "--rho-iters", "10"],
]
ARGVS += BUDGET_ARGVS
# the stderr line of each budget call, in order
BUDGET_STDERR = [
    "orbit value needs 76 bits; budget is 64",
    "orbit value needs 102 bits; budget is 64",
    "orbit value needs 323 bits; budget is 300",
    "orbit value needs 343994 bits; budget is 200000",
    "orbit value needs 343994 bits; budget is 200000",
    "orbit value needs 1204 bits; budget is 1000",
    "index bound needs 2^7 - 7 bits; budget is 120",
    "discriminant needs 29 bits; budget is 16",
    "direct discriminant at level 11 is refused; --direct goes up to level 10",
    "budget exhausted on cofactor 38350334059",
    "budget exhausted on cofactor 38350334059",
    "budget exhausted on cofactor 38350334059",
]
# usage errors: exit 1 with nothing on stdout
ARGVS += [
    ["orbit", *_map_flags("x2+1")],
    ["critical-orbit", *_map_flags("x2+1"), "--depth", "0"],
    ["critical-orbit", *_map_flags("x2+1"), "--bits", "0"],
    ["certify", *_map_flags("x2+1"), "--to", "3", "--format", "csv"],
    ["certify", *_map_flags("x2+1"), "--from", "4", "--to", "2"],
    ["family-info", "--gamma", "0", "--c", "x"],
    ["nphi-bound", "--gamma", "0", "--c", "0,1"],
    ["index-bound"],
    ["curve", *_map_flags("x2+1"), "--genus", "3"],
    ["density", *_map_flags("x2+1"), "--b", "0", "--X", "1"],
    ["discriminant", *_map_flags("x2+1"), "--level", "0"],
    ["orbit", *_map_flags("x2+1"), "--b", "0", "--a", "2.5"],
]
# level 20, where primitive-divisors reads the lower levels from residues
# instead of an exact prefix
ARGVS += [
    [command, *_map_flags(name), *rest, *fmt]
    for name in ("x2+1", "x2-3")
    for command, *rest in [("stability", "--depth", "20"), ("primitive-divisors", "--level", "20")]
    for fmt in ([], ["--format", "json"])
]
# refusals at level 1: c_a = 2 needs 2 bits, so every partial is empty
LEVEL_ONE_REFUSALS = [
    ["stability", "--depth", "6"],
    ["primitive-divisors", "--level", "4", "--method", "certificate"],
    ["primitive-divisors", "--level", "4", "--method", "exact"],
    ["certify", "--to", "6"],
    ["critical-orbit", "--depth", "6"],
]
ARGVS += [[command, "--gamma", "0", "--c", "0,1", "--a", "2", *rest, "--bits", "1"]
          for command, *rest in LEVEL_ONE_REFUSALS]
# a 1,000-bit coefficient: c - gamma = t, and F_phi holds the root -2^1000
_BIG_FAMILY = ["--gamma", f"0,{2 ** 1000 - 1}", "--c", f"0,{2 ** 1000}"]
ARGVS += [[*argv, *fmt]
          for argv in (["family-info", *_BIG_FAMILY],
                       ["nphi-bound", *_BIG_FAMILY, "--kappa1", "1", "--kappa2", "1",
                        "--kappa3", "2"])
          for fmt in ([], ["--json"])]


def _call(argv):
    """(exit code, stdout, stderr) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the flags themselves
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _entry(argv):
    """The fixture entry of one call, and its stdout."""
    code, out, _ = _call(argv)
    data = out.encode()
    entry = {"call": shlex.join(argv), "exit": code, "sha256": hashlib.sha256(data).hexdigest()}
    if len(data) <= TEXT_LIMIT:
        entry["stdout"] = out.split("\n")
    return entry, out


def _mismatch(argv, want):
    """None when the call still prints what want recorded; else a report of
    what moved, with a unified diff of the stdout where want keeps its text."""
    got, out = _entry(argv)
    if (got["exit"], got["sha256"]) == (want["exit"], want["sha256"]):
        return None
    report = [f"{want['call']}: exit {want['exit']} -> {got['exit']}, "
              f"sha256 {want['sha256'][:12]} -> {got['sha256'][:12]}"]
    if "stdout" in want:
        report += difflib.unified_diff(want["stdout"], out.split("\n"), "recorded", "now",
                                       lineterm="")
    return "\n".join(report)


def _expected():
    expected = json.loads(FIXTURE.read_text())
    assert [want["call"] for want in expected] == list(map(shlex.join, ARGVS))
    return expected


def test_cli_stdout_and_exit_codes_match_the_recorded_digests():
    expected = _expected()
    # a kept text is the text its digest was taken from
    for want in expected:
        if "stdout" in want:
            text = "\n".join(want["stdout"]).encode()
            assert len(text) <= TEXT_LIMIT and hashlib.sha256(text).hexdigest() == want["sha256"]
    assert sum("stdout" not in want for want in expected) == 7
    mismatches = [m for argv, want in zip(ARGVS, expected) if (m := _mismatch(argv, want))]
    assert not mismatches, "\n\n".join(mismatches)


def _no_binary_orbit(*args, **kwargs):
    raise AssertionError("a verdict command built the binary critical orbit")


def test_verdict_commands_read_the_orbit_only_through_critical_residues(monkeypatch):
    # certify, stability and both primitive-divisors methods walk the decimal
    # orbit once; none may build the binary orbit (CriticalOrbit.values) or
    # square-test it
    import quadtower.galois
    from quadtower.orbit import CriticalOrbit

    monkeypatch.setattr(CriticalOrbit, "values", property(_no_binary_orbit))
    monkeypatch.setattr(quadtower.galois, "is_perfect_square", _no_binary_orbit)
    calls = [(argv, want) for argv, want in zip(ARGVS, _expected())
             if argv[0] in ("certify", "stability", "primitive-divisors")]
    assert len(calls) == 62
    mismatches = [m for argv, want in calls if (m := _mismatch(argv, want))]
    assert not mismatches, "\n\n".join(mismatches)


def test_orbit_commands_build_exact_values_only_where_they_read_them(monkeypatch):
    # critical-orbit, orbit and discriminant print from the one decimal walk
    # and build no binary orbit value; curve builds v_1..v_n, none above its
    # level n.  Every binary orbit value comes out of SpecializedMap.apply.
    from quadtower.family import SpecializedMap

    apply = SpecializedMap.apply
    built = []

    def recording_apply(self, x):
        y = apply(self, x)
        built.append(y)
        return y

    monkeypatch.setattr(SpecializedMap, "apply", recording_apply)
    calls = [(argv, want) for argv, want in zip(ARGVS, _expected())
             if argv[0] in ("critical-orbit", "orbit", "discriminant", "curve")]
    assert len(calls) == 70
    for argv, want in calls:
        built.clear()
        mismatch = _mismatch(argv, want)
        assert mismatch is None, mismatch
        level = dict(zip(argv, argv[1:])).get("--level", "0")
        limit = int(level) if argv[0] == "curve" else 0
        assert len(built) <= limit, (argv, len(built))


def test_budget_calls_print_the_recorded_stderr_line():
    assert len(BUDGET_STDERR) == len(BUDGET_ARGVS)
    for argv, line in zip(BUDGET_ARGVS, BUDGET_STDERR):
        code, _, err = _call(argv)
        assert (code, err) == (2, f"quadtower: budget: {line}\n"), argv


if __name__ == "__main__":
    recorded = {want["call"]: want for want in json.loads(FIXTURE.read_text())}
    entries = [_entry(argv)[0] for argv in ARGVS]
    for entry in entries:
        before = recorded.get(entry["call"])
        if before is None or (before["exit"], before["sha256"]) != (entry["exit"], entry["sha256"]):
            print("new:" if before is None else "changed:", entry["call"])
    FIXTURE.write_text(json.dumps(entries, indent=1) + "\n")
