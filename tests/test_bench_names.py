"""The library names that bench/ looks up by name still resolve.

bench/tracing.py wraps functions named in its TRACED table and
bench/probes.py calls library functions directly, so a renamed function or
a changed signature would otherwise break only the benchmark.  Both files are
loaded from this checkout as they are.
"""

import importlib
import importlib.util
import pathlib
import random

import quadtower.cli as cli
from quadtower.factor import Budget

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
probes = _load("probes")


def test_every_traced_name_resolves():
    for span, (home, attr) in tracing.TRACED.items():
        assert callable(getattr(importlib.import_module(home), attr)), span


def test_the_density_probes_run():
    walks = probes.walk_ns_per_sqrtp(random.Random(1))
    assert len(walks) == len(probes.WALK_DECADES) * probes.WALK_SAMPLE
    assert len(probes.sieve_seconds(1)) == 1
    # the rho probe builds its budgets by these keywords
    for iters in probes.RHO_BUDGETS:
        assert Budget(trial_bound=1000, rho_iters=iters).rho_iters == iters


def test_a_traced_call_prints_the_untraced_bytes(capsys):
    argv = ["certify", "--gamma", "0", "--c", "0,1", "--a", "2", "--to", "8"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main(argv) == 0
    assert capsys.readouterr() == plain
    assert {"cli.main", "galois.certify_tower", "orbit.critical_orbit"} <= {
        s.name for s in tracer.spans}
