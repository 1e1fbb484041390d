#!/usr/bin/env python3
"""Benchmark of the quadtower CLI pipelines.

    python3 bench/run.py --workload tower-20 --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: every op is one call of
`quadtower.cli.main(argv)` with stdout captured, run one after another in an
order drawn from the seed.  Passes over the workload's corpus repeat while
another fits in --seconds.  Outputs are checked by the oracles in
workloads.py after the timed region.  --trace 0 prints the end-to-end
metrics; --trace 1 runs one untraced pass, one traced pass and the probes,
and prints the per-layer metrics.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  `--workload all` runs every
workload, each in its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import probes
from tracing import MODULES, Tracer
from workloads import WORKLOADS, Op, Verdict

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 21
IMPORT_REPEATS = 3
SIEVE_REPEATS = 5

# per-layer metric -> span whose summed self time it reports
SPAN_SELF = {
    "orbit.critical_orbit_s": "orbit.critical_orbit",
    "factor.stripped_cofactor_s": "factor.stripped_cofactor",
    "factor.is_probable_prime_s": "factor.is_probable_prime",
    "bigpoly.is_perfect_square_s": "bigpoly.is_perfect_square",
    "bigpoly.discriminant_direct_s": "bigpoly.discriminant_direct",
    "galois.certify_tower.self_s": "galois.certify_tower",
    "galois.curve_model.self_s": "galois.curve_model",
    "galois.verify_forced_point.self_s": "galois.verify_forced_point",
    "cli.self_s": "cli.main",
}


@dataclass
class Pass:
    wall: float
    cpu: float
    codes: dict[str, int | None]
    digests: dict[str, str]  # op key -> sha256 of its stdout
    texts: dict[str, str]  # op key -> stdout; kept for the first pass only


def load_program():
    """Import quadtower from this checkout's src/, or stop before any output."""
    src = ROOT / "src"
    if not (src / "quadtower" / "cli.py").is_file():
        sys.exit(f"bench: {src / 'quadtower'} not found; run from a full checkout")
    sys.path.insert(0, str(src))
    import quadtower.cli

    if Path(quadtower.cli.__file__).resolve().parent != (src / "quadtower").resolve():
        sys.exit(f"bench: imported {quadtower.cli.__file__}, not the checkout's copy")
    sys.set_int_max_str_digits(0)
    return quadtower.cli


def cpu_seconds() -> float:
    own, children = (resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_op(cli, argv) -> tuple[int | None, str]:
    """Exit code (None if main raised) and captured stdout of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an op that raises is a failed op, not a failed run
            traceback.print_exc()
            code = None
    return code, out.getvalue()


def run_pass(cli, order: list[Op], keep: bool = False, between=lambda: None) -> Pass:
    """One call per op; wall and CPU time are summed over the calls alone, so
    that `between()`, called after each op, is not timed.  Only a kept pass
    holds on to its outputs; the others reduce each to its digest at once, so
    memory does not grow with the number of passes."""
    run = Pass(0.0, 0.0, {}, {}, {})
    for op in order:
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        code, out = run_op(cli, op.argv)
        run.wall += time.perf_counter() - t0
        run.cpu += cpu_seconds() - cpu0
        run.codes[op.key] = code
        run.digests[op.key] = hashlib.sha256(out.encode()).hexdigest()
        if keep:
            run.texts[op.key] = out
        between()
    return run


def check(op: Op, code: int | None, out: str) -> Verdict:
    try:
        return op.check(code, out)
    except Exception as exc:  # malformed output must fail the op, not stop the run
        return Verdict(attempted=op.units).fail(op.units, f"oracle could not read the output: {exc!r}")


def digest(ops: list[Op], run: Pass) -> str:
    """sha256 over the per-op stdout digests, in corpus order."""
    return hashlib.sha256("".join(run.digests[op.key] for op in ops).encode()).hexdigest()


def unexpected_failures(workload, verdicts: dict[str, Verdict]) -> list[str]:
    """Failure notes, as "<op key>: <note>", that are not known defects."""
    return [f"{key}: {note}" for key, v in verdicts.items() for note in v.notes
            if v.failed and (key, note) not in workload.known_failures]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # the checkout may be a plain copy
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def traced_metrics(cli, order: list[Op], untraced: Pass, rng: random.Random) -> tuple[dict, Pass, Tracer]:
    tracer = Tracer()
    with tracer.installed():
        traced = run_pass(cli, order)
    spans, own = tracer.spans, tracer.self_times()
    totals = tracer.totals()
    m: dict[str, dict] = {}

    walk = probes.walk_ns_per_sqrtp(rng)
    deciles = statistics.quantiles(walk, n=10)
    m["density.walk_ns_per_sqrtp.p50"] = metric(statistics.median(walk), "ns")
    m["density.walk_ns_per_sqrtp.p90"] = metric(deciles[8], "ns")
    m["density.walk_ns_per_sqrtp.calls"] = metric(len(walk), "count")
    sieve = probes.sieve_seconds(SIEVE_REPEATS)
    m["density.sieve_s"] = metric(statistics.median(sieve), "s")
    m["density.sieve_s.calls"] = metric(len(sieve), "count")
    m["density.parallel_eff"] = metric(probes.parallel_efficiency(), "ratio")
    m["density.parallel_eff.calls"] = metric(2, "count")

    orbit_bits = [s.note for s in spans if s.name == "orbit.critical_orbit" and s.note is not None]
    m["orbit.bits_max"] = metric(max(orbit_bits, default=0), "bits")
    runs = [(s.note, t) for s, t in zip(spans, own) if s.name == "factor.factorize"]
    for outcome, flag in (("complete", True), ("incomplete", False)):
        times = [t for done, t in runs if done is flag]
        m[f"factor.factorize_s.{outcome}"] = metric(sum(times, 0.0), "s")
        m[f"factor.factorize_s.{outcome}.calls"] = metric(len(times), "count")
    m["factor.complete_ratio"] = metric(
        sum(done for done, _ in runs) / len(runs) if runs else 0.0, "ratio")
    m["factor.complete_ratio.calls"] = metric(len(runs), "count")
    for bits, ns in probes.rho_ns_per_iter(rng).items():
        m[f"factor.rho_ns_per_iter.{bits}b"] = metric(ns, "ns")
    m["factor.rho_ns_per_iter.calls"] = metric(2 * len(probes.RHO_BITS), "count")

    for name, span_name in SPAN_SELF.items():
        calls, seconds = totals.get(span_name, (0, 0.0))
        m[name] = metric(seconds, "s")
        m[f"{name}.calls"] = metric(calls, "count")

    ints = [i for s in spans if s.note is not None for i in report_ints(s.name, s.note)]
    to_str, digits = 0.0, 0
    for i in ints:
        t = time.perf_counter()
        text = str(i)
        to_str += time.perf_counter() - t
        digits += len(text)
    m["cli.int_to_str_s"] = metric(to_str, "s")
    m["cli.int_to_str_s.calls"] = metric(len(ints), "count")
    m["cli.digits_out"] = metric(digits, "count")

    imports = probes.import_self_times(ROOT, IMPORT_REPEATS)
    for module in MODULES:
        m[f"import.{module}_s"] = metric(imports.get(module, 0.0), "s")
    m["import.other_s"] = metric(imports["other"], "s")
    m["import.calls"] = metric(IMPORT_REPEATS, "count")

    m["trace.overhead_s"] = metric(traced.wall - untraced.wall, "s")
    m["trace.wall_s"] = metric(traced.wall, "s")
    return m, traced, tracer


def report_ints(span_name: str, report) -> list[int]:
    """The integers of a library result that the CLI prints."""
    if span_name == "galois.certify_tower":
        return [c.witness for c in report.certificates if c.witness is not None]
    if span_name == "galois.curve_model":
        return [*report.rhs.coeffs, report.d]
    if span_name == "density.density_curve":
        return [v for r in report.rows for v in (r.x, r.primes_tested, r.members)]
    return []


def peak_rss_kb() -> int:
    """Peak RSS of this process plus that of its largest reaped child."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def timed_passes(cli, order: list[Op], seconds: float, sampler: probes.SetupSampler) -> list[Pass]:
    """Passes over the corpus while another fits in `seconds` (at least one).
    Set-up samples are taken between ops, at most one per
    seconds / SETUP_REPEATS, so that they spread over the run like the passes
    do, and topped up to SETUP_REPEATS at the end.  One untimed start first
    fills the bytecode cache."""
    sampler.sample()
    gap, last = seconds / SETUP_REPEATS, time.perf_counter()

    def between():
        nonlocal last
        if time.perf_counter() - last >= gap:
            sampler.take()
            last = time.perf_counter()

    passes = [run_pass(cli, order, keep=True, between=between)]
    while sum(p.wall for p in passes) + statistics.median(p.wall for p in passes) <= seconds:
        passes.append(run_pass(cli, order, between=between))
    while len(sampler.samples) < SETUP_REPEATS:
        sampler.take()
    return passes


def run_workload(args) -> int:
    cli = load_program()
    workload = WORKLOADS[args.workload]
    ops = workload.ops()
    rng = random.Random(args.seed)
    order = rng.sample(ops, len(ops))

    if args.trace:
        passes = [run_pass(cli, order, keep=True)]
    else:
        with probes.SetupSampler(ROOT) as sampler:
            passes = timed_passes(cli, order, args.seconds, sampler)
            peak_kb = peak_rss_kb()  # before the helper and its interpreters are reaped
        setup = sampler.samples

    first = passes[0]
    verdicts = {op.key: check(op, first.codes[op.key], first.texts[op.key]) for op in ops}
    unexpected = unexpected_failures(workload, verdicts)
    attempted = sum(v.attempted for v in verdicts.values())
    failed = sum(v.failed for v in verdicts.values())
    completed = sum(v.completed for v in verdicts.values())
    verified = sum(v.verified for v in verdicts.values())
    digests = {digest(ops, p) for p in passes}

    if args.trace:
        metrics, traced, tracer = traced_metrics(cli, order, passes[0], rng)
        digests.add(digest(ops, traced))
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        (out / f"spans-{workload.name}-{args.seed}.json").write_text(json.dumps(tracer.to_json()))
    else:
        wall = statistics.median(p.wall for p in passes)
        metrics = {
            "wall_s": metric(wall, "s"),
            "ops_per_s": metric(verified / wall, "1/s"),
            "cpu_s": metric(statistics.median(p.cpu for p in passes), "s"),
            "peak_rss_mb": metric(peak_kb / 1024, "MB"),
            "completed_frac": metric(completed / attempted, "ratio"),
            "setup_s": metric(statistics.median(setup), "s"),
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    mismatch = {(m["name"], m["unit"]) for m in declared} ^ {(k, v["unit"]) for k, v in metrics.items()}
    if mismatch:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "setup_s_samples": None if args.trace else setup,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "stdout_sha256": sorted(digests),
        "exit_codes": dict(Counter(str(first.codes[op.key]) for op in ops)),
        "attempted": attempted,
        "completed": completed,
        "verified": verified,
        "failed": failed,
        "failures": {key: v.notes for key, v in verdicts.items() if v.failed},
        "unexpected_failures": unexpected,
    }
    print(json.dumps(record))
    for name, m in metrics.items():
        print(f"{workload.name}  {name} = {m['value']:.6g} {m['unit']}")
    # correct: every pass printed the same bytes and every failed op is a known
    # defect; all failed ops, known or not, are counted in `failed`.
    print(json.dumps({
        "correct": len(digests) == 1 and not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; the summary prefixes each metric
    with its workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode:
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
