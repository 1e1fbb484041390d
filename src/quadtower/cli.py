"""Single-binary command-line interface.

One subcommand per pipeline, machine-readable --json output everywhere, and
stable exit codes: 0 success, 1 usage errors, 2 budget errors (which still
emit partial results).  All big integers serialize as decimal strings.

--config FILE reads a JSON object whose keys are the long flags without their
dashes, with - written as _ (X, from, trial_bound, ...).  Each value is read
as the flag's own text: a string or number as written, a list joined with
commas, and true/false only for --direct.  A value of the wrong type, or one
the flag rejects, exits 1; keys that only other subcommands take are ignored.
Explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import json
import sys

from quadtower.bigpoly import (
    IntPolynomial,
    decimal_str,
    discriminant_direct,
    orbit_divisor_strs,
)
from quadtower.density import DEFAULT_SEGMENT_SIZE, density_curve
from quadtower.factor import (
    DEFAULT_BUDGET,
    Budget,
    IncompleteFactorizationError,
    primitive_divisor_exact,
    squarefree_decompose,
)
from quadtower.family import HallLangConstants, QuadraticFamily, index_bound
from quadtower.galois import (
    TowerReport,
    certify_tower,
    curve_model,
    discriminant_recurrence,
    primitive_divisor_certificate,
    search_integral_points,
    stability_scan,
    verify_forced_point,
)
from quadtower.orbit import (
    DEFAULT_MAX_BITS,
    DigitBudgetError,
    critical_orbit,
    orbit,
)


class UsageError(ValueError):
    pass


def _parse_poly(text: str, name: str) -> IntPolynomial:
    try:
        return IntPolynomial.parse(text)
    except ValueError as err:
        raise UsageError(f"bad coefficient list for --{name}: {err}") from err


def _parse_int_list(text: str, name: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as err:
        raise UsageError(f"bad integer list for --{name}: {err}") from err


class _Parser(argparse.ArgumentParser):
    commands: dict[str, argparse.ArgumentParser]  # subcommand name -> its parser

    # argparse exits 2 on usage errors by default; this tool reserves 2 for
    # budget errors, so remap to exit 1.
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> _Parser:
    parser = _Parser(prog="quadtower", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; explicit flags win")
    common.add_argument("--format", dest="fmt", choices=("text", "json", "csv"), default="text")
    common.add_argument("--json", action="store_true", help="shorthand for --format json")
    common.add_argument("--seed", type=int, default=DEFAULT_BUDGET.seed)

    fam = argparse.ArgumentParser(add_help=False)
    fam.add_argument("--gamma", help="gamma coefficients, low-to-high, e.g. '0,1'")
    fam.add_argument("--c", help="c coefficients, low-to-high")

    spot = argparse.ArgumentParser(add_help=False)
    spot.add_argument("--a", type=int, help="integer specialization point")

    start = argparse.ArgumentParser(add_help=False)
    start.add_argument("--b", type=int)

    depth = argparse.ArgumentParser(add_help=False)
    depth.add_argument("--depth", type=int, default=10)

    level = argparse.ArgumentParser(add_help=False)
    level.add_argument("--level", type=int, default=1)

    bits = argparse.ArgumentParser(add_help=False)
    bits.add_argument("--bits", type=int, default=DEFAULT_MAX_BITS,
                      help="orbit bit budget per value")

    effort = argparse.ArgumentParser(add_help=False)
    effort.add_argument("--trial-bound", dest="trial_bound", type=int,
                        default=DEFAULT_BUDGET.trial_bound)
    effort.add_argument("--rho-iters", dest="rho_iters", type=int,
                        default=DEFAULT_BUDGET.rho_iters)

    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, parents, help):
        p = sub.add_parser(name, parents=[common, *parents], help=help)
        p.set_defaults(handler=handler)
        return p

    command("family-info", cmd_family_info, [fam, effort],
            "isotriviality, m_phi, P_phi, F_phi, bound constants")
    command("orbit", cmd_orbit, [fam, spot, start, depth, bits], "orbit of b under phi_a")
    command("critical-orbit", cmd_critical_orbit, [fam, spot, depth, bits],
            "critical values phi_a^n(gamma_a)")
    command("stability", cmd_stability, [fam, spot, depth, bits],
            "scan the adjusted critical orbit for perfect squares")

    p = command("certify", cmd_certify, [fam, spot, bits],
                "level-maximality certificates for a level range")
    p.add_argument("--from", dest="from_level", type=int, default=1)
    p.add_argument("--to", dest="to_level", type=int, default=6)

    p = command("primitive-divisors", cmd_primitive_divisors, [fam, spot, level, bits, effort],
                "square-free primitive prime divisors at a level")
    p.add_argument("--method", choices=("exact", "certificate"), default="certificate")

    p = command("discriminant", cmd_discriminant, [fam, spot, level, bits],
                "|disc(phi_a^n)| via the recurrence")
    p.add_argument("--direct", action="store_true",
                   help="also compute the resultant-based discriminant")

    p = command("curve", cmd_curve, [fam, spot, level, bits, effort],
                "emit the level curve, verify its forced point, optionally search")
    p.add_argument("--genus", type=int, choices=(1, 2), default=1)
    p.add_argument("--search", type=int, default=0,
                   help="integral-point search bound (0 = skip)")

    p = command("density", cmd_density, [fam, spot, start],
                "prime-divisor density curve for the orbit of b")
    p.add_argument("--X", dest="x_max", type=int, default=10 ** 6)
    p.add_argument("--checkpoints")
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--segment-size", dest="segment_size", type=int,
                   default=DEFAULT_SEGMENT_SIZE)

    p = command("nphi-bound", cmd_nphi_bound, [fam],
                "evaluate the conditional bound chain for given kappas")
    p.add_argument("--kappa1", type=float)
    p.add_argument("--kappa2", type=float)
    p.add_argument("--kappa3", type=float)

    p = command("index-bound", cmd_index_bound, [bits],
                "the uniform index bound 2^(2^n - n - 1)")
    p.add_argument("--n", type=int)

    parser.commands = sub.choices
    return parser


def _config_argv(parser: _Parser, args: argparse.Namespace) -> list[str]:
    """The --config file's keys as flag tokens for args.command.

    A key is a long flag without its dashes, with - written as _.  A string
    or number becomes the flag's text, a list is joined with commas, and
    true/false sets or leaves out a flag that takes no value (--direct).  Keys
    that only other subcommands take are dropped; argparse checks the rest.
    """
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            # numbers stay as written, so argparse sees the file's own text
            raw = json.load(fh, parse_int=str, parse_float=str)
    except (OSError, json.JSONDecodeError) as err:
        raise UsageError(f"cannot read config {args.config}: {err}") from err
    if not isinstance(raw, dict):
        raise UsageError("config file must hold a JSON object")
    # argparse keeps each parser's flags only in _option_string_actions
    flags = {
        flag[2:].replace("-", "_"): flag
        for command in parser.commands.values()
        for flag in command._option_string_actions
        if flag.startswith("--") and flag not in ("--help", "--config", "--json")
    }
    own = parser.commands[args.command]._option_string_actions
    tokens = []
    for key, value in raw.items():
        if key not in flags:
            raise UsageError(f"unknown config key: {key!r}")
        flag = flags[key]
        if flag not in own:
            continue
        if isinstance(value, list) and all(isinstance(v, str) for v in value):
            value = ",".join(value)
        if isinstance(value, bool) and own[flag].nargs == 0:
            if value:
                tokens.append(flag)
        elif isinstance(value, str):
            tokens.append(f"{flag}={value}")
        else:
            raise UsageError(f"bad config value for {key!r}: {json.dumps(value)}")
    return tokens


def _budget(args: argparse.Namespace) -> Budget:
    return Budget(trial_bound=args.trial_bound, rho_iters=args.rho_iters, seed=args.seed)


def _family(args: argparse.Namespace) -> QuadraticFamily:
    if args.gamma is None or args.c is None:
        raise UsageError("--gamma and --c are required (flags or config)")
    return QuadraticFamily(args.gamma, args.c)


def _map(args: argparse.Namespace):
    if args.a is None:
        raise UsageError("--a is required")
    return _family(args).specialize(args.a)


def _emit(json_dict, args: argparse.Namespace, text_lines) -> None:
    """Print json_dict() in --format json, else the text lines; each side
    builds its own strings, so big integers convert to decimal once."""
    if args.fmt == "json":
        print(json.dumps(json_dict(), indent=2))
    else:
        for line in text_lines():
            print(line)


# -- handlers ---------------------------------------------------------------


def cmd_family_info(args: argparse.Namespace) -> int:
    fam = _family(args)
    out: dict = {
        "gamma": fam.gamma.serialize(),
        "c": fam.c.serialize(),
        "difference": fam.difference.serialize(),
        "isotrivial": fam.is_isotrivial,
    }
    poly = fam.exceptional_polynomial()
    out["exceptional_polynomial"] = {
        "coeffs": poly.serialize(),
        "display": str(poly),
    }
    if fam.is_isotrivial:
        out.update({"m_phi": None, "bound_constants": None, "exceptional_set": None})
    else:
        out["m_phi"] = fam.m_phi()
        bc = fam.compute_bound_constants()
        out["bound_constants"] = {
            "A1": bc.a1, "A2": bc.a2, "A3": bc.a3, "A4": bc.a4,
            "B1": bc.b1, "threshold": bc.threshold,
        }
        if poly.is_zero:
            out["exceptional_set"] = None
        else:
            out["exceptional_set"] = fam.exceptional_set(_budget(args))

    def text():
        yield f"phi(x) = (x - ({fam.gamma}))^2 + ({fam.c})"
        yield f"c - gamma = {fam.difference}"
        yield f"isotrivial: {out['isotrivial']}"
        yield f"m_phi: {out['m_phi']}"
        yield f"P_phi = {out['exceptional_polynomial']['display']}"
        if out.get("bound_constants"):
            bcd = out["bound_constants"]
            yield ("bound constants: " + ", ".join(f"{k}={bcd[k]}" for k in ("A1", "A2", "A3", "A4", "B1", "threshold")))
        yield f"F_phi: {out['exceptional_set']}"

    _emit(lambda: out, args, text)
    return 0


def _orbit_rows(values, map=None, start: int = 0) -> list[dict]:
    """One row per orbit value; with the map, values[i + 1] = map(values[i])
    and the values print along the orbit (orbit_divisor_strs with every
    cofactor 1), else one by one."""
    if map is None:
        texts = [decimal_str(v) for v in values]
    else:
        texts = orbit_divisor_strs(map.gamma_a, map.c_a, values[0], [1] * len(values))
    return [
        {"n": i, "value": text, "bits": v.bit_length()}
        for i, (v, text) in enumerate(zip(values, texts), start=start)
    ]


def _orbit_line(row: dict) -> str:
    return f"{row['n']}: {row['value']} ({row['bits']} bits)"


def cmd_orbit(args: argparse.Namespace) -> int:
    if args.b is None:
        raise UsageError("--b is required")
    sl = orbit(_map(args), args.b, args.depth, args.bits)
    line = json.dumps if args.fmt == "json" else _orbit_line  # orbit dumps are JSON lines
    for row in _orbit_rows(sl.values, sl.map):
        print(line(row))
    return 0


def cmd_critical_orbit(args: argparse.Namespace) -> int:
    crit = critical_orbit(_map(args), args.depth, args.bits)
    rows = _orbit_rows(crit.values, crit.map, start=1)
    out = {"condition_one_holds": crit.condition_one_holds, "values": rows}

    def text():
        for row in rows:
            yield _orbit_line(row)
        yield f"condition (1) holds: {crit.condition_one_holds}"

    _emit(lambda: out, args, text)
    return 0


def cmd_stability(args: argparse.Namespace) -> int:
    report = stability_scan(_map(args), args.depth, args.bits)

    def text():
        yield f"verdict: {report.verdict}"
        for n, root in report.squares_found:
            yield f"level {n}: square with root {decimal_str(root)}"

    _emit(report.to_json_dict, args, text)
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    report = certify_tower(_map(args), args.from_level, args.to_level, args.bits)

    def text():
        for cert in report.certificates:
            yield f"level {cert.level}: {cert.status}" + (
                f" (witness {cert.witness})" if cert.witness is not None else ""
            )
        yield "counts: " + ", ".join(f"{k}={v}" for k, v in report.counts.items())

    _emit(report.to_json_dict, args, text)
    return 0


def cmd_primitive_divisors(args: argparse.Namespace) -> int:
    crit = critical_orbit(_map(args), args.level, args.bits)
    if args.method == "exact":
        report = primitive_divisor_exact(crit.values, args.level, _budget(args))
    else:
        report = primitive_divisor_certificate(crit, args.level)
    out = report.to_json_dict()

    def text():
        yield f"level {report.level} ({report.method}): certified={report.certified}"
        if "witness" in out:
            yield f"witness R = {out['witness']}"
        if report.primes:
            yield "primes: " + ", ".join(out["primes"])

    _emit(lambda: out, args, text)
    return 0


# phi_a^n has degree 2^n, and composing it then taking its resultant grows
# steeply: for x^2 + 1, 0.8 s at level 9, 4.8 s at level 10 and 54 s at
# level 11 (CPython 3.11, one core).  --direct refuses higher levels before
# composing.
DIRECT_DISCRIMINANT_MAX_LEVEL = 10


def cmd_discriminant(args: argparse.Namespace) -> int:
    m = _map(args)
    if args.direct and args.level > DIRECT_DISCRIMINANT_MAX_LEVEL:
        raise DigitBudgetError(
            f"direct discriminant at level {args.level} is refused; "
            f"--direct goes up to level {DIRECT_DISCRIMINANT_MAX_LEVEL}"
        )
    value = discriminant_recurrence(m, args.level, args.bits)
    recurrence = decimal_str(value)
    out: dict = {"level": args.level, "recurrence": recurrence}
    if args.direct:
        phi_n = m.phi_polynomial()
        for _ in range(args.level - 1):
            phi_n = phi_n.compose(m.phi_polynomial())
        direct = abs(discriminant_direct(phi_n))
        out["direct"] = decimal_str(direct)
        out["agree"] = direct == value

    def text():
        yield f"|disc(phi_a^{args.level})| = {recurrence}"
        if args.direct:
            yield f"direct: {out['direct']} (agree: {out['agree']})"

    _emit(lambda: out, args, text)
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    m = _map(args)
    crit = critical_orbit(m, args.level, args.bits)
    dec = squarefree_decompose(crit.values[args.level - 1], _budget(args))
    model = curve_model(m, args.level, dec, args.genus)
    verified = None
    if args.genus == 1 and args.level >= 2:
        verified = verify_forced_point(model, crit, args.level, dec)
    pts = search_integral_points(model, args.search) if args.search else None

    def json_dict():
        out = model.to_json_dict()
        if verified is not None:
            out["forced_point_verified"] = verified
        if pts is not None:
            out["integral_points"] = [p.to_json_dict() for p in pts]
        return out

    def text():
        yield model.equation()
        if verified is not None:
            yield f"forced point verified: {verified}"
        for p in pts or ():
            yield f"point ({decimal_str(p.x)}, {decimal_str(p.y)}) ratio {p.hall_lang_ratio}"

    _emit(json_dict, args, text)
    return 0


def cmd_density(args: argparse.Namespace) -> int:
    if args.b is None:
        raise UsageError("--b is required")
    curve = density_curve(
        _map(args),
        args.b,
        args.x_max,
        checkpoints=args.checkpoints,
        shards=args.shards,
        workers=args.threads,
        segment_size=args.segment_size,
    )
    if args.fmt == "csv":
        sys.stdout.write(curve.to_csv())
        return 0

    def text():
        for row in curve.rows:
            yield f"X={row.x}: {row.members}/{row.primes_tested} = {float(row.proportion)!r}"

    _emit(curve.to_json_dict, args, text)
    return 0


def cmd_nphi_bound(args: argparse.Namespace) -> int:
    if args.kappa1 is None or args.kappa2 is None or args.kappa3 is None:
        raise UsageError("--kappa1, --kappa2, --kappa3 are required")
    fam = _family(args)
    report = fam.nphi_bound(HallLangConstants(args.kappa1, args.kappa2, args.kappa3))
    out = report.to_json_dict()
    _emit(lambda: out, args, lambda: (f"{key}: {value}" for key, value in out.items()))
    return 0


def cmd_index_bound(args: argparse.Namespace) -> int:
    if args.n is None:
        raise UsageError("--n is required")
    value = decimal_str(index_bound(args.n, args.bits))
    _emit(lambda: {"n_phi": args.n, "index_bound": value}, args,
          lambda: [f"[Aut(T_inf) : G_inf] <= {value}"])
    return 0


# -- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # orbit values exceed the 4300-digit default
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # argv[0] is the subcommand; argparse keeps the last value it
            # sees, so the file's flags go first and the command line wins
            args = parser.parse_args([argv[0], *_config_argv(parser, args), *argv[1:]])
        for name in ("gamma", "c"):
            if getattr(args, name, None) is not None:
                setattr(args, name, _parse_poly(getattr(args, name), name))
        if getattr(args, "checkpoints", None) is not None:
            args.checkpoints = _parse_int_list(args.checkpoints, "checkpoints")
        if args.json:
            args.fmt = "json"
        if args.fmt == "csv" and args.command != "density":
            raise UsageError("--format csv is only available for density")
        if getattr(args, "bits", 1) < 1:
            raise UsageError("--bits must be >= 1")
        return args.handler(args)
    except ValueError as err:
        print(f"quadtower: error: {err}", file=sys.stderr)
        return 1
    except DigitBudgetError as err:
        if isinstance(err.partial, TowerReport):
            payload = err.partial.to_json_dict()
        elif isinstance(err.partial, list):
            payload = _orbit_rows(err.partial)
        else:
            payload = None
        failure = ("digit-budget-exceeded", payload, err)
    except IncompleteFactorizationError as err:
        failure = ("incomplete-factorization", err.factorization.to_json_dict(), err)
    error, payload, err = failure
    print(json.dumps({"error": error, "partial": payload}, indent=2))
    print(f"quadtower: budget: {err}", file=sys.stderr)
    return 2

if __name__ == "__main__":
    sys.exit(main())
