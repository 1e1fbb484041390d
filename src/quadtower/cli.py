"""Single-binary command-line interface.

One subcommand per pipeline; each builds one report by one library call and
prints its text_lines(), or with --format json its to_json_dict() as one JSON
document, big integers as decimal strings; --json is --format json at its
position, and the last of the two wins.  Integer text crosses in bigpoly
alone: decimal_str out, parse_int in (integer flags, --checkpoints and
coefficients), so no call changes the interpreter's int-to-str limit.  Two
commands render a format of their own: orbit --json prints JSON lines, one
{"n", "value", "bits"} per orbit value, and density --format csv prints CSV.
density --shards above X - 1 counts as X - 1.

A call builds two small parsers: the top-level one reads the command name,
and the command's own parser, built from the COMMANDS table, reads its flags.

Exit codes: 0 success, 1 usage errors, 2 budget errors.  A budget error is
a bigpoly.BudgetError; it prints {"error", "partial"} as JSON, with its kind
(digit-budget-exceeded, incomplete-factorization or budget-exceeded) and its
partial's to_json_dict(): the certificates of certify, the factorization that
stopped, or the orbit rows computed so far, numbered as in the full output
(the orbit of b from n = 0, critical values from n = 1).  It is null when the
refusal came before any orbit value: discriminant refuses a level n >= 2 with
2^n above --bits and --direct above level 10, and family-info refuses, as
budget-exceeded, a P_phi whose degree could exceed 4,000
(family.MAX_EXCEPTIONAL_DEGREE), an F_phi whose ball |a| <= threshold has a
threshold above 10^5 (family.MAX_EXCEPTIONAL_THRESHOLD) and a factor c or
(c - gamma)^2 + c whose trailing coefficient has more than 2,000,000
divisors (family.MAX_DIVISORS).  A value
above 2,048 bits (factor.MAX_FACTOR_BITS) is not factored, so curve,
primitive-divisors --method exact and family-info stop there as incomplete
factorizations, and all three name the cap the same way ("a 2408-bit value is
not factored; factoring stops at 2048 bits"); below it, each names the budget
that ran out in its own words.  primitive-divisors --method certificate takes
the effort flags too, but factors nothing with them: its courtesy
factorization of the witness uses the fixed galois._COURTESY_BUDGET.

Each integer flag declares its accepted range beside it in GROUPS or COMMANDS,
and `quadtower <command> -h` prints it; a flag its command needs is marked
required there.  One check after --config, before any work, makes each a usage
error: a range first ("--flag must be in [lo, hi]" or "--flag must be >= lo"),
then every missing flag in table order ("--gamma, --c, --a are required").
The library checks what depends on other flags: density --shards must still be
at most 10^4 (density.MAX_SHARDS) once it counts as at most X - 1.

--config FILE reads a JSON object whose keys are the long flags without their
dashes, with - written as _ (X, from, trial_bound, ...).  Each value is read
as the flag's own text: a string or number as written, a list joined with
commas, and true/false only for --direct.  A value of the wrong type, or one
the flag rejects, exits 1; keys that only other subcommands take are ignored.
Explicit flags win over the file.  A file above 128 KiB (MAX_CONFIG_BYTES) is
refused before it is parsed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, NamedTuple

from quadtower.bigpoly import DEFAULT_MAX_BITS, BudgetError, IntPolynomial, parse_int
from quadtower.density import density_curve
from quadtower.factor import DEFAULT_BUDGET, MAX_RHO_ITERS, MAX_TRIAL_BOUND, Budget
from quadtower.family import HallLangConstants, QuadraticFamily, index_bound
from quadtower.galois import (
    certify_tower,
    curve_report,
    discriminant_report,
    primitive_divisor_certificate,
    primitive_divisor_exact,
    stability_scan,
)
from quadtower.orbit import critical_orbit, orbit


class UsageError(ValueError):
    pass


# The largest --bits.  At 2^22 bits the slowest command, discriminant just
# past its budget, took about 1.5 s (2^23: 6 s, 2^24: 13 s; Python 3.11,
# 2 vCPUs).
MAX_BITS = 1 << 22
# The largest level flag.  An escaping orbit's bit length about doubles per
# level, so none gets past level 23 within MAX_BITS; a larger level only steps
# a bounded orbit, such as x^2 - 1's -1, 0, -1, ..., which never trips the bit
# budget.  discriminant's --level has no upper end: it refuses a level n with
# 2^n above --bits by itself (exit 2), before any orbit value.
MAX_LEVEL = 64
# The largest curve --search.  The search evaluates the model at 2N + 1
# points: at 10^6 it took 3.6 s on a genus-2 model with a 2,048-bit d
# (factor.MAX_FACTOR_BITS), the largest that factors (Python 3.11, 2 vCPUs).
MAX_SEARCH = 10 ** 6
# The largest --config file.  Linux caps one argv string at 128 KiB, so a
# flag's text is never longer, and parse_int reads 131,072 digits in about
# 0.04 s against 1 s for 10^6 digits (Python 3.11, 2 vCPUs).
MAX_CONFIG_BYTES = 128 * 1024


def _parse_poly(text: str, name: str) -> IntPolynomial:
    try:
        return IntPolynomial.parse(text)
    except ValueError as err:
        raise UsageError(f"bad coefficient list for --{name}: {err}") from err


def _checkpoints(args: argparse.Namespace) -> list[int] | None:
    if args.checkpoints is None:
        return None
    try:
        return [parse_int(part) for part in args.checkpoints.split(",") if part.strip()]
    except ValueError as err:
        raise UsageError(f"bad integer list for --checkpoints: {err}") from err


def _budget(args: argparse.Namespace) -> Budget:
    return Budget(trial_bound=args.trial_bound, rho_iters=args.rho_iters, seed=args.seed)


def _family(args: argparse.Namespace) -> QuadraticFamily:
    return QuadraticFamily(_parse_poly(args.gamma, "gamma"), _parse_poly(args.c, "c"))


def _map(args: argparse.Namespace):
    return _family(args).specialize(args.a)


def _flag(*names: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    """One flag: argparse's names and keywords, plus for every type=int flag
    without choices a range: (lo, hi) with hi None for no upper end, or None
    for no bound; required=True marks a flag its command cannot run without."""
    return names, kwargs


def _range_text(lo: int, hi: int | None) -> str:
    return f">= {lo}" if hi is None else f"in [{lo}, {hi}]"


# flag groups that several subcommands share; every subcommand takes "common"
GROUPS = {
    "common": (_flag("--config", help="JSON config file; explicit flags win"),
               _flag("--format", dest="fmt", choices=("text", "json", "csv"), default="text",
                     help="csv is for density only"),
               _flag("--json", dest="fmt", action="store_const", const="json",
                     help="shorthand for --format json")),
    "fam": (_flag("--gamma", required=True, help="gamma coefficients, low-to-high, e.g. '0,1'"),
            _flag("--c", required=True, help="c coefficients, low-to-high")),
    "spot": (_flag("--a", type=int, range=None, required=True,
                   help="integer specialization point"),),
    "start": (_flag("--b", type=int, range=None, required=True),),
    # critical-orbit and stability start at level 1; orbit declares its own --depth from 0
    "depth": (_flag("--depth", type=int, range=(1, MAX_LEVEL), default=10),),
    "level": (_flag("--level", type=int, range=(1, MAX_LEVEL), default=1),),
    "bits": (_flag("--bits", type=int, range=(1, MAX_BITS), default=DEFAULT_MAX_BITS,
                   help="orbit bit budget per value"),),
    "effort": (_flag("--trial-bound", dest="trial_bound", type=int, range=(2, MAX_TRIAL_BOUND),
                     default=DEFAULT_BUDGET.trial_bound),
               _flag("--rho-iters", dest="rho_iters", type=int, range=(0, MAX_RHO_ITERS),
                     default=DEFAULT_BUDGET.rho_iters),
               _flag("--seed", type=int, range=None, default=DEFAULT_BUDGET.seed)),
}


class Command(NamedTuple):
    help: str
    groups: tuple[str, ...]  # names of shared flag groups
    build: Callable[[argparse.Namespace], object]  # args -> report
    flags: tuple = ()  # the subcommand's own flags
    formats: dict = {}  # format -> the report's lines in it, beside text and json


# Each build looks its library functions up as module globals when it runs,
# so a wrapper installed on a module binding (a tracer) sees every call.
COMMANDS = {
    "family-info": Command(
        "isotriviality, m_phi, P_phi, F_phi, bound constants", ("fam", "effort"),
        lambda a: _family(a).info(_budget(a))),
    "orbit": Command(
        "orbit of b under phi_a", ("fam", "spot", "start", "bits"),
        lambda a: orbit(_map(a), a.b, a.depth, a.bits).rows,
        flags=(_flag("--depth", type=int, range=(0, MAX_LEVEL), default=10),),
        formats={"json": lambda rows: map(json.dumps, rows.to_json_dict())}),
    "critical-orbit": Command(
        "critical values phi_a^n(gamma_a)", ("fam", "spot", "depth", "bits"),
        lambda a: critical_orbit(_map(a), a.depth, a.bits)),
    "stability": Command(
        "scan the adjusted critical orbit for perfect squares", ("fam", "spot", "depth", "bits"),
        lambda a: stability_scan(_map(a), a.depth, a.bits)),
    "certify": Command(
        "level-maximality certificates for a level range", ("fam", "spot", "bits"),
        lambda a: certify_tower(_map(a), a.from_level, a.to_level, a.bits),
        flags=(_flag("--from", dest="from_level", type=int, range=(1, MAX_LEVEL), default=1),
               _flag("--to", dest="to_level", type=int, range=(1, MAX_LEVEL), default=6))),
    "primitive-divisors": Command(
        "square-free primitive prime divisors at a level",
        ("fam", "spot", "level", "bits", "effort"),
        lambda a: (primitive_divisor_exact(_map(a), a.level, _budget(a), a.bits)
                   if a.method == "exact" else
                   primitive_divisor_certificate(_map(a), a.level, a.bits)),
        flags=(_flag("--method", choices=("exact", "certificate"), default="certificate",
                     help="only exact reads --trial-bound, --rho-iters and --seed"),)),
    "discriminant": Command(
        "|disc(phi_a^n)| via the recurrence", ("fam", "spot", "bits"),
        lambda a: discriminant_report(_map(a), a.level, a.direct, a.bits),
        flags=(_flag("--level", type=int, range=(1, None), default=1),
               _flag("--direct", action="store_true",
                     help="also compute the resultant-based discriminant"))),
    "curve": Command(
        "emit the level curve, verify its forced point, optionally search",
        ("fam", "spot", "level", "bits", "effort"),
        lambda a: curve_report(_map(a), a.level, a.genus, a.search, _budget(a), a.bits),
        flags=(_flag("--genus", type=int, choices=(1, 2), default=1),
               _flag("--search", type=int, range=(0, MAX_SEARCH), default=0,
                     help="integral-point search bound (0 = skip)"))),
    "density": Command(
        "prime-divisor density curve for the orbit of b", ("fam", "spot", "start"),
        lambda a: density_curve(_map(a), a.b, a.x_max, checkpoints=_checkpoints(a),
                                shards=a.shards, workers=a.threads),
        flags=(_flag("--X", dest="x_max", type=int, range=(2, None), default=10 ** 6),
               _flag("--checkpoints"),
               _flag("--shards", type=int, range=(1, None), default=1),
               _flag("--threads", type=int, range=(1, None), default=1)),
        formats={"csv": lambda curve: curve.to_csv().splitlines()}),
    "nphi-bound": Command(
        "evaluate the conditional bound chain for given kappas", ("fam",),
        lambda a: _family(a).nphi_bound(HallLangConstants(a.kappa1, a.kappa2, a.kappa3)),
        flags=tuple(_flag(f"--kappa{i}", type=float, required=True) for i in (1, 2, 3))),
    "index-bound": Command(
        "the uniform index bound 2^(2^n - n - 1)", ("bits",),
        lambda a: index_bound(a.n, a.bits),
        flags=(_flag("--n", type=int, range=(1, None), required=True),)),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this tool reserves 2 for
    # budget errors, so remap to exit 1.
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_flags(parser: argparse.ArgumentParser, flags) -> argparse.ArgumentParser:
    parser.register("type", int, parse_int)  # int()'s values and messages, any length
    for names, kwargs in flags:
        kwargs = dict(kwargs)
        bounds = kwargs.pop("range", None)
        kwargs.pop("required", None)  # --config values arrive after parsing
        if bounds is not None:  # -h prints the range after the help text
            kwargs["help"] = "; ".join(filter(None, (kwargs.get("help"), _range_text(*bounds))))
        parser.add_argument(*names, **kwargs)
    return parser


def _flags(name: str) -> list:
    groups = ("common", *COMMANDS[name].groups)
    return [flag for group in groups for flag in GROUPS[group]] + list(COMMANDS[name].flags)


def build_parser() -> _Parser:
    listing = "".join(f"\n  {name:<20}{command.help}" for name, command in COMMANDS.items())
    parser = _Parser(prog="quadtower", description=__doc__, epilog=f"commands:{listing}",
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", metavar="command", choices=COMMANDS, help="one of the below")
    rest = parser.add_argument("argv", metavar="...", nargs=argparse.REMAINDER, help="its flags")
    rest.required = False  # argparse would name it beside a missing command
    return parser


def _parse(argv) -> tuple[str, argparse.Namespace]:
    top = build_parser()
    called = top.parse_args(argv)
    parser = _add_flags(_Parser(prog=f"quadtower {called.command}"), _flags(called.command))
    args, unknown = parser.parse_known_args(called.argv)
    if args.config and not unknown:
        # the file's flags go first: argparse keeps the last value it sees
        config = _config_argv(called.command, args.config)
        args, unknown = parser.parse_known_args([*config, *called.argv])
    if unknown:  # the top-level parser's error, as under argparse subparsers
        top.error(f"unrecognized arguments: {' '.join(unknown)}")
    return called.command, args


def _check_flags(name: str, args: argparse.Namespace) -> None:
    """Each declared range, then every missing required flag, in table order."""
    missing = []
    for names, kwargs in _flags(name):
        value = getattr(args, kwargs.get("dest", names[0][2:].replace("-", "_")))
        if value is None:
            if kwargs.get("required"):
                missing.append(names[0])
        elif kwargs.get("range") is not None:
            lo, hi = kwargs["range"]
            if value < lo or hi is not None and value > hi:
                raise UsageError(f"{names[0]} must be {_range_text(lo, hi)}")
    if missing:
        raise UsageError(f"{', '.join(missing)} {'is' if len(missing) == 1 else 'are'} required")


def _config_argv(name: str, path: str) -> list[str]:
    """The --config file's keys as flag tokens for command name.

    A key is a long flag without its dashes, with - written as _.  A string
    or number becomes the flag's text, a list is joined with commas, and
    true/false sets or leaves out a flag that takes no value (--direct).  Keys
    that only other subcommands take are dropped; argparse checks the rest.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_CONFIG_BYTES + 1)
        if len(data) > MAX_CONFIG_BYTES:
            raise UsageError(f"config {path} is larger than {MAX_CONFIG_BYTES} bytes")
        # numbers stay as written, so argparse sees the file's own text
        raw = json.loads(data.decode("utf-8"), parse_int=str, parse_float=str)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise UsageError(f"cannot read config {path}: {err}") from err
    if not isinstance(raw, dict):
        raise UsageError("config file must hold a JSON object")
    flags = {names[0][2:].replace("-", "_"): names[0] for other in COMMANDS
             for names, _ in _flags(other) if names[0] not in ("--config", "--json")}
    own = {names[0]: kwargs for names, kwargs in _flags(name)}
    tokens = []
    for key, value in raw.items():
        if key not in flags:
            raise UsageError(f"unknown config key: {key!r}")
        flag = flags[key]
        if flag not in own:
            continue
        if isinstance(value, list) and all(isinstance(v, str) for v in value):
            value = ",".join(value)
        if isinstance(value, bool) and own[flag].get("action") == "store_true":
            if value:
                tokens.append(flag)
        elif isinstance(value, str):
            tokens.append(f"{flag}={value}")
        else:
            raise UsageError(f"bad config value for {key!r}: {json.dumps(value)}")
    return tokens


def main(argv=None) -> int:
    try:
        name, args = _parse(argv)
        command = COMMANDS[name]
        if args.fmt == "csv" and "csv" not in command.formats:
            raise UsageError("--format csv is only available for density")
        _check_flags(name, args)
        report = command.build(args)
    except ValueError as err:
        print(f"quadtower: error: {err}", file=sys.stderr)
        return 1
    except BudgetError as err:
        # every partial renders itself: orbit rows, a report, a factorization
        partial = None if err.partial is None else err.partial.to_json_dict()
        print(json.dumps({"error": err.error, "partial": partial}, indent=2))
        print(f"quadtower: budget: {err}", file=sys.stderr)
        return 2
    if args.fmt in command.formats:
        lines = command.formats[args.fmt](report)
    elif args.fmt == "json":
        lines = [json.dumps(report.to_json_dict(), indent=2)]
    else:
        lines = report.text_lines()
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
