"""Single-binary command-line interface.

One subcommand per pipeline, a JSON config file merged under explicit flags
(flags win), machine-readable --json output everywhere, and stable exit
codes: 0 success, 1 usage errors, 2 budget errors (which still emit partial
results).  All big integers serialize as decimal strings.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from quadtower.bigpoly import (
    IntPolynomial,
    ZeroPolynomialError,
    decimal_str,
    discriminant_direct,
    orbit_divisor_strs,
)
from quadtower.density import DEFAULT_SEGMENT_SIZE, density_curve
from quadtower.factor import (
    Budget,
    IncompleteFactorizationError,
    PreconditionError,
    ZeroInputError,
    primitive_divisor_certificate,
    primitive_divisor_exact,
    squarefree_decompose,
)
from quadtower.family import (
    HallLangConstants,
    InvalidConstantsError,
    IsotrivialError,
    QuadraticFamily,
    index_bound,
)
from quadtower.galois import (
    SingularModelError,
    TowerReport,
    certify_tower,
    curve_model,
    discriminant_recurrence,
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


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """Validated, merged view of config file and flags."""

    gamma: IntPolynomial | None = None
    c: IntPolynomial | None = None
    a: int | None = None
    b: int | None = None
    depth: int = 10
    bits: int = DEFAULT_MAX_BITS
    trial_bound: int = 10 ** 6
    rho_iters: int = 10 ** 7
    x_max: int = 10 ** 6
    checkpoints: list[int] | None = None
    fmt: str = "text"
    seed: int = 0
    shards: int = 1
    threads: int = 1
    segment_size: int = DEFAULT_SEGMENT_SIZE
    level: int = 1
    genus: int = 1
    search: int = 0
    from_level: int = 1
    to_level: int = 6
    method: str = "certificate"
    kappa1: float | None = None
    kappa2: float | None = None
    kappa3: float | None = None
    n: int | None = None
    direct: bool = False

    def budget(self) -> Budget:
        return Budget(trial_bound=self.trial_bound, rho_iters=self.rho_iters, seed=self.seed)

    def family(self) -> QuadraticFamily:
        if self.gamma is None or self.c is None:
            raise UsageError("--gamma and --c are required (flags or config)")
        return QuadraticFamily(self.gamma, self.c)

    def map(self):
        if self.a is None:
            raise UsageError("--a is required")
        return self.family().specialize(self.a)


# config-file key -> (RunConfig field, parser); flags use the same names
_CONFIG_KEYS = {
    "gamma": ("gamma", lambda v: _parse_poly(v, "gamma")),
    "c": ("c", lambda v: _parse_poly(v, "c")),
    "a": ("a", int),
    "b": ("b", int),
    "depth": ("depth", int),
    "bits": ("bits", int),
    "trial_bound": ("trial_bound", int),
    "rho_iters": ("rho_iters", int),
    "X": ("x_max", int),
    "checkpoints": ("checkpoints", lambda v: _parse_int_list(v, "checkpoints")),
    "format": ("fmt", str),
    "seed": ("seed", int),
    "shards": ("shards", int),
    "threads": ("threads", int),
    "segment_size": ("segment_size", int),
    "level": ("level", int),
    "genus": ("genus", int),
    "search": ("search", int),
    "from": ("from_level", int),
    "to": ("to_level", int),
    "method": ("method", str),
    "kappa1": ("kappa1", float),
    "kappa2": ("kappa2", float),
    "kappa3": ("kappa3", float),
    "n": ("n", int),
    "direct": ("direct", bool),
}


def _parse_poly(value, name: str) -> IntPolynomial:
    if isinstance(value, IntPolynomial):
        return value
    if isinstance(value, (list, tuple)):
        return IntPolynomial(value)
    if isinstance(value, str):
        try:
            return IntPolynomial.parse(value)
        except ValueError as err:
            raise UsageError(f"bad coefficient list for --{name}: {err}") from err
    raise UsageError(f"--{name} must be a comma-separated coefficient list")


def _parse_int_list(value, name: str) -> list[int]:
    if isinstance(value, (list, tuple)):
        return [int(v) for v in value]
    if isinstance(value, str):
        try:
            return [int(part) for part in value.split(",") if part.strip()]
        except ValueError as err:
            raise UsageError(f"bad integer list for --{name}: {err}") from err
    raise UsageError(f"--{name} must be a comma-separated integer list")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this tool reserves 2 for
    # budget errors, so remap to exit 1.
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> _Parser:
    parser = _Parser(prog="quadtower", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; explicit flags win")
    common.add_argument("--format", dest="fmt", choices=("text", "json", "csv"))
    common.add_argument("--json", action="store_true", help="shorthand for --format json")
    common.add_argument("--seed", type=int)

    fam = argparse.ArgumentParser(add_help=False)
    fam.add_argument("--gamma", help="gamma coefficients, low-to-high, e.g. '0,1'")
    fam.add_argument("--c", help="c coefficients, low-to-high")

    spot = argparse.ArgumentParser(add_help=False)
    spot.add_argument("--a", type=int, help="integer specialization point")

    bits = argparse.ArgumentParser(add_help=False)
    bits.add_argument("--bits", type=int, help="orbit bit budget per value")

    effort = argparse.ArgumentParser(add_help=False)
    effort.add_argument("--trial-bound", dest="trial_bound", type=int)
    effort.add_argument("--rho-iters", dest="rho_iters", type=int)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family-info", parents=[common, fam, effort],
                       help="isotriviality, m_phi, P_phi, F_phi, bound constants")
    p.set_defaults(handler=cmd_family_info)

    p = sub.add_parser("orbit", parents=[common, fam, spot, bits],
                       help="orbit of b under phi_a")
    p.add_argument("--b", type=int)
    p.add_argument("--depth", type=int)
    p.set_defaults(handler=cmd_orbit)

    p = sub.add_parser("critical-orbit", parents=[common, fam, spot, bits],
                       help="critical values phi_a^n(gamma_a)")
    p.add_argument("--depth", type=int)
    p.set_defaults(handler=cmd_critical_orbit)

    p = sub.add_parser("stability", parents=[common, fam, spot, bits],
                       help="scan the adjusted critical orbit for perfect squares")
    p.add_argument("--depth", type=int)
    p.set_defaults(handler=cmd_stability)

    p = sub.add_parser("certify", parents=[common, fam, spot, bits],
                       help="level-maximality certificates for a level range")
    p.add_argument("--from", dest="from_level", type=int)
    p.add_argument("--to", dest="to_level", type=int)
    p.set_defaults(handler=cmd_certify)

    p = sub.add_parser("primitive-divisors", parents=[common, fam, spot, bits, effort],
                       help="square-free primitive prime divisors at a level")
    p.add_argument("--level", type=int)
    p.add_argument("--method", choices=("exact", "certificate"))
    p.set_defaults(handler=cmd_primitive_divisors)

    p = sub.add_parser("discriminant", parents=[common, fam, spot, bits],
                       help="|disc(phi_a^n)| via the recurrence")
    p.add_argument("--level", type=int)
    p.add_argument("--direct", action="store_true", default=None,
                   help="also compute the resultant-based discriminant")
    p.set_defaults(handler=cmd_discriminant)

    p = sub.add_parser("curve", parents=[common, fam, spot, bits, effort],
                       help="emit the level curve, verify its forced point, optionally search")
    p.add_argument("--level", type=int)
    p.add_argument("--genus", type=int, choices=(1, 2))
    p.add_argument("--search", type=int, help="integral-point search bound (0 = skip)")
    p.set_defaults(handler=cmd_curve)

    p = sub.add_parser("density", parents=[common, fam, spot],
                       help="prime-divisor density curve for the orbit of b")
    p.add_argument("--b", type=int)
    p.add_argument("--X", dest="x_max", type=int)
    p.add_argument("--checkpoints")
    p.add_argument("--shards", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--segment-size", dest="segment_size", type=int)
    p.set_defaults(handler=cmd_density)

    p = sub.add_parser("nphi-bound", parents=[common, fam],
                       help="evaluate the conditional bound chain for given kappas")
    p.add_argument("--kappa1", type=float)
    p.add_argument("--kappa2", type=float)
    p.add_argument("--kappa3", type=float)
    p.set_defaults(handler=cmd_nphi_bound)

    p = sub.add_parser("index-bound", parents=[common, bits],
                       help="the uniform index bound 2^(2^n - n - 1)")
    p.add_argument("--n", type=int)
    p.set_defaults(handler=cmd_index_bound)

    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise UsageError(f"cannot read config {args.config}: {err}") from err
        if not isinstance(raw, dict):
            raise UsageError("config file must hold a JSON object")
        for key, value in raw.items():
            if key not in _CONFIG_KEYS:
                raise UsageError(f"unknown config key: {key!r}")
            field_name, convert = _CONFIG_KEYS[key]
            try:
                setattr(cfg, field_name, convert(value))
            except (TypeError, ValueError) as err:
                raise UsageError(f"bad config value for {key!r}: {err}") from err
    for key, (field_name, convert) in _CONFIG_KEYS.items():
        flag_value = getattr(args, field_name, None)
        if flag_value is not None:
            setattr(cfg, field_name, convert(flag_value))
    if getattr(args, "json", False):
        cfg.fmt = "json"
    if cfg.fmt not in ("text", "json", "csv"):
        raise UsageError(f"unknown format: {cfg.fmt!r}")
    if cfg.fmt == "csv" and args.command != "density":
        raise UsageError("--format csv is only available for density")
    if cfg.method not in ("exact", "certificate"):
        raise UsageError(f"unknown method: {cfg.method!r}")
    if cfg.genus not in (1, 2):
        raise UsageError("genus must be 1 or 2")
    if cfg.bits < 1:
        raise UsageError("--bits must be >= 1")
    return cfg


def _emit(json_dict, cfg: RunConfig, text_lines) -> None:
    """Print json_dict() in --format json, else the text lines; each side
    builds its own strings, so big integers convert to decimal once."""
    if cfg.fmt == "json":
        print(json.dumps(json_dict(), indent=2))
    else:
        for line in text_lines():
            print(line)


# -- handlers ---------------------------------------------------------------


def cmd_family_info(cfg: RunConfig) -> int:
    fam = cfg.family()
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
            out["exceptional_set"] = fam.exceptional_set(cfg.budget())

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

    _emit(lambda: out, cfg, text)
    return 0


def _orbit_rows(values, map=None, start: int = 0) -> list[dict]:
    """One row per orbit value; with the map, values[i + 1] = map(values[i])
    and the values print along the orbit (orbit_divisor_strs, every value its
    own divisor), else one by one."""
    if map is None:
        texts = [decimal_str(v) for v in values]
    else:
        texts = orbit_divisor_strs(map.gamma_a, map.c_a, values, values)
    return [
        {"n": i, "value": text, "bits": v.bit_length()}
        for i, (v, text) in enumerate(zip(values, texts), start=start)
    ]


def _orbit_line(row: dict) -> str:
    return f"{row['n']}: {row['value']} ({row['bits']} bits)"


def cmd_orbit(cfg: RunConfig) -> int:
    if cfg.b is None:
        raise UsageError("--b is required")
    sl = orbit(cfg.map(), cfg.b, cfg.depth, cfg.bits)
    rows = _orbit_rows(sl.values, sl.map)
    if cfg.fmt == "json":
        for row in rows:  # orbit dumps are JSON lines
            print(json.dumps(row))
    else:
        for row in rows:
            print(_orbit_line(row))
    return 0


def cmd_critical_orbit(cfg: RunConfig) -> int:
    crit = critical_orbit(cfg.map(), cfg.depth, cfg.bits)
    rows = _orbit_rows(crit.values, crit.map, start=1)
    out = {"condition_one_holds": crit.condition_one_holds, "values": rows}

    def text():
        for row in rows:
            yield _orbit_line(row)
        yield f"condition (1) holds: {crit.condition_one_holds}"

    _emit(lambda: out, cfg, text)
    return 0


def cmd_stability(cfg: RunConfig) -> int:
    report = stability_scan(cfg.map(), cfg.depth, cfg.bits)

    def text():
        yield f"verdict: {report.verdict}"
        for n, root in report.squares_found:
            yield f"level {n}: square with root {decimal_str(root)}"

    _emit(report.to_json_dict, cfg, text)
    return 0


def cmd_certify(cfg: RunConfig) -> int:
    report = certify_tower(cfg.map(), cfg.from_level, cfg.to_level, cfg.bits)

    def text():
        for cert, witness in zip(report.certificates, report.witness_strs()):
            yield f"level {cert.level}: {cert.status}" + (
                f" (witness {witness})" if witness is not None else ""
            )
        yield "counts: " + ", ".join(f"{k}={v}" for k, v in report.counts.items())

    _emit(report.to_json_dict, cfg, text)
    return 0


def cmd_primitive_divisors(cfg: RunConfig) -> int:
    crit = critical_orbit(cfg.map(), cfg.level, cfg.bits)
    if cfg.method == "exact":
        report = primitive_divisor_exact(crit.values, cfg.level, cfg.budget())
    else:
        report = primitive_divisor_certificate(crit.values, cfg.level)

    def text():
        yield f"level {report.level} ({report.method}): certified={report.certified}"
        if report.witness is not None:
            yield f"witness R = {decimal_str(report.witness)}"
        if report.primes:
            yield "primes: " + ", ".join(decimal_str(p) for p in report.primes)

    _emit(report.to_json_dict, cfg, text)
    return 0


# phi_a^n has degree 2^n, and composing it then taking its resultant grows
# steeply: for x^2 + 1, 0.8 s at level 9, 4.8 s at level 10 and 54 s at
# level 11 (CPython 3.11, one core).  --direct refuses higher levels before
# composing.
DIRECT_DISCRIMINANT_MAX_LEVEL = 10


def cmd_discriminant(cfg: RunConfig) -> int:
    if cfg.direct and cfg.level > DIRECT_DISCRIMINANT_MAX_LEVEL:
        raise DigitBudgetError(
            f"direct discriminant at level {cfg.level} is refused; "
            f"--direct goes up to level {DIRECT_DISCRIMINANT_MAX_LEVEL}"
        )
    m = cfg.map()
    value = discriminant_recurrence(m, cfg.level, cfg.bits)
    recurrence = decimal_str(value)
    out: dict = {"level": cfg.level, "recurrence": recurrence}
    if cfg.direct:
        phi_n = m.phi_polynomial()
        for _ in range(cfg.level - 1):
            phi_n = phi_n.compose(m.phi_polynomial())
        direct = abs(discriminant_direct(phi_n))
        out["direct"] = decimal_str(direct)
        out["agree"] = direct == value

    def text():
        yield f"|disc(phi_a^{cfg.level})| = {recurrence}"
        if cfg.direct:
            yield f"direct: {out['direct']} (agree: {out['agree']})"

    _emit(lambda: out, cfg, text)
    return 0


def cmd_curve(cfg: RunConfig) -> int:
    m = cfg.map()
    crit = critical_orbit(m, cfg.level, cfg.bits)
    dec = squarefree_decompose(crit.values[cfg.level - 1], cfg.budget())
    model = curve_model(m, cfg.level, dec, cfg.genus)
    verified = None
    if cfg.genus == 1 and cfg.level >= 2:
        verified = verify_forced_point(model, m, cfg.level, dec, cfg.bits)
    pts = search_integral_points(model, cfg.search) if cfg.search else None

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

    _emit(json_dict, cfg, text)
    return 0


def cmd_density(cfg: RunConfig) -> int:
    if cfg.b is None:
        raise UsageError("--b is required")
    curve = density_curve(
        cfg.map(),
        cfg.b,
        cfg.x_max,
        checkpoints=cfg.checkpoints,
        shards=cfg.shards,
        workers=cfg.threads,
        segment_size=cfg.segment_size,
    )
    if cfg.fmt == "json":
        print(json.dumps(curve.to_json_dict(), indent=2))
    elif cfg.fmt == "csv":
        sys.stdout.write(curve.to_csv())
    else:
        for row in curve.rows:
            print(f"X={row.x}: {row.members}/{row.primes_tested} = {float(row.proportion)!r}")
    return 0


def cmd_nphi_bound(cfg: RunConfig) -> int:
    if cfg.kappa1 is None or cfg.kappa2 is None or cfg.kappa3 is None:
        raise UsageError("--kappa1, --kappa2, --kappa3 are required")
    fam = cfg.family()
    report = fam.nphi_bound(HallLangConstants(cfg.kappa1, cfg.kappa2, cfg.kappa3))
    out = report.to_json_dict()

    def text():
        for key, value in out.items():
            yield f"{key}: {value}"

    _emit(lambda: out, cfg, text)
    return 0


def cmd_index_bound(cfg: RunConfig) -> int:
    if cfg.n is None:
        raise UsageError("--n is required")
    value = decimal_str(index_bound(cfg.n, cfg.bits))

    def text():
        yield f"[Aut(T_inf) : G_inf] <= {value}"

    _emit(lambda: {"n_phi": cfg.n, "index_bound": value}, cfg, text)
    return 0


# -- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # orbit values exceed the 4300-digit default
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        return args.handler(cfg)
    except UsageError as err:
        print(f"quadtower: error: {err}", file=sys.stderr)
        return 1
    except (IsotrivialError, InvalidConstantsError, ZeroPolynomialError,
            ZeroInputError, PreconditionError, SingularModelError, ValueError) as err:
        print(f"quadtower: error: {err}", file=sys.stderr)
        return 1
    except DigitBudgetError as err:
        partial = err.partial
        if isinstance(partial, TowerReport):
            payload = partial.to_json_dict()
        elif isinstance(partial, list):
            payload = _orbit_rows(partial)
        else:
            payload = None
        print(json.dumps({"error": "digit-budget-exceeded", "partial": payload}, indent=2))
        print(f"quadtower: budget: {err}", file=sys.stderr)
        return 2
    except IncompleteFactorizationError as err:
        print(json.dumps(
            {"error": "incomplete-factorization",
             "partial": err.factorization.to_json_dict()},
            indent=2,
        ))
        print(f"quadtower: budget: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
