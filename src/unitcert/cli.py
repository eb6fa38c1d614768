"""Command-line surface: delta, fsu, datum, pell, sqrt, separate, verify-paper.

Output is deterministic: identical inputs and configuration produce
byte-identical JSON. Integers that may exceed 53 bits are emitted as decimal
strings so any JSON consumer can read certificates losslessly.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .errors import (
    HypothesisViolation,
    Inseparable,
    OracleDisagreement,
    SearchExhausted,
    UnitCertError,
)
from .fields import BiquadField, OcticField, sqrt_exact
from .pell import fundamental_pell
from .residual import DEFAULT_PRIME_BOUND, Certificate, classical_datum, delta

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_EXHAUSTED = 3
EXIT_ORACLE = 4
EXIT_USAGE = 64  # EX_USAGE of BSD sysexits.h, so that 2 means a hypothesis violation alone


def _dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _print_fsu(cert: Certificate) -> None:
    for g in cert.fsu:
        tag = "" if g.mu is None else f"  [mu = {g.mu}]"
        body = g.element.to_text() if g.element is not None else f"<symbolic: {g.warning}>"
        print(f"  {g.name}{tag}: {body}")


def _print_certificate(cert: Certificate) -> None:
    place = cert.place
    print(f"triple: p={cert.p} q={cert.q} s={cert.s}")
    print(f"datum:  {cert.datum.as_tuple()}")
    print(f"eps convention: {cert.eps_convention}")
    if not cert.hypotheses_verified:
        print("warning: hypotheses NOT verified (forced run)")
    print(f"split prime t = {place.t}, place signs {place.signs}")
    print(f"  r2={place.r2} rpq={place.rpq} rps={place.rps}")
    print(f"eps_pq residue:  {cert.eps_pq_residue}  (legendre {cert.legendre_eps})")
    print(f"theta residue:   {cert.theta_residue}  (legendre {cert.legendre_theta})")
    print(f"delta = {cert.delta}")
    print(f"mu = {cert.mu}")
    if cert.oracle_checked:
        print("oracle cross-check: passed")
    if cert.fsu:
        print("unit system:")
        _print_fsu(cert)


def cmd_delta(args) -> int:
    """`delta` and `fsu`: one certificate, with the JSON of both; `delta`
    prints the whole certificate and may survey all places, `fsu` prints the
    unit system alone."""
    cert = delta(args.p, args.q, args.s, prime_bound=args.prime_bound, force=args.force)
    payload = cert.to_json_dict()
    extra = None
    if args.command == "delta" and args.places == "all":
        extra = [d.to_json_dict() for d in cert.survey(args.prime_bound)]
        payload["all_places"] = extra
    if args.json:
        sys.stdout.write(_dump(payload))
    elif args.command == "fsu":
        print(f"unit system of Q(sqrt2, sqrt{args.p * args.q}, sqrt{args.p * args.s})"
              f"  [delta={cert.delta}, mu={cert.mu}]")
        _print_fsu(cert)
    else:
        _print_certificate(cert)
        if extra is not None:
            print("places surveyed:")
            for row in extra:
                print(
                    f"  t={row['t']} signs={tuple(row['signs'])} valid={row['valid']}"
                    + (f" delta={row['delta']}" if row["valid"] else "")
                )
    return EXIT_OK


def cmd_datum(args) -> int:
    d = classical_datum(args.p, args.q, args.s)
    if args.json:
        sys.stdout.write(_dump({
            "triple": {"p": str(args.p), "q": str(args.q), "s": str(args.s)},
            "datum": list(d.as_tuple()),
        }))
    else:
        print(d.as_tuple())
    return EXIT_OK


def cmd_pell(args) -> int:
    unit = fundamental_pell(args.d)
    if args.json:
        sys.stdout.write(_dump({
            "d": str(unit.d), "x": str(unit.x), "y": str(unit.y), "norm": str(unit.norm),
        }))
    else:
        print(unit)
    return EXIT_OK


def _parse_field(spec: str):
    kind, _, rest = spec.partition(":")
    parts = [int(v) for v in rest.split(",") if v.strip()]
    if kind == "biquad" and len(parts) == 2:
        return BiquadField(*parts)
    if kind == "octic" and len(parts) == 3:
        return OcticField(*parts)
    raise ValueError(f"field spec must be 'biquad:a,b' or 'octic:p,q,s', got {spec!r}")


def cmd_sqrt(args) -> int:
    field = _parse_field(args.field)
    element = field.element(args.element.split(","))
    root = sqrt_exact(element)
    if args.json:
        sys.stdout.write(_dump({
            "element": element.to_text(),
            "is_square": root is not None,
            "root": None if root is None else root.to_text(),
        }))
    else:
        print(root.to_text() if root is not None else "NOT_A_SQUARE")
    return EXIT_OK


def _family_value(value, fraction_string: bool = False):
    """A JSON integer or, for a coordinate, a string "n" or "n/d". A float such
    as 0.1 would be read as its binary value and true as 1, so both are refused."""
    if type(value) is int or (
        fraction_string and isinstance(value, str) and re.fullmatch(r"[+-]?\d+(/\d+)?", value)
    ):
        return value
    kinds = 'a JSON integer or a string "n" or "n/d"' if fraction_string else "a JSON integer"
    raise TypeError(f"{value!r} is not {kinds}")


def cmd_separate(args) -> int:
    from .certify import separate_candidates  # imported by this command alone
    with open(args.input) as fh:
        payload = json.load(fh)
    try:
        field = OcticField(*(_family_value(payload[name]) for name in ("p", "q", "s")))
        candidates = [
            field.element([_family_value(c, fraction_string=True) for c in coords])
            for coords in payload["candidates"]
        ]
        bound = _family_value(payload.get("bound", args.prime_bound))
    except (KeyError, TypeError) as exc:
        raise ValueError(
            f"{args.input}: a family file is a JSON object with integers p, q, s, a list "
            f'of coordinate lists "candidates" (integers or strings "n" or "n/d") and an '
            f'optional integer "bound" ({exc!r})'
        ) from exc
    if bound <= 0:
        raise ValueError("bounds must be positive")
    cert = separate_candidates(candidates, bound=bound)
    out = cert.to_json_dict()
    if args.json:
        sys.stdout.write(_dump(out))
    else:
        print(f"functionals ({len(cert.functionals)}):")
        for f in cert.functionals:
            print(f"  t={f.place.t} signs={f.place.signs} basis=t value={f.place.t}")
        for coords, row in zip(out["candidates"], out["table"]):
            print(f"  {row} <- {coords}")
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    from . import golden  # the paper's tables, imported by this command alone
    items = golden.run_checks(prime_bound=args.prime_bound)
    failed = [item for item in items if not item.ok]
    if args.json:
        sys.stdout.write(_dump({
            "items": [item.to_json_dict() for item in items],
            "total": len(items),
            "failed": len(failed),
            "ok": not failed,
        }))
    else:
        for item in items:
            status = "ok  " if item.ok else "FAIL"
            line = f"[{status}] {item.name}: {item.actual}"
            if not item.ok:
                line += f"  (expected {item.expected})"
            print(line)
        print(f"{len(items) - len(failed)}/{len(items)} checks passed")
    return EXIT_OK if not failed else 1


class _Parser(argparse.ArgumentParser):
    """argparse's parser, exiting EXIT_USAGE on a usage error; the
    subcommands' parsers are of the same class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="unitcert",
        description="Exact certification of the residual unit-group bit of "
                    "Q(sqrt2, sqrt pq, sqrt ps), with local separation tools.",
    )
    # each subcommand takes only the flags it reads
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", help="emit JSON")
    bound = argparse.ArgumentParser(add_help=False)
    bound.add_argument("--prime-bound", type=int, default=DEFAULT_PRIME_BOUND,
                       help="upper bound for auxiliary split primes")
    triple = argparse.ArgumentParser(add_help=False)
    for name in ("p", "q", "s"):
        triple.add_argument(name, type=int)
    force = argparse.ArgumentParser(add_help=False)
    force.add_argument("--force", action="store_true",
                       help="run a triple outside the supported pattern, with the oracle on and the "
                            "certificate marked hypothesis-unverified; no effect on a triple inside it")
    sub = parser.add_subparsers(dest="command", required=True)

    p_delta = sub.add_parser("delta", parents=[triple, json_flag, bound, force],
                             help="decide the residual bit for a triple")
    p_delta.add_argument("--places", choices=("first", "all"), default="first",
                         help="evaluate only the first valid place or survey all")
    p_delta.set_defaults(func=cmd_delta)

    p_fsu = sub.add_parser("fsu", parents=[triple, json_flag, bound, force],
                           help="emit the seven-generator unit system")
    p_fsu.set_defaults(func=cmd_delta)

    p_datum = sub.add_parser("datum", parents=[triple, json_flag],
                             help="print the classical residue datum")
    p_datum.set_defaults(func=cmd_datum)

    p_pell = sub.add_parser("pell", parents=[json_flag],
                            help="fundamental Pell unit of Z[sqrt d]")
    p_pell.add_argument("d", type=int)
    p_pell.set_defaults(func=cmd_pell)

    p_sqrt = sub.add_parser("sqrt", parents=[json_flag],
                            help="exact square root in a tower")
    p_sqrt.add_argument("field", help="'biquad:a,b' or 'octic:p,q,s'")
    p_sqrt.add_argument("element", help="comma-separated rational coordinates")
    p_sqrt.set_defaults(func=cmd_sqrt)

    p_sep = sub.add_parser("separate", parents=[json_flag, bound],
                           help="separate squareclass candidates by local bits")
    p_sep.add_argument("input", help="JSON file with p, q, s and candidate coordinates")
    p_sep.set_defaults(func=cmd_separate)

    p_verify = sub.add_parser("verify-paper", parents=[json_flag, bound],
                              help="replay every built-in reference value")
    p_verify.set_defaults(func=cmd_verify_paper)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # `sqrt` and `separate` read, and `pell --json` writes, integers of any length
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "prime_bound", 1) <= 0:
            raise ValueError("bounds must be positive")
        return args.func(args)
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except SearchExhausted as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except (OracleDisagreement, ArithmeticError) as exc:  # ArithmeticError: a failed exact check
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except Inseparable as exc:
        print(f"inseparable candidates: {exc}", file=sys.stderr)
        return 1
    except (UnitCertError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
