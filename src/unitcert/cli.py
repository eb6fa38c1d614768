"""Command-line surface: delta, fsu, datum, pell, sqrt, separate, verify-paper.

Output is deterministic: identical inputs and configuration produce
byte-identical JSON. Integers that may exceed 53 bits are emitted as decimal
strings so any JSON consumer can read certificates losslessly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import golden
from .certify import SeparationCertificate, separate_candidates
from .errors import (
    HypothesisViolation,
    Inseparable,
    OracleDisagreement,
    SearchExhausted,
    UnitCertError,
)
from .fields import BiquadField, OcticField, sqrt_exact
from .pell import fundamental_pell, load_cache, save_cache
from .residual import Certificate, classical_datum, delta, survey_places

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_EXHAUSTED = 3
EXIT_ORACLE = 4


@dataclass
class RunConfig:
    prime_bound: int = 100_000
    place_mode: str = "first"
    json: bool = False
    force: bool = False
    cache_path: str | None = None

    def __post_init__(self):
        if self.prime_bound <= 0:
            raise ValueError("bounds must be positive")
        if self.place_mode not in ("first", "all"):
            raise ValueError("place mode must be 'first' or 'all'")


def _dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _config(args) -> RunConfig:
    return RunConfig(
        prime_bound=args.prime_bound,
        place_mode=args.places,
        json=args.json,
        force=getattr(args, "force", False),
        cache_path=args.cache or os.environ.get("UNITCERT_CACHE"),
    )


def _open_cache(config: RunConfig) -> dict:
    """The Pell units of one command: loaded from --cache, else an empty dict,
    so that each unit is computed once per command either way."""
    return load_cache(config.cache_path) if config.cache_path else {}


def _close_cache(config: RunConfig, cache) -> None:
    if config.cache_path:
        save_cache(config.cache_path, cache)


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
    config = _config(args)
    cache = _open_cache(config)
    cert = delta(
        args.p, args.q, args.s,
        prime_bound=config.prime_bound,
        force=config.force,
        cache=cache,
    )
    payload = cert.to_json_dict()
    extra = None
    if args.command == "delta" and config.place_mode == "all":
        decisions = survey_places(
            args.p, args.q, args.s,
            prime_bound=config.prime_bound,
            cache=cache,
            theta_elem=cert.theta,
        )
        extra = [
            {
                "t": str(d.place.t),
                "signs": list(d.place.signs),
                "valid": d.valid,
                "eps_pq_residue": str(d.eps_residue),
                "theta_residue": None if d.theta_residue is None else str(d.theta_residue),
                "delta": d.delta,
            }
            for d in decisions
        ]
        payload["all_places"] = extra
    _close_cache(config, cache)
    if config.json:
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
    config = _config(args)
    d = classical_datum(args.p, args.q, args.s)
    if config.json:
        sys.stdout.write(_dump({
            "triple": {"p": str(args.p), "q": str(args.q), "s": str(args.s)},
            "datum": list(d.as_tuple()),
        }))
    else:
        print(d.as_tuple())
    return EXIT_OK


def cmd_pell(args) -> int:
    config = _config(args)
    cache = _open_cache(config)
    unit = fundamental_pell(args.d, cache)
    _close_cache(config, cache)
    if config.json:
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


def _parse_element(field, text: str):
    coords = [Fraction(v.strip()) for v in text.split(",")]
    return field.element(coords)


def cmd_sqrt(args) -> int:
    config = _config(args)
    field = _parse_field(args.field)
    element = _parse_element(field, args.element)
    root = sqrt_exact(element)
    if config.json:
        sys.stdout.write(_dump({
            "element": element.to_text(),
            "is_square": root is not None,
            "root": None if root is None else root.to_text(),
        }))
    else:
        print(root.to_text() if root is not None else "NOT_A_SQUARE")
    return EXIT_OK


def cmd_separate(args) -> int:
    config = _config(args)
    with open(args.input) as fh:
        payload = json.load(fh)
    field = OcticField(int(payload["p"]), int(payload["q"]), int(payload["s"]))
    candidates = [
        field.element([Fraction(c) for c in coords]) for coords in payload["candidates"]
    ]
    bound = int(payload.get("bound", config.prime_bound))
    cert: SeparationCertificate = separate_candidates(candidates, bound=bound)
    out = cert.to_json_dict()
    if config.json:
        sys.stdout.write(_dump(out))
    else:
        print(f"functionals ({len(cert.functionals)}):")
        for f in cert.functionals:
            print(f"  t={f.place.t} signs={f.place.signs} basis={f.basis} value={f.value}")
        for coords, row in zip(out["candidates"], out["table"]):
            print(f"  {row} <- {coords}")
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    config = _config(args)
    cache = _open_cache(config)
    items = golden.run_checks(prime_bound=config.prime_bound, cache=cache)
    _close_cache(config, cache)
    failed = [item for item in items if not item.ok]
    if config.json:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unitcert",
        description="Exact certification of the residual unit-group bit of "
                    "Q(sqrt2, sqrt pq, sqrt ps), with local separation tools.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prime-bound", type=int, default=100_000,
                        help="upper bound for auxiliary split primes")
    common.add_argument("--places", choices=("first", "all"), default="first",
                        help="evaluate only the first valid place or survey all")
    common.add_argument("--json", action="store_true", help="emit JSON")
    common.add_argument("--cache", default=None,
                        help="Pell unit cache file (or set UNITCERT_CACHE)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_delta = sub.add_parser("delta", parents=[common],
                             help="decide the residual bit for a triple")
    p_delta.add_argument("p", type=int)
    p_delta.add_argument("q", type=int)
    p_delta.add_argument("s", type=int)
    p_delta.add_argument("--force", action="store_true",
                         help="run outside the supported pattern (enables the oracle)")
    p_delta.set_defaults(func=cmd_delta)

    p_fsu = sub.add_parser("fsu", parents=[common],
                           help="emit the seven-generator unit system")
    p_fsu.add_argument("p", type=int)
    p_fsu.add_argument("q", type=int)
    p_fsu.add_argument("s", type=int)
    p_fsu.add_argument("--force", action="store_true")
    p_fsu.set_defaults(func=cmd_delta)

    p_datum = sub.add_parser("datum", parents=[common],
                             help="print the classical residue datum")
    p_datum.add_argument("p", type=int)
    p_datum.add_argument("q", type=int)
    p_datum.add_argument("s", type=int)
    p_datum.set_defaults(func=cmd_datum)

    p_pell = sub.add_parser("pell", parents=[common],
                            help="fundamental Pell unit of Z[sqrt d]")
    p_pell.add_argument("d", type=int)
    p_pell.set_defaults(func=cmd_pell)

    p_sqrt = sub.add_parser("sqrt", parents=[common],
                            help="exact square root in a tower")
    p_sqrt.add_argument("field", help="'biquad:a,b' or 'octic:p,q,s'")
    p_sqrt.add_argument("element", help="comma-separated rational coordinates")
    p_sqrt.set_defaults(func=cmd_sqrt)

    p_sep = sub.add_parser("separate", parents=[common],
                           help="separate squareclass candidates by local bits")
    p_sep.add_argument("input", help="JSON file with p, q, s and candidate coordinates")
    p_sep.set_defaults(func=cmd_separate)

    p_verify = sub.add_parser("verify-paper", parents=[common],
                              help="replay every built-in reference value")
    p_verify.set_defaults(func=cmd_verify_paper)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # exact FSU coordinates of large triples run to thousands of digits
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except SearchExhausted as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except OracleDisagreement as exc:
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
