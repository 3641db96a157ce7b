"""Command-line interface.

One command per invocation; all structured input and output is the JSON
documented in serialize.py. Exit codes: 0 success, 1 validation failure,
2 malformed input, 3 numeric-domain error. A measurement file is checked by
the correspond.Measurement it builds, as the library's input is.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import serialize
from .correspond import _state_vector, element_to_lorentz, lorentz_to_element, validate
from .errors import DomainError, InvalidMeasurement, MalformedInput, TooLarge
from .lorentz import LorentzDecomposition, rotation4, velocity
from .qmat import TOL, _from_coords, _herm2
from .sim import boosted_probabilities, observer_boost, report_invariants, scenario1_sample

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MALFORMED = 2
EXIT_DOMAIN = 3


def _parse_vec3(text: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise MalformedInput(f"expected X,Y,Z, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise MalformedInput(f"expected X,Y,Z, got {text!r}") from exc


def _load_measurement(path: str):
    return serialize.measurement_from_json(serialize.load_file(path))


def _load_state(path: str) -> np.ndarray:
    """herm2 of the state file, on the numbers its read has validated."""
    return _herm2(serialize.mat2_from_json(serialize.load_file(path)).ravel().tolist())


def _emit(obj) -> None:
    try:
        text = serialize.dumps(obj)
    except ValueError as exc:  # a result overflowed to inf or nan
        raise TooLarge(f"a result is not finite: {exc}") from exc
    sys.stdout.write(text)


def cmd_validate(args) -> int:
    if not 0 <= args.tol < math.inf:
        raise MalformedInput(f"--tol must be a finite non-negative number, got {args.tol}")
    meas = _load_measurement(args.measurement)
    ok = validate(meas, tol=args.tol)
    _emit(
        {
            "valid": ok,
            "max_deviation": meas.deviation,
            "tol": args.tol,
            "n_elements": len(meas.elements),
        }
    )
    return EXIT_OK if ok else EXIT_INVALID


def cmd_to_lorentz(args) -> int:
    geom = element_to_lorentz(serialize.mat2_from_json(serialize.load_file(args.element)))
    _emit(serialize.effect_geometry_to_json(geom))
    return EXIT_OK


def cmd_to_element(args) -> int:
    axis = _parse_vec3(args.rotation_axis)
    vel = velocity(_parse_vec3(args.velocity))
    decomp = LorentzDecomposition(
        rotation=rotation4(axis, args.rotation_angle), velocity=vel, scale=1.0
    )
    if args.lam is not None and not math.isfinite(args.lam):
        raise MalformedInput(f"--lambda must be finite, got {args.lam}")
    elem = lorentz_to_element(decomp, args.lam)
    _emit(serialize.mat2_to_json(elem))
    return EXIT_OK


def cmd_apply(args) -> int:
    meas = _load_measurement(args.measurement)
    posts = meas.transforms @ _state_vector(_load_state(args.state))
    columns = zip(posts[:, 0].tolist(), serialize.mat2_to_json(_from_coords(posts)), posts.tolist())
    outcomes = [
        {"index": i, "p": p, "post_state": post, "post_vector": vec}
        for i, (p, post, vec) in enumerate(columns)
    ]
    _emit({"outcomes": outcomes})
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.n < 0 or args.seed < 0:
        raise MalformedInput("--n and --seed must be non-negative")
    meas = _load_measurement(args.measurement)
    rho = _load_state(args.state)
    outcomes = scenario1_sample(meas, rho, seed=args.seed, n=args.n)
    _emit(
        {
            "seed": args.seed,
            "n": args.n,
            "outcomes": [
                {
                    "index": o.index,
                    "probability": o.probability,
                    "tally": o.tally,
                    "post_vector": o.post_vector.tolist(),
                    "applied_transform": o.applied_transform.tolist(),
                }
                for o in outcomes
            ],
        }
    )
    return EXIT_OK


def cmd_boost_observer(args) -> int:
    meas = _load_measurement(args.measurement)
    rho = _load_state(args.state)
    obs = observer_boost(_parse_vec3(args.velocity))
    p_bob = boosted_probabilities(meas, rho, obs)
    _emit(
        {
            "velocity": serialize.velocity_to_json(obs),
            "p_bob": p_bob,
            "sum_p_bob": float(sum(p_bob)),
        }
    )
    return EXIT_OK


def cmd_invariants(args) -> int:
    meas = _load_measurement(args.measurement)
    rho = _load_state(args.state)
    _emit(report_invariants(meas, rho))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubitcone",
        description="Convert between qubit measurement elements and "
        "(rescaled) Lorentz transforms, and run the two scenario engines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.set_defaults(commands=sub.choices)  # command name -> its subparser, for _parse

    p = sub.add_parser("validate", help="check measurement completeness")
    p.add_argument("--measurement", required=True)
    p.add_argument("--tol", type=float, default=TOL)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("to-lorentz", help="measurement element to Lorentz data")
    p.add_argument("--element", required=True)
    p.set_defaults(func=cmd_to_lorentz)

    p = sub.add_parser("to-element", help="Lorentz data to measurement element")
    p.add_argument("--rotation-axis", required=True, metavar="X,Y,Z")
    p.add_argument("--rotation-angle", required=True, type=float, metavar="R")
    p.add_argument("--velocity", required=True, metavar="VX,VY,VZ")
    p.add_argument("--lambda", dest="lam", type=float, default=None, metavar="L")
    p.set_defaults(func=cmd_to_element)

    p = sub.add_parser("apply", help="apply every element to a state")
    p.add_argument("--measurement", required=True)
    p.add_argument("--state", required=True)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("simulate", help="sample measurement outcomes")
    p.add_argument("--measurement", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("boost-observer", help="probabilities in a boosted frame")
    p.add_argument("--measurement", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--velocity", required=True, metavar="VX,VY,VZ")
    p.set_defaults(func=cmd_boost_observer)

    p = sub.add_parser("invariants", help="per-element invariant report")
    p.add_argument("--measurement", required=True)
    p.add_argument("--state", required=True)
    p.set_defaults(func=cmd_invariants)

    return parser


# Built once per process: main(argv) may be called any number of times.
PARSER = build_parser()


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Write `--opt -value` as `--opt=-value`, so that argparse takes a value
    starting with `-`, such as -0.5,0,0 or -1e-3, as the option's value."""
    out = []
    for arg in argv:
        prev = out[-1] if out else ""
        takes_value = prev[:2] == "--" and "=" not in prev and not "--help".startswith(prev)
        if takes_value and arg[:1] == "-" and arg[:2] != "--":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """parser.parse_args(argv) in one pass when argv[0] names a command whose own
    subparser takes all of argv[1:]; else parser parses, to render its usage errors."""
    sub = parser.get_default("commands").get(argv[0]) if argv else None
    if sub is not None:
        args, extra = sub.parse_known_args(argv[1:])
        if not extra:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(PARSER, _attach_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        # Finite input can still overflow; _emit reports a non-finite result.
        with np.errstate(all="ignore"):
            return args.func(args)
    except MalformedInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except InvalidMeasurement as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
