"""Command-line front end: pole tables, survival series, singularity scans,
and the self-verification suite, as deterministic CSV/JSON files.

The library decides which inputs are valid; the CLI checks only its own
syntax (times, --b-range) and rules (--q or --kc, --samples >= 2,
verify --n >= 2, the oracle's smallest time before any solve). Exit codes:
0 success, 2 invalid input (a ValueError), 3 no result (e.g. no axis
crossing), 4 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import io as dsio
from .basis import build_basis
from .errors import DeltaShellError, NoCrossingError, NoTransitionError
from .expansion import build_expansion, lifetime, survival_series
from .model import DeltaShellPotential, SineInitialState, box_state
from .oracle import T_MIN, survival_amplitude_exact
from .poles import find_poles, pole_equation_residual
from .singularity import _trajectory, find_singularity
from .verify import run_verification

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_RESULT = 3
EXIT_NUMERICAL = 4

DEFAULT_B = 4.5 * math.pi


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _parse_time(spec: str) -> tuple:
    """(value, in_lifetimes) of a time given as a plain number or like '40tau'."""
    text = spec.strip().lower()
    in_lifetimes = text.endswith("tau")
    try:
        return float(text[:-3] if in_lifetimes else text), in_lifetimes
    except ValueError:
        raise ValueError(f"cannot parse time specification {spec!r}")


def _initial_state(args, a: float) -> SineInitialState:
    if args.q is not None and args.kc is not None:
        raise ValueError("give either --q or --kc, not both")
    if args.kc is not None:
        return SineInitialState.from_wavenumber(args.kc, a)
    return box_state(1 if args.q is None else args.q, a)


def cmd_poles(args) -> int:
    ps = find_poles(DeltaShellPotential(b=args.b, a=args.a), args.n, args.n)
    basis = build_basis(ps) if args.states else None
    write = dsio.pole_set_to_json if args.format == "json" else dsio.pole_set_to_csv
    _write(args.out, write(ps, basis))
    return EXIT_OK


def cmd_survival(args) -> int:
    pot = DeltaShellPotential(b=args.b, a=args.a)
    init = _initial_state(args, pot.a)
    if args.samples < 2:
        raise ValueError(f"--samples must be >= 2, got {args.samples}")
    tmax = _parse_time(args.tmax)
    tmin = _parse_time(args.tmin) if args.tmin else None
    t_floor = T_MIN if args.oracle else 0.0  # the oracle's smallest time
    if tmin is not None and not tmin[1] and tmin[0] < t_floor:  # known before any solve
        raise ValueError(f"--tmin {args.tmin} is below the oracle's minimum time {t_floor}")
    ctx = build_expansion(pot, init, args.n)
    tau = lifetime(ctx.pole_set)
    t_max = tmax[0] * tau if tmax[1] else tmax[0]
    if tmin is None:
        t_min = max(t_max / args.samples, t_floor)
    else:
        t_min = tmin[0] * tau if tmin[1] else tmin[0]
    spaced = np.geomspace if args.spacing == "log" else np.linspace
    grid = spaced(t_min, t_max, args.samples)
    series = survival_series(pot, init, grid, args.n, context=ctx)
    oracle_S = None
    if args.oracle:
        oracle_S = [abs(survival_amplitude_exact(pot, init, float(t))) ** 2 for t in grid]
    config = {"b": pot.b, "a": pot.a, "k_c": init.k_c, "N_c": init.N_c,
              "n_pole_pairs": args.n, "samples": args.samples,
              "spacing": args.spacing, "t_min": float(grid[0]),
              "t_max": float(grid[-1]), "lifetime": tau, "seed": args.seed,
              "source": "expansion"}
    write = dsio.survival_to_json if args.format == "json" else dsio.survival_to_csv
    _write(args.out, write(series, config, oracle_S))
    return EXIT_OK


def cmd_scan(args) -> int:
    try:
        lo_s, _, hi_s = args.b_range.partition(":")
        b_lo, b_hi = float(lo_s), float(hi_s)
    except ValueError:
        raise ValueError(f"cannot parse --b-range {args.b_range!r}; expected lo:hi")
    if args.trajectory_out:
        traj = _trajectory(args.a, args.family, b_lo, b_hi, args.steps)
        _write(args.trajectory_out, dsio.trajectory_to_csv(traj))
    b_star, k_star = find_singularity(args.a, args.family, b_lo, b_hi)
    pot_star = DeltaShellPotential(b=b_star, a=args.a)
    residuals = {"pole_equation": abs(pole_equation_residual(complex(k_star), pot_star))}
    _write(args.out, dsio.singularity_report_json(args.family, args.a, b_star,
                                                  k_star, residuals))
    return EXIT_OK


def cmd_verify(args) -> int:
    pot = DeltaShellPotential(b=args.b, a=args.a)
    init = _initial_state(args, pot.a)
    if args.n < 2:
        raise ValueError(f"--n must be >= 2, got {args.n}")
    results = run_verification(pot, init, args.n)
    doc = {"schema_version": dsio.SCHEMA_VERSION,
           "config": {"b": pot.b, "a": pot.a, "k_c": init.k_c, "n": args.n},
           "checks": [r.as_dict() for r in results],
           "summary": {status: sum(r.status == status for r in results)
                       for status in ("pass", "fail", "inconclusive")}}
    _write(args.out, json.dumps(doc, indent=2) + "\n")
    for r in results:
        if r.status == "inconclusive":
            print(f"warning: {r.name} inconclusive: {r.note}", file=sys.stderr)
    if any(r.status == "fail" for r in results):
        failed = [r.name for r in results if r.status == "fail"]
        print(f"error: checks failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltashell",
        description="Decay dynamics of the purely absorptive delta-shell potential")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--b", type=float, default=DEFAULT_B,
                       help="shell intensity (default 9*pi/2)")
        p.add_argument("--a", type=float, default=1.0, help="shell radius")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("poles", help="solve and tabulate the pole families")
    add_common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--n", type=int, default=10, help="poles per family")
    p.add_argument("--states", action="store_true",
                   help="append normalization amplitudes of the resonant states")
    p.set_defaults(func=cmd_poles)

    p = sub.add_parser("survival", help="survival probability series")
    add_common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--q", type=int, default=None, help="box-mode initial state")
    p.add_argument("--kc", type=float, default=None, help="sine-state wavenumber")
    p.add_argument("--tmax", default="5tau",
                   help="grid end; plain number or multiple of the lifetime like '40tau'")
    p.add_argument("--tmin", default=None,
                   help="grid start (default tmax/samples, with --oracle at least "
                        f"the oracle's minimum time {T_MIN})")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--spacing", choices=("linear", "log"), default="linear")
    p.add_argument("--n", type=int, default=40, help="pole pairs in the expansion")
    p.add_argument("--oracle", action="store_true",
                   help="append the exact contour-quadrature survival column")
    p.add_argument("--seed", type=int, default=0,
                   help="only recorded in the output's config; every computation "
                        "here is deterministic")
    p.set_defaults(func=cmd_survival)

    p = sub.add_parser("scan", help="locate a pole family's axis crossing (b*, k*)")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--family", type=int, required=True, help="signed pole index")
    p.add_argument("--b-range", required=True, help="intensity bracket lo:hi")
    p.add_argument("--steps", type=int, default=21,
                   help="samples of the --trajectory-out trajectory")
    p.add_argument("--out", default=None)
    p.add_argument("--trajectory-out", default=None,
                   help="also write the tracked trajectory CSV here")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="run the structural-identity suite (JSON)")
    add_common(p)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--kc", type=float, default=None)
    p.add_argument("--n", type=int, default=40)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NoCrossingError, NoTransitionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_RESULT
    except DeltaShellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
