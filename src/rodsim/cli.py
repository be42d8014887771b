"""Command-line interface.

Subcommands: simulate, verify-solution, match-cauchy, benchmark, export.
Exit codes: 0 success, 1 numerical failure, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import InputError, InstabilityError, NumericalError, RodSimError
from .scenarios import (
    STABILITY_DT_BOUNDS,
    STABILITY_HORIZON,
    ScenarioConfig,
    Trajectory,
    _checked,
    benchmark_stability,
    run_scenario,
)
from .solution_family import (
    CauchyTrace,
    family_to_json,
    match_boundary_trace,
    verify_trace_match,
)
from .verify import build_report

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rodsim",
        description="Planar Kirchhoff rod simulator with a semi-analytic scheme.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a single-cilium or carpet scenario")
    p.add_argument("config", help="scenario config JSON file")
    p.add_argument("--out", help="output path (overrides config output.path)")

    p = sub.add_parser(
        "verify-solution",
        help="run the analytic and reduction verification chains",
    )
    p.add_argument("--grid", type=int, default=101, help="nodes per direction")
    p.add_argument("--dt", type=float, default=1e-2, help="time spacing")
    p.add_argument("--seed", type=int, default=0, help="family draw seed")
    p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser(
        "match-cauchy", help="fit the solution family to boundary-trace data"
    )
    p.add_argument("data_spec", help="trace data JSON file")
    p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("benchmark", help="stability and speed comparison")
    p.add_argument("config", help="scenario config JSON file")
    p.add_argument("--horizon", type=float, default=STABILITY_HORIZON,
                   help="assessment horizon for the stability search")
    p.add_argument("--dt-min", type=float, default=STABILITY_DT_BOUNDS[0])
    p.add_argument("--dt-max", type=float, default=STABILITY_DT_BOUNDS[1])
    p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("export", help="convert a trajectory file")
    p.add_argument("trajectory", help="trajectory file (JSON or CSV)")
    p.add_argument("--format", required=True, choices=("csv", "json"))
    p.add_argument("--out", help="output path (default: stdout)")
    return parser


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err


def _emit(chunks, out_path):
    """Write the text chunks, made as they are written, to out_path or to
    stdout, ending stdout with a newline."""
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        except OSError as err:
            raise InputError(f"cannot write {out_path}: {err}") from err
    else:
        last = ""
        for chunk in chunks:
            sys.stdout.write(chunk)
            last = chunk
        if not last.endswith("\n"):
            sys.stdout.write("\n")


def _trace_fn(spec, name):
    spec = _checked(spec, {"const": float, "cos": object}, f"trace {name}")
    const = spec.get("const", 0.0)
    if spec.get("cos") is None:
        return lambda t: const
    cos = _checked(spec["cos"], {"amp": float, "freq": float, "phase": float},
                   f"trace {name}.cos")
    amp = cos.get("amp", 1.0)
    freq = cos.get("freq", 1.0)
    phase = cos.get("phase", 0.0)
    return lambda t: const + amp * np.cos(freq * t + phase)


def _cmd_simulate(args) -> int:
    config = ScenarioConfig.from_json(_read(args.config))
    out_path = args.out or config.output.path
    try:
        trajectory = run_scenario(config)
        failed = False
    except InstabilityError as err:
        trajectory = err.partial
        failed = True
        print(f"error: {err}", file=sys.stderr)
    # After the run: a t_end / dt too large to count has failed there already.
    n_steps = config.n_steps
    if abs(n_steps * config.dt - config.t_end) > 1e-9 * config.t_end:
        print(f"warning: dt={config.dt} does not divide t_end={config.t_end}; "
              f"ran {n_steps} step(s) of {config.t_end / n_steps}", file=sys.stderr)
    fmt = config.output.format
    _emit(trajectory.csv_chunks() if fmt == "csv" else trajectory.json_chunks(),
          out_path or f"run.traj.{fmt}")
    return 1 if failed else 0


def _cmd_verify(args) -> int:
    report = build_report(seed=args.seed, n_nodes=args.grid, dt=args.dt)
    _emit([json.dumps(report, indent=2)], args.out)
    return 0 if report["pass"] else 1


def _cmd_match_cauchy(args) -> int:
    doc = _checked(json.loads(_read(args.data_spec)),
                   {"v1": object, "w1": object, "k1": object, "v2_origin": float,
                    "u_max": float, "steps": int}, "data spec")
    for key in ("v1", "w1", "k1", "v2_origin"):
        if key not in doc:
            raise InputError(f"data spec is missing {key!r}")
    trace = CauchyTrace(
        v1_trace=_trace_fn(doc["v1"], "v1"),
        w1_trace=_trace_fn(doc["w1"], "w1"),
        k1_trace=_trace_fn(doc["k1"], "k1"),
        v2_origin=doc["v2_origin"],
    )
    u_max = doc.get("u_max", 0.5)
    steps = doc.get("steps", 1000)
    fam = match_boundary_trace(trace, u_max, steps)
    samples = np.linspace(0.0, u_max, 33)
    residual = verify_trace_match(fam, trace, samples)
    largest = max(np.abs(fn(samples)).max()
                  for fn in (trace.v1_trace, trace.w1_trace, trace.k1_trace))
    bound = 1e-6 * max(1.0, largest)
    # Also false for NaN and infinities, which are not JSON numbers.
    if not residual <= bound:
        raise NumericalError(f"the round-trip residual {residual:.3g} is not within its "
                             f"bound {bound:.3g} = 1e-6 x max(1, largest |trace value|) "
                             f"(u_max={u_max}, steps={steps})")
    report = {
        "u_max": u_max,
        "steps": steps,
        "round_trip_residual": residual,
        "family": json.loads(family_to_json(fam)),
    }
    _emit([json.dumps(report, indent=2)], args.out)
    return 0


def _cmd_benchmark(args) -> int:
    config = ScenarioConfig.from_json(_read(args.config))
    report = benchmark_stability(
        config, horizon=args.horizon, dt_bounds=(args.dt_min, args.dt_max)
    )
    _emit([json.dumps(report, indent=2)], args.out)
    return 0


def _cmd_export(args) -> int:
    text = _read(args.trajectory)
    if text.lstrip().startswith("{"):
        trajectory = Trajectory.from_json(text)
    else:
        trajectory = Trajectory.from_csv(text)
        if args.format == "json":
            print("warning: CSV carries no energies or drift norms; "
                  "they are written as zeros", file=sys.stderr)
    _emit(trajectory.csv_chunks() if args.format == "csv" else trajectory.json_chunks(),
          args.out)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "verify-solution": _cmd_verify,
    "match-cauchy": _cmd_match_cauchy,
    "benchmark": _cmd_benchmark,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as err:
        print(f"error: malformed JSON: {err}", file=sys.stderr)
        return 2
    except RodSimError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
