#!/usr/bin/env python3
"""rodsim benchmark: end-to-end and per-layer figures for four workloads.

Run from the root of a rodsim checkout:

    python3 perfbench/run.py --workload cilium-semi --seed 1 --seconds 25 --trace 0

Each operation is one call of ``rodsim.cli.main`` in this process, on inputs
made from ``--seed``: ``simulate`` on a generated config file (config parsing
and trajectory writing are timed too) or ``verify-solution``. Operations run
one at a time (closed loop, one client) until the next one would end after
``--seconds``; at least one always runs. Every operation's output is read
back and checked. With ``--trace 0`` the run prints the end-to-end metrics
that ``BENCHMARK.json`` declares; with ``--trace 1`` it alternates untraced
and traced operations and prints the per-layer metrics (see ``tracer.py``).
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Workloads and metrics are
described in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"
REFERENCE = BENCH_DIR / "reference.json"

# The default driven cilium of the README schema (N=101, clamped base, free tip),
# run to T_END: operations of a few seconds let the calibration (below) follow
# the machine's speed.
MATERIAL = {"rho": 1.0, "area": 0.02, "moment": 0.01, "EI": 0.1,
            "length": 1.0, "nodes": 101}
T_END = 0.1
STRIDE = 10
# The carpet runs the pure scheme at dt=1e-4, stable on all 64 drive phases of
# a scan; the semi scheme at dt=1e-3 is not (see NOTES.md, known defect).
CARPET_RODS = 10
CARPET_SPACING = 0.5
CARPET_T_END = 0.025
VERIFY_GRID = 31
VERIFY_DT = 6e-2
# Fresh interpreters started per run for setup_s; the median is reported.
SETUP_REPEATS = 5
# The pure scheme converges at first order, so its tip error at dt=1e-4 is
# about twice the reference's own error estimate. Four times fails a scheme
# whose error doubled and leaves room for changes in rounding. A change to the
# scheme smaller than its own discretization error cannot be caught this way.
PURE_TIP_GATE = 4.0

# Calibration. The machine's speed drifts by up to 2x in phases of 10-30 s
# (cores shared with other work); longer runs do not average it out. A fixed
# loop of small NumPy, LAPACK and Python work, the instruction mix of a rod
# step, is timed before the first operation and after each one, at once in as
# many processes as the operation uses (the carpet's pool size, else one).
# Dividing an operation's wall time by the mean of the two calibrations next
# to it, and multiplying by CAL_REFERENCE_S, gives its wall time at a
# reference speed: the speed at which the loop takes CAL_REFERENCE_S. Both
# constants are part of the metric's definition.
CAL_ITERATIONS = 6400
CAL_REFERENCE_S = 0.6

WORKLOADS = ("cilium-semi", "cilium-pure", "carpet", "verify")
UNSTABLE_CARPET = re.compile(r"rod\(s\) \[([0-9, ]+)\] became unstable")
UNSTABLE_CILIUM = re.compile(r"simulation became unstable")


def scenario(scheme, dt, rods=1, phase=0.0, fmt="json", stride=STRIDE, t_end=T_END):
    """A schema-1 scenario document for the default driven cilium or carpet."""
    return {
        "schema": 1,
        "material": MATERIAL,
        "scheme": scheme,
        "dt": dt,
        "t_end": t_end,
        "boundary": {"base": "clamped", "tip": "free"},
        "drive": {"amplitude": 0.5, "frequency": 1.0, "active_fraction": 0.3,
                  "phase": phase},
        "carpet": {"rods": rods, "spacing": CARPET_SPACING,
                   "phase_increment": 2.0 * math.pi / rods if rods > 1 else 0.0},
        "output": {"stride": stride, "format": fmt, "path": None},
        "seed": 0,
    }


@dataclass
class Job:
    """One workload's inputs: the CLI call, what it must produce, and its size."""

    workload: str
    args: list                  # rodsim CLI arguments, without --out
    ext: str                    # output file extension
    states: int                 # rod states one operation produces
    processes: int = 1          # processes one operation computes in
    scenario: dict = None       # simulate workloads only
    family_seed: int = None     # verify only

    def argv(self, out):
        return self.args + ["--out", str(out)]


def make_job(workload, seed, work_dir):
    """Inputs for one workload, made from the seed alone."""
    import numpy as np

    rng = np.random.default_rng(seed)
    work_dir.mkdir(parents=True, exist_ok=True)
    if workload == "verify":
        family_seed = int(rng.integers(0, 2**31 - 1))
        args = ["verify-solution", "--grid", str(VERIFY_GRID), "--dt", repr(VERIFY_DT),
                "--seed", str(family_seed)]
        fine = 2 * (VERIFY_GRID - 1) + 1
        # Family residuals sample 3 times per grid; the reduction chain one
        # time slice per grid node; both on the coarse and the refined grid.
        states = 3 + VERIFY_GRID + 3 + fine
        return Job(workload, args, "report.json", states, family_seed=family_seed)
    if workload == "carpet":
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        doc = scenario("pure", 1e-4, rods=CARPET_RODS, phase=phase, fmt="csv",
                       t_end=CARPET_T_END)
    elif workload == "cilium-semi":
        doc = scenario("semi", 1e-3)
    elif workload == "cilium-pure":
        doc = scenario("pure", 1e-4)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    config = work_dir / f"{workload}.config.json"
    config.write_text(json.dumps(doc, indent=2))
    fmt = doc["output"]["format"]
    rods = doc["carpet"]["rods"]
    # rodsim's default pool size when ROD_SIM_THREADS is unset.
    processes = min(os.cpu_count() or 1, rods) if rods > 1 else 1
    return Job(workload, ["simulate", str(config)], f"traj.{fmt}",
               n_steps(doc) * rods, processes, scenario=doc)


def n_steps(doc):
    return max(1, int(round(doc["t_end"] / doc["dt"])))


def frame_times(doc):
    """Capture times of a full run, computed as the simulator computes them."""
    steps = n_steps(doc)
    dt = doc["t_end"] / steps
    stride = doc["output"]["stride"]
    captured = [s for s in range(1, steps + 1) if s % stride == 0 or s == steps]
    return [0.0] + [s * dt for s in captured]


@dataclass
class Outcome:
    """What the checks found in one operation's output."""

    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)
    bytes_written: int = 0
    unstable: list = field(default_factory=list)   # rods reported unstable
    frames: int = 0


def check_simulate(job, out, rc, stderr, reference):
    from rodsim.errors import InputError
    from rodsim.scenarios import Trajectory
    import numpy as np

    doc = job.scenario
    rods = doc["carpet"]["rods"]
    problems = []
    unstable = []
    if rc == 1:
        hit = UNSTABLE_CARPET.search(stderr)
        if hit:
            unstable = sorted(int(k) for k in hit.group(1).split(","))
        elif rods == 1 and UNSTABLE_CILIUM.search(stderr):
            unstable = [0]
        else:
            problems.append(f"exit code 1 without an instability report: {stderr[-300:]!r}")
    elif rc != 0:
        problems.append(f"exit code {rc}: {stderr[-300:]!r}")
    if not out.is_file():
        problems.append("no trajectory written")
        return Outcome(rods, rods, problems)
    text = out.read_text()
    try:
        traj = (Trajectory.from_csv(text) if doc["output"]["format"] == "csv"
                else Trajectory.from_json(text))
    except InputError as err:
        problems.append(f"trajectory does not parse back: {err}")
        return Outcome(rods, rods, problems, bytes_written=len(text))
    times = frame_times(doc)
    n_frames = traj.times.shape[0]
    if unstable:
        if not 1 <= n_frames <= len(times):
            problems.append(f"partial trajectory has {n_frames} frames")
    elif n_frames != len(times):
        problems.append(f"{n_frames} frames, expected {len(times)}")
    nodes = MATERIAL["nodes"]
    if traj.positions.shape != (n_frames, rods, nodes, 3):
        problems.append(f"positions shape {traj.positions.shape}, expected "
                        f"{(n_frames, rods, nodes, 3)}")
    elif not problems:
        if traj.times.tolist() != times[:n_frames]:
            problems.append("frame times differ from the capture schedule")
        if not np.isfinite(traj.positions).all():
            problems.append("non-finite positions")
        bases = np.array([[k * CARPET_SPACING, 0.0, 0.0] for k in range(rods)])
        if not (traj.positions[:, :, 0, :] == bases).all():
            problems.append("a clamped base left its position")
        if doc["output"]["format"] == "json" and not (
            traj.energies.shape == (n_frames, rods)
            and traj.drifts.shape == (n_frames, rods, 3)
            and np.isfinite(traj.energies).all()
        ):
            problems.append("energies or drifts malformed")
    accuracy = {}
    if rods == 1 and not problems and not unstable:
        tip = traj.positions[-1, 0, -1, :]
        err = float(np.abs(tip - np.asarray(reference["reference_tip"])).max())
        accuracy = {f"{doc['scheme']}_tip_err": err,
                    "reference_err": reference["error_estimate"]}
        if doc["scheme"] == "pure" and not err <= PURE_TIP_GATE * reference["error_estimate"]:
            problems.append(f"pure tip error {err:.3e} exceeds {PURE_TIP_GATE} x the "
                            f"reference error estimate")
    failed = rods if problems else len(unstable)
    return Outcome(rods, failed, problems, accuracy, len(text), unstable, n_frames)


def rod_states_done(job, outcome, work_dir):
    """Rod states computed up to each rod's last captured frame, summed over rods.

    A stable rod runs all its steps. A carpet's trajectory stops at the frame
    of its earliest failure, so each unstable carpet rod is run again alone
    with its own drive phase (untimed); its partial trajectory, kept next to
    the carpet's, says how far it got. Returns (states, problems).
    """
    from rodsim.errors import InputError
    from rodsim.scenarios import Trajectory

    if job.scenario is None or not outcome.unstable:
        return job.states, []
    doc = job.scenario
    stride, rods = doc["output"]["stride"], doc["carpet"]["rods"]
    if rods == 1:
        return (outcome.frames - 1) * stride, []
    problems, frames = [], []
    for k in outcome.unstable:
        alone = json.loads(json.dumps(doc))
        alone["drive"]["phase"] = doc["drive"]["phase"] + k * doc["carpet"]["phase_increment"]
        alone["carpet"] = {"rods": 1, "spacing": CARPET_SPACING, "phase_increment": 0.0}
        alone["output"]["format"] = "json"
        config = work_dir / f"{job.workload}.rod{k}.config.json"
        out = work_dir / f"{job.workload}.rod{k}.traj.json"
        config.write_text(json.dumps(alone, indent=2))
        rc, stderr, _ = run_op(["simulate", str(config), "--out", str(out)])
        if rc != 1:
            problems.append(f"carpet rod {k} is unstable in the carpet but exits {rc} alone")
            continue
        try:
            frames.append(Trajectory.from_json(out.read_text()).times.shape[0])
        except InputError as err:
            problems.append(f"carpet rod {k} alone: trajectory does not parse back: {err}")
    if frames and min(frames) != outcome.frames:
        problems.append(f"carpet stops at frame {outcome.frames}, its unstable rods alone "
                        f"at {frames}")
    n = n_steps(doc)
    return (rods - len(outcome.unstable)) * n + sum((f - 1) * stride for f in frames), problems


def check_verify(job, out, rc, stderr):
    problems = []
    if rc not in (0, 1):
        problems.append(f"exit code {rc}: {stderr[-300:]!r}")
    try:
        text = out.read_text()
        report = json.loads(text)
        residuals, thresholds = report["residuals"], report["thresholds"]
        ratio = max(residuals[k] / thresholds[k] for k in thresholds)
        echoed = (report["seed"], report["grid"]["Ns"])
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as err:
        problems.append(f"unreadable verification report: {err!r}")
        return Outcome(1, 1, problems)
    if report.get("pass") is not True or rc != 0:
        problems.append(f"verification did not pass (exit {rc})")
    if not all(math.isfinite(v) for v in residuals.values()):
        problems.append("non-finite residual")
    if not ratio <= 1.0:
        problems.append(f"residual ratio {ratio} above 1")
    if echoed != (job.family_seed, VERIFY_GRID):
        problems.append("report does not echo the requested seed and grid")
    return Outcome(1, 1 if problems else 0, problems,
                   {"residual_ratio": float(ratio)}, len(text))


def run_op(argv):
    """One closed-loop operation: the public CLI entry point, in this process."""
    from rodsim.cli import main

    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(captured), contextlib.redirect_stdout(captured):
            rc = main(argv)
    except Exception:  # the harness keeps running and counts the operation failed
        rc = None
        captured.write(traceback.format_exc())
    return rc, captured.getvalue(), time.perf_counter() - start


def calibrate(_=None):
    """Seconds for the fixed calibration loop (see CAL_ITERATIONS)."""
    import numpy as np
    from scipy.linalg import solve_banded

    nodes = np.linspace(0.0, 1.0, 101)
    band = np.zeros((7, 202))
    band[3], band[2], band[4] = 4.0, 1.0, 1.0
    rhs = np.ones(202)
    acc = 0.0
    start = time.perf_counter()
    for i in range(CAL_ITERATIONS):
        y = np.sin(nodes + i) * 1.0001 + nodes
        z = np.cumsum(np.stack([y, y], axis=-1), axis=0)
        acc += float(solve_banded((3, 3), band, rhs)[5]) + float(z[-1, 0])
        for j in range(30):
            acc += j * 0.5
    return time.perf_counter() - start


def calibrate_in(pool, processes):
    """Wall seconds for the calibration loop run once in each of ``processes`` at once."""
    if pool is None:
        return calibrate()
    start = time.perf_counter()
    list(pool.map(calibrate, range(processes)))
    return time.perf_counter() - start


def measure_setup(job):
    """Median seconds for a fresh interpreter to import rodsim and parse the input.

    Returns the median wall time and the same at reference speed, from a
    calibration before and after the interpreters (see CAL_REFERENCE_S).
    """
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        f"from rodsim.cli import build_parser; "
        f"args = build_parser().parse_args({job.args!r})"
    )
    if job.scenario is not None:
        code += ("; from rodsim.scenarios import ScenarioConfig; "
                 "ScenarioConfig.from_json(open(args.config, encoding='utf-8').read())")
    before = calibrate()
    walls = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        walls.append(time.perf_counter() - start)
    wall = statistics.median(walls)
    return wall, wall * CAL_REFERENCE_S / (0.5 * (before + calibrate()))


def peak_rss_mb():
    """Peak resident set of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def source_digest(paths=None):
    """SHA-256 over files, by default the rodsim sources: names the code a result belongs to."""
    digest = hashlib.sha256()
    for path in sorted(paths or (SRC / "rodsim").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(digest, workload, overhead_s):
    import numpy as np
    import scipy

    nproc = os.cpu_count() or 1
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": nproc,
        "carpet_workers": min(nproc, CARPET_RODS),
        "start_method": multiprocessing.get_start_method(),
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "blas": blas,
        "git_commit": git_commit(),
        "source_digest": digest,
        "workload": workload,
        "trace_overhead_s": overhead_s,
    }


def load_json(path, default):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return default


def exact_check(key, record):
    """Compare exact figures with those a previous run of the same code and inputs stored.

    Floats are compared through ``float.hex``, so equal means bit for bit.
    Returns the names that differ; stores keys seen for the first time.
    """
    path = STATE_DIR / "exact" / f"{key}.json"
    stored = load_json(path, {})
    differ = [k for k, v in record.items() if k in stored and stored[k] != v]
    stored.update({k: v for k, v in record.items() if k not in stored})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True))
    return differ


# Per-layer metric names are "<layer>.<figure>"; the figure says what to take
# from tracer.layer_totals and whether it is per call or per traced operation.
FIGURES = {
    "us": ("total", "call"),
    "us_per_frame": ("total", "call"),
    "self_us": ("self", "call"),
    "calls": ("calls", "op"),
    "s": ("total", "op"),
    "self_s": ("self", "op"),
    "bytes": ("extra", "op"),
    "unstable": ("extra", "op"),
}


def layer_value(totals, name, n_ops):
    layer, _, figure = name.rpartition(".")
    what, per = FIGURES[figure]
    entry = totals.get(layer, {"calls": 0, what: 0})
    if per == "op":
        return entry[what] / n_ops
    return 1e6 * entry[what] / entry["calls"] if entry["calls"] else 0.0


@dataclass
class Op:
    """One operation as run: its output, exit code, stderr and timings."""

    out: Path
    rc: int
    stderr: str
    wall: float
    traced: bool
    calibration: float = 0.0    # mean of the calibrations just before and after


def ref_wall(op):
    """An operation's wall time at the reference speed (see CAL_REFERENCE_S)."""
    return op.wall * CAL_REFERENCE_S / op.calibration


def timed_loop(job, seconds, tracer, work_dir):
    """Run operations until the next would end after ``seconds``; at least one.

    With a tracer, untraced and traced operations alternate, starting
    untraced, and at least one of each runs. A calibration runs before the
    first operation and after each one, in a pool of ``job.processes``
    workers when the operation uses more than one process. Returns the
    operations and the peak resident set in MiB after the first one.
    """
    if job.processes == 1:
        return _timed_loop(job, seconds, tracer, work_dir, None)
    with ProcessPoolExecutor(job.processes) as pool:
        return _timed_loop(job, seconds, tracer, work_dir, pool)


def _timed_loop(job, seconds, tracer, work_dir, pool):
    calibrate_in(pool, job.processes)  # warm-up: workers, first LAPACK call, page faults
    ops = []
    started = time.perf_counter()
    before = calibrate_in(pool, job.processes)
    while True:
        out = work_dir / f"{job.workload}.op{len(ops)}.{job.ext}"
        traced = tracer is not None and len(ops) % 2 == 1
        if traced:
            tracer.install()
            try:
                with tracer.span("benchmark.operation"):
                    rc, stderr, wall = run_op(job.argv(out))
            finally:
                tracer.uninstall()
            tracer.collect_spool()
        else:
            rc, stderr, wall = run_op(job.argv(out))
        if not ops:
            # After the first operation only: the high-water mark would grow
            # with the number of operations, which depends on machine speed.
            first_rss_mb = peak_rss_mb()
        after = calibrate_in(pool, job.processes)
        ops.append(Op(out, rc, stderr, wall, traced, 0.5 * (before + after)))
        before = after
        elapsed = time.perf_counter() - started
        typical = statistics.median(o.wall + after for o in ops if o.traced == traced)
        if elapsed + typical > seconds and (tracer is None or len(ops) >= 2):
            return ops, first_rss_mb


def run(args):
    os.environ.pop("ROD_SIM_THREADS", None)  # the carpet uses the default worker count
    sys.path.insert(0, str(SRC))
    import rodsim

    if Path(rodsim.__file__).resolve().parent != SRC / "rodsim":
        raise SystemExit(f"rodsim imported from {rodsim.__file__}, not from {SRC}")
    import tracer as tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads(REFERENCE.read_text())
    digest = source_digest()
    bench_digest = source_digest([*BENCH_DIR.glob("*.py"), REFERENCE])
    work_dir = STATE_DIR / "work"
    job = make_job(args.workload, args.seed, work_dir)
    stale = [*work_dir.glob(f"{args.workload}.op*"), *work_dir.glob(f"{args.workload}.rod*"),
             *(STATE_DIR / "spool").glob("*")]
    for path in stale:
        path.unlink()

    tracer = tracing.Tracer(STATE_DIR / "spool") if args.trace else None
    ops, rss_mb = timed_loop(job, args.seconds, tracer, work_dir)
    untraced = [o for o in ops if not o.traced]
    walls = [o.wall for o in untraced]
    traced_walls = [o.wall for o in ops if o.traced]
    outcomes = [check_simulate(job, o.out, o.rc, o.stderr, reference) if job.scenario
                else check_verify(job, o.out, o.rc, o.stderr) for o in ops]
    first = outcomes[0]
    states, problems = rod_states_done(job, first, work_dir)
    problems += [p for o in outcomes for p in o.problems]
    if any((o.accuracy, o.bytes_written, o.unstable, o.frames)
           != (first.accuracy, first.bytes_written, first.unstable, first.frames)
           for o in outcomes):
        problems.append("outputs differ between identical operations")
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    setup_wall_s, setup_s = measure_setup(job)
    values = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        # Work over the median untraced operation's wall time at reference speed.
        "rod_states_per_ref_s": states / statistics.median(map(ref_wall, untraced)),
        "rod_states_per_s": states / statistics.median(walls),
        "peak_rss_mb": rss_mb,
    }
    values.update({name: first.accuracy.get(name, 0.0) for name in
                   ("semi_tip_err", "pure_tip_err", "reference_err", "residual_ratio")})
    exact = {k: float(v).hex() for k, v in first.accuracy.items()}
    exact.update(bytes_written=first.bytes_written, unstable=first.unstable,
                 frames=first.frames, rod_states=states)

    overhead_path = STATE_DIR / "overhead.json"
    overheads = load_json(overhead_path, {})
    if tracer:
        totals = tracing.layer_totals(tracer.spans)
        for metric in spec["per_layer"]:
            if metric["name"] not in values and not metric["name"].startswith("trace."):
                values[metric["name"]] = layer_value(totals, metric["name"], len(traced_walls))
        for count in ("integrators.step_semi_analytic.calls",
                      "integrators.step_pure_numeric.calls",
                      "rod_model.solve_contact_force.calls",
                      "rod_model.reconstruct_centerline.calls", "grid_fields.find_root.calls",
                      "scenarios.Trajectory.to_json.bytes", "scenarios.Trajectory.to_csv.bytes",
                      "scenarios.simulate_rod.unstable"):
            exact[count] = layer_value(totals, count, len(traced_walls))
        base = statistics.median(map(ref_wall, untraced))
        values["trace.overhead_s"] = statistics.median(
            ref_wall(o) for o in ops if o.traced) - base
        values["trace.overhead_frac"] = values["trace.overhead_s"] / base
        overheads[f"{digest}:{args.workload}"] = values["trace.overhead_s"]
        STATE_DIR.mkdir(parents=True, exist_ok=True)
        overhead_path.write_text(json.dumps(overheads, indent=1, sort_keys=True))
        tracer.write(STATE_DIR / "spans" / f"{args.workload}-s{args.seed}.jsonl")
    differ = exact_check(f"{digest}-{bench_digest}-{args.workload}-s{args.seed}", exact)
    if differ:
        problems.append(f"not repeatable across runs of the same code and seed: {differ}")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    env = environment(digest, args.workload, overheads.get(f"{digest}:{args.workload}"))
    env["calibration_s"] = [o.calibration for o in ops]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "untraced_walls_s": walls, "traced_walls_s": traced_walls,
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "accuracy": first.accuracy, "exact": exact, "problems": problems,
        "trace_targets_missing": tracer.missing if tracer else [],
        "environment": env, "metrics": metrics,
    }
    results = STATE_DIR / "results" / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations, "
          f"{failed}/{attempted} units failed (failed_frac {failed / attempted:.4g})")
    print(f"  median operation wall {statistics.median(walls):.4g} s over {len(walls)} "
          f"untraced operations, {states} rod states each; "
          f"{values['rod_states_per_s']:.6g} rod states per second before calibration, "
          f"median calibration {statistics.median(o.calibration for o in ops):.4g} s; "
          f"set-up wall {values['setup_wall_s']:.4g} s")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in first.accuracy.items():
        print(f"  accuracy {name} = {value!r}")
    if tracer and tracer.missing:
        print(f"  note: trace targets not found, their layers read 0: {tracer.missing}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "rodsim" / "__init__.py", REFERENCE, ROOT / "BENCHMARK.json")
               if not p.is_file()]
    if missing:
        print(f"error: not a rodsim checkout, missing {[str(p) for p in missing]}",
              file=sys.stderr)
        return 2
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
