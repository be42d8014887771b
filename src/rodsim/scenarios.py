"""Scenario definitions and run orchestration: single cilium, carpet, benchmarks.

A scenario is a JSON-serializable configuration (versioned schema, unknown
keys rejected). Rods in a carpet are independent subproblems that differ only
in their drive phase; they share one material and one grid, so they step
together in one process as one state with a rod axis, and every frame is
captured for all rods at once.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time as _time
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace

import numpy as np
import orjson

from .errors import (
    ConfigurationError,
    InputError,
    InstabilityError,
    SizeError,
)
from .integrators import (
    _lift,
    _nonfinite_rods,
    _steps_pure,
    _steps_semi,
    max_stable_dt,
)
from .rod_model import (
    BoundaryConditions,
    MaterialParams,
    _drift_norms,
    _energy,
    reconstruct_centerline,
)

__all__ = [
    "ScenarioConfig",
    "Trajectory",
    "default_config",
    "run_scenario",
    "benchmark_stability",
]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class BoundaryConfig:
    base: str = "clamped"
    tip: str = "free"

    def __post_init__(self):
        BoundaryConditions(self.base, self.tip)  # checks the end kinds


@dataclass(frozen=True)
class DriveConfig:
    amplitude: float = 0.5       # couple per unit length
    frequency: float = 1.0
    active_fraction: float = 0.3  # basal fraction of the rod that is driven
    phase: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.active_fraction <= 1.0:
            raise ConfigurationError("active_fraction must be in (0, 1]")


@dataclass(frozen=True)
class CarpetConfig:
    rods: int = 1
    spacing: float = 0.5
    phase_increment: float = 0.0

    def __post_init__(self):
        if self.rods < 1:
            raise ConfigurationError("rod count must be >= 1")


@dataclass(frozen=True)
class OutputConfig:
    stride: int = 10
    format: str = "json"
    path: str = None

    def __post_init__(self):
        if self.stride < 1:
            raise ConfigurationError("output stride must be >= 1")
        if self.format not in ("json", "csv"):
            raise ConfigurationError("output format must be 'json' or 'csv'")
        if self.path is not None and not isinstance(self.path, str):
            raise ConfigurationError("output path must be a string or null")


@dataclass(frozen=True)
class ScenarioConfig:
    material: MaterialParams
    scheme: str = "semi"
    dt: float = 1e-3
    t_end: float = 10.0
    boundary: BoundaryConfig = field(default_factory=BoundaryConfig)
    drive: DriveConfig = field(default_factory=DriveConfig)
    carpet: CarpetConfig = field(default_factory=CarpetConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in ("pure", "semi"):
            raise ConfigurationError("scheme must be 'pure' or 'semi'")
        if not self.dt > 0.0 or not self.t_end > 0.0:
            raise ConfigurationError("dt and t_end must be positive")

    @property
    def n_steps(self) -> int:
        """The steps a run takes: t_end / dt rounded, and at least one. Each
        step is t_end / n_steps long, which is dt only when dt divides t_end."""
        return max(1, int(round(self.t_end / self.dt)))

    def to_json(self) -> str:
        return json.dumps({"schema": SCHEMA_VERSION, **asdict(self)}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise InputError(f"malformed config JSON: {err}") from err
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioConfig":
        if not isinstance(doc, dict):
            raise InputError("config document must be a JSON object")
        version = doc.get("schema")
        if version != SCHEMA_VERSION:
            raise InputError(f"unsupported config schema {version!r}")
        body = {key: value for key, value in doc.items() if key != "schema"}
        try:
            return _read(cls, body, "config")
        except InputError as err:
            # rodsim's own errors keep their class (ConfigurationError, ...).
            raise type(err)(f"invalid config: {err}") from err
        except (TypeError, ValueError, OverflowError) as err:
            raise InputError(f"invalid config: {err}") from err


# {field name: annotated type} of a config dataclass, in field order.
_kinds = functools.cache(typing.get_type_hints)


def _read(cls, doc, where):
    """The config dataclass ``cls`` read from the JSON object ``doc``.

    A field whose kind is a config dataclass is a nested section (empty when
    absent); the other key kinds are checked by ``_checked``. Fields without
    a default are required.
    """
    kinds = _kinds(cls)
    doc = _checked(doc, kinds, where)
    values = {}
    for key, kind in kinds.items():
        if is_dataclass(kind):
            values[key] = _read(kind, doc.get(key, {}), key)
        elif key in doc:
            values[key] = doc[key]
    missing = [f.name for f in fields(cls) if f.name not in values
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise InputError(f"{where} section is missing {sorted(missing)}")
    return cls(**values)


def _checked(doc, kinds, where):
    """``doc`` checked against ``{key: kind}``: no unknown keys, an int key
    holds a JSON integer, a float key a finite number (made a float)."""
    if not isinstance(doc, dict):
        raise InputError(f"{where} section must be a JSON object")
    unknown = set(doc) - set(kinds)
    if unknown:
        raise InputError(f"unknown {where} keys: {sorted(unknown)}")
    return {key: _typed(key, value, kinds[key], where) for key, value in doc.items()}


def _typed(key, value, kind, where):
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int and not (number and isinstance(value, int)):
        raise InputError(f"{where} key {key!r} must be an integer, got {value!r}")
    if kind is float:
        # False for NaN, infinities and integers too large for a float.
        if not (number and abs(value) <= sys.float_info.max):
            raise InputError(f"{where} key {key!r} must be a finite number, got {value!r}")
        return float(value)
    return value


def default_config(**overrides) -> ScenarioConfig:
    """Desk-scale single-cilium defaults (dimensionless O(1) regime).

    The inertia ratio is chosen inside the model's neutrally stable regime:
    the contact-force operator (1/rho_A) d2/ds2 + (1/rho_I) is negative
    definite only when rho_I / rho_A exceeds (2 L / pi)^2; below that the
    linearized dynamics has genuinely growing modes and no integrator can
    keep the energy bounded over a long run.
    """
    material = MaterialParams(
        rho=1.0, area=2e-2, moment=1e-2, EI=1e-1, length=1.0, nodes=101
    )
    return ScenarioConfig(**{"material": material, **overrides})


def _float_texts(values, spell=repr) -> list:
    """``[spell(v) for v in values.ravel().tolist()]``, for ``spell`` ``repr``
    or ``_json_float``.

    The digits come from orjson's shortest round-trip formatter (Ryū), which
    writes the digits of ``repr``. It spells some values otherwise: non-finite
    ones (``null``), nonzero magnitudes below 1e-4 (``0.00001`` for
    ``1e-05``) and, with margin, magnitudes from 1e15 on (``1e16`` for
    ``1e+16``). Only those go through ``spell``.
    """
    flat = np.ascontiguousarray(values, dtype=float).ravel()
    if not flat.size:
        return []
    texts = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    magnitudes = np.abs(flat)
    # NaN fails both comparisons, so it is spelled too.
    other = np.flatnonzero(~((magnitudes >= 1e-4) & (magnitudes < 1e15)) & (flat != 0.0))
    for i, value in zip(other.tolist(), flat[other].tolist()):
        texts[i] = spell(value)
    return texts


# json.dumps's spellings of the floats whose repr is not JSON.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value: float) -> str:
    """``json.dumps(value)`` of a float: its ``repr``, or JSON's non-finite spelling."""
    text = repr(value)
    return _JSON_NONFINITE.get(text, text)


@dataclass
class Trajectory:
    """Recorded frames: times plus per-rod per-node positions and diagnostics."""

    times: np.ndarray          # (F,)
    positions: np.ndarray      # (F, K, N, 3)
    energies: np.ndarray       # (F, K)
    drifts: np.ndarray         # (F, K, 3) -- R4, R5, R6 max-norms

    @property
    def tips(self) -> np.ndarray:
        return self.positions[:, :, -1, :]

    def to_json(self) -> str:
        return "".join(self.json_chunks())

    def json_chunks(self):
        """The text of ``to_json`` in pieces: ``json.dumps`` of the four
        arrays as one object, each array written one frame at a time. A
        positions frame fills one template with ``_float_texts``."""
        rods, nodes = np.shape(self.positions)[1:3]
        rod = "[" + ", ".join(["[%s, %s, %s]"] * nodes) + "]"
        template = "[" + ", ".join([rod] * rods) + "]"
        for i, key in enumerate(("times", "positions", "energies", "drifts")):
            yield f'{", " if i else "{"}"{key}": ['
            for f, frame in enumerate(getattr(self, key)):
                text = (template % tuple(_float_texts(frame, _json_float)) if key == "positions"
                        else json.dumps(frame.tolist()))
                yield (", " if f else "") + text
            yield "]"
        yield "}"

    @classmethod
    def from_json(cls, text: str) -> "Trajectory":
        try:
            doc = json.loads(text)
            traj = cls(
                times=np.asarray(doc["times"], float),
                positions=np.asarray(doc["positions"], float),
                energies=np.asarray(doc["energies"], float),
                drifts=np.asarray(doc["drifts"], float),
            )
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as err:
            raise InputError(f"malformed trajectory document: {err}") from err
        frames, rods = traj.positions.shape[:2] if traj.positions.ndim == 4 else (-1, -1)
        shapes = (traj.times.shape, traj.positions.shape[-1:], traj.energies.shape,
                  traj.drifts.shape)
        if shapes != ((frames,), (3,), (frames, rods), (frames, rods, 3)):
            raise InputError(
                "inconsistent trajectory document: times, positions, energies and "
                f"drifts have shapes {traj.times.shape}, {traj.positions.shape}, "
                f"{traj.energies.shape} and {traj.drifts.shape}")
        for name, values in vars(traj).items():
            if not np.isfinite(values).all():
                raise InputError(f"trajectory document has non-finite {name}")
        return traj

    def to_csv(self) -> str:
        """One ``t,rod,node,x,y,z`` row per frame, rod and node, every float
        written as its ``repr``. A frame's rows fill one template with
        ``_float_texts``."""
        return "".join(self.csv_chunks())

    def csv_chunks(self):
        """The text of ``to_csv`` in pieces: the header, each frame's rows
        and the final newline."""
        positions = np.asarray(self.positions, dtype=float)
        rods, nodes = positions.shape[1:3]
        template = "".join(f"\n{k},{i},%s,%s,%s" for k in range(rods) for i in range(nodes))
        yield "t,rod,node,x,y,z"
        for t, frame in zip(np.asarray(self.times, dtype=float).tolist(), positions):
            yield template.replace("\n", f"\n{t!r},") % tuple(_float_texts(frame))
        yield "\n"

    @classmethod
    def from_csv(cls, text: str) -> "Trajectory":
        lines = [ln for ln in text.strip().splitlines() if ln]
        if not lines or lines[0] != "t,rod,node,x,y,z":
            raise InputError("missing trajectory CSV header")
        rows = []
        for ln in lines[1:]:
            try:
                t, k, i, x, y, z = ln.split(",")
                row = (float(t), int(k), int(i), float(x), float(y), float(z))
            except ValueError:
                row = None
            if (row is None or not all(map(math.isfinite, (row[0], *row[3:])))
                    or min(row[1:3]) < 0):
                raise InputError(f"malformed CSV row: {ln!r}")
            rows.append(row)
        if not rows:
            raise InputError("trajectory CSV has a header but no rows")
        times = sorted({r[0] for r in rows})
        rods = 1 + max(r[1] for r in rows)
        nodes = 1 + max(r[2] for r in rows)
        seen = set()
        for t, k, i, *_ in rows:
            if (t, k, i) in seen:
                raise InputError(f"duplicate CSV row for t={t!r}, rod {k}, node {i}")
            seen.add((t, k, i))
        # Every (t, rod, node) needs its own row, so the dense arrays are
        # allocated only once the rows are known to fill them.
        missing = len(times) * rods * nodes - len(seen)
        if missing:
            # At most len(seen) triples are present, so the first absent one
            # in order is among the first len(seen) + 1.
            f, k, i = next((f, k, i) for f in range(len(times)) for k in range(rods)
                           for i in range(nodes) if (times[f], k, i) not in seen)
            raise InputError(f"CSV has no row for t={times[f]!r}, rod {k}, node {i} "
                             f"({missing} rows missing)")
        t_index = {t: i for i, t in enumerate(times)}
        positions = np.zeros((len(times), rods, nodes, 3))
        for t, k, i, x, y, z in rows:
            positions[t_index[t], k, i] = (x, y, z)
        return cls(
            times=np.asarray(times),
            positions=positions,
            energies=np.zeros((len(times), rods)),
            drifts=np.zeros((len(times), rods, 3)),
        )


def _drive(config: ScenarioConfig, phase, nodes: np.ndarray, times: np.ndarray):
    """The drive couple at the times (B,) of a block of steps, (B, 2,
    *phase's shape, N), component-major: the couple for one phase, or for a
    vector of K phases (one per rod), at every time in one evaluation. No
    distributed force acts."""
    drive = config.drive
    cutoff = drive.active_fraction * config.material.length
    # A rounding tolerance relative to the length: the same nodes on any scale.
    profile = (nodes <= cutoff + 1e-12 * config.material.length).astype(float)
    phase = np.asarray(phase, float)
    couples = np.zeros((len(times), 2) + phase.shape + nodes.shape)
    np.multiply.outer(
        drive.amplitude * np.sin(np.add.outer(2.0 * np.pi * drive.frequency * times, phase)),
        profile, out=couples[:, 0])
    return couples


def _boundary(config: ScenarioConfig) -> BoundaryConditions:
    return BoundaryConditions(base=config.boundary.base, tip=config.boundary.tip)


# Rod-nodes in one block of a run, 64 states of a 101-node rod. A block of
# steps holds at most BLOCK rods times nodes: its drive is built in one
# evaluation, one residual check covers its contact-force solves and one check
# finds its failures. One reconstruct_centerline call
# builds at most BLOCK frames times rods times nodes. A fixed cost is paid once
# per block, and counting nodes keeps a block's memory the same on any grid.
BLOCK = 64 * 101


def simulate_rod(config: ScenarioConfig):
    """Run every rod of the scenario from rest to t_end as one batched state.

    Rod k has drive phase ``drive.phase + k * carpet.phase_increment`` and
    its base at ``(k * carpet.spacing, 0, 0)``; a single cilium is one rod.
    Returns (trajectory, stable, failed): ``failed`` maps each rod that did
    not reach t_end, in rod order, to where it was lost: the step, the time
    that step reached and the cause, ``non-finite`` or ``energy E above bound
    B``. ``stable`` is True when there are none.

    Frames are captured every ``output.stride`` steps, including the initial
    and final states. A rod fails at its first step whose energy exceeds 1e3
    times the reference scale, or that produces non-finite values. Each rod
    is stepped once and fails as it would alone; the trajectory keeps the
    frames captured before the first failure. Each frame records its
    curvatures; the centerlines of the captured frames are reconstructed
    after the run, in blocks of whole frames that hold at most ``BLOCK``
    rod-frame-nodes (one frame when one frame exceeds it).

    The rods step in the packed layout of ``integrators``, in blocks of
    steps that hold at most ``BLOCK`` rod-nodes (one step when one state
    exceeds it) and run across frames. A block's drive is built in one
    evaluation and every step runs to the block's end, a failing rod's too,
    with floating-point warnings off. The block core's one residual check of
    its contact-force solves comes first and raises SingularSystemError. Then
    one check finds each rod's first failing step: one ``_energy`` call on all
    the steps against the bound, then their finite check. The frames before
    the block's first failure are measured at once: their rows, stacked as
    one state of frames times rods, are lifted once (semi) and take one
    ``_drift_norms`` call, and their times, energies and curvatures are one
    slice each. The lost rods are dropped at the block's end, and the others
    go on from its last state. A scale the run derives from the config that
    overflows is an InputError naming its keys: the energy bound before
    anything is allocated, then the rod bases and the drive phase up to
    t_end, the contact-force coefficients at the first block
    (``rod_model._contact_operator``).
    """
    mat = config.material
    grid = mat.grid()
    bc = _boundary(config)
    n_rods = config.carpet.rods
    stride = config.output.stride
    semi = config.scheme == "semi"
    steps = _steps_semi if semi else _steps_pure
    amplitude, ds = config.drive.amplitude, grid.spacing
    try:
        limit = 1e3 * max(amplitude**2 * mat.length**3 / (2.0 * mat.EI), 1e-12)
    except (OverflowError, ZeroDivisionError):
        limit = math.inf
    if not math.isfinite(limit):
        raise InputError("the energy bound 1e3 * amplitude**2 * length**3 / (2 EI) overflows "
                         f"for drive.amplitude={amplitude!r}, material.length={mat.length!r} "
                         f"and material.EI={mat.EI!r}")
    try:
        n_steps = config.n_steps
        n_frames = 1 + n_steps // stride + (n_steps % stride != 0)
        rods = np.arange(n_rods)
        packed = np.zeros((4 if semi else 6, n_rods, grid.node_count))
        traj = Trajectory(
            np.empty(n_frames), np.empty((n_frames, n_rods, grid.node_count, 3)),
            np.empty((n_frames, n_rods)), np.empty((n_frames, n_rods, 3)),
        )
        # Node first, so that a block of frames is one slice.
        curvatures = np.empty((grid.node_count, n_frames, n_rods, 2))
    except (ValueError, OverflowError, MemoryError) as err:
        raise SizeError(
            f"run too large to allocate (material.nodes={mat.nodes}, "
            f"carpet.rods={n_rods}, dt={config.dt}, t_end={config.t_end}, "
            f"output.stride={stride}): {err}") from err
    dt = config.t_end / n_steps
    drive, carpet = config.drive, config.carpet
    bases = np.zeros((n_rods, 3))
    with np.errstate(over="ignore"):  # an overflow is reported below
        phases = drive.phase + rods * carpet.phase_increment
        bases[:, 0] = rods * carpet.spacing
    if not np.isfinite(bases).all():
        raise InputError(f"the rod bases overflow for carpet.spacing={carpet.spacing!r} "
                         f"and carpet.rods={n_rods}")
    if not math.isfinite(2.0 * math.pi * abs(drive.frequency) * config.t_end + abs(phases).max()):
        raise InputError(f"the drive phase overflows for drive.frequency={drive.frequency!r}, "
                         f"t_end={config.t_end!r}, drive.phase={drive.phase!r}, "
                         f"carpet.phase_increment={carpet.phase_increment!r} and "
                         f"carpet.rods={n_rods}")
    force = np.zeros((2, 1, grid.node_count))
    frames, failed, done, buffer = 0, {}, 0, np.empty(0)
    while done < n_steps and rods.size:
        size = max(1, BLOCK // (rods.size * grid.node_count))
        if buffer.shape[2:] != packed.shape[1:]:
            # Kept until a rod is lost: buffers made anew for every block
            # page-fault on every block.
            buffer = np.empty((size + 1,) + packed.shape)
            solves = np.empty((2, size, 2) + packed.shape[1:])
        end = min(n_steps, done + size)
        block = buffer[:end - done + 1]  # the state, then each step's
        block[0] = packed
        times = np.arange(done, end) * dt
        with np.errstate(all="ignore"):  # a failing rod steps on to the block's end
            couples = _drive(config, phases[rods], grid.nodes, times)
            steps(block, solves[:, :end - done], mat, bc, grid, force, couples, times, dt)
            energies = _energy(block, mat, ds)  # row 0 too: the first block's frame 0
        # A rod's first failing step: an energy above the bound, or a
        # non-finite row, which takes precedence at the same step.
        nonfinite = _nonfinite_rods(block[1:])  # (steps, rods)
        bad = (energies[1:] > limit) | nonfinite
        lost = bad.any(axis=0)
        if not failed:  # the frames before the block's first failure, at once
            kept = bad.any(axis=1).argmax() if lost.any() else len(bad)
            k = np.arange(done + (done > 0), done + kept + 1)  # step 0 in the first block only
            k = k[(k % stride == 0) | (k == n_steps)]
            if k.size:
                rows, captured = k - done, slice(frames, frames + k.size)
                # The captured rows as one state of F * K rods, rods within frames.
                stack = block[rows].swapaxes(0, 1).reshape(len(packed), -1, grid.node_count)
                raw = _lift(stack) if semi else stack
                traj.times[captured] = k * dt
                traj.energies[captured] = energies[rows]
                traj.drifts[captured] = _drift_norms(raw, ds, semi).T.reshape(k.size, n_rods, 3)
                curvatures[:, captured] = raw[0:2].reshape(2, k.size, n_rods, -1).T.swapaxes(1, 2)
                frames += k.size
        packed = block[-1]
        if lost.any():
            for j, s in zip(np.flatnonzero(lost), bad.argmax(axis=0)[lost]):
                cause = ("non-finite" if nonfinite[s, j] else
                         f"energy {energies[s + 1, j]:.3g} above bound {limit:.3g}")
                k = done + s + 1
                failed[rods[j].item()] = f"step {k} (t={k * dt:.6g}, {cause})"
            rods, packed = rods[~lost], packed[:, ~lost]
        done = end
    # One call per block of whole frames, with every frame's rods on the
    # shared bases; the last block ends at the last captured frame.
    per_block = max(1, BLOCK // (n_rods * grid.node_count))
    for lo in range(0, frames, per_block):
        hi = min(lo + per_block, frames)
        positions = reconstruct_centerline(curvatures[:, lo:hi], ds, bases)[0]
        traj.positions[lo:hi] = positions.transpose(1, 2, 0, 3)
    traj = Trajectory(traj.times[:frames], traj.positions[:frames],
                      traj.energies[:frames], traj.drifts[:frames])
    return traj, not failed, dict(sorted(failed.items()))


def run_scenario(config: ScenarioConfig) -> Trajectory:
    """Run the scenario's rods, one cilium or a carpet, to t_end.

    Raises InstabilityError, carrying the frames captured before the first
    failure as ``partial``, when any rod does not reach t_end; its message
    names each failed rod's step, time and cause.
    """
    trajectory, stable, failed = simulate_rod(config)
    if not stable:
        message = (f"simulation became unstable at {failed[0]}" if config.carpet.rods == 1
                   else f"rod(s) {list(failed)} became unstable: "
                   + "; ".join(f"rod {k} at {where}" for k, where in failed.items()))
        raise InstabilityError(message, partial=trajectory)
    return trajectory


# Defaults of benchmark_stability and ``rodsim benchmark``.
STABILITY_HORIZON = 2.0
STABILITY_DT_BOUNDS = (3e-5, 3e-2)


def benchmark_stability(
    config: ScenarioConfig,
    horizon: float = STABILITY_HORIZON,
    dt_bounds=STABILITY_DT_BOUNDS,
) -> dict:
    """Measure the stability thresholds and wall-clock speed of both schemes.

    Finds the largest stable step of each scheme on the single-cilium
    scenario, then times both over the horizon at half their thresholds.
    Returns {dt_pure, dt_semi, dt_ratio, wall_pure, wall_semi, speedup}.
    The horizon and both bounds must be finite, and dt_max no longer than the
    horizon, which a run cannot step past.
    """
    dt_min, dt_max = dt_bounds
    for name, value in (("horizon", horizon), ("dt_min", dt_min), ("dt_max", dt_max)):
        if not math.isfinite(value):
            raise InputError(f"{name} must be finite, got {value}")
    if dt_max > horizon:
        raise InputError(f"dt_max {dt_max} exceeds the horizon {horizon}")
    single = replace(config, carpet=CarpetConfig(rods=1), output=OutputConfig(stride=10**9))
    report = {}
    for scheme in ("pure", "semi"):
        probe = replace(single, scheme=scheme, t_end=horizon)
        report[f"dt_{scheme}"] = max_stable_dt(
            lambda dt: simulate_rod(replace(probe, dt=dt))[1], *dt_bounds)
    report["dt_ratio"] = report["dt_semi"] / report["dt_pure"]
    for scheme in ("pure", "semi"):
        trial = replace(single, scheme=scheme, dt=0.5 * report[f"dt_{scheme}"], t_end=horizon)
        start = _time.perf_counter()
        simulate_rod(trial)
        report[f"wall_{scheme}"] = _time.perf_counter() - start
    report["speedup"] = report["wall_pure"] / report["wall_semi"]
    return report
