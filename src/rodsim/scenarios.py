"""Scenario definitions and run orchestration: single cilium, carpet, benchmarks.

A scenario is a JSON-serializable configuration (versioned schema, unknown
keys rejected). Rods in a carpet are independent subproblems with per-rod
drive phases; they run on a worker pool and their frames are merged
deterministically by (frame, rod).
"""

from __future__ import annotations

import json
import os
import time as _time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, DivergenceError, InputError, InstabilityError
from .integrators import (
    ManifoldState,
    drift_norms,
    lift,
    max_stable_dt,
    state_energy,
    step_pure_numeric,
    step_semi_analytic,
)
from .rod_model import (
    BoundaryConditions,
    Loads,
    MaterialParams,
    RodState,
    reconstruct_centerline,
)

__all__ = [
    "ScenarioConfig",
    "Trajectory",
    "default_config",
    "run_cilium",
    "run_carpet",
    "run_scenario",
    "benchmark_stability",
]

SCHEMA_VERSION = 1


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


@dataclass(frozen=True)
class ScenarioConfig:
    material: MaterialParams
    scheme: str = "semi"
    dt: float = 1e-3
    t_end: float = 10.0
    base: str = "clamped"
    tip: str = "free"
    drive: DriveConfig = field(default_factory=DriveConfig)
    carpet: CarpetConfig = field(default_factory=CarpetConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in ("pure", "semi"):
            raise ConfigurationError("scheme must be 'pure' or 'semi'")
        if not self.dt > 0.0 or not self.t_end > 0.0:
            raise ConfigurationError("dt and t_end must be positive")
        for end, kind in (("base", self.base), ("tip", self.tip)):
            if kind not in ("clamped", "free"):
                raise ConfigurationError(f"{end} must be 'clamped' or 'free'")

    def to_json(self) -> str:
        doc = {
            "schema": SCHEMA_VERSION,
            "material": asdict(self.material),
            "scheme": self.scheme,
            "dt": self.dt,
            "t_end": self.t_end,
            "boundary": {"base": self.base, "tip": self.tip},
            "drive": asdict(self.drive),
            "carpet": asdict(self.carpet),
            "output": asdict(self.output),
            "seed": self.seed,
        }
        return json.dumps(doc, indent=2)

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
        known = {
            "schema", "material", "scheme", "dt", "t_end", "boundary",
            "drive", "carpet", "output", "seed",
        }
        _reject_unknown(doc, known, "config")
        try:
            material = MaterialParams(**_checked(doc.get("material", {}), {
                "rho", "area", "moment", "EI", "length", "nodes"}, "material"))
            boundary = _checked(doc.get("boundary", {}), {"base", "tip"}, "boundary")
            drive = DriveConfig(**_checked(doc.get("drive", {}), {
                "amplitude", "frequency", "active_fraction", "phase"}, "drive"))
            carpet = CarpetConfig(**_checked(doc.get("carpet", {}), {
                "rods", "spacing", "phase_increment"}, "carpet"))
            output = OutputConfig(**_checked(doc.get("output", {}), {
                "stride", "format", "path"}, "output"))
            return cls(
                material=material,
                scheme=doc.get("scheme", "semi"),
                dt=float(doc.get("dt", 1e-3)),
                t_end=float(doc.get("t_end", 10.0)),
                base=boundary.get("base", "clamped"),
                tip=boundary.get("tip", "free"),
                drive=drive,
                carpet=carpet,
                output=output,
                seed=int(doc.get("seed", 0)),
            )
        except (TypeError, ValueError) as err:
            raise InputError(f"invalid config: {err}") from err


def _reject_unknown(doc, known, where):
    unknown = set(doc) - known
    if unknown:
        raise InputError(f"unknown {where} keys: {sorted(unknown)}")


def _checked(doc, known, where):
    if not isinstance(doc, dict):
        raise InputError(f"{where} section must be a JSON object")
    _reject_unknown(doc, known, where)
    return doc


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
    base = dict(material=material, scheme="semi", dt=1e-3, t_end=10.0)
    base.update(overrides)
    return ScenarioConfig(**base)


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
        return json.dumps(
            {
                "times": self.times.tolist(),
                "positions": self.positions.tolist(),
                "energies": self.energies.tolist(),
                "drifts": self.drifts.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Trajectory":
        try:
            doc = json.loads(text)
            return cls(
                times=np.asarray(doc["times"], float),
                positions=np.asarray(doc["positions"], float),
                energies=np.asarray(doc["energies"], float),
                drifts=np.asarray(doc["drifts"], float),
            )
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as err:
            raise InputError(f"malformed trajectory document: {err}") from err

    def to_csv(self) -> str:
        lines = ["t,rod,node,x,y,z"]
        n_frames, n_rods, n_nodes, _ = self.positions.shape
        for fi in range(n_frames):
            t = repr(float(self.times[fi]))
            for k in range(n_rods):
                for i in range(n_nodes):
                    x, y, z = (float(v) for v in self.positions[fi, k, i])
                    lines.append(f"{t},{k},{i},{x!r},{y!r},{z!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "Trajectory":
        lines = [ln for ln in text.strip().splitlines() if ln]
        if not lines or lines[0] != "t,rod,node,x,y,z":
            raise InputError("missing trajectory CSV header")
        rows = []
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != 6:
                raise InputError(f"malformed CSV row: {ln!r}")
            rows.append(
                (float(parts[0]), int(parts[1]), int(parts[2]),
                 float(parts[3]), float(parts[4]), float(parts[5]))
            )
        times = sorted({r[0] for r in rows})
        rods = 1 + max(r[1] for r in rows)
        nodes = 1 + max(r[2] for r in rows)
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


def _drive_loads(config: ScenarioConfig, phase: float) -> Loads:
    drive = config.drive
    cutoff = drive.active_fraction * config.material.length
    two_pi_nu = 2.0 * np.pi * drive.frequency

    def couple(s, t):
        out = np.zeros((s.shape[0], 2))
        out[:, 0] = (
            drive.amplitude
            * np.sin(two_pi_nu * t + phase)
            * (s <= cutoff + 1e-12)
        )
        return out

    return Loads(couple=couple)


def _boundary(config: ScenarioConfig) -> BoundaryConditions:
    return BoundaryConditions(base=config.base, tip=config.tip)


def _energy_reference(config: ScenarioConfig, initial_energy: float) -> float:
    drive = config.drive
    mat = config.material
    drive_scale = drive.amplitude**2 * mat.length**3 / (2.0 * mat.EI)
    return max(initial_energy, drive_scale, 1e-12)


def simulate_rod(
    config: ScenarioConfig,
    phase: float = 0.0,
    base_position=(0.0, 0.0, 0.0),
):
    """Run one rod from rest to t_end; returns (frame list, stable flag).

    Frames are (time, positions, energy, (R4, R5, R6)) tuples captured every
    ``output.stride`` steps, including the initial and final states. A run is
    declared unstable, keeping the frames captured so far, when a step
    produces non-finite values or the energy, checked every step, exceeds
    1e3 times the reference scale.
    """
    mat = config.material
    grid = mat.grid()
    bc = _boundary(config)
    loads = _drive_loads(config, phase)
    n_steps = max(1, int(round(config.t_end / config.dt)))
    dt = config.t_end / n_steps
    semi = config.scheme == "semi"
    state = ManifoldState.zero(grid) if semi else RodState.zero(grid)
    step = step_semi_analytic if semi else step_pure_numeric

    def frame(t, state, energy_val):
        curvature = (lift(state) if semi else state).curvature
        positions, _ = reconstruct_centerline(curvature, grid.spacing, base_position)
        return t, positions, energy_val, drift_norms(state)

    e = state_energy(state, mat)
    bound = 1e3 * _energy_reference(config, e)
    frames = [frame(0.0, state, e)]
    for k in range(n_steps):
        try:
            state = step(state, mat, loads, bc, k * dt, dt)
        except DivergenceError:
            return frames, False
        e = state_energy(state, mat)
        if e > bound:
            return frames, False
        if (k + 1) % config.output.stride == 0 or k == n_steps - 1:
            frames.append(frame((k + 1) * dt, state, e))
    return frames, True


def _merge(frames_by_rod):
    n_rods = len(frames_by_rod)
    n_frames = min(len(fr) for fr in frames_by_rod)
    times = np.asarray([frames_by_rod[0][fi][0] for fi in range(n_frames)])
    n_nodes = frames_by_rod[0][0][1].shape[0]
    positions = np.empty((n_frames, n_rods, n_nodes, 3))
    energies = np.empty((n_frames, n_rods))
    drifts = np.empty((n_frames, n_rods, 3))
    for k, fr in enumerate(frames_by_rod):
        for fi in range(n_frames):
            t, pos, en, dr = fr[fi]
            positions[fi, k] = pos
            energies[fi, k] = en
            drifts[fi, k] = dr
    return Trajectory(times, positions, energies, drifts)


def _rod_job(args):
    config, k = args
    phase = config.drive.phase + k * config.carpet.phase_increment
    base = (k * config.carpet.spacing, 0.0, 0.0)
    frames, stable = simulate_rod(config, phase=phase, base_position=base)
    return k, frames, stable


def _worker_count(n_jobs: int) -> int:
    env = os.environ.get("ROD_SIM_THREADS", "0")
    try:
        count = int(env)
    except ValueError:
        raise InputError(f"ROD_SIM_THREADS must be an integer, got {env!r}")
    if count <= 0:
        count = os.cpu_count() or 1
    return max(1, min(count, n_jobs))


def run_cilium(config: ScenarioConfig) -> Trajectory:
    """Single driven rod (carpet.rods must be 1)."""
    if config.carpet.rods != 1:
        raise ConfigurationError("run_cilium requires exactly one rod")
    k, frames, stable = _rod_job((config, 0))
    trajectory = _merge([frames])
    if not stable:
        raise InstabilityError("simulation became unstable", partial=trajectory)
    return trajectory


def run_carpet(config: ScenarioConfig) -> Trajectory:
    """K independent rods with phase offsets k * phase_increment."""
    n_rods = config.carpet.rods
    if n_rods < 2:
        raise ConfigurationError("run_carpet requires at least two rods")
    jobs = [(config, k) for k in range(n_rods)]
    workers = _worker_count(n_rods)
    if workers == 1:
        results = [_rod_job(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_rod_job, jobs))
    results.sort(key=lambda item: item[0])
    failed = [k for k, _, stable in results if not stable]
    trajectory = _merge([frames for _, frames, _ in results])
    if failed:
        raise InstabilityError(
            f"rod(s) {failed} became unstable", partial=trajectory
        )
    return trajectory


def run_scenario(config: ScenarioConfig) -> Trajectory:
    if config.carpet.rods == 1:
        return run_cilium(config)
    return run_carpet(config)


def _stability_probe(config: ScenarioConfig, scheme: str, horizon: float):
    probe = replace(
        config,
        scheme=scheme,
        t_end=horizon,
        carpet=CarpetConfig(rods=1),
        output=OutputConfig(stride=10**9),
    )

    def is_stable(dt):
        trial = replace(probe, dt=dt)
        return simulate_rod(trial)[1]

    return is_stable


def benchmark_stability(
    config: ScenarioConfig,
    horizon: float = 2.0,
    dt_bounds=(3e-5, 3e-2),
    timing_t_end: float = None,
) -> dict:
    """Measure the stability thresholds and wall-clock speed of both schemes.

    Finds the largest stable step of each scheme on the single-cilium
    scenario, then times both to the same end time at half their thresholds.
    Returns {dt_pure, dt_semi, dt_ratio, wall_pure, wall_semi, speedup}.
    """
    report = {}
    for scheme in ("pure", "semi"):
        is_stable = _stability_probe(config, scheme, horizon)
        report[f"dt_{scheme}"] = max_stable_dt(is_stable, *dt_bounds)
    report["dt_ratio"] = report["dt_semi"] / report["dt_pure"]
    t_end = timing_t_end if timing_t_end is not None else horizon
    for scheme in ("pure", "semi"):
        trial = replace(
            config, scheme=scheme, dt=0.5 * report[f"dt_{scheme}"], t_end=t_end,
            carpet=CarpetConfig(rods=1), output=OutputConfig(stride=10**9),
        )
        start = _time.perf_counter()
        simulate_rod(trial)
        report[f"wall_{scheme}"] = _time.perf_counter() - start
    report["speedup"] = report["wall_pure"] / report["wall_semi"]
    return report
