"""End-to-end numerical verification of the analytic claims.

Builds a JSON-able report: residuals of the compatibility subsystem on
family-sampled data, the full potential/developable reduction chain, and
convergence orders under one grid refinement.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, OutOfRangeError, SizeError
from .grid_fields import Grid1D
from .reduction import (
    developable_residuals,
    extract_speed_profile,
    potential_system_residuals,
    reconstruct_potentials,
)
from .solution_family import (
    SolutionFamily,
    parameter_free_residuals,
    random_family,
    sample_state,
)

__all__ = [
    "family_residuals",
    "reduction_chain_residuals",
    "build_report",
    "family_threshold",
    "chain_threshold",
]


def family_threshold(h: float) -> float:
    """Acceptance threshold for compatibility residuals, scaled as h^2."""
    return 1e-4 * (h / 1e-2) ** 2


def chain_threshold(h: float) -> float:
    """Acceptance threshold for reduction-chain residuals, scaled as h^2."""
    return 1e-3 * (h / 1e-2) ** 2


def _center_time(fam: SolutionFamily) -> float:
    return float(fam.time_map(0.5))


def _family_times(fam: SolutionFamily, dt: float):
    """The three family times t0 - dt, t0, t0 + dt around the center time t0."""
    return _center_time(fam) + np.array([-1.0, 0.0, 1.0]) * dt


def _chain_times(fam: SolutionFamily, n_nodes: int, dt: float):
    """The chain rectangle's n_nodes times, centered on the center time."""
    t_lo = _center_time(fam) - 0.5 * (n_nodes - 1) * dt
    return t_lo + np.arange(n_nodes) * dt


def _chain_from(rect: np.ndarray, ds: float, dt: float):
    """The whole reduction chain on a packed block sampled at the chain times."""
    # The chain's (Ns, Nt) fields, from a C-ordered (N, T, 6) copy: its sums
    # round by memory layout, and a bare transposed view changes the report.
    node_first = np.ascontiguousarray(rect.T)
    fields = (node_first[..., k:k + 2] for k in (0, 2, 4))
    _, _, f, g = reconstruct_potentials(*fields, ds, dt)
    out = potential_system_residuals(f, g, ds, dt)
    profile, uniformity = extract_speed_profile(f, g, dt)
    out["h_uniformity"] = uniformity
    out.update(developable_residuals(f, g, profile, ds, dt))
    return out


def family_residuals(fam: SolutionFamily, n_nodes: int, dt: float):
    """Compatibility residuals on three family-sampled states around the
    family's center time."""
    grid = Grid1D(1.0, n_nodes)
    return parameter_free_residuals(sample_state(fam, grid, _family_times(fam, dt)),
                                    grid.spacing, dt)


def reduction_chain_residuals(fam: SolutionFamily, n_nodes: int, dt: float):
    """Run the whole reduction chain on a family-sampled rectangle centered
    on the family's center time."""
    grid = Grid1D(1.0, n_nodes)
    return _chain_from(sample_state(fam, grid, _chain_times(fam, n_nodes, dt)),
                       grid.spacing, dt)


def _grid_residuals(fam: SolutionFamily, n_nodes: int, dt: float, flags: str):
    """Family and chain residuals on one grid from one family solve.

    The block's columns are the chain rectangle's times followed by the three
    family times; each element gets the bits of sampling it alone. ``flags``
    names the command-line options a sampling failure is reported against.
    """
    grid = Grid1D(1.0, n_nodes)
    try:
        times = np.concatenate([_chain_times(fam, n_nodes, dt), _family_times(fam, dt)])
        block = sample_state(fam, grid, times)
    except OutOfRangeError as err:
        raise OutOfRangeError(
            f"sampled window [{times.min()}, {times.max()}] ({flags}) leaves the "
            f"family's time range: {err}") from err
    except (ValueError, OverflowError, MemoryError) as err:
        raise SizeError(f"verification grid too large to sample ({flags}): {err}") from err
    return {**parameter_free_residuals(block[:, n_nodes:], grid.spacing, dt),
            **_chain_from(block[:, :n_nodes], grid.spacing, dt)}


def build_report(seed: int = 0, n_nodes: int = 101, dt: float = 1e-2) -> dict:
    """Residuals plus one-refinement convergence orders for a random family."""
    if not 0.0 < dt < np.inf:
        raise InputError(f"dt must be positive and finite, got {dt}")
    # The grid checks the node count before its spacing is used.
    ds = Grid1D(1.0, n_nodes).spacing
    if seed < 0:  # np.random.default_rng's ValueError would name no flag
        raise InputError(f"--seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    fam = random_family(rng)
    h = max(ds, dt)

    flags = f"--grid {n_nodes} --dt {dt}"
    residuals = _grid_residuals(fam, n_nodes, dt, flags)
    fine = _grid_residuals(fam, 2 * (n_nodes - 1) + 1, dt / 2.0, flags)

    orders = {key: float(np.log2(coarse / fine[key])) if coarse > 0.0 and fine[key] > 0.0
              else None for key, coarse in residuals.items()}

    fam_thr = family_threshold(h)
    chain_thr = chain_threshold(h)
    thresholds = {
        "R3": fam_thr, "R4": fam_thr, "R5": 1e-10, "R6": 1e-10,
        "R9": chain_thr, "R10": chain_thr, "R12": chain_thr,
        "h_uniformity": chain_thr,
        "R22": chain_thr, "R23": chain_thr, "R24": chain_thr,
    }
    passed = all(residuals[k] <= thresholds[k] for k in thresholds)
    return {
        "grid": {"Ns": n_nodes, "Nt": n_nodes, "ds": ds, "dt": dt},
        "seed": seed,
        "residuals": residuals,
        "convergence_orders": orders,
        "thresholds": thresholds,
        "pass": passed,
    }
