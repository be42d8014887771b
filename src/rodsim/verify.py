"""End-to-end numerical verification of the analytic claims.

Builds a JSON-able report: residuals of the compatibility subsystem on
family-sampled data, the full potential/developable reduction chain, and
convergence orders under one grid refinement.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
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


def family_residuals(fam: SolutionFamily, n_nodes: int, dt: float):
    """Compatibility residuals on three family-sampled states around the
    family's center time."""
    grid = Grid1D(1.0, n_nodes)
    t0 = _center_time(fam)
    states = [sample_state(fam, grid, t0 + k * dt) for k in (-1, 0, 1)]
    return parameter_free_residuals(states[0], states[1], states[2], dt)


def reduction_chain_residuals(fam: SolutionFamily, n_nodes: int, dt: float):
    """Run the whole reduction chain on a family-sampled rectangle centered
    on the family's center time."""
    grid = Grid1D(1.0, n_nodes)
    t_lo = _center_time(fam) - 0.5 * (n_nodes - 1) * dt
    rect = sample_state(fam, grid, t_lo + np.arange(n_nodes) * dt)
    ds = grid.spacing
    _, _, f, g = reconstruct_potentials(rect.curvature, rect.ang_vel, rect.lin_vel, ds, dt)
    out = potential_system_residuals(f, g, ds, dt)
    profile, uniformity = extract_speed_profile(f, g, dt)
    out["h_uniformity"] = uniformity
    out.update(developable_residuals(f, g, profile, ds, dt))
    return out


def build_report(seed: int = 0, n_nodes: int = 101, dt: float = 1e-2) -> dict:
    """Residuals plus one-refinement convergence orders for a random family."""
    if not 0.0 < dt < np.inf:
        raise InputError(f"dt must be positive and finite, got {dt}")
    # The grid checks the node count before its spacing is used.
    ds = Grid1D(1.0, n_nodes).spacing
    rng = np.random.default_rng(seed)
    fam = random_family(rng)
    h = max(ds, dt)

    residuals = {}
    residuals.update(family_residuals(fam, n_nodes, dt))
    residuals.update(reduction_chain_residuals(fam, n_nodes, dt))

    fine_nodes = 2 * (n_nodes - 1) + 1
    fine = {}
    fine.update(family_residuals(fam, fine_nodes, dt / 2.0))
    fine.update(reduction_chain_residuals(fam, fine_nodes, dt / 2.0))

    orders = {}
    for key, coarse_val in residuals.items():
        fine_val = fine[key]
        if coarse_val > 0.0 and fine_val > 0.0:
            orders[key] = float(np.log2(coarse_val / fine_val))
        else:
            orders[key] = None

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
