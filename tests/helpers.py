"""Test-only constructors of sampled functions and boundary-trace data."""

import numpy as np

from rodsim.grid_fields import SampledFn
from rodsim.solution_family import CauchyTrace


def sampled_fn(fn, lo: float, hi: float, n: int = 256) -> SampledFn:
    """``fn`` sampled on n evenly spaced knots of [lo, hi]."""
    knots = np.linspace(lo, hi, n)
    return SampledFn(knots, np.asarray([fn(u) for u in knots], dtype=float))


def random_trace(rng: np.random.Generator) -> CauchyTrace:
    """Draw nonvanishing boundary-trace data for round-trip checks."""

    def draw():
        base = rng.uniform(0.7, 1.3) * rng.choice([-1.0, 1.0])
        amp = rng.uniform(0.1, 0.4) * abs(base)
        freq = rng.uniform(0.3, 1.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        return lambda t, b=base, a=amp, f=freq, p=phase: b + a * np.cos(f * t + p)

    return CauchyTrace(
        v1_trace=draw(),
        w1_trace=draw(),
        k1_trace=draw(),
        v2_origin=rng.uniform(0.2, 0.9) * rng.choice([-1.0, 1.0]),
    )
