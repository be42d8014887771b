"""Tests for the verification report: one family solve per grid."""

import numpy as np
import pytest

from rodsim import verify
from rodsim.errors import OutOfRangeError
from rodsim.solution_family import random_family
from rodsim.verify import build_report, family_residuals, reduction_chain_residuals


@pytest.fixture
def sample_calls(monkeypatch):
    calls = []
    sample = verify.sample_state

    def counting_sample(*args, **kwargs):
        calls.append(1)
        return sample(*args, **kwargs)

    monkeypatch.setattr(verify, "sample_state", counting_sample)
    return calls


def test_report_samples_each_grid_once(sample_calls):
    # The coarse and the fine grid are each sampled by one solve covering the
    # chain rectangle and the three family times.
    build_report(seed=3, n_nodes=31, dt=6e-2)
    assert len(sample_calls) == 2


def test_family_residuals_sample_once(sample_calls):
    family_residuals(random_family(np.random.default_rng(3)), 31, 6e-2)
    assert len(sample_calls) == 1


@pytest.mark.parametrize("seed", [0, 7, 249])
@pytest.mark.parametrize("n_nodes, dt", [(3, 6e-2), (4, 6e-2), (5, 6e-2),
                                         (31, 6e-2), (64, 1e-3)])
def test_report_residuals_equal_the_public_functions(seed, n_nodes, dt):
    # Every element of the shared block has the bits of sampling its time
    # alone, so the report's residuals are those of the two public functions.
    fam = random_family(np.random.default_rng(seed))
    expected = {**family_residuals(fam, n_nodes, dt),
                **reduction_chain_residuals(fam, n_nodes, dt)}
    residuals = build_report(seed=seed, n_nodes=n_nodes, dt=dt)["residuals"]
    assert list(residuals) == list(expected)
    for key, value in expected.items():
        assert residuals[key] == value, key


def test_window_outside_the_family_names_the_flags():
    with pytest.raises(OutOfRangeError) as err:
        build_report(seed=0, n_nodes=31, dt=5.0)
    message = str(err.value)
    assert message.startswith("sampled window [")
    assert "(--grid 31 --dt 5.0)" in message
    assert "not reachable on [" in message
