"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def tiny():
    """Sizes at which each named experiment runs in well under a second, by kind; the
    adaptedness probe of ``tanaka`` needs 1000 pairs."""
    return {
        "closed-form-d1": dict(N=50, n_steps=16, probe_N=4),
        "closed-form-d2": dict(N=50, n_steps=16, probe_N=4, grid_points=100),
        "rotation-invariance": dict(N=50, n_steps=16, n_seeds=2),
        "tanaka": dict(N=1000, n_steps=64),
        "rho-recovery": dict(cases=[{"d": 1, "c": 0.5}], N=50, n_steps=16),
        "rotation-chop-density": dict(N=50, n_list=(16, 32)),
        "kernel-infeasibility": dict(N=50, n_steps=16),
        "synchronous-1d-optimality": dict(N=50, n_steps=16),
        "optimality-gap": dict(N=50, n_steps=16, probe_N=4),
    }
