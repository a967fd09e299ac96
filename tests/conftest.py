import math

import pytest
from hypothesis import settings

from robinlab import fem, geometry

settings.register_profile("suite", deadline=None, max_examples=20)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def disk_closed_form():
    """q=1, n=2, beta=1, R=1 reference values."""
    return {
        "psi0": 0.75,
        "psiR": 0.5,
        "E": -5.0 * math.pi / 16.0,
        "lambda1": 8.0 / (5.0 * math.pi),
    }


@pytest.fixture
def calls(monkeypatch):
    """Call counts of mesh_star, minimize_energy, assemble and
    fraenkel_asymmetry."""
    counts = {}

    def count(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)

        counts[name] = 0
        monkeypatch.setattr(module, name, wrapper)

    count(fem, "mesh_star")
    count(fem, "minimize_energy")
    count(fem, "assemble")
    count(geometry, "fraenkel_asymmetry")
    return counts
