"""Shared fixtures: the named fixture zoo plus seeded random families."""

import pytest

from families import fixture_zoo, random_system


@pytest.fixture(scope="session")
def zoo():
    return fixture_zoo()


@pytest.fixture(scope="session")
def seeded_families():
    """200 seeded random families, universe <= 8, <= 64 sets."""
    out = []
    for i in range(200):
        universe = 2 + i % 7  # 2..8
        out.append(random_system(universe, 64, seed=1000 + i))
    return out
