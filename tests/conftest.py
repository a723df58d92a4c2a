import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from dtnlab import (
    Exterior2D,
    HalfLine1D,
    assemble_operator,
    build_domain,
    well_potential,
    zero_potential,
)

# derandomized property tests that keep no example database: the same draws
# on every run
settings.register_profile("dtnlab", derandomize=True, database=None, deadline=None)
settings.load_profile("dtnlab")


def pytest_configure(config):
    """Hypothesis caches the constants it reads from the sources on disk: keep
    that cache in pytest's cache directory, not in a .hypothesis/ here."""
    if hasattr(config, "cache"):
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))


@pytest.fixture(scope="session")
def t1():
    """Half-line toy model: h = 1, L = 3, q = 0; A_II = [[2,-1],[-1,2]]."""
    dom = build_domain(HalfLine1D(h=1.0, L=3.0))
    return dom, assemble_operator(dom, zero_potential(dom))


@pytest.fixture(scope="session")
def annulus2d():
    """Square annulus: 3x3-node obstacle inside a 15x15 box, h = 1."""
    dom = build_domain(Exterior2D(h=1.0, a=1.5, L=7.5))
    return dom, assemble_operator(dom, zero_potential(dom))


@pytest.fixture(scope="session")
def reduced_annulus():
    """Square annulus: 3x3-node obstacle inside a 9x9 box, h = 1."""
    dom = build_domain(Exterior2D(h=1.0, a=1.5, L=4.5))
    return dom, assemble_operator(dom, zero_potential(dom))


@pytest.fixture(scope="session")
def well1d():
    """1D well model: q = -2 on x < 1, h = 0.05, L = 20."""
    dom = build_domain(HalfLine1D(h=0.05, L=20.0))
    return dom, assemble_operator(dom, well_potential(dom, depth=2.0, width=1.0))


@pytest.fixture(scope="session")
def freeline():
    """Truncated free half-line used to emulate continuous spectrum."""
    dom = build_domain(HalfLine1D(h=0.05, L=60.0))
    return dom, assemble_operator(dom, zero_potential(dom))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
