"""Shared fixtures: small evolved states reused across test modules."""

import numpy as np
import pytest

from spinchain import (
    CouplingMatrix,
    ModelSpec,
    StateVector,
    coupling_matrix,
    enumerate_sector,
    evolve,
    neel_state,
    runs,
)


@pytest.fixture(autouse=True)
def fresh_run_setup():
    """Every test sets its runs up afresh: a cached set-up would outlive the
    patches and the budget of the test that built it."""
    yield
    runs._setup.cache_clear()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def basis6():
    return enumerate_sector(6, 3)


@pytest.fixture(scope="session")
def basis8():
    return enumerate_sector(8, 4)


def random_sector_state(basis, rng):
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    amps /= np.linalg.norm(amps)
    return amps


def skewed_coupling(n_sites, alpha=0.6):
    """Power-law couplings with the (0, 1) bond strengthened: not reflection symmetric."""
    coupling = coupling_matrix(ModelSpec(n_sites, alpha=alpha))
    entries = coupling.entries.copy()
    entries[0, 1] = entries[1, 0] = 1.5
    return CouplingMatrix(entries=entries, kac=coupling.kac)


@pytest.fixture(scope="session")
def evolved8(basis8):
    """Half-filling N=8 Neel quench at a mid-window time, alpha=0.6."""
    coupling = coupling_matrix(ModelSpec(8, alpha=0.6))
    states = evolve(coupling, neel_state(basis8), np.array([0.0, 1.7]))
    return StateVector(basis8, states[1])


def lookup_masks(pset):
    """The seven subset masks entering every triple's TMI: rows A, B, C, AB, AC, BC, ABC."""
    a, b, c = pset.a, pset.b, pset.c
    return np.stack([a, b, c, a | b, a | c, b | c, a | b | c])
