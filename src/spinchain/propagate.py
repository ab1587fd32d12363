"""Quench time evolution inside an excitation sector.

One path serves every sector size: scipy's expm_multiply applies
exp(-iH dt) to the state across each grid interval, driving the sector
Hamiltonian through its ``apply`` (cached CSR or matrix-free, as the
model chooses).  The single-excitation helpers diagonalize the N x N
hopping matrix instead.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.sparse.linalg import LinearOperator, expm_multiply

from .model import (CouplingMatrix, SectorBasis, SectorHamiltonian,
                    StateVector)

__all__ = [
    "TimeGrid", "Trajectory", "evolve", "onebody_amplitudes", "onebody_hamiltonian",
]


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing, nonnegative sample times.

    When ``kac_rescaled`` is set the stored values are understood as
    t * K (K the Kac constant) and must be divided by K before use as
    physical times; ``physical_times`` does exactly that.
    """

    times: np.ndarray
    kac_rescaled: bool = False

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or len(times) == 0:
            raise ValueError("times must be a nonempty 1d array")
        if not np.all(np.isfinite(times)):
            raise ValueError("times must be finite")
        if times[0] < 0:
            raise ValueError("times must be nonnegative")
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        times.flags.writeable = False
        object.__setattr__(self, "times", times)

    @classmethod
    def linspace(cls, t_max: float, n_points: int, kac_rescaled: bool = False) -> "TimeGrid":
        if t_max <= 0 or n_points < 2:
            raise ValueError("need t_max > 0 and at least two points")
        return cls(np.linspace(0.0, t_max, n_points), kac_rescaled=kac_rescaled)

    def physical_times(self, kac: float) -> np.ndarray:
        """Times in inverse-coupling units, undoing Kac rescaling if any."""
        return self.times / kac if self.kac_rescaled else self.times.copy()

    def __len__(self):
        return len(self.times)


@dataclass
class Trajectory:
    """States sampled along a time grid, stacked row-wise."""

    grid: TimeGrid
    basis: SectorBasis
    states: np.ndarray  # (n_times, dim) complex

    def state_at(self, i: int) -> StateVector:
        return StateVector(self.basis, self.states[i].copy())

    def __len__(self):
        return len(self.grid)


def _check_state(basis: SectorBasis, psi0: StateVector):
    if psi0.amplitudes.shape != (basis.dim,):
        raise ValueError("initial state does not match the sector dimension")
    if abs(psi0.norm - 1.0) > 1e-10:
        raise ValueError(f"initial state is not normalized (norm {psi0.norm})")


def evolve(coupling: CouplingMatrix, basis: SectorBasis, psi0: StateVector,
           grid: TimeGrid, engine: str = "auto") -> Trajectory:
    """States exp(-iHt)|psi0> at every grid time.

    Each grid interval is one call of scipy's expm_multiply (Al-Mohy and
    Higham, SIAM J. Sci. Comput. 33, 2011) on the sector Hamiltonian's
    ``apply``, so non-uniform grids need no special case.  H has no
    diagonal, hence the exact trace 0.  ``engine`` stays for callers that
    name one: 'auto', 'dense' and 'krylov' all run this same path, and any
    other name raises ValueError.
    """
    if engine not in ("auto", "dense", "krylov"):
        raise ValueError(f"unknown engine {engine!r}")
    _check_state(basis, psi0)
    ham = SectorHamiltonian(coupling, basis)
    # H is real symmetric, so its adjoint (used by the 1-norm estimate) is H
    op = LinearOperator((basis.dim, basis.dim), matvec=ham.apply,
                        rmatvec=ham.apply, dtype=np.complex128)
    times = grid.physical_times(coupling.kac)
    out = np.empty((len(times), basis.dim), dtype=np.complex128)
    psi = psi0.amplitudes
    t_now = 0.0
    for i, t in enumerate(times):
        if t > t_now:
            psi = expm_multiply(-1j * (t - t_now) * op, psi, traceA=0.0)
            t_now = t
        out[i] = psi
    return Trajectory(grid=grid, basis=basis, states=out)


def onebody_hamiltonian(coupling: CouplingMatrix) -> np.ndarray:
    """Single-excitation Hamiltonian h_mn = 2 J_mn (zero diagonal)."""
    return 2.0 * coupling.entries


def onebody_amplitudes(coupling: CouplingMatrix, site: int, times: np.ndarray) -> np.ndarray:
    """Site amplitudes c_m(t) for an excitation starting at ``site``.

    Returns an (n_times, n_sites) array; one diagonalization serves all
    times.
    """
    w, v = eigh(onebody_hamiltonian(coupling))
    coeff = v[site]  # v.T @ e_site
    phases = np.exp(-1j * np.outer(np.asarray(times, dtype=float), w))
    return (phases * coeff) @ v.T
