"""Quench time evolution inside an excitation sector.

One path serves every sector size: a truncated Taylor series with
scaling (Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 488, 2011) applies
exp(-iH dt) to the state across each grid interval, driving the sector
Hamiltonian through its ``apply`` (products with its CSR matrix).  The
series degree and the number of substeps come from the exact 1-norm of
H, one product per ``evolve`` call.  The single-excitation helpers
diagonalize the N x N hopping matrix instead.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

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


# theta_m for double precision: ||t A||_1 <= theta_m bounds the backward
# error of the degree-m Taylor series by 2^-53.  m <= 30 from Higham,
# Functions of Matrices (SIAM, 2008), Table A.3; m = 35..55 from Al-Mohy
# and Higham (2011), Table 3.1
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
_TOL = 2.0**-53


def _taylor_plan(norm: float) -> tuple:
    """Degree m and substeps s minimising m*s for ||t A||_1 = ``norm``.

    Code fragment (3.1) of Al-Mohy and Higham (2011) with the exact
    1-norm, which also bounds the alpha_p their condition (3.13) would
    otherwise estimate: alpha_p <= ||t A||_1.
    """
    return min(((m, max(math.ceil(norm / theta), 1)) for m, theta in _THETA.items()),
               key=lambda ms: ms[0] * ms[1])


def _taylor_step(apply, psi: np.ndarray, dt: float, norm1: float) -> np.ndarray:
    """exp(-i H dt) psi, with ``apply`` computing H @ v and norm1 = ||H||_1.

    Algorithm 3.2 of Al-Mohy and Higham (2011) for A = -i H: s substeps
    of a degree-m Taylor series, each ended early once two successive
    terms fall below 2^-53 of the partial sum.  H has zero trace, so no
    shift is taken.
    """
    m, s = _taylor_plan(dt * norm1)
    f = psi
    for _ in range(s):
        term = f
        c1 = np.abs(term).max()
        for j in range(m):
            term = (-1j * dt / (s * (j + 1))) * apply(term)
            c2 = np.abs(term).max()
            f = f + term
            if c1 + c2 <= _TOL * np.abs(f).max():
                break
            c1 = c2
    return f


def evolve(coupling: CouplingMatrix, basis: SectorBasis, psi0: StateVector,
           grid: TimeGrid) -> Trajectory:
    """States exp(-iHt)|psi0> at every grid time.

    Each grid interval is one scaled Taylor step (``_taylor_step``) on
    the sector Hamiltonian's ``apply``, so non-uniform grids need no
    special case.  H is real, symmetric and entrywise nonnegative, so
    its exact 1-norm is max(H @ 1): one product per call, and the only
    one that does not propagate.  A coupling with a negative entry
    raises ValueError, since that norm would then be too small.
    """
    if np.any(coupling.entries < 0):
        raise ValueError("couplings must be nonnegative")
    _check_state(basis, psi0)
    ham = SectorHamiltonian(coupling, basis)
    norm1 = float(ham.apply(np.ones(basis.dim)).real.max())
    times = grid.physical_times(coupling.kac)
    out = np.empty((len(times), basis.dim), dtype=np.complex128)
    psi = psi0.amplitudes
    t_now = 0.0
    for i, t in enumerate(times):
        if t > t_now:
            psi = _taylor_step(ham.apply, psi, t - t_now, norm1)
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
