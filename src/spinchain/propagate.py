"""Quench time evolution inside an excitation sector.

One path serves every sector size and every grid: a Chebyshev expansion
of exp(-iHt) (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967, 1984) whose
vectors T_k(H/R) psi0 come from one three-term recurrence on the sector
Hamiltonian's ``apply``, weighted by Bessel coefficients J_k(Rt) into
the state at each sample time.  The single-excitation sector takes the
same path as every other.
"""

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.special import jv

from .errors import check_budget
from .model import (CouplingMatrix, SectorBasis, SectorHamiltonian,
                    StateVector)

__all__ = ["Trajectory", "evolve"]


@dataclass
class Trajectory:
    """States at a sequence of physical times, stacked row-wise."""

    times: np.ndarray
    basis: SectorBasis
    states: np.ndarray  # (n_times, dim) complex

    def state_at(self, i: int) -> StateVector:
        return StateVector(self.basis, self.states[i].copy())

    def __len__(self):
        return len(self.times)


def _check_state(basis: SectorBasis, psi0: StateVector):
    if psi0.amplitudes.shape != (basis.dim,):
        raise ValueError("initial state does not match the sector dimension")
    if abs(psi0.norm - 1.0) > 1e-10:
        raise ValueError(f"initial state is not normalized (norm {psi0.norm})")


# Coefficients below 2^-53 change no amplitude of a unit-norm state in
# double precision, since every ||T_k(H/R)|| <= 1
_CUT = 2.0**-53
# T_k vectors folded into the trajectory per GEMV: at N=16, 16 folded no
# faster than 8 at 1.6 MB more peak RSS, and 1 folded fig2's grid 4x slower
_BLOCK = 8


def _chebyshev_coefficients(z: np.ndarray) -> np.ndarray:
    """c_k(z) in exp(-i z x) = sum_k c_k(z) T_k(x) on [-1, 1], a row per z.

    c_0 = J_0(z) and c_k = 2 (-i)^k J_k(z).  Columns are kept until one,
    past k = max(z), has |c_k| < 2^-53 at every z; past k = z, J_k(z)
    falls with k, so no later column reaches the cut either.
    """
    columns = []
    for k in itertools.count():
        c = (2.0 if k else 1.0) * (1, -1j, -1, 1j)[k % 4] * jv(k, z)
        if k > z.max() and np.abs(c).max() < _CUT:
            return np.stack(columns, axis=1)
        columns.append(c)


def check_sizes(coupling: CouplingMatrix, basis: SectorBasis, n_times: int):
    """The sector Hamiltonian, unbuilt, once it and ``n_times`` states pass their byte guards."""
    ham = SectorHamiltonian(coupling, basis)
    check_budget(f"sector ({basis.n_sites}, {basis.n_excitations}) trajectory has "
                 f"{n_times} states of {basis.dim:,} amplitudes",
                 16 * (n_times + _BLOCK) * basis.dim, "with its Chebyshev vectors")
    return ham


def evolve(coupling: CouplingMatrix, basis: SectorBasis, psi0: StateVector,
           times) -> Trajectory:
    """States exp(-iHt)|psi0> at each of ``times``, from one Chebyshev series.

    ``times`` is a 1-D array of physical times, nonempty, finite,
    nonnegative and strictly increasing; anything else raises ValueError
    before any allocation.  exp(-iHt) psi0 = sum_k c_k(Rt) T_k(H/R) psi0
    (Tal-Ezer and Kosloff, 1984; Weisse et al., Rev. Mod. Phys. 78, 275,
    2006).  The vectors T_k(H/R) psi0 do not depend on t, so one three-term
    recurrence on the sector Hamiltonian's ``apply`` serves every time,
    uniform or not.  H is real, symmetric and entrywise nonnegative, so
    R = max(H @ 1) is its exact 1-norm and bounds every ||T_k(H/R)|| by 1;
    a negative coupling raises ValueError.  check_sizes refuses the
    Hamiltonian or the trajectory in bytes before any product.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a nonempty 1d array")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if times[0] < 0:
        raise ValueError("times must be nonnegative")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    if np.any(coupling.entries < 0):
        raise ValueError("couplings must be nonnegative")
    _check_state(basis, psi0)
    ham = check_sizes(coupling, basis, len(times))
    dim = basis.dim
    radius = float(ham.apply(np.ones(dim)).real.max())
    coef = _chebyshev_coefficients(radius * times)
    out = np.zeros((len(times), dim), dtype=np.complex128)
    block = np.empty((_BLOCK, dim), dtype=np.complex128)
    prev, cur = None, psi0.amplitudes
    for k in range(coef.shape[1]):
        if k:  # T_1 = (H/R) T_0, T_{k+1} = 2 (H/R) T_k - T_{k-1}
            prev, cur = cur, ham.apply(cur) * (min(k, 2) / radius) - (prev if k > 1 else 0)
        block[k % _BLOCK] = cur
        if k % _BLOCK == _BLOCK - 1 or k == coef.shape[1] - 1:
            lo = k - k % _BLOCK
            for row, c in zip(out, coef[:, lo:k + 1]):
                row += c @ block[:k + 1 - lo]
    return Trajectory(times=times, basis=basis, states=out)
