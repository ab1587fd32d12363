"""Brute-force full-Hilbert-space reference implementations.

Everything here works on dense 2^N vectors with no sector bookkeeping:
the Hamiltonian is assembled from explicit Pauli operators, evolution
diagonalizes the full matrix, and reduced density matrices come from
literal partial traces.  Deliberately simple and exponentially expensive,
these routines exist to validate the production pipeline (see the CLI
``validate`` subcommand) and the test suite, not to run experiments.
The one exception to the 12-site cap is ``onebody_amplitudes``, which
diagonalizes the N x N single-excitation Hamiltonian: the k=1 oracle at
any N.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.special import xlogy

from .bits import bit_positions
from .errors import CapacityError
from .model import CouplingMatrix, StateVector

FULL_SPACE_MAX_SITES = 12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
# excited site (set bit) carries Z = +1
PAULI_Z = np.array([[-1.0, 0.0], [0.0, 1.0]])

__all__ = [
    "op_at", "full_hamiltonian", "embed_state", "evolve_full",
    "reduced_spectrum_full", "subset_entropy_full", "mutual_information_full",
    "tmi_full", "onebody_amplitudes",
]


def _check_sites(n_sites: int):
    if n_sites > FULL_SPACE_MAX_SITES:
        raise CapacityError(
            f"full-space reference routines are capped at "
            f"{FULL_SPACE_MAX_SITES} sites, got {n_sites}"
        )


def op_at(n_sites: int, site: int, op2: np.ndarray) -> sp.csr_matrix:
    """Single-site operator embedded in the full 2^N space.

    Basis index bit i is the occupation of site i, so the site sits
    between an identity on the higher bits and one on the lower bits.
    """
    _check_sites(n_sites)
    left = sp.identity(1 << (n_sites - 1 - site), format="csr")
    right = sp.identity(1 << site, format="csr")
    return sp.kron(sp.kron(left, sp.csr_matrix(op2)), right, format="csr")


def full_hamiltonian(coupling: CouplingMatrix) -> np.ndarray:
    """Dense sum_{m<n} J_mn (X_m X_n + Y_m Y_n) on the full space."""
    n = coupling.n_sites
    _check_sites(n)
    dim = 1 << n
    acc = sp.csr_matrix((dim, dim), dtype=np.complex128)
    for m in range(n):
        x_m = op_at(n, m, PAULI_X)
        y_m = op_at(n, m, PAULI_Y)
        for k in range(m + 1, n):
            j_mk = coupling.entries[m, k]
            if j_mk == 0.0:
                continue
            acc = acc + j_mk * (x_m @ op_at(n, k, PAULI_X) + y_m @ op_at(n, k, PAULI_Y))
    h = acc.toarray()
    assert np.max(np.abs(h.imag)) < 1e-14
    return np.ascontiguousarray(h.real)


def embed_state(psi: StateVector) -> np.ndarray:
    """Sector state as a full 2^N amplitude vector."""
    _check_sites(psi.basis.n_sites)
    full = np.zeros(1 << psi.basis.n_sites, dtype=np.complex128)
    full[psi.basis.states] = psi.amplitudes
    return full


def evolve_full(coupling: CouplingMatrix, psi_full: np.ndarray,
                times) -> np.ndarray:
    """exp(-iHt)|psi> on the full space for every t, via diagonalization."""
    w, v = eigh(full_hamiltonian(coupling), driver="evd")
    psi = np.asarray(psi_full, dtype=np.complex128)
    # real products throughout: a mixed real-complex one copies v as complex
    coeff = v.T @ psi.real + 1j * (v.T @ psi.imag)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    rows = np.exp(-1j * np.outer(times, w)) * coeff
    return rows.real @ v.T + 1j * (rows.imag @ v.T)


def reduced_spectrum_full(psi_full: np.ndarray, n_sites: int, mask: int) -> np.ndarray:
    """Eigenvalues of the reduced density matrix of the sites in ``mask``.

    Literal partial trace: reshape the vector into one axis per site,
    move the kept sites to the front, contract the rest.
    """
    _check_sites(n_sites)
    psi = np.asarray(psi_full).reshape([2] * n_sites)
    sites = bit_positions(mask)
    # C-order reshape puts site i on axis n_sites - 1 - i
    axes = [n_sites - 1 - s for s in sites]
    psi = np.moveaxis(psi, axes, range(len(axes)))
    m = psi.reshape(1 << len(sites), -1)
    rho = m @ m.conj().T
    return np.linalg.eigvalsh(rho)


def subset_entropy_full(psi_full: np.ndarray, n_sites: int, mask: int) -> float:
    """Von Neumann entropy (bits) of a site subset, from the partial trace."""
    if mask == 0 or mask == (1 << n_sites) - 1:
        return 0.0
    lam = reduced_spectrum_full(psi_full, n_sites, mask)
    lam = lam[lam > 0.0]
    return float(-np.sum(xlogy(lam, lam)) / math.log(2.0))


def mutual_information_full(psi_full: np.ndarray, n_sites: int,
                            a: int, b: int) -> float:
    s = subset_entropy_full
    return (s(psi_full, n_sites, a) + s(psi_full, n_sites, b)
            - s(psi_full, n_sites, a | b))


def tmi_full(psi_full: np.ndarray, n_sites: int, a: int, b: int, c: int) -> float:
    s = subset_entropy_full
    return (s(psi_full, n_sites, a) + s(psi_full, n_sites, b)
            + s(psi_full, n_sites, c) + s(psi_full, n_sites, a | b | c)
            - s(psi_full, n_sites, a | b) - s(psi_full, n_sites, a | c)
            - s(psi_full, n_sites, b | c))


def onebody_amplitudes(coupling: CouplingMatrix, site: int, times) -> np.ndarray:
    """Site amplitudes c_m(t) of one excitation starting at ``site``.

    One diagonalization of h_mn = 2 J_mn serves every time.  Returns an
    (n_times, n_sites) array whose column m is site m, which is also the
    rank of 1 << m in the k=1 sector basis.
    """
    w, v = eigh(2.0 * coupling.entries)
    phases = np.exp(-1j * np.outer(np.asarray(times, dtype=float), w))
    return (phases * v[site]) @ v.T
