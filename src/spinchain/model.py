"""Long-range XY chain: couplings, excitation-number sectors, Hamiltonian action.

The Hamiltonian is a sum over site pairs of XX+YY terms with power-law
couplings J0/|m-n|^alpha (open boundaries).  It conserves the number of
excited sites, so states live in fixed-excitation sectors spanned by
bitmask basis states; all operations here act inside one sector.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .bits import popcount
from .errors import CapacityError

# Cached sparse Hamiltonians above this sector dimension would dominate
# memory; larger sectors fall back to matrix-free application.
SPARSE_CACHE_THRESHOLD = 200_000

_MAX_SECTOR_DIM = 2**31 - 1


@dataclass(frozen=True)
class ModelSpec:
    """Parameters of the open-boundary long-range XY chain.

    ``alpha`` is the power-law exponent; ``nn_limit`` selects strictly
    nearest-neighbour couplings (the alpha -> infinity limit) and excludes
    a finite ``alpha``.
    """

    n_sites: int
    j0: float = 1.0
    alpha: float | None = None
    nn_limit: bool = False

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError(f"n_sites must be >= 2, got {self.n_sites}")
        if self.j0 <= 0 or not math.isfinite(self.j0):
            raise ValueError(f"j0 must be positive and finite, got {self.j0}")
        if self.nn_limit:
            if self.alpha is not None:
                raise ValueError("nn_limit excludes a finite alpha")
        else:
            if self.alpha is None:
                raise ValueError("alpha required unless nn_limit is set")
            if not math.isfinite(self.alpha) or self.alpha < 0:
                raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric pairwise coupling strengths with their Kac constant.

    ``kac`` is the mean coupling per site, sum_{m<n} J_mn / N; dividing
    time grids by it fixes the average energy per spin across exponents.
    """

    entries: np.ndarray
    kac: float

    @property
    def n_sites(self):
        return self.entries.shape[0]


def coupling_matrix(spec: ModelSpec) -> CouplingMatrix:
    """Build J_mn = J0/|m-n|^alpha (or the nearest-neighbour band)."""
    n = spec.n_sites
    if spec.nn_limit:
        entries = np.zeros((n, n))
        band = np.full(n - 1, spec.j0)
        entries += np.diag(band, k=1) + np.diag(band, k=-1)
    else:
        dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
        np.fill_diagonal(dist, 1.0)  # placeholder, diagonal zeroed below
        entries = spec.j0 / dist**spec.alpha
        np.fill_diagonal(entries, 0.0)
    kac = float(np.sum(entries[np.triu_indices(n, k=1)]) / n)
    return CouplingMatrix(entries=entries, kac=kac)


def sector_dimension(n_sites: int, k: int) -> int:
    """Dimension binomial(n_sites, k) of the k-excitation sector."""
    if not 0 <= k <= n_sites:
        raise ValueError(f"excitation number {k} outside [0, {n_sites}]")
    return math.comb(n_sites, k)


class SectorBasis:
    """Ordered basis of all n_sites-bit masks with exactly k set bits.

    States are stored ascending as integers, so ranks are positions in
    that order and lookups reduce to binary search.
    """

    def __init__(self, n_sites: int, n_excitations: int):
        dim = sector_dimension(n_sites, n_excitations)
        if dim > _MAX_SECTOR_DIM:
            raise CapacityError(
                f"sector ({n_sites}, {n_excitations}) dimension {dim} exceeds "
                f"the addressable index range"
            )
        self.n_sites = n_sites
        self.n_excitations = n_excitations
        self.states = _enumerate_masks(n_sites, n_excitations)
        self.states.flags.writeable = False

    @property
    def dim(self) -> int:
        return len(self.states)

    @property
    def full_mask(self) -> int:
        return (1 << self.n_sites) - 1

    def rank(self, mask: int) -> int:
        """Index of ``mask`` in the basis; KeyError if absent."""
        i = int(np.searchsorted(self.states, mask))
        if i >= self.dim or self.states[i] != mask:
            raise KeyError(f"mask {mask:#b} not in sector ({self.n_sites}, {self.n_excitations})")
        return i

    def rank_many(self, masks) -> np.ndarray:
        """Vectorized rank lookup; assumes every mask belongs to the sector."""
        return np.searchsorted(self.states, masks)

    def __repr__(self):
        return f"SectorBasis(n_sites={self.n_sites}, k={self.n_excitations}, dim={self.dim})"


def _enumerate_masks(n: int, k: int) -> np.ndarray:
    dim = math.comb(n, k)
    out = np.empty(dim, dtype=np.int64)
    if k == 0:
        out[0] = 0
        return out
    v = (1 << k) - 1
    for i in range(dim):
        out[i] = v
        # Gosper's hack: next-larger integer with the same popcount
        low = v & -v
        ripple = v + low
        v = ripple | (((v ^ ripple) >> 2) // low)
    return out


@lru_cache(maxsize=None)
def enumerate_sector(n_sites: int, k: int) -> SectorBasis:
    """Cached sector basis for (n_sites, k)."""
    return SectorBasis(n_sites, k)


@dataclass
class StateVector:
    """Complex amplitudes over a sector basis."""

    basis: SectorBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (self.basis.dim,):
            raise ValueError(
                f"amplitude length {self.amplitudes.shape} does not match "
                f"sector dimension {self.basis.dim}"
            )

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "StateVector":
        return StateVector(self.basis, self.amplitudes.copy())


def neel_state(basis: SectorBasis) -> StateVector:
    """Alternating product state |0101...> (odd sites excited)."""
    n = basis.n_sites
    if basis.n_excitations != n // 2:
        raise ValueError(
            f"Neel state lives in the k={n // 2} sector, got k={basis.n_excitations}"
        )
    mask = sum(1 << i for i in range(1, n, 2))
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[basis.rank(mask)] = 1.0
    return StateVector(basis, amps)


def single_excitation_state(basis: SectorBasis, site: int) -> StateVector:
    """One excitation localized at ``site``."""
    if basis.n_excitations != 1:
        raise ValueError(f"single excitation lives in the k=1 sector, got k={basis.n_excitations}")
    if not 0 <= site < basis.n_sites:
        raise ValueError(f"site {site} outside [0, {basis.n_sites})")
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[basis.rank(1 << site)] = 1.0
    return StateVector(basis, amps)


class SectorHamiltonian:
    """Action of the XY Hamiltonian restricted to one excitation sector.

    Each coupled pair (m, n) hops an excitation between the two sites with
    amplitude 2*J_mn; doubly occupied or empty pairs contribute nothing, and
    there is no diagonal part.  A sparse matrix is cached for repeated use
    when the sector dimension is at most ``sparse_threshold``; larger
    sectors are applied matrix-free.
    """

    def __init__(self, coupling: CouplingMatrix, basis: SectorBasis,
                 sparse_threshold: int = SPARSE_CACHE_THRESHOLD):
        if coupling.n_sites != basis.n_sites:
            raise ValueError(
                f"coupling is for {coupling.n_sites} sites, basis for {basis.n_sites}"
            )
        self.coupling = coupling
        self.basis = basis
        self.sparse_threshold = sparse_threshold
        self._pairs = [
            (m, n, 2.0 * coupling.entries[m, n])
            for m in range(basis.n_sites)
            for n in range(m + 1, basis.n_sites)
            if coupling.entries[m, n] != 0.0
        ]
        self._matrix = None

    @property
    def dim(self) -> int:
        return self.basis.dim

    def matrix(self) -> sp.csr_matrix:
        """Sector Hamiltonian as a real symmetric CSR matrix (built lazily)."""
        if self._matrix is None:
            states = self.basis.states
            rows, cols, vals = [], [], []
            for m, n, amp in self._pairs:
                pair_mask = (1 << m) | (1 << n)
                sel = np.nonzero(((states >> m) ^ (states >> n)) & 1)[0]
                partners = self.basis.rank_many(states[sel] ^ pair_mask)
                rows.append(partners)
                cols.append(sel)
                vals.append(np.full(len(sel), amp))
            if rows:
                rows = np.concatenate(rows)
                cols = np.concatenate(cols)
                vals = np.concatenate(vals)
            mat = sp.csr_matrix((vals, (rows, cols)), shape=(self.dim, self.dim))
            self._matrix = mat
        return self._matrix

    def dense(self) -> np.ndarray:
        return self.matrix().toarray()

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """H @ vec inside the sector; ``vec`` is (dim,) or (dim, n_columns)."""
        vec = np.asarray(vec)
        if self.dim <= self.sparse_threshold:
            mat = self.matrix()
            if np.iscomplexobj(vec):
                # two real matvecs avoid per-call dtype upcasts of the matrix
                return mat @ vec.real + 1j * (mat @ vec.imag)
            return mat @ vec
        out = np.zeros(vec.shape, dtype=np.complex128)
        states = self.basis.states
        for m, n, amp in self._pairs:
            pair_mask = (1 << m) | (1 << n)
            sel = np.nonzero(((states >> m) ^ (states >> n)) & 1)[0]
            partners = self.basis.rank_many(states[sel] ^ pair_mask)
            out[partners] += amp * vec[sel]
        return out

    def expectation(self, vec: np.ndarray) -> float:
        """Real energy <vec|H|vec>."""
        return float(np.vdot(vec, self.apply(vec)).real)


def apply_hamiltonian(coupling: CouplingMatrix, basis: SectorBasis,
                      psi: StateVector) -> StateVector:
    """H |psi> restricted to the sector (result is not normalized)."""
    if psi.basis is not basis and psi.basis.states is not basis.states:
        if (psi.basis.n_sites, psi.basis.n_excitations) != (basis.n_sites, basis.n_excitations):
            raise ValueError("state does not live on the given basis")
    return StateVector(basis, SectorHamiltonian(coupling, basis).apply(psi.amplitudes))


def total_excitation_mask_weight(basis: SectorBasis) -> np.ndarray:
    """Eigenvalues of sum_m Z_m per basis state (Z|1> = +|1>, Z|0> = -|0>)."""
    return 2.0 * popcount(basis.states) - basis.n_sites
