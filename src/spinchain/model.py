"""Long-range XY chain: couplings, excitation-number sectors, Hamiltonian action.

The Hamiltonian is a sum over site pairs of XX+YY terms with power-law
couplings J0/|m-n|^alpha (open boundaries).  It conserves the number of
excited sites, so states live in fixed-excitation sectors spanned by
bitmask basis states; all operations here act inside one sector, where
H is applied through one CSR matrix.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .bits import reverse_bits
from .errors import check_budget


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
        # 8 B per int64 mask: the budget admits at most 2^28 states, so every
        # rank also fits the int32 indices of the sector's CSR matrix
        check_budget(f"sector ({n_sites}, {n_excitations}) has {dim:,} states",
                     8 * dim, "as int64 masks")
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


def reflection_invariant(coupling: CouplingMatrix, psi0: StateVector) -> bool:
    """True when the quench of ``psi0`` under ``coupling`` commutes with reflection.

    R takes site i to N-1-i.  Both the couplings and the amplitudes must
    equal their image under R, or, at half filling, the amplitudes under
    R times the global spin flip F, which commutes with H and acts site
    by site.  Then S_X = S_R(X) at every time; the Neel state passes at
    every N.
    """
    if not np.array_equal(coupling.entries, coupling.entries[::-1, ::-1]):
        return False
    basis, amps = psi0.basis, psi0.amplitudes
    mirrored = reverse_bits(basis.states, basis.n_sites)
    images = [mirrored]
    if 2 * basis.n_excitations == basis.n_sites:
        images.append(basis.full_mask ^ mirrored)
    return any(np.array_equal(amps[basis.rank_many(image)], amps) for image in images)


class SectorHamiltonian:
    """Action of the XY Hamiltonian restricted to one excitation sector.

    Each coupled pair (m, n) hops an excitation between the two sites with
    amplitude 2*J_mn; doubly occupied or empty pairs contribute nothing, and
    there is no diagonal part.  H is applied through its CSR matrix, built
    on first use.  A hop from site e to site f acts on the C(N-2, k-1)
    states with e excited and f empty, so the matrix size is known before
    the build, and construction raises CapacityError when it exceeds the
    memory budget.
    """

    def __init__(self, coupling: CouplingMatrix, basis: SectorBasis):
        if coupling.n_sites != basis.n_sites:
            raise ValueError(
                f"coupling is for {coupling.n_sites} sites, basis for {basis.n_sites}"
            )
        self.coupling = coupling
        self.basis = basis
        n, k = basis.n_sites, basis.n_excitations
        # (e, f, amplitude) per hop, which takes state s to s + 2^f - 2^e;
        # ordered by that shift, so filling rows hop by hop sorts them
        self._hops = sorted(
            ((e, f, 2.0 * coupling.entries[e, f]) for e in range(n) for f in range(n)
             if e != f and coupling.entries[e, f] != 0.0),
            key=lambda hop: (1 << hop[1]) - (1 << hop[0]))
        self.nnz = len(self._hops) * (math.comb(n - 2, k - 1) if k else 0)
        # float64 data and int32 indices per nonzero, int32 row pointers
        self.nbytes = 12 * self.nnz + 4 * (self.dim + 1)
        check_budget(f"sector ({n}, {k}) Hamiltonian has {self.nnz:,} nonzeros",
                     self.nbytes, "as a CSR matrix")
        self._matrix = None

    @property
    def dim(self) -> int:
        return self.basis.dim

    def matrix(self) -> sp.csr_matrix:
        """Sector Hamiltonian as a real symmetric CSR matrix (built lazily).

        Rows are counted first, so the arrays are allocated at their final
        size, then filled hop by hop.
        """
        if self._matrix is None:
            states = self.basis.states

            def hopped(e, f):  # 1 where site e is excited and site f empty
                return (states >> e) & ~(states >> f) & 1

            indptr = np.zeros(self.dim + 1, dtype=np.int32)
            for e, f, _ in self._hops:
                indptr[1:] += hopped(e, f)
            np.cumsum(indptr, out=indptr)
            indices = np.empty(self.nnz, dtype=np.int32)
            data = np.empty(self.nnz)
            fill = indptr[:-1].copy()
            for e, f, amp in self._hops:
                sel = np.flatnonzero(hopped(e, f))
                slots = fill[sel]
                indices[slots] = self.basis.rank_many(states[sel] + ((1 << f) - (1 << e)))
                data[slots] = amp
                fill[sel] = slots + 1
            self._matrix = sp.csr_matrix((data, indices, indptr), shape=(self.dim, self.dim))
        return self._matrix

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """H @ vec inside the sector; ``vec`` is (dim,) or (dim, n_columns)."""
        vec = np.asarray(vec)
        mat = self.matrix()
        if np.iscomplexobj(vec):
            # two real matvecs avoid per-call dtype upcasts of the matrix
            return mat @ vec.real + 1j * (mat @ vec.imag)
        return mat @ vec

    def expectation(self, vec: np.ndarray) -> float:
        """Real energy <vec|H|vec>."""
        return float(np.vdot(vec, self.apply(vec)).real)
