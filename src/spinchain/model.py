"""Long-range XY chain: couplings, excitation-number sectors, Hamiltonian action.

The Hamiltonian is a sum over site pairs of XX+YY terms with power-law
couplings J0/|m-n|^alpha (open boundaries).  It conserves the number of
excited sites, so states live in fixed-excitation sectors spanned by
bitmask basis states; all operations here act inside one sector, where
H is applied through one CSR matrix of its strict upper triangle.
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
    that order.
    """

    def __init__(self, n_sites: int, n_excitations: int):
        dim = sector_dimension(n_sites, n_excitations)
        half = n_sites // 2
        # 8 B per int64 mask and per rank-table entry: the budget admits at
        # most 2^28 states, so every rank also fits the int32 indices of the
        # sector's CSR matrix
        check_budget(f"sector ({n_sites}, {n_excitations}) has {dim:,} states",
                     8 * (dim + (1 << half) + (1 << (n_sites - half))),
                     "as int64 masks and rank tables")
        self.n_sites = n_sites
        self.n_excitations = n_excitations
        self.states = _enumerate_masks(n_sites, n_excitations)
        self.states.flags.writeable = False
        # Lin's two tables (PRB 42, 6561, 1990) over the bits below and from
        # ``half``: the states before each high half, and each low half's
        # rank among the low halves of its popcount
        self._half = half
        self._offset = np.searchsorted(self.states, np.arange(1 << (n_sites - half)) << half)
        low = np.bitwise_count(np.arange(1 << half))
        self._rank_lo = np.empty(1 << half, dtype=np.int64)
        for p in range(half + 1):
            self._rank_lo[low == p] = np.arange(math.comb(half, p))

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
        """Vectorized rank lookup; assumes every mask belongs to the sector.

        A mask's rank is the number of states with a smaller high half
        (bits n_sites // 2 and up) plus its low half's rank among the low
        halves with the same popcount, two table gathers per mask.
        """
        masks = np.asarray(masks, dtype=np.int64)
        return self._offset[masks >> self._half] + self._rank_lo[masks & ((1 << self._half) - 1)]

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
    there is no diagonal part.  H is real symmetric with a zero diagonal, so
    only its strict upper triangle U is stored, as one CSR matrix built on
    first use, and H = U + U^T is applied to real vectors.  In the ascending
    basis U holds exactly the hops from a site e to a higher site f, which
    act on the C(N-2, k-1) states with e excited and f empty, so the matrix
    size is known before the build, and construction raises CapacityError
    when it exceeds the memory budget.  The build enumerates each hop's
    states directly and ranks them with the basis's two tables.
    """

    def __init__(self, coupling: CouplingMatrix, basis: SectorBasis):
        if coupling.n_sites != basis.n_sites:
            raise ValueError(
                f"coupling is for {coupling.n_sites} sites, basis for {basis.n_sites}"
            )
        self.coupling = coupling
        self.basis = basis
        n, k = basis.n_sites, basis.n_excitations
        # (e, f, amplitude) per upward hop, which takes state s to the larger
        # s + 2^f - 2^e; ordered by that shift, so filling rows hop by hop
        # sorts them
        self._hops = sorted(
            ((e, f, 2.0 * coupling.entries[e, f]) for e in range(n) for f in range(e + 1, n)
             if coupling.entries[e, f] != 0.0),
            key=lambda hop: (1 << hop[1]) - (1 << hop[0]))
        self.nnz = len(self._hops) * (math.comb(n - 2, k - 1) if k else 0)
        # float64 data and int32 indices per nonzero, int32 row pointers
        self.nbytes = 12 * self.nnz + 4 * (self.dim + 1)
        check_budget(f"sector ({n}, {k}) Hamiltonian has {self.nnz:,} nonzeros",
                     self.nbytes, "as a CSR matrix")
        self._matrix = self._transpose = None

    @property
    def dim(self) -> int:
        return self.basis.dim

    def matrix(self) -> sp.csr_matrix:
        """Strict upper triangle U of the sector Hamiltonian, H = U + U^T, as CSR (built lazily).

        Rows are counted first, so the arrays are allocated at their final
        size, then filled hop by hop.  Hop (e, f) acts on the states with e
        excited and f empty: the (N-2, k-1) sector's masks with zero bits
        inserted at e and f, then bit e set.
        """
        if self._matrix is None:
            states, n = self.basis.states, self.basis.n_sites
            reach = [0] * n  # per site, the mask of higher sites it hops to
            for e, f, _ in self._hops:
                reach[e] |= 1 << f
            # a row's entries: per excited site e, the higher empty sites e hops to
            counts = sum(((states >> e) & 1) * np.bitwise_count(~states & reach[e])
                         for e in range(n))
            indptr = np.zeros(self.dim + 1, dtype=np.int32)
            np.cumsum(counts, out=indptr[1:])
            indices = np.empty(self.nnz, dtype=np.int32)
            data = np.empty(self.nnz)
            if self.nnz:
                fill = indptr[:-1].copy()
                rest = enumerate_sector(n - 2, self.basis.n_excitations - 1).states
                for e, f, amp in self._hops:
                    src = _insert_zero(_insert_zero(rest, e), f) | (1 << e)
                    rows = self.basis.rank_many(src)
                    slots = fill[rows]
                    indices[slots] = self.basis.rank_many(src + ((1 << f) - (1 << e)))
                    data[slots] = amp
                    fill[rows] = slots + 1
            self._matrix = sp.csr_matrix((data, indices, indptr), shape=(self.dim, self.dim))
            self._transpose = self._matrix.T  # a CSC view of the same arrays
        return self._matrix

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """H @ vec = U @ vec + U^T @ vec for a real ``vec`` of shape (dim,) or (dim, n_columns)."""
        out = self.matrix() @ vec
        out += self._transpose @ vec
        return out

    def expectation(self, vec: np.ndarray) -> float:
        """Real energy <vec|H|vec>: H is real symmetric, so the cross terms cancel."""
        vec = np.asarray(vec)
        return float(sum(part @ self.apply(part) for part in (vec.real, vec.imag)))


def _insert_zero(masks: np.ndarray, bit: int) -> np.ndarray:
    """``masks`` with a zero bit inserted at ``bit``, the higher bits moved up one."""
    return ((masks >> bit) << (bit + 1)) | (masks & ((1 << bit) - 1))
