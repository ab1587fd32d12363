"""Long-range XY chain: couplings, excitation-number sectors, Hamiltonian action.

The Hamiltonian is a sum over site pairs of XX+YY terms with power-law
couplings J0/|m-n|^alpha (open boundaries).  It conserves the number of
excited sites, so states live in fixed-excitation sectors spanned by
bitmask basis states; all operations here act inside one sector, where
H is applied through the (k-1)-excitation sector by two index gathers
and one dense product with the couplings.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
        # 8 B per int64 mask and per rank-table entry
        check_budget(f"sector ({n_sites}, {n_excitations}) has {dim:,} states",
                     8 * (dim + (1 << half) + (1 << (n_sites - half))),
                     "as int64 masks and rank tables")
        self.n_sites = n_sites
        self.n_excitations = n_excitations
        # Lin's two tables (PRB 42, 6561, 1990) over the bits below and from
        # ``half``: each low half's rank among the low halves of its
        # popcount, and the states before each high half
        self._half = half
        low_pop = np.bitwise_count(np.arange(1 << half))
        lows = [np.flatnonzero(low_pop == p) for p in range(half + 1)]
        self._rank_lo = np.empty(1 << half, dtype=np.int64)
        for low in lows:
            self._rank_lo[low] = np.arange(len(low))
        # high half h, in ascending order, holds the block (h << half) | lows[p]
        # with p = k - popcount(h), or no state when p is out of range
        none = np.empty(0, dtype=np.int64)
        high_pop = np.bitwise_count(np.arange(1 << (n_sites - half))).tolist()
        blocks = [(h << half) | lows[n_excitations - q] if 0 <= n_excitations - q <= half
                  else none for h, q in enumerate(high_pop)]
        self._offset = np.cumsum([0] + [len(b) for b in blocks[:-1]])
        self.states = np.concatenate(blocks)
        self.states.flags.writeable = False

    @property
    def dim(self) -> int:
        return len(self.states)

    @property
    def full_mask(self) -> int:
        return (1 << self.n_sites) - 1

    def rank(self, mask: int) -> int:
        """Index of ``mask`` in the basis; KeyError if absent."""
        mask = int(mask)
        if not 0 <= mask <= self.full_mask or mask.bit_count() != self.n_excitations:
            raise KeyError(f"mask {mask:#b} not in sector ({self.n_sites}, {self.n_excitations})")
        return int(self.rank_many(mask))

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
    there is no diagonal part.  So H = sum_m s+_m (sum_n 2 J_mn s-_n)
    factors through the (k-1)-excitation sector, and ``apply`` takes three
    steps on two index tables, built on first use from the rank tables of
    both sectors:

    - a gather phi[n, r] = v[r | 2^n] over the (k-1) states r, through
      ``low`` of shape (N, C(N, k-1)), whose entry is dim, a trailing zero,
      where r already holds bit n;
    - one GEMM chi = (2J) @ phi;
    - a gather and sum (Hv)[s] = sum over the excited sites m of s of
      chi[m, s - 2^m], through ``up`` of shape (k, dim).

    The tables and the work buffers of a vector are O(N dim) and sized
    before the build, so construction raises CapacityError when they
    exceed the memory budget.
    """

    def __init__(self, coupling: CouplingMatrix, basis: SectorBasis):
        if coupling.n_sites != basis.n_sites:
            raise ValueError(
                f"coupling is for {coupling.n_sites} sites, basis for {basis.n_sites}"
            )
        self.coupling = coupling
        self.basis = basis
        n, k = basis.n_sites, basis.n_excitations
        self._lower_dim = math.comb(n, k - 1) if k else 0
        # int64 tables (np.take casts narrower indices on every call) and
        # float64 buffers: ext (dim + 1), phi and chi (N per lower state), the
        # gathered terms (k per state)
        self.nbytes = 8 * (3 * n * self._lower_dim + 2 * k * self.dim + self.dim + 1)
        check_budget(f"sector ({n}, {k}) Hamiltonian factored through the "
                     f"{self._lower_dim:,} states of sector ({n}, {k - 1})",
                     self.nbytes, "as index tables and work buffers")
        self._hop = 2.0 * coupling.entries
        np.fill_diagonal(self._hop, 0.0)
        self._tables = self._work = None

    @property
    def dim(self) -> int:
        return self.basis.dim

    def _build(self):
        """The tables ``low`` and ``up``, and the work buffers of a vector, built on first use."""
        if self._tables is None:
            n, k, states = self.basis.n_sites, self.basis.n_excitations, self.basis.states
            lower = enumerate_sector(n, k - 1) if k else None  # k = 0: both tables empty
            rest = lower.states if k else np.empty(0, dtype=np.int64)
            low = np.empty((n, len(rest)), dtype=np.int64)
            for site in range(n):
                low[site] = np.where(rest & (1 << site), self.dim,
                                     self.basis.rank_many(rest | (1 << site)))
            # row j: the j-th lowest excited site m of each state, as the row
            # m * C(N, k-1) + rank(s - 2^m) of chi flattened
            up = np.empty((k, self.dim), dtype=np.int64)
            left = states.copy()
            for j in range(k):
                bit = left & -left
                site = np.bitwise_count(bit - 1).astype(np.int64)
                np.add(site * self._lower_dim, lower.rank_many(states - bit), out=up[j])
                left -= bit
            self._tables = low, up
            # work buffers of a vector: ext, phi, chi and the gathered terms
            phi = np.empty((n, self._lower_dim))
            self._work = np.zeros(self.dim + 1), phi, np.empty_like(phi), np.empty((k, self.dim))
        return self._tables

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """H @ vec for a real vector of shape (dim,), through one set of reused work buffers.

        Any other shape, or a complex vector, raises ValueError.
        """
        vec = np.asarray(vec)
        if vec.shape != (self.dim,) or np.iscomplexobj(vec):
            raise ValueError(f"{vec.dtype} vector of shape {vec.shape} for a sector of "
                             f"dimension {self.dim}: apply takes one real vector")
        low, up = self._build()
        ext, phi, chi, terms = self._work
        ext[:-1] = vec
        # mode="clip" writes straight into out; "raise" buffers the result
        np.take(ext, low, axis=0, out=phi, mode="clip")
        np.matmul(self._hop, phi, out=chi)
        np.take(chi.reshape(-1), up, axis=0, out=terms, mode="clip")
        return terms.sum(axis=0)

    def expectation(self, vec: np.ndarray) -> float:
        """Real energy <vec|H|vec>: H is real symmetric, so the cross terms cancel."""
        vec = np.asarray(vec)
        return float(sum(part @ self.apply(part) for part in (vec.real, vec.imag)))
