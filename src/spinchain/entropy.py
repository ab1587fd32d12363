"""Entanglement entropy and mutual-information diagnostics.

Because the dynamics conserve excitation number, the amplitude matrix of
any bipartition is block diagonal over the excitation count inside the
subsystem.  Every routine here exploits that: Schmidt spectra come from
per-block SVDs, and tables of subset entropies are evaluated with one
batched SVD per block shape.

Entropies are in bits (log base 2).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .bits import bit_positions, gather_bits, popcount
from .errors import CapacityError, NumericalConsistencyError
from .model import SectorBasis, StateVector, enumerate_sector

WEIGHT_CLIP = 1e-12     # Schmidt weights above -WEIGHT_CLIP snap to zero
WEIGHT_SUM_TOL = 1e-10  # allowed deviation of the weight sum from one
FULL_TABLE_MAX_SITES = 16

__all__ = [
    "SiteSubset", "SchmidtSpectrum", "SubsetEntropyTable", "EntropyTablePlan",
    "subsystem_spectrum", "von_neumann", "subset_entropy_table",
    "mutual_information", "tmi", "monogamy_gap",
]


@dataclass(frozen=True)
class SiteSubset:
    """A subset of chain sites identified by a bitmask."""

    n_sites: int
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.n_sites):
            raise ValueError(f"mask {self.mask:#x} outside a {self.n_sites}-site chain")

    @classmethod
    def from_sites(cls, n_sites: int, sites) -> "SiteSubset":
        mask = 0
        for s in sites:
            if not 0 <= s < n_sites:
                raise ValueError(f"site {s} outside [0, {n_sites})")
            mask |= 1 << int(s)
        return cls(n_sites, mask)

    @property
    def sites(self) -> tuple:
        return tuple(bit_positions(self.mask))

    @property
    def size(self) -> int:
        return popcount(self.mask)

    def complement(self) -> "SiteSubset":
        return SiteSubset(self.n_sites, ((1 << self.n_sites) - 1) ^ self.mask)


def _as_mask(subset, n_sites: int) -> int:
    if isinstance(subset, SiteSubset):
        if subset.n_sites != n_sites:
            raise ValueError(f"subset is for {subset.n_sites} sites, expected {n_sites}")
        return subset.mask
    mask = int(subset)
    if not 0 <= mask < (1 << n_sites):
        raise ValueError(f"mask {mask:#x} outside a {n_sites}-site chain")
    return mask


@dataclass
class SchmidtSpectrum:
    """Reduced-density-matrix eigenvalues of a bipartition, descending.

    Weights in [-1e-12, 0) from roundoff are snapped to zero; anything
    more negative, or a weight sum off unity, raises
    NumericalConsistencyError.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        low = float(w.min(initial=0.0))
        if low < -WEIGHT_CLIP:
            raise NumericalConsistencyError(
                f"Schmidt weight {low} below the roundoff floor -{WEIGHT_CLIP}"
            )
        w = np.where(w < 0.0, 0.0, w)
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise NumericalConsistencyError(
                f"Schmidt weights sum to {total}, expected 1 within {WEIGHT_SUM_TOL}"
            )
        self.weights = np.sort(w)[::-1]

    def entropy(self) -> float:
        return von_neumann(self)

    def __len__(self):
        return len(self.weights)


def von_neumann(spectrum) -> float:
    """Von Neumann entropy -sum(w log2 w) of a weight spectrum, in bits."""
    w = spectrum.weights if isinstance(spectrum, SchmidtSpectrum) else np.asarray(spectrum, dtype=float)
    return float(-np.sum(xlogy(w, w)) / math.log(2.0))


def _split_range(k: int, n_a: int, n_b: int):
    """Admissible excitation counts inside a size-n_a subsystem."""
    return range(max(0, k - n_b), min(k, n_a) + 1)


def _block_index_grids(basis: SectorBasis, mask: int):
    """Index grids mapping (row, col) of each excitation block to basis ranks.

    Yields (idx2d, j) per admissible split j; amps[idx2d] is the block's
    amplitude matrix.  The map is a bijection, so every grid cell is hit
    exactly once.
    """
    n = basis.n_sites
    k = basis.n_excitations
    comp = basis.full_mask ^ mask
    sites_a = bit_positions(mask)
    sites_b = bit_positions(comp)
    n_a, n_b = len(sites_a), len(sites_b)
    states = basis.states
    in_a = popcount(states & mask)
    for j in _split_range(k, n_a, n_b):
        sel = np.nonzero(in_a == j)[0]
        basis_a = enumerate_sector(n_a, j)
        basis_b = enumerate_sector(n_b, k - j)
        rows = basis_a.rank_many(gather_bits(states[sel], sites_a))
        cols = basis_b.rank_many(gather_bits(states[sel], sites_b))
        idx2d = np.empty((basis_a.dim, basis_b.dim), dtype=np.int32)
        idx2d[rows, cols] = sel
        yield idx2d, j


def _check_basis(psi: StateVector, basis: SectorBasis | None) -> SectorBasis:
    if basis is None:
        return psi.basis
    if (basis.n_sites, basis.n_excitations) != (psi.basis.n_sites, psi.basis.n_excitations):
        raise ValueError("basis does not match the state's sector")
    return basis


def subsystem_spectrum(psi: StateVector, basis: SectorBasis | None = None,
                       subset=None) -> SchmidtSpectrum:
    """Schmidt spectrum of the sites in ``subset`` against the rest."""
    basis = _check_basis(psi, basis)
    mask = _as_mask(subset, basis.n_sites)
    if mask == 0 or mask == basis.full_mask:
        return SchmidtSpectrum(np.array([1.0]))
    amps = psi.amplitudes
    weights = []
    for idx2d, _ in _block_index_grids(basis, mask):
        block = amps[idx2d]
        if min(block.shape) == 1:
            weights.append(np.array([float(np.sum(np.abs(block) ** 2))]))
        else:
            s = np.linalg.svd(block, compute_uv=False)
            weights.append(s * s)
    return SchmidtSpectrum(np.concatenate(weights))


class SubsetEntropyTable:
    """Entanglement entropies of site subsets, keyed by subset bitmask."""

    def __init__(self, n_sites: int, values):
        self.n_sites = n_sites
        if isinstance(values, dict):
            self._array = None
            self._map = dict(values)
        else:
            values = np.asarray(values, dtype=float)
            if values.shape != (1 << n_sites,):
                raise ValueError("dense table must have one entry per bitmask")
            self._array = values
            self._map = None

    @property
    def is_dense(self) -> bool:
        return self._array is not None

    @property
    def dense(self) -> np.ndarray:
        """Entropy array indexed by mask; only for full tables."""
        if self._array is None:
            raise ValueError("table holds only selected masks, not all 2^n")
        return self._array

    def __getitem__(self, subset) -> float:
        mask = _as_mask(subset, self.n_sites)
        if self._array is not None:
            return float(self._array[mask])
        try:
            return self._map[mask]
        except KeyError:
            raise KeyError(f"mask {mask:#x} was not included in this table") from None

    def __contains__(self, subset) -> bool:
        mask = _as_mask(subset, self.n_sites)
        return self._array is not None or mask in self._map

    def masks(self):
        if self._array is not None:
            return range(1 << self.n_sites)
        return sorted(self._map)


class EntropyTablePlan:
    """Reusable index plan for evaluating subset entropies of many states.

    Construction groups the excitation blocks of every requested subset by
    shape; evaluation then gathers amplitudes into (n_blocks, rows, cols)
    stacks and runs one batched SVD per shape.  Build once per (basis,
    mask set), evaluate once per state: much cheaper than per-mask SVDs
    when scanning a time series.

    With ``masks=None`` the plan covers every bitmask (capped at
    16 sites); mirror symmetry S_A = S_complement halves the work either
    way.
    """

    def __init__(self, basis: SectorBasis, masks=None):
        n = basis.n_sites
        self.basis = basis
        top = 1 << (n - 1)
        if masks is None:
            if n > FULL_TABLE_MAX_SITES:
                raise CapacityError(
                    f"full tables are capped at {FULL_TABLE_MAX_SITES} sites, got {n}; "
                    f"pass an explicit mask list"
                )
            self.full = True
            # one representative per complement pair: top bit clear
            reps = np.arange(1, top, dtype=np.int64)
            self.requested = None
        else:
            self.full = False
            requested = sorted({_as_mask(m, n) for m in masks})
            self.requested = requested
            reps = sorted({
                m if not m & top else basis.full_mask ^ m
                for m in requested
                if m not in (0, basis.full_mask)
            })
            reps = np.asarray([m for m in reps if m != 0], dtype=np.int64)
        self.reps = reps
        self._build_groups()

    def _build_groups(self):
        groups = {}
        for rep_id, mask in enumerate(self.reps):
            for idx2d, _ in _block_index_grids(self.basis, int(mask)):
                key = idx2d.shape
                grids, ids = groups.setdefault(key, ([], []))
                grids.append(idx2d)
                ids.append(rep_id)
        self.groups = [
            (np.stack(grids), np.asarray(ids, dtype=np.int64))
            for (grids, ids) in groups.values()
        ]

    def evaluate(self, amplitudes: np.ndarray) -> SubsetEntropyTable:
        """Subset entropies of one state (amplitudes over the plan's basis)."""
        n_reps = len(self.reps)
        ent = np.zeros(n_reps)
        wsum = np.zeros(n_reps)
        for idx, rep_ids in self.groups:
            blocks = amplitudes[idx]
            if min(idx.shape[1:]) == 1:
                w = np.sum(np.abs(blocks) ** 2, axis=(1, 2))
                terms = -xlogy(w, w)
            else:
                s = np.linalg.svd(blocks, compute_uv=False)
                w2 = s * s
                terms = -np.sum(xlogy(w2, w2), axis=1)
                w = np.sum(w2, axis=1)
            ent += np.bincount(rep_ids, weights=terms, minlength=n_reps)
            wsum += np.bincount(rep_ids, weights=w, minlength=n_reps)
        bad = np.nonzero(np.abs(wsum - 1.0) > WEIGHT_SUM_TOL)[0]
        if len(bad):
            raise NumericalConsistencyError(
                f"Schmidt weights of mask {int(self.reps[bad[0]]):#x} sum to "
                f"{wsum[bad[0]]}, expected 1 within {WEIGHT_SUM_TOL}"
            )
        ent /= math.log(2.0)
        np.clip(ent, 0.0, None, out=ent)

        n = self.basis.n_sites
        full_mask = self.basis.full_mask
        if self.full:
            table = np.zeros(1 << n)
            table[self.reps] = ent
            table[full_mask ^ self.reps] = ent
            return SubsetEntropyTable(n, table)
        by_rep = dict(zip((int(m) for m in self.reps), ent))
        top = 1 << (n - 1)
        values = {}
        for m in self.requested:
            if m in (0, full_mask):
                values[m] = 0.0
            else:
                rep = m if not m & top else full_mask ^ m
                values[m] = float(by_rep[rep])
        return SubsetEntropyTable(n, values)


def subset_entropy_table(psi: StateVector, basis: SectorBasis | None = None,
                         masks=None) -> SubsetEntropyTable:
    """Entropies of the requested subsets (all bitmasks when ``masks`` is None)."""
    basis = _check_basis(psi, basis)
    plan = EntropyTablePlan(basis, masks)
    return plan.evaluate(psi.amplitudes)


def _disjoint_masks(table, subsets):
    masks = [_as_mask(s, table.n_sites) for s in subsets]
    taken = 0
    for m in masks:
        if m == 0:
            raise ValueError("subsets must be nonempty")
        if m & taken:
            raise ValueError("subsets must be pairwise disjoint")
        taken |= m
    return masks


def mutual_information(table: SubsetEntropyTable, a, b) -> float:
    """I(A:B) = S_A + S_B - S_AB from a subset entropy table."""
    a, b = _disjoint_masks(table, (a, b))
    return table[a] + table[b] - table[a | b]


def tmi(table: SubsetEntropyTable, a, b, c) -> float:
    """Tripartite mutual information I(A:B:C) = I(A:B) + I(A:C) - I(A:BC)."""
    a, b, c = _disjoint_masks(table, (a, b, c))
    return (table[a] + table[b] + table[c]
            - table[a | b] - table[a | c] - table[b | c]
            + table[a | b | c])


def monogamy_gap(table: SubsetEntropyTable, a, b, c) -> float:
    """-I(A:B:C); positive when the mutual informations are monogamous."""
    return -tmi(table, a, b, c)
