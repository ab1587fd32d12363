"""Entanglement entropy and mutual-information diagnostics.

Because the dynamics conserve excitation number, the amplitude matrix of
any bipartition is block diagonal over the excitation count inside the
subsystem.  Every routine here exploits that.  A single Schmidt spectrum
comes from per-block SVDs (``subsystem_spectrum``, the reference path).
Tables of subset entropies come from an EntropyTablePlan: one batched
``eigvalsh`` of the smaller Gram matrix per block shape, over the masks
the plan was built for (a scan's plan holds the masks its partitions
touch).

Entropies are in bits (log base 2).
"""

import math
import operator

import numpy as np
from numpy.linalg import eigvalsh

from .bits import reverse_bits
from .errors import NumericalConsistencyError, check_budget
from .model import SectorBasis, StateVector

WEIGHT_CLIP = 1e-12     # Schmidt weights above -WEIGHT_CLIP snap to zero
WEIGHT_SUM_TOL = 1e-10  # allowed deviation of the weight sum from one
# Peak bytes of a plan build per (representative, sector state): its int32
# index grids, held twice while each group is stacked; tracemalloc read
# 8.1-9.9 at half filling, N = 12-16.  Its guard adds 600 B per
# (representative, excitation block) of array headers and list entries,
# 32 B per state of temporaries while one representative's grids are cut,
# and 64 KiB fixed (read: up to 560 B, 26 B and 9 KB)
_INDEX_BYTES = 10
# The least positive double: x log max(x, _TINY) is x log x for x > 0 and
# exactly 0 at x = 0, with no mask
_TINY = 5e-324

__all__ = [
    "SubsetEntropyTable", "EntropyTablePlan",
    "subsystem_spectrum", "von_neumann", "subset_entropy_table",
    "mutual_information", "tmi",
]


def _as_mask(mask, n_sites: int) -> int:
    """An integer mask (numpy's too) as an int in range; a float raises TypeError."""
    mask = operator.index(mask)
    if not 0 <= mask < (1 << n_sites):
        raise ValueError(f"mask {mask:#x} outside a {n_sites}-site chain")
    return mask


def _snap_weights(w: np.ndarray) -> np.ndarray:
    """Weights in [-WEIGHT_CLIP, 0) become 0; anything lower raises."""
    low = float(w.min(initial=0.0))
    if low < -WEIGHT_CLIP:
        raise NumericalConsistencyError(
            f"Schmidt weight {low} below the roundoff floor -{WEIGHT_CLIP}"
        )
    return np.maximum(w, 0.0)


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x log x elementwise for x >= 0, with 0 log 0 = 0, as a new array."""
    log = np.maximum(x, _TINY, out=np.empty(np.shape(x)))
    np.log(log, out=log)
    return np.multiply(x, log, out=log)


def von_neumann(weights: np.ndarray) -> float:
    """Von Neumann entropy -sum(w log2 w) of an array of Schmidt weights (w >= 0), in bits."""
    return float(-np.sum(_xlogx(weights)) / math.log(2.0))


def _split_range(k: int, n_a: int, n_b: int):
    """Admissible excitation counts inside a size-n_a subsystem."""
    return range(max(0, k - n_b), min(k, n_a) + 1)


def _block_index_grids(basis: SectorBasis, mask: int):
    """Index grids mapping (row, col) of each excitation block to basis ranks.

    Yields one int32 idx2d per admissible split; amps[idx2d] is the
    block's amplitude matrix, with rows in ascending order of the pattern
    on the subset and columns in ascending order of the pattern on the
    rest.  A split's states are every pairing of a pattern on the subset
    with a pattern on the rest, and the basis ascends, so a stable sort by
    the subset pattern lists the grid row by row.
    """
    k = basis.n_excitations
    n_a = mask.bit_count()
    states = basis.states
    in_a = np.bitwise_count(states & mask)
    for j in _split_range(k, n_a, basis.n_sites - n_a):
        sel = np.flatnonzero(in_a == j)
        order = np.argsort(states[sel] & mask, kind="stable")
        yield sel[order].astype(np.int32).reshape(math.comb(n_a, j), -1)


def subsystem_spectrum(psi: StateVector, subset) -> np.ndarray:
    """Schmidt weights of the sites in the bitmask ``subset`` against the rest.

    The reduced density matrix's eigenvalues, descending.  A weight sum
    off unity by more than WEIGHT_SUM_TOL raises NumericalConsistencyError.
    """
    basis = psi.basis
    mask = _as_mask(subset, basis.n_sites)
    if mask == 0 or mask == basis.full_mask:
        return np.array([1.0])
    amps = psi.amplitudes
    weights = []
    for idx2d in _block_index_grids(basis, mask):
        block = amps[idx2d]
        if min(block.shape) == 1:
            weights.append(np.array([float(np.sum(np.abs(block) ** 2))]))
        else:
            s = np.linalg.svd(block, compute_uv=False)
            weights.append(s * s)
    # squared singular values and block norms: never negative, so no snap
    w = np.concatenate(weights)
    total = float(w.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise NumericalConsistencyError(
            f"Schmidt weights sum to {total}, expected 1 within {WEIGHT_SUM_TOL}"
        )
    return np.sort(w)[::-1]


class SubsetEntropyTable:
    """Entanglement entropies of site subsets, keyed by subset bitmask.

    Holds a sorted int64 mask array and the matching entropy values: one
    value per mask, or, in a time-batched table, one row per mask with one
    column per time.  All tables evaluated from one EntropyTablePlan share
    the plan's read-only mask array.  Looking up a mask the table lacks
    raises KeyError.
    """

    def __init__(self, n_sites: int, masks: np.ndarray, values: np.ndarray):
        masks = np.asarray(masks, dtype=np.int64)
        values = np.asarray(values, dtype=float)
        if masks.ndim != 1 or values.ndim not in (1, 2) or len(values) != len(masks):
            raise ValueError("need one entropy value, or one row of them, per mask")
        if len(masks) and (masks[0] < 0 or masks[-1] >= 1 << n_sites
                           or np.any(masks[1:] <= masks[:-1])):
            raise ValueError(f"masks must be ascending, distinct and fit {n_sites} sites")
        if masks.flags.writeable:
            # lookups bisect this array, so it must stay sorted
            masks = masks.copy()
            masks.flags.writeable = False
        self.n_sites = n_sites
        self.mask_array = masks
        self.values = values

    @property
    def is_dense(self) -> bool:
        """True when every bitmask is present, so values[mask] is the entry."""
        return len(self.mask_array) == 1 << self.n_sites

    def positions(self, masks) -> np.ndarray:
        """Indices of ``masks`` into ``values``; KeyError if any is absent."""
        masks = np.asarray(masks, dtype=np.int64)
        if self.is_dense:
            pos = masks
            found = (masks >= 0) & (masks < len(self.values))
        else:
            # a mask past the last entry would index out of range; clamping
            # it makes the equality test below reject it
            pos = np.minimum(np.searchsorted(self.mask_array, masks),
                             len(self.mask_array) - 1)
            found = self.mask_array[pos] == masks
        if not np.all(found):
            missing = int(masks.flat[np.argmin(found)])
            raise KeyError(f"mask {missing:#x} was not included in this table")
        return pos

    def gather(self, masks) -> np.ndarray:
        """Entropies (or rows of them) of an array of masks; KeyError if any is absent."""
        return self.values[self.positions(masks)]

    def __getitem__(self, subset) -> float:
        """Entropy of one subset; a time-batched table answers through gather."""
        return float(self.gather(_as_mask(subset, self.n_sites)))


def _gram_weights(blocks: np.ndarray) -> np.ndarray:
    """Schmidt weights of a stack of blocks, one row per block.

    The weights are the eigenvalues of the smaller Gram matrix, B B^dag or
    B^dag B, which roundoff can leave slightly negative: _snap_weights
    zeroes those and refuses anything lower.
    """
    rows, cols = blocks.shape[1:]
    if rows <= cols:
        gram = blocks @ blocks.conj().transpose(0, 2, 1)
    else:
        gram = blocks.conj().transpose(0, 2, 1) @ blocks
    return _snap_weights(gram[:, :, 0].real if gram.shape[1] == 1 else eigvalsh(gram))


class EntropyTablePlan:
    """Reusable index plan for evaluating subset entropies of many states.

    The plan covers the requested masks plus the empty set and the whole
    chain, or every bitmask when ``masks`` is None; a scan passes the masks
    its partitions read.  A build whose peak would exceed the memory budget
    is refused (CapacityError) before the plan's mask array or any index
    grid is allocated.  Complement symmetry S_X = S_Xc (Xc the complement
    of X) leaves one representative per orbit {X, Xc}, its least mask.
    A plan built ``reflected`` also identifies X with its
    mirror image R(X), site i to N-1-i, so the orbit is {X, Xc, R(X),
    R(Xc)}; that holds only for states with S_X = S_R(X), which runners
    check with ``model.reflection_invariant``.  A representative need not
    be a requested mask, so the weight-sum error may name a mirror image.
    The representatives, ``reps``, have their excitation blocks grouped by
    shape into ``groups``, a list of (index stack, rep ids).  Evaluation
    gathers each group's amplitudes into a (n_blocks, rows, cols) stack
    and takes the Schmidt weights from one batched ``eigvalsh`` of the
    smaller Gram matrix.  Build once per (basis, mask set), evaluate once
    per state.
    """

    def __init__(self, basis: SectorBasis, masks=None, reflected: bool = False):
        n, k, dim = basis.n_sites, basis.n_excitations, basis.dim
        full = basis.full_mask
        self.basis = basis
        if masks is not None:
            masks = np.fromiter((_as_mask(m, n) for m in masks), dtype=np.int64)
        # at most one representative per {X, Xc} pair but {0, full}
        n_reps = min(1 << n if masks is None else len(masks), (1 << n) // 2 - 1)
        blocks = min(k, n - k) + 1
        check_budget(f"sector ({n}, {k}) entropy plan has up to {n_reps:,} "
                     f"representatives of {dim:,} states",
                     (_INDEX_BYTES * n_reps + 32) * dim + 600 * n_reps * blocks + (1 << 16),
                     "at its build's peak")
        if masks is None:
            masks = np.arange(1 << n, dtype=np.int64)
        else:
            masks = np.union1d(masks, [0, full])
        masks.flags.writeable = False
        self.mask_array = masks
        # one representative per orbit: the least of its masks
        orbit = [masks, full ^ masks]
        if reflected:
            mirrored = reverse_bits(masks, n)
            orbit += [mirrored, full ^ mirrored]
        rep_of = np.minimum.reduce(orbit)
        self.reps = np.unique(rep_of[rep_of != 0])
        # slot of each mask's entropy; the extra last slot holds the zero
        # entropy of the empty set and the whole chain
        self._slots = np.where(rep_of == 0, len(self.reps),
                               np.searchsorted(self.reps, rep_of))
        groups = {}
        for rep_id, mask in enumerate(self.reps):
            for idx2d in _block_index_grids(basis, int(mask)):
                key = idx2d.shape
                grids, ids = groups.setdefault(key, ([], []))
                grids.append(idx2d)
                ids.append(rep_id)
        self.groups = [
            (np.stack(grids), np.asarray(ids, dtype=np.int64))
            for (grids, ids) in groups.values()
        ]

    def evaluate(self, amplitudes: np.ndarray) -> SubsetEntropyTable:
        """Subset entropies of one state (amplitudes over the plan's basis).

        A non-finite amplitude raises NumericalConsistencyError.
        """
        finite = np.isfinite(amplitudes)
        if not finite.all():
            raise NumericalConsistencyError(
                f"non-finite amplitude at sector rank {int(np.argmin(finite))}")
        n_reps = len(self.reps)
        ent = np.zeros(n_reps + 1)
        wsum = np.zeros(n_reps)
        for idx, rep_ids in self.groups:
            w = _gram_weights(amplitudes[idx])
            ent[:n_reps] -= np.bincount(rep_ids, weights=np.sum(_xlogx(w), axis=1),
                                        minlength=n_reps)
            wsum += np.bincount(rep_ids, weights=np.sum(w, axis=1), minlength=n_reps)
        bad = np.nonzero(np.abs(wsum - 1.0) > WEIGHT_SUM_TOL)[0]
        if len(bad):
            raise NumericalConsistencyError(
                f"Schmidt weights of mask {int(self.reps[bad[0]]):#x} sum to "
                f"{wsum[bad[0]]}, expected 1 within {WEIGHT_SUM_TOL}"
            )
        ent /= math.log(2.0)
        np.clip(ent, 0.0, None, out=ent)
        return SubsetEntropyTable(self.basis.n_sites, self.mask_array, ent[self._slots])


def subset_entropy_table(psi: StateVector, masks=None) -> SubsetEntropyTable:
    """Entropies of the requested subsets (all bitmasks when ``masks`` is None).

    A table for explicit masks also holds the empty set and the whole chain.
    """
    return EntropyTablePlan(psi.basis, masks).evaluate(psi.amplitudes)


def _disjoint_masks(n_sites: int, subsets) -> list:
    """The bitmasks ``subsets`` as ints; ValueError unless nonempty and pairwise disjoint."""
    masks = [_as_mask(s, n_sites) for s in subsets]
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
    a, b = _disjoint_masks(table.n_sites, (a, b))
    return table[a] + table[b] - table[a | b]


def tmi_terms(s_a, s_b, s_c, s_ab, s_ac, s_bc, s_abc, in_place=False):
    """I(A:B:C) from the entropies of A, B, C, AB, AC, BC and ABC.

    Scalars or arrays; every TMI the package computes is summed here, in
    this order: ((a + b) + c) + abc - ((ab + ac) + bc).  With ``in_place``
    the arrays s_a and s_ab hold the two sums: s_a ends as the TMI, which
    is returned, and s_ab as the negative terms.
    """
    pos = np.add(s_a, s_b, out=s_a if in_place else None)
    neg = np.add(s_ab, s_ac, out=s_ab if in_place else None)
    pos += s_c
    pos += s_abc
    neg += s_bc
    return np.subtract(pos, neg, out=pos if in_place else None)


def tmi(table: SubsetEntropyTable, a, b, c) -> float:
    """Tripartite mutual information I(A:B:C) = I(A:B) + I(A:C) - I(A:BC)."""
    a, b, c = _disjoint_masks(table.n_sites, (a, b, c))
    return float(tmi_terms(*(table[m] for m in (a, b, c, a | b, a | c, b | c, a | b | c))))
