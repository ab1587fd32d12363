"""Entanglement entropy and mutual-information diagnostics.

Because the dynamics conserve excitation number, the amplitude matrix of
any bipartition is block diagonal over the excitation count inside the
subsystem.  Every routine here exploits that.  A single Schmidt spectrum
comes from per-block SVDs (``subsystem_spectrum``, the reference path).
Tables of subset entropies come from an EntropyTablePlan: one batched
``eigvalsh`` of the smaller Gram matrix per block shape, one entropy per
orbit representative of the masks the plan was built for (a scan's plan
holds the masks its partitions touch).  A SubsetEntropyTable finds a
mask's entropy through one map from each of the 2^N masks to a row.

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
# index stacks, filled in place.  Its guard adds 20 B per basis entry of
# one sort chunk (the key, argsort's int64 result and workspace, then its
# int32 copy: tracemalloc read up to 16.5), 300 B per (representative,
# excitation block) of slot tables and a full plan's scratch over the 2^N
# masks (read: up to 274 B), the 2^N row map and 64 KiB fixed
_INDEX_BYTES = 4
# Bytes of the int64 argsort result a plan build holds at once: a chunk of
# one popcount's representatives, each sorting the whole basis
_SORT_CHUNK_BYTES = 1 << 22
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


def _block_index_grids(basis: SectorBasis, masks):
    """Index grids mapping (row, col) of each excitation block to basis ranks.

    ``masks`` is one mask, or an array of masks of one popcount a.  Yields
    an int32 grid per admissible split j, ascending, of shape
    masks.shape + (C(a, j), C(N - a, k - j)); amps[grid] is the block's
    amplitude matrix (a stack of them), with rows in ascending order of
    the pattern on the subset and columns in ascending order of the
    pattern on the rest.  A split's states are every pairing of a pattern
    on the subset with a pattern on the rest, and the basis ascends, so
    one stable sort of the basis by (j, subset pattern) lists the blocks
    with j ascending, each row by row.
    """
    n, k = basis.n_sites, basis.n_excitations
    # the narrowest unsigned key: up to N=12 it takes numpy's radix sort
    dtype = np.min_scalar_type((n << n) | basis.full_mask)
    masks = np.asarray(masks).astype(dtype)
    n_a = int(masks.flat[0]).bit_count()
    key = basis.states.astype(dtype) & masks[..., None]
    key |= np.left_shift(np.bitwise_count(key), n, dtype=dtype)
    order = np.argsort(key, axis=-1, kind="stable")
    del key
    order = order.astype(np.int32)
    stop = 0
    for j in _split_range(k, n_a, n - n_a):
        rows = math.comb(n_a, j)
        start, stop = stop, stop + rows * math.comb(n - n_a, k - j)
        yield order[..., start:stop].reshape(masks.shape + (rows, -1))


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

    ``rows`` maps each of the 2^N masks to a row of ``values`` (one
    entropy, or one per time in a time-batched table), or to -1 where the
    table holds none; looking such a mask up raises KeyError.  A plan's
    tables share its read-only map, a row per representative;
    ``np.arange(2**N)`` is the dense map, whose values[mask] is the entry.
    """

    def __init__(self, n_sites: int, rows: np.ndarray, values: np.ndarray):
        rows = np.asarray(rows)
        values = np.asarray(values, dtype=float)
        if (rows.shape != (1 << n_sites,) or rows.dtype.kind != "i"
                or values.ndim not in (1, 2) or rows.max() >= len(values)):
            raise ValueError(f"need a row of values, or -1, for each mask of {n_sites} sites")
        self.n_sites = n_sites
        self.rows = rows
        self.values = values

    def positions(self, masks) -> np.ndarray:
        """Rows of ``masks`` in ``values``; KeyError if any is absent."""
        masks = np.asarray(masks)
        pos = self.rows.take(masks, mode="clip")
        if not (masks.min(initial=0) >= 0 and masks.max(initial=0) < len(self.rows)
                and pos.min(initial=0) >= 0):
            # a clipped take read a neighbour's row for a mask out of range
            found = (masks >= 0) & (masks < len(self.rows)) & (pos >= 0)
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


def _images(masks: np.ndarray, n_sites: int, reflected: bool) -> list:
    """Each mask's orbit: X, Xc and, ``reflected``, R(X) and R(Xc)."""
    full = (1 << n_sites) - 1
    mirrored = [reverse_bits(masks, n_sites)] if reflected else []
    return [m for x in [masks, *mirrored] for m in (x, full ^ x)]


def _representatives(masks: np.ndarray, n_sites: int, reflected: bool) -> np.ndarray:
    """The least mask of each orbit of ``masks`` but {0, full}'s, ascending."""
    least = np.sort(np.minimum.reduce(_images(masks, n_sites, reflected)))
    # distinct and nonzero: the sorted leasts that differ from their predecessor
    return least[np.diff(least, prepend=0) != 0]


class EntropyTablePlan:
    """Reusable index plan for evaluating subset entropies of many states.

    The plan covers the requested masks (a scan passes the masks its
    partitions read), or every bitmask when ``masks`` is None.  Complement
    symmetry S_X = S_Xc leaves one representative per orbit {X, Xc}, its
    least mask; a plan built ``reflected`` also identifies X with its
    mirror image R(X), site i to N-1-i, which holds only for states with
    S_X = S_R(X) (runners check ``model.reflection_invariant``), so a
    weight-sum error may name a mirror image.  ``rows`` maps each of the
    2^N masks to its representative's row of an evaluated table, the
    empty set and the whole chain to the last row (of zeros), and a mask
    outside the orbits to -1.  A build over the memory budget is refused
    (CapacityError) before any 2^N array or index grid exists.  The
    representatives, ``reps``, have their excitation blocks grouped by
    shape into ``groups``, (index stack, rep ids) pairs, in order of each
    shape's first block, its blocks by rep and then by split; evaluation
    takes each group's Schmidt weights from one batched ``eigvalsh`` of
    the smaller Gram matrices.  Representatives of one popcount share
    their block shapes, so the build sorts the basis once per chunk of
    them (_block_index_grids) and writes their blocks straight into the
    preallocated stacks: its peak is the stacks and one chunk's sort.
    Build once per (basis, mask set), evaluate once per state.
    """

    def __init__(self, basis: SectorBasis, masks=None, reflected: bool = False):
        n, k, dim = basis.n_sites, basis.n_excitations, basis.dim
        self.basis = basis
        if masks is None:
            # orbits of every mask but {0, full}, reflected by Burnside's lemma:
            # R fixes 2^ceil(N/2) masks, R with complement 2^(N/2) at even N
            fixed = (1 << -(-n // 2)) + (n % 2 == 0) * (1 << n // 2)
            n_reps = ((1 << n) + fixed) // 4 - 1 if reflected else (1 << n - 1) - 1
        else:
            masks = np.fromiter((_as_mask(m, n) for m in masks), dtype=np.int64)
            self.reps = _representatives(masks, n, reflected)
            n_reps = len(self.reps)
        row_type = np.min_scalar_type(-n_reps - 1)
        chunk = max(1, _SORT_CHUNK_BYTES // (8 * dim))
        check_budget(f"sector ({n}, {k}) entropy plan has {n_reps:,} "
                     f"representatives of {dim:,} states",
                     (_INDEX_BYTES * n_reps + 20 * min(n_reps, chunk)) * dim
                     + 300 * n_reps * (min(k, n - k) + 1)
                     + (row_type.itemsize << n) + (1 << 16), "at its build's peak")
        if masks is None:
            self.reps = _representatives(np.arange(1 << n), n, reflected)
        self.rows = np.full(1 << n, -1, dtype=row_type)
        for images in _images(self.reps, n, reflected):
            self.rows[images] = np.arange(n_reps)
        self.rows[[0, basis.full_mask]] = n_reps
        self.rows.flags.writeable = False
        # (rep, block) pairs rep by rep, j ascending: block j of a
        # representative of popcount a has shape (C(a, j), C(N - a, k - j))
        pops = np.bitwise_count(self.reps).astype(np.int64)
        splits = [_split_range(k, a, n - a) for a in range(n + 1)]
        low = np.array([s.start for s in splits])[pops]
        n_blocks = np.array([len(s) for s in splits])[pops]
        first = np.cumsum(n_blocks) - n_blocks
        rep_of = np.repeat(np.arange(n_reps), n_blocks)
        j = np.arange(len(rep_of)) - first[rep_of] + low[rep_of]
        comb = np.array([[math.comb(m, i) for i in range(n + 1)] for m in range(n + 1)])
        n_rows, n_cols = comb[pops[rep_of], j], comb[n - pops[rep_of], k - j]
        # a group per shape, in order of first appearance, its pairs in rep order
        _, seen, group = np.unique(n_rows * (dim + 1) + n_cols,
                                   return_index=True, return_inverse=True)
        group = np.argsort(np.argsort(seen))[group]
        by_group = np.argsort(group, kind="stable")
        sizes = np.bincount(group)
        slot = np.empty_like(by_group)
        slot[by_group] = np.arange(len(group)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        stacks = [np.empty((size, n_rows[i], n_cols[i]), dtype=np.int32)
                  for size, i in zip(sizes, np.sort(seen))]
        # each chunk of one popcount's representatives is sorted once and
        # its blocks written straight to their slots
        for a in np.flatnonzero(np.bincount(pops)):
            of_a = np.flatnonzero(pops == a)
            for start in range(0, len(of_a), chunk):
                part = of_a[start:start + chunk]
                for b, grids in enumerate(_block_index_grids(basis, self.reps[part])):
                    pairs = first[part] + b  # each one's block b, all of one group
                    stacks[group[pairs[0]]][slot[pairs]] = grids
        self.groups = list(zip(stacks, np.split(rep_of[by_group], np.cumsum(sizes)[:-1])))

    def evaluate(self, amplitudes: np.ndarray) -> SubsetEntropyTable:
        """Subset entropies of one state (amplitudes over the plan's basis).

        An (n_states, dim) stack gives the time-batched table, a column
        per state, each state evaluated in turn.  A non-finite amplitude
        raises NumericalConsistencyError.
        """
        if np.ndim(amplitudes) == 2:
            return SubsetEntropyTable(self.basis.n_sites, self.rows, np.column_stack(
                [self.evaluate(state).values for state in amplitudes]))
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
                f"{wsum[bad[0]]}, expected 1 within {WEIGHT_SUM_TOL}")
        ent /= math.log(2.0)
        np.clip(ent, 0.0, None, out=ent)
        return SubsetEntropyTable(self.basis.n_sites, self.rows, ent)


def subset_entropy_table(psi: StateVector, masks=None) -> SubsetEntropyTable:
    """Entropies of the requested subsets (all bitmasks when ``masks`` is None).

    The table of all bitmasks is dense (values[mask] is the entry); one of
    explicit masks also holds their complements, the empty set and the chain.
    """
    table = EntropyTablePlan(psi.basis, masks).evaluate(psi.amplitudes)
    if masks is None:
        return SubsetEntropyTable(table.n_sites, np.arange(len(table.rows)),
                                  table.values[table.rows])
    return table


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
