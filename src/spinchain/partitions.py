"""Subsystem partition enumeration and TMI extremum scans.

A site subset is an int bitmask, site i being bit i.  A partition triple
is an unordered set {A, B, C} of pairwise disjoint, nonempty subsets; the
remainder D is implied and may be empty.  Its canonical form is the
ascending tuple (a, b, c) of its masks, which makes enumeration lists
reproducible and extremum tie-breaking deterministic.

Scanning TMI over millions of triples reduces to table gathers once
subset entropies are tabulated.  ``tmi_extrema`` takes a time-batched
table (a column per time, or the columns of several exponents side by
side) and reads the triples once, in chunks, through buffers made once
per scan, each chunk reduced to its extrema (through a time-major copy
when it has more triples than columns).  A stored ``PartitionSet`` and a
fixed-sizes family fill a chunk's masks into a lookup buffer
(``_fill``), derive the other four of the seven lookups, gather their
whole table rows in one np.take and sum the TMI in place.  The
all-assignments family instead builds, for each choice of A, a table of
the differences g(X) = S_X - S_{A u X} over the submasks X of the rest
of the chain, indexed by the (B, C) labels it stores, and gathers three
of its rows per triple: TMI = S_A + ((g(B) + g(C)) - g(BC)), the same
bits as entropy.tmi_terms.  Either way an exhaustive scan holds one
chunk, never the family, and masks are filled only for the triples that
place a pick.  ``enumerate_partitions`` returns a family stored, filled
by the same code into one full-size buffer.
For a pure state the TMI is symmetric in A, B, C and the remainder D
(acceptance criterion 5), so the runners scan the all-assignments family
through one triple per {A, B, C, D} orbit, about a quarter of it.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .bits import bit_positions, mask_dtype, submask_tables
from .entropy import SubsetEntropyTable, tmi_terms
from .errors import NumericalConsistencyError, check_budget
from .model import ModelSpec, SectorBasis

QUARTERS = "quarters"
ALL_ASSIGNMENTS = "all-assignments"
CONTIGUOUS_BLOCKS = "contiguous-blocks"
FIXED_SIZES = "fixed-sizes"

# TMI values this close to an extremum tie with it (roundoff, not physics)
EXTREMUM_TIE_TOL = 1e-12
# Bytes of one block of TMI values in tmi_extrema (its scratch holds
# _gathers + 1 arrays this size).  On the stacked table of two exponents
# of 17 times over the N=12 orbit set, tmi_extrema with the proper minimum
# took 0.271/0.249/0.251 s in 128/256/512 KiB blocks (best of 10, 2-core
# Xeon, 2 MiB L2/core)
_BLOCK_BYTES = 1 << 18
# Segments of whole chunks whose extrema tmi_extrema records: at most this
# many, so its records take at most 256 x 16 B per column at any family
# size (4.5 MB for fig4's 1,111 columns); a tie is placed by reading one
# segment again
_SEGMENTS = 256

__all__ = [
    "PartitionSet", "AssignmentFamily", "TmiSeries",
    "contiguous_quarters", "enumerate_partitions", "parse_strategy",
    "tmi_extrema", "tau_sign_change", "lightcone_onset",
    "QUARTERS", "ALL_ASSIGNMENTS", "CONTIGUOUS_BLOCKS", "FIXED_SIZES",
]


class PartitionSet:
    """Immutable sequence of canonical triples, stored as three mask arrays.

    ``pset[i]`` is triple i as an (a, b, c) tuple of ints.  The arrays, in
    the narrowest type holding N-bit masks (bits.mask_dtype: int16 up to
    N=15), keep exhaustive scans (millions of triples) affordable and let TMI
    evaluation run as vectorized table gathers.  The masks of AB, AC, BC
    and ABC are derived where a gather needs them and not kept.  An
    ``orbits`` set holds one triple per {A, B, C, D} orbit of its family
    (see enumerate_partitions).  Scans read a set through ``_fill``, which
    writes any range of its triples; AssignmentFamily fills the same
    ranges without storing them.
    """

    # table rows _tmi_block gathers per triple (A, B, C, AB, AC, BC, ABC),
    # and rows of the largest table it builds per scan (none)
    _gathers, _difference_rows = 7, 0

    def __init__(self, n_sites: int, a: np.ndarray, b: np.ndarray, c: np.ndarray,
                 strategy: str = "explicit", orbits: bool = False):
        self.n_sites = n_sites
        self.orbits = orbits
        self.a, self.b, self.c = (_narrow(m, mask_dtype(n_sites)) for m in (a, b, c))
        if not (len(self.a) == len(self.b) == len(self.c)):
            raise ValueError("mask arrays must have equal length")
        self.strategy = strategy
        for arr in (self.a, self.b, self.c):
            arr.flags.writeable = False

    def __len__(self):
        return len(self.a)

    def __getitem__(self, i) -> tuple:
        i = range(len(self))[i]
        out = np.empty((3, 1), dtype=np.int64)
        self._fill(i, i + 1, out, np.empty(1, dtype=np.intp))
        return tuple(out[:, 0].tolist())

    def _fill(self, start: int, stop: int, out: np.ndarray, index: np.ndarray):
        """Write the masks a, b, c of triples start..stop-1 to the three rows of ``out``.

        ``index`` is intp scratch of at least stop - start entries, which
        an assignment family's deposits use; a stored set copies slices.
        """
        for row, masks in zip(out, (self.a, self.b, self.c)):
            row[:] = masks[start:stop]

    def _lookups(self, start: int, stop: int, out=None) -> np.ndarray:
        """The seven subset masks entering TMI for triples start..stop-1.

        A (7, n) stack in the order A, B, C, AB, AC, BC, ABC, written to the
        front columns of the int64 buffer ``out`` (new if None).
        """
        masks = np.empty((7, stop - start), dtype=np.int64) if out is None \
            else out[:, :stop - start]
        # ABC's row is the fill's scratch until the unions are formed
        self._fill(start, stop, masks[:3], masks[6])
        a, b, c = masks[:3]
        np.bitwise_or(a, b, out=masks[3])
        np.bitwise_or(a, c, out=masks[4])
        np.bitwise_or(b, c, out=masks[5])
        np.bitwise_or(masks[3], c, out=masks[6])
        return masks

    @cached_property
    def read_masks(self) -> np.ndarray:
        """Ascending distinct masks whose entropies some triple's TMI reads (read-only).

        An assignment family (its orbit set too) reads exactly the masks
        whose popcount is the sum of a nonempty subset of its part sizes,
        every nonempty mask for the all family: a part of each size fits
        beside any such mask.  Those are listed by popcount, with no pass
        over the triples.  Other sets mark each triple's lookups in a
        presence table of every mask.
        """
        n = self.n_sites
        if self.strategy.partition(":")[0] in (ALL_ASSIGNMENTS, FIXED_SIZES):
            sizes = parse_strategy(self.strategy)[1]
            popcounts = range(1, n + 1) if sizes is None else \
                {sum(part) for r in (1, 2, 3) for part in combinations(sizes, r)}
            # the sector bases' states, their concatenation and its sorted copy
            check_budget(f"the read masks of a {n}-site partition set",
                         24 * sum(math.comb(n, p) for p in popcounts), "in mask arrays")
            masks = _masks_of_popcounts(n, popcounts)
        else:
            # the table, the masks and the lookup buffer are guarded first
            rows = _BLOCK_BYTES // 8
            check_budget(f"the read masks of a {n}-site partition set",
                         (1 << n) + 8 * min(1 << n, 7 * len(self)) + 56 * min(rows, len(self)),
                         "in a presence table of every mask")
            seen = np.zeros(1 << n, dtype=bool)
            buffer = np.empty((7, min(rows, len(self))), dtype=np.int64)
            for start in range(0, len(self), rows):
                seen[self._lookups(start, min(start + rows, len(self)), buffer)] = True
            masks = np.flatnonzero(seen)
        masks.flags.writeable = False
        return masks

    @property
    def n_covering(self) -> int:
        """Number of triples whose A, B, C jointly cover every site.

        A pure state's covering triples have identically zero TMI (S_ABC = 0,
        S_AB = S_C and so on), so scans keep them apart from four-part splits.
        The unions are formed a block of _BLOCK_BYTES at a time.
        """
        full, rows = (1 << self.n_sites) - 1, _BLOCK_BYTES // 8
        blocks = (slice(k, k + rows) for k in range(0, len(self), rows))
        return sum(int(np.count_nonzero((self.a[s] | self.b[s] | self.c[s]) == full))
                   for s in blocks)

    @property
    def family_size(self) -> int:
        """Triples of the family the set stands for (an orbits set holds all
        S(N,3) covering triples of its S(N+1,4), and one per four of the rest)."""
        return _family_count(self.n_sites, None) if self.orbits else len(self)

    @property
    def layout_bytes(self) -> int:
        """Bytes the set builds on its first fill: none, for a stored set."""
        return 0

    def _tmi_block(self, table: SubsetEntropyTable, start: int = 0, stop: int | None = None,
                   idx=None, work=None, proper: bool = False, per_a=None) -> tuple:
        """TMI of triples start..stop-1 (all if stop is None), a row per triple,
        and with ``proper`` whether each covers the chain (else None).

        The gather behind tmi_values and tmi_extrema: one table.positions
        call checks the (7, rows) stack of lookup masks, one np.take copies
        their table rows into a (7, rows, ...) array, and tmi_terms sums it
        in place.  Masks go to the front columns of the int64 buffer
        ``idx`` and rows to the front of the flat buffer ``work`` (new if
        None; _gathers rows per triple), kept contiguous: np.take copies
        into a contiguous temporary an ``out`` that is not.  The TMI is a
        view.  ``per_a`` serves the all family alone (AssignmentFamily).
        """
        if table.n_sites != self.n_sites:
            raise ValueError("table and partitions disagree on chain length")
        masks = self._lookups(start, len(self) if stop is None else stop, idx)
        rows = _rows(masks.shape, table, work)
        # positions() checked every index; mode="raise" would copy via a buffer
        np.take(table.values, table.positions(masks), axis=0, mode="clip", out=rows)
        covers = masks[6] == (1 << self.n_sites) - 1 if proper else None
        return tmi_terms(*rows, in_place=True), covers

    def tmi_values(self, table: SubsetEntropyTable) -> np.ndarray:
        """TMI of every triple from one subset-entropy table (rows per triple)."""
        return self._tmi_block(table)[0]


class AssignmentFamily(PartitionSet):
    """An assignment family, streamed: the triples of enumerate_partitions, never stored.

    Every assignment, or with ``sizes`` those whose parts have these sizes
    in some order, in family order, and with ``orbits`` one triple per
    {A, B, C, D} orbit; it holds no mask arrays.  A, the smallest mask,
    takes any of the sizes and B and C the other two.  B and C label bits
    of the rest R of the chain.  Label tables index the ascending
    submasks of R, and depositing bits in R's positions keeps their order
    and popcounts, so (beta, gamma) order is (b, c) order; the rows with
    b > a form a suffix of the table.  The deposit looks each label up in
    two tables of R's submasks (bits.submask_tables), so no A costs a pass
    over all 2^N masks; the As are listed from the sector bases of their
    popcounts.  A never holds the top site, so R has at most N - 1 bits,
    the top one being the top site, and with ``orbits`` the tables keep
    the labelings that leave it to D or leave D empty.  The ``layout``,
    built on the first fill, holds the tables and the As with their
    slices; ``_fill`` writes any range of triples from it, and
    ``pset[i]`` fills one.  The all family's scans need no masks: they
    gather per-A difference tables by label (_tmi_block).
    """

    def __init__(self, n_sites: int, sizes=None, orbits: bool = False):
        if n_sites < 3:
            raise ValueError(f"need at least 3 sites to form a triple, got {n_sites}")
        if sizes is not None and sum(sizes) > n_sites:
            raise ValueError(f"sizes {sizes} do not fit a {n_sites}-site chain")
        self.n_sites, self.sizes, self.orbits = n_sites, sizes, orbits
        self._deposit = (None, None)  # see _deposit_tables
        if sizes is None:  # g at B, C and BC, over the submasks of R
            self._gathers, self._difference_rows = 3, 1 << (n_sites - 1)
        self.strategy = ALL_ASSIGNMENTS if sizes is None else \
            f"{FIXED_SIZES}:{','.join(map(str, sizes))}"

    def __len__(self):
        return _family_count(self.n_sites, self.sizes, orbits=self.orbits)

    @property
    def n_covering(self) -> int:
        """S(N,3) for the all family and its orbit set (each holds every
        split of the chain in three); all triples or none for fixed sizes."""
        if self.sizes is None:
            return _family_count(self.n_sites - 1, None, 2)
        return len(self) if sum(self.sizes) == self.n_sites else 0

    @property
    def layout_bytes(self) -> int:
        """Peak bytes of the layout's build: 24 B and six masks per row of
        its label tables (tracemalloc read at most 18 B and six masks for
        one table's build), 96 B per choice of A, and 128 B per entry of a
        sector basis' high-half table (model.SectorBasis) plus 64 KiB."""
        n = self.n_sites
        rests = _rest_sizes(n, self.sizes)
        return ((24 + 6 * mask_dtype(n).itemsize) * sum(_label_counts(n, self.sizes, self.orbits))
                + 96 * sum(math.comb(n, n - n_rest) for n_rest in rests)
                + (128 << n - n // 2) + (1 << 16))

    @cached_property
    def layout(self) -> tuple:
        """(label tables by size of the rest, the As, their offsets, their first label rows).

        The As ascend and have nonempty slices; A k's triples are
        offsets[k]..offsets[k+1]-1, their (B, C) labels rows first[k] on
        of its table.  The rows of a table whose B lies above A form a
        suffix: a label lies below A exactly when it sits under A's top
        bit, and those are the 2^(bit length - popcount of A) lowest.
        """
        n, dtype = self.n_sites, mask_dtype(self.n_sites)
        tables = {n_rest: _labelings(n_rest, pair, self.orbits, dtype)
                  for n_rest, pair in _rest_sizes(n, self.sizes).items()}
        masks = _masks_of_popcounts(n, [n - n_rest for n_rest in tables])
        pops = np.bitwise_count(masks).astype(np.int64)
        # np.frexp's exponent is the bit length of an int below 2^53
        below = np.left_shift(1, np.frexp(masks)[1] - pops, dtype=np.int64)
        first, count = np.empty((2, len(masks)), dtype=np.int64)
        for n_rest, (beta, _) in tables.items():
            of = pops == n - n_rest
            # a threshold of beta's type: an int64 one would have beta copied
            first[of] = np.searchsorted(beta, below[of].astype(dtype))
            count[of] = len(beta) - first[of]
        keep = count > 0
        offsets = np.concatenate([[0], np.cumsum(count[keep])])
        if offsets[-1] != len(self):
            raise AssertionError(f"laid out {offsets[-1]} triples, expected {len(self)}")
        return tables, masks[keep], offsets, first[keep]

    def _deposit_tables(self, k: int, dtype) -> tuple:
        """bits.submask_tables of the rest of A k, as ``dtype``: kept for the
        next call, as consecutive chunks mostly continue the same A."""
        if self._deposit[:2] != (k, dtype):
            a = int(self.layout[1][k])
            low, high, shift = submask_tables(((1 << self.n_sites) - 1) ^ a, self.n_sites)
            self._deposit = (k, dtype, low.astype(dtype, copy=False),
                             high.astype(dtype, copy=False), shift)
        return self._deposit[2:]

    def _pieces(self, start: int, stop: int):
        """(k, label rows, columns) of each A k whose slice meets start..stop-1:
        its (B, C) labels' rows of the table of its rest's size, and the
        columns of a start..stop-1 buffer its triples take."""
        offsets, first = self.layout[2:]
        k = int(np.searchsorted(offsets, start, side="right")) - 1
        pos = start
        while pos < stop:
            end, shift = min(stop, int(offsets[k + 1])), int(first[k]) - int(offsets[k])
            yield k, slice(pos + shift, end + shift), slice(pos - start, end - start)
            pos, k = end, k + 1

    def _fill(self, start: int, stop: int, out: np.ndarray, index: np.ndarray):
        """Deposit the labels of each A whose slice meets start..stop-1 (see the class)."""
        tables, masks = self.layout[:2]
        for k, labels, cols in self._pieces(start, stop):
            a = int(masks[k])
            beta, gamma = tables[self.n_sites - a.bit_count()]
            # B and C: each label's bits on the rest's sites, looked up in two
            # tables; a's row holds the low table's part until a is written
            low, high, shift = self._deposit_tables(k, out.dtype)
            i, part = index[:cols.stop - cols.start], out[0, cols]
            for row, label in zip(out[1:3, cols], (beta[labels], gamma[labels])):
                np.right_shift(label, shift, out=i)
                np.take(high, i, out=row, mode="clip")  # in range; "raise" would copy
                np.bitwise_and(label, len(low) - 1, out=i)
                row |= np.take(low, i, out=part, mode="clip")
            part[:] = a

    def _differences(self, k: int, table: SubsetEntropyTable, out: np.ndarray) -> tuple:
        """(S_A, lowest label read, g) of A k over ``table``'s columns.

        g holds S_X - S_{A u X} at row x - lowest, for X the x-th smallest
        submask of the rest R: no triple of A reads a label under A's top
        bit (see layout).  The masks are deposited through _deposit_tables
        and read through table.positions, so one the table lacks raises
        KeyError.  g takes the front of the flat buffer ``out``, and
        S_{A u X} is subtracted a block of rows at a time in the
        _BLOCK_BYTES (a row at least) that follow it.
        """
        a = int(self.layout[1][k])
        low, high, shift = self._deposit_tables(k, np.int64)
        lowest = 1 << (a.bit_length() - a.bit_count())
        labels = np.arange(lowest, 1 << (self.n_sites - a.bit_count()))
        subs = high[labels >> shift] | low[labels & (len(low) - 1)]
        pos = table.positions(np.concatenate([subs, subs | a, [a]]))
        shape, width = table.values.shape[1:], math.prod(table.values.shape[1:])
        g = out[:len(subs) * width].reshape((len(subs),) + shape)
        step = max(1, _BLOCK_BYTES // (8 * width))
        block = out[g.size:g.size + step * width].reshape((step,) + shape)
        np.take(table.values, pos[:len(subs)], axis=0, mode="clip", out=g)
        for at in range(0, len(subs), step):
            rows = g[at:at + step]
            np.take(table.values, pos[len(subs) + at:len(subs) + at + len(rows)], axis=0,
                    mode="clip", out=block[:len(rows)])
            rows -= block[:len(rows)]
        return table.values[pos[-1]], lowest, g

    def _tmi_block(self, table: SubsetEntropyTable, start: int = 0, stop: int | None = None,
                   idx=None, work=None, proper: bool = False, per_a=None) -> tuple:
        """PartitionSet._tmi_block; for the all family, three rows per triple
        gathered by label from the A's difference table (_differences).

        With g = g_A, TMI = S_A + ((g(B) + g(C)) - g(BC)), the order of
        entropy.tmi_terms, so the bits are those of the seven lookups.  The
        rows of beta, gamma and beta | gamma in g go to the rows of ``idx``,
        their values to ``work``; a triple covers the chain when
        beta | gamma is R's full label.  ``per_a`` (a _PerA) holds the
        table between calls; no mask is filled.
        """
        if self.sizes is not None:
            return super()._tmi_block(table, start, stop, idx, work, proper)
        if table.n_sites != self.n_sites:
            raise ValueError("table and partitions disagree on chain length")
        stop = len(self) if stop is None else stop
        index = np.empty((3, stop - start), dtype=np.int64) if idx is None \
            else idx[:3, :stop - start]
        rows = _rows(index.shape, table, work)
        covers = np.empty(stop - start, dtype=bool) if proper else None
        per_a = _PerA(self, table.values.shape[1:]) if per_a is None else per_a
        tables, masks = self.layout[:2]
        for k, part, cols in self._pieces(start, stop):
            s_a, lowest, g = per_a.table(k, table)
            n_rest = self.n_sites - int(masks[k]).bit_count()
            beta, gamma = (labels[part] for labels in tables[n_rest])
            i, r = index[:, cols], rows[:, cols]
            np.bitwise_or(beta, gamma, out=i[2])
            if proper:
                np.equal(i[2], (1 << n_rest) - 1, out=covers[cols])
            np.subtract(beta, lowest, out=i[0])
            np.subtract(gamma, lowest, out=i[1])
            i[2] -= lowest
            for row, at in zip(r, i):
                np.take(g, at, axis=0, mode="clip", out=row)  # rows of g, in range
            r[0] += r[1]
            r[0] -= r[2]
            np.add(s_a, r[0], out=r[0])
        return rows[0], covers


class _PerA:
    """One scan's per-A difference table (AssignmentFamily._differences),
    kept while consecutive chunks read the same A of the same table object:
    the tie pass reads a copy of some of the columns, which a table over
    every column must not serve.  Its buffer fits the largest table, and
    a block, over ``shape`` columns."""

    def __init__(self, family: AssignmentFamily, shape: tuple):
        width = math.prod(shape)
        self.family, self.key, self.built = family, (None, None), None
        self.buffer = np.empty(family._difference_rows * width + max(width, _BLOCK_BYTES // 8))

    def table(self, k: int, table: SubsetEntropyTable) -> tuple:
        if self.key[0] != k or self.key[1] is not table:
            self.key = (None, None)  # the buffer no longer holds the old table
            self.built = self.family._differences(k, table, self.buffer)
            self.key = (k, table)
        return self.built


def _masks_of_popcounts(n_sites: int, counts) -> np.ndarray:
    """The int64 masks of ``n_sites`` bits whose popcount is in ``counts``, ascending."""
    return np.sort(np.concatenate([SectorBasis(n_sites, p).states for p in counts]))


def _rows(shape: tuple, table: SubsetEntropyTable, work) -> np.ndarray:
    """An array of ``table``'s rows at ``shape``: the front of ``work``, or new if None."""
    shape += table.values.shape[1:]
    return np.empty(shape) if work is None else work[:math.prod(shape)].reshape(shape)


def _narrow(masks, dtype) -> np.ndarray:
    """``masks`` as an array of ``dtype``; ValueError if the cast changes a value."""
    masks = np.asarray(masks)
    narrow = masks.astype(dtype, copy=False)
    if narrow is not masks and not np.array_equal(narrow, masks):
        raise ValueError(f"masks do not fit {dtype} unchanged")
    return narrow


@dataclass
class TmiSeries:
    """Per-column TMI extrema over a partition set, as arrays over the columns.

    ``argmin`` / ``argmax`` hold the index of the extremal triple in the
    set and ``min_triples`` / ``max_triples`` its masks, a row (a, b, c)
    per column; ``min_proper`` is the minimum over triples that leave part
    of the chain out, or None when it was not asked for or every triple
    covers the chain.
    """

    min_values: np.ndarray
    argmin: np.ndarray
    max_values: np.ndarray
    argmax: np.ndarray
    min_triples: np.ndarray
    max_triples: np.ndarray
    min_proper: np.ndarray | None = None


def contiguous_quarters(n_sites: int) -> tuple:
    """Masks (a, b, c) of the first, second and third quarter of the chain (D implied)."""
    if n_sites % 4 != 0:
        raise ValueError(f"chain length {n_sites} is not divisible by 4")
    w = n_sites // 4
    block = (1 << w) - 1
    return block, block << w, block << (2 * w)


def fixed_sizes_count(n_sites: int, sizes) -> int:
    """Number of canonical triples (len(sizes)-tuples) in the fixed-sizes family."""
    count, free = 1, n_sites
    for size in sizes:
        count *= math.comb(free, size)
        free -= size
    # labeled tuples, divided by the relabelings among equal sizes
    for size in set(sizes):
        count //= math.factorial(sizes.count(size))
    return count


def _family_count(n_sites: int, sizes, parts: int = 3, orbits: bool = False) -> int:
    """Canonical ``parts``-tuples of assignments with these sizes (None: any).

    With ``orbits``, those whose remainder holds the top site (tuples of the
    other sites) or is empty (one part fewer; the leftover joins the top's).
    """
    if orbits:
        return sum(_family_count(n_sites - 1, None, p) for p in (parts, parts - 1))
    if sizes is not None:
        return fixed_sizes_count(n_sites, sizes)
    # inclusion-exclusion over empty bins, divided by the relabelings
    return sum((-1)**j * math.comb(parts, j) * (parts + 1 - j)**n_sites
               for j in range(parts + 1)) // math.factorial(parts)


def _rest_sizes(n_sites: int, sizes) -> dict:
    """For each number of sites A may leave, the sizes of B and C (None: any)."""
    if sizes is None:
        return dict.fromkeys(range(2, n_sites))
    return {n_sites - size: sizes[:i] + sizes[i + 1:] for i, size in enumerate(sizes)}


def _labelings(n_bits: int, pair, orbits: bool, dtype):
    """(B, C) labelings of n_bits bits, as (beta, gamma) mask arrays of ``dtype``.

    Keeps disjoint nonempty beta < gamma, sorted by (beta, gamma), whose
    popcounts are ``pair`` in either order (any, if None), and with
    ``orbits`` only those whose union lacks the top bit or is every bit.
    Built by ternary doubling from the top bit down: each bit goes to
    neither part, to C or to B.  The highest bit either part holds decides
    beta < gamma, so a labeling with beta > gamma is dropped as soon as it
    appears; so is one whose smaller or larger part outgrows the pair's or
    whose parts can no longer grow into it on the bits left, and with
    ``orbits`` one that holds the top bit but skips a later one.  So every
    labeling kept at a step extends to a distinct one of the result.
    """
    def sizes_fit(beta, gamma, free):  # the pair's sizes are still reachable
        n_b, n_c = np.bitwise_count(beta), np.bitwise_count(gamma)
        return ((np.minimum(n_b, n_c) <= min(pair)) & (np.maximum(n_b, n_c) <= max(pair))
                & (n_b + n_c >= sum(pair) - free))

    beta = gamma = np.zeros(1, dtype=dtype)

    for i in reversed(range(n_bits)):
        beta = np.concatenate([beta, beta, beta | (1 << i)])
        gamma = np.concatenate([gamma, gamma | (1 << i), gamma])
        keep = beta <= gamma
        if pair is not None:
            keep &= sizes_fit(beta, gamma, i)
        if orbits:  # a union with the top bit holds every bit so far
            union = beta | gamma
            keep &= (union < 1 << (n_bits - 1)) | (union == (1 << n_bits) - (1 << i))
        beta, gamma = beta[keep], gamma[keep]
    keep = beta > 0
    beta, gamma = beta[keep], gamma[keep]
    order = np.lexsort((gamma, beta))
    return beta[order], gamma[order]


def _label_counts(n_sites: int, sizes, orbits: bool) -> list:
    """Rows of each (B, C) labeling table of an assignment family (see _labelings)."""
    return [_family_count(n_rest, pair, 2, orbits)
            for n_rest, pair in _rest_sizes(n_sites, sizes).items()]


def _enumerate_assignments(n_sites: int, sizes=None, orbits: bool = False) -> PartitionSet:
    """The triples of AssignmentFamily(n_sites, sizes, orbits), stored: one
    fill of the family's whole range into a (3, len) buffer."""
    family = AssignmentFamily(n_sites, sizes, orbits)
    offsets = family.layout[2]
    out = np.empty((3, len(family)), dtype=mask_dtype(n_sites))
    family._fill(0, len(family), out, np.empty(np.diff(offsets).max(), dtype=np.intp))
    return PartitionSet(n_sites, *out, strategy=family.strategy, orbits=orbits)


def _enumerate_contiguous_blocks(n_sites: int) -> PartitionSet:
    def block(lo, hi):  # sites lo..hi-1
        return ((1 << (hi - lo)) - 1) << lo

    triples = []
    for n_blocks in (3, 4):
        for cuts in combinations(range(1, n_sites), n_blocks - 1):
            edges = (0, *cuts, n_sites)
            triples.append(tuple(block(edges[i], edges[i + 1]) for i in range(3)))
    # position order is mask order for contiguous blocks, already canonical
    triples.sort()
    return PartitionSet(n_sites, *zip(*triples), strategy=CONTIGUOUS_BLOCKS)


_STRATEGY_NAMES = {
    "quarters": QUARTERS,
    "all": ALL_ASSIGNMENTS, "all-assignments": ALL_ASSIGNMENTS,
    "contiguous": CONTIGUOUS_BLOCKS, "contiguous-blocks": CONTIGUOUS_BLOCKS,
    "blocks": CONTIGUOUS_BLOCKS,
    "fixed": FIXED_SIZES, "fixed-sizes": FIXED_SIZES,
}


def parse_strategy(text: str):
    """Normalize a strategy descriptor like 'quarters', 'all' or 'fixed:3,3,3'.

    Returns (strategy constant, sizes tuple or None).  Only the fixed-sizes
    strategy takes sizes, and it needs three positive integers.
    """
    name, colon, arg = text.partition(":")
    strategy = _STRATEGY_NAMES.get(name.strip().lower().replace("_", "-"))
    if strategy is None:
        raise ValueError(f"unknown partition strategy {text!r}")
    if strategy != FIXED_SIZES:
        if colon:
            raise ValueError(f"partition strategy {text!r} takes no sizes")
        return strategy, None
    try:
        sizes = tuple(int(s) for s in arg.split(","))
    except ValueError:
        sizes = ()
    if len(sizes) != 3 or min(sizes) < 1:
        raise ValueError(f"fixed-sizes strategy needs three positive sizes, "
                         f"e.g. 'fixed:3,3,3', got {text!r}")
    return FIXED_SIZES, sizes


def enumerate_partitions(n_sites: int, strategy: str = ALL_ASSIGNMENTS,
                         orbits: bool = False) -> PartitionSet:
    """All canonical partition triples of a family, named as parse_strategy reads it.

    'all' (all-assignments): every site->{A,B,C,D} map with A, B, C
    nonempty (D may be empty), one representative per unordered {A,B,C}.
    'contiguous' (contiguous-blocks): chain cuts into 3 or 4 consecutive
    blocks.  'fixed:SA,SB,SC' (fixed-sizes): all assignments with
    |A|, |B|, |C| = SA, SB, SC.

    With ``orbits`` the all family keeps one triple per orbit {A,B,C},
    {A,B,D}, {A,C,D}, {B,C,D}: the first in family order, whose D is empty
    or holds the top site (S(N,3) + S(N,4) triples, 698,027 of 2,532,530
    at N=12).  A pure state's TMI is symmetric in A, B, C and D, so these
    give the family's extrema.  Other families are enumerated whole.

    An assignment family is guarded (its masks, label tables and lookup
    index) and then filled; AssignmentFamily streams the same triples
    without storing them.
    """
    strategy, sizes = parse_strategy(strategy)
    if n_sites < 3:
        raise ValueError(f"need at least 3 sites to form a triple, got {n_sites}")
    if strategy == CONTIGUOUS_BLOCKS:
        return _enumerate_contiguous_blocks(n_sites)
    if strategy == ALL_ASSIGNMENTS:
        name = "all-assignments family"
    elif strategy == FIXED_SIZES:
        name = f"fixed-sizes family {','.join(map(str, sizes))}"
        orbits = False
    else:
        raise ValueError(f"partition strategy {strategy!r} is one triple, not a family")
    family = AssignmentFamily(n_sites, sizes, orbits)
    # three masks per triple and per row of the label tables, and an intp
    # lookup index as long as the largest; or the layout's build, if larger
    labels = _label_counts(n_sites, sizes, orbits)
    need = max(3 * mask_dtype(n_sites).itemsize * (len(family) + sum(labels))
               + 8 * max(labels), family.layout_bytes)
    check_budget(f"{name} of {n_sites} sites has {len(family):,} "
                 f"{'orbit representatives' if orbits else 'triples'}",
                 need, "of masks and scratch")
    return _enumerate_assignments(n_sites, sizes, orbits)


def _near(vals: np.ndarray, lo, hi) -> tuple:
    """Whether each value lies within EXTREMUM_TIE_TOL of its column's lo, and of its hi."""
    return vals <= lo + EXTREMUM_TIE_TOL, vals >= hi - EXTREMUM_TIE_TOL


def _first_within(vals: np.ndarray, lo, hi) -> tuple:
    """Per column, the first row within EXTREMUM_TIE_TOL of lo, and of hi.

    Mirror-image triples have equal TMI in exact arithmetic, so the pick
    among values that tie with an extremum is the first triple in
    enumeration order rather than the last bit.
    """
    return tuple(np.argmax(near, axis=0) for near in _near(vals, lo, hi))


def _chunk_plan(n_triples: int, n_columns: int) -> tuple:
    """(triples per chunk, chunks per segment, segments) of a scan over ``n_columns``.

    A chunk gathers at most _BLOCK_BYTES per lookup row (one triple at
    least); a segment takes the fewest whole chunks that keep the
    segments within _SEGMENTS.
    """
    rows = max(1, _BLOCK_BYTES // (8 * n_columns))
    chunks = -(-n_triples // rows)
    per_segment = max(1, -(-chunks // _SEGMENTS))
    return rows, per_segment, -(-chunks // per_segment)


def scan_bytes(pset: PartitionSet, n_columns: int) -> int:
    """Bytes tmi_extrema holds to scan ``pset`` over ``n_columns``.

    Per triple of a chunk and row it gathers (pset._gathers: 7 lookups,
    or 3 labels of the all family): the mask or label, its table position
    and np.take's intp copy of those, and the gathered row per column;
    then, per column, a time-major copy, a proper-split copy and a row for
    the tie tests.  The all family's per-A difference table
    (pset._difference_rows rows at most): a row per column, 128 B a row
    for its build, and the block its subtraction runs in.  Per segment
    and column: the two records and the tie tests' flags; per column, 32
    more values; 8 KiB fixed.  Bounded at any number of triples.
    """
    rows, _, n_segments = _chunk_plan(len(pset), n_columns)
    gathers, table_rows = pset._gathers, pset._difference_rows
    return (8 * min(rows, len(pset)) * (3 * gathers + (gathers + 3) * n_columns)
            + table_rows * (8 * n_columns + 128)
            + (table_rows > 0) * (_BLOCK_BYTES + 8 * n_columns)
            + n_columns * (20 * n_segments + 256) + (1 << 13))


def tmi_extrema(pset: PartitionSet, table: SubsetEntropyTable, times,
                proper: bool = False) -> TmiSeries:
    """Per-column TMI extrema over a partition set, from a time-batched table.

    ``table`` holds a column of entropies per entry of ``times``, which
    names the columns (a time, or any label) in the error a non-finite TMI
    raises.  The triples are read once, in chunks, each gathering whole
    table rows for every column at once (``_tmi_block``: seven lookups
    per triple, or three rows of a per-A difference table for the all
    family).  Ties resolve as by the brute-force reference.extrema
    (_first_within).  ``argmin``/``argmax`` index ``pset``,
    ``min_triples``/``max_triples`` hold the picks' masks, filled at the
    end for the picked triples alone, and ``min_proper`` is filled when
    ``proper`` is set.  An ``orbits`` set needs a pure state's table: its
    TMI ties across each orbit up to roundoff, and each representative
    comes first in its orbit, so the picks are the family's.

    The extrema are recorded per segment of whole chunks (_chunk_plan).
    Only the first segment holding a value within EXTREMUM_TIE_TOL of an
    extremum is read again, chunk by chunk in the same buffers and for the
    columns whose pick it places, to place the pick: no earlier segment
    holds such a value, so the pick is the one reference.extrema would
    make.  A non-finite TMI raises
    NumericalConsistencyError naming its column.
    """
    if len(pset) == 0:
        raise ValueError("empty partition list")
    n_t = table.values.shape[1]
    rows, per_segment, n_segments = _chunk_plan(len(pset), n_t)
    # scratch reused by every chunk: new arrays this large come from mmap
    # and fault in their pages, chunk after chunk
    size = min(rows, len(pset))
    idx = np.empty((pset._gathers, size), dtype=np.int64)
    work, by_time = np.empty(pset._gathers * size * n_t), np.empty(n_t * size)
    per_a = _PerA(pset, (n_t,)) if pset._difference_rows else None

    def chunks(segment, columns=table, proper=False):
        """(first triple, TMI values, covering flags or None) of each chunk of a segment."""
        stop = min((segment + 1) * per_segment * rows, len(pset))
        for start in range(segment * per_segment * rows, stop, rows):
            yield start, *pset._tmi_block(columns, start, min(start + rows, stop), idx, work,
                                          proper, per_a)

    seg_lo, seg_hi = np.full((n_segments, n_t), np.inf), np.full((n_segments, n_t), -np.inf)
    chunk_lo, chunk_hi = np.empty((2, n_t))
    proper_lo = None
    for s in range(n_segments):
        for _, vals, covers in chunks(s, proper=proper):
            if len(vals) <= n_t:  # a short chunk of wide rows: fold its rows together
                vals.min(axis=0, out=chunk_lo)
                vals.max(axis=0, out=chunk_hi)
            else:  # reduce a time-major copy along its rows: contiguous, unlike axis 0
                vals_t = by_time[:vals.size].reshape(n_t, len(vals))
                np.copyto(vals_t, vals.T)
                vals_t.min(axis=1, out=chunk_lo)
                vals_t.max(axis=1, out=chunk_hi)
            bad = ~(np.isfinite(chunk_lo) & np.isfinite(chunk_hi))
            if bad.any():
                raise NumericalConsistencyError(
                    f"non-finite TMI at t={times[int(np.argmax(bad))]}")
            np.minimum(seg_lo[s], chunk_lo, out=seg_lo[s])
            np.maximum(seg_hi[s], chunk_hi, out=seg_hi[s])
            if proper and not covers.all():
                lo_k = vals[~covers].min(axis=0)
                proper_lo = lo_k if proper_lo is None else np.minimum(proper_lo, lo_k)
    lo, hi = seg_lo.min(axis=0), seg_hi.max(axis=0)
    firsts = (_first_within(seg_lo, lo, hi)[0], _first_within(seg_hi, lo, hi)[1])
    index = np.empty((2, n_t), dtype=np.int64)
    for s in sorted(set(np.concatenate(firsts).tolist())):
        # the segment is read again for the columns it places a pick in alone
        cols = np.flatnonzero((firsts[0] == s) | (firsts[1] == s))
        pending = [first[cols] == s for first in firsts]
        columns = table if len(cols) == n_t else \
            SubsetEntropyTable(table.n_sites, table.rows, table.values[:, cols])
        for start, vals, _ in chunks(s, columns):
            for side, near in enumerate(_near(vals, lo[cols], hi[cols])):
                found = pending[side] & near.any(axis=0)
                index[side, cols[found]] = start + np.argmax(near, axis=0)[found]
                pending[side] &= ~found
            if not (pending[0].any() or pending[1].any()):
                break
    # the masks of each picked triple, filled once
    picks, where = np.unique(index, return_inverse=True)
    masks = np.empty((3, len(picks)), dtype=np.int64)
    for j, i in enumerate(picks):
        pset._fill(int(i), int(i) + 1, masks[:, j:j + 1], np.empty(1, dtype=np.intp))
    min_triples, max_triples = masks.T[where.reshape(index.shape)]
    return TmiSeries(lo, index[0], hi, index[1], min_triples, max_triples, proper_lo)


def tau_sign_change(times, min_values, threshold: float = 0.0):
    """First time the minimal TMI track drops below -threshold, or None.

    Linear interpolation between the bracketing sample times; a track
    already below the threshold at its first sample reports that sample
    time (typically 0).
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    track = np.asarray(min_values, dtype=float)
    below = np.nonzero(track < -threshold)[0]
    if len(below) == 0:
        return None
    i = int(below[0])
    if i == 0:
        return float(times[0])
    t0, t1 = times[i - 1], times[i]
    v0, v1 = track[i - 1], track[i]
    return float(t0 + (-threshold - v0) * (t1 - t0) / (v1 - v0))


def _min_pair_distance(mask_x: int, mask_y: int) -> int:
    xs = np.asarray(bit_positions(mask_x))
    ys = np.asarray(bit_positions(mask_y))
    return int(np.min(np.abs(xs[:, None] - ys[None, :])))


def lightcone_onset(spec: ModelSpec, partition: tuple) -> float:
    """Earliest time the triple of masks (a, b, c) can develop three-party correlations.

    Distance over velocity with v = 4*J0 and r the largest of the three
    pairwise minimal inter-subset distances: all three subsystems must be
    inside each other's light cone before the TMI can be sizable.  The
    distance convention is a modeling choice, recorded in run metadata.
    """
    r = max(_min_pair_distance(x, y) for x, y in combinations(partition, 2))
    return r / (4.0 * spec.j0)
