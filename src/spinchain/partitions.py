"""Subsystem partition enumeration and TMI extremum scans.

A site subset is an int bitmask, site i being bit i.  A partition triple
is an unordered set {A, B, C} of pairwise disjoint, nonempty subsets; the
remainder D is implied and may be empty.  Its canonical form is the
ascending tuple (a, b, c) of its masks, which makes enumeration lists
reproducible and extremum tie-breaking deterministic.

Scanning TMI over millions of triples reduces to seven table lookups per
triple once subset entropies are tabulated.  ``tmi_extrema`` takes a
time-batched table (a column per time) and streams the triples in chunks
through buffers made once per scan: each chunk stacks its seven lookup
masks, gathers their whole table rows in one np.take, sums the TMI in
place and reduces a time-major copy to its extrema.
For a pure state the TMI is symmetric in A, B, C and the remainder D
(acceptance criterion 5), so the runners scan the all-assignments family
through one stored triple per {A, B, C, D} orbit, about a quarter of it.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
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

# Scratch bytes per mask of the chain (2^N) that enumerating a family of
# assignments holds beside its masks and labeling tables: the masks 0..2^N-1
# (up to 8), their popcounts (1) and the choices of A (a flag and up to 8 B
# each); per A it only adds tables of about 2^(N/2) submasks
SCRATCH_BYTES_PER_MASK = 32
# TMI values this close to an extremum tie with it (roundoff, not physics)
EXTREMUM_TIE_TOL = 1e-12
# Bytes of one block of TMI values in tmi_extrema (its scratch holds eight
# arrays this size).  The N=12 all-assignments k=1 scan at 5/17/41 times
# took 0.23/0.69/1.51 s in 128 KiB, 0.25/0.70/1.58 s in 256 KiB and
# 0.26/0.71/1.46 s in 512 KiB blocks (best of 5, 2-core Xeon, 2 MiB L2/core)
_BLOCK_BYTES = 1 << 18

__all__ = [
    "PartitionSet", "TmiSeries",
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
    (see enumerate_partitions).
    """

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
        return int(self.a[i]), int(self.b[i]), int(self.c[i])

    def _lookups(self, triples: slice, out=None) -> np.ndarray:
        """The seven subset masks entering TMI for the ``triples``.

        A (7, n) stack in the order A, B, C, AB, AC, BC, ABC, written to the
        front columns of the int64 buffer ``out`` (new if None).
        """
        n = len(self.a[triples])
        masks = np.empty((7, n), dtype=np.int64) if out is None else out[:, :n]
        masks[0], masks[1], masks[2] = self.a[triples], self.b[triples], self.c[triples]
        a, b, c = masks[:3]
        masks[3], masks[4], masks[5] = a | b, a | c, b | c
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
            counts = range(1, n + 1) if sizes is None else \
                {sum(part) for r in (1, 2, 3) for part in combinations(sizes, r)}
            masks = np.sort(np.concatenate([SectorBasis(n, p).states for p in counts]))
        else:
            # the table, the masks and the lookup buffer are guarded first
            rows = _BLOCK_BYTES // 8
            check_budget(f"the read masks of a {n}-site partition set",
                         (1 << n) + 8 * min(1 << n, 7 * len(self)) + 56 * min(rows, len(self)),
                         "in a presence table of every mask")
            seen = np.zeros(1 << n, dtype=bool)
            buffer = np.empty((7, min(rows, len(self))), dtype=np.int64)
            for start in range(0, len(self), rows):
                seen[self._lookups(slice(start, start + rows), buffer)] = True
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

    def _tmi_block(self, table: SubsetEntropyTable, triples=slice(None),
                   idx=None, work=None) -> tuple:
        """TMI of the ``triples`` (a slice), a row per triple, and their lookup masks.

        The one gather behind tmi_values and tmi_extrema: one
        table.positions call checks the (7, rows) stack of lookup masks,
        one np.take copies their table rows into a (7, rows, ...) array,
        and tmi_terms sums it in place.  Masks and rows go to the front
        columns of ``idx`` and ``work`` (new if None); the TMI is a view.
        """
        if table.n_sites != self.n_sites:
            raise ValueError("table and partitions disagree on chain length")
        masks = self._lookups(triples, idx)
        rows = np.empty(masks.shape + table.values.shape[1:]) if work is None \
            else work[:, :masks.shape[1]]
        # positions() checked every index; mode="raise" would copy via a buffer
        np.take(table.values, table.positions(masks), axis=0, mode="clip", out=rows)
        return tmi_terms(*rows, in_place=True), masks

    def tmi_values(self, table: SubsetEntropyTable) -> np.ndarray:
        """TMI of every triple from one subset-entropy table (rows per triple)."""
        return self._tmi_block(table)[0]


def _narrow(masks, dtype) -> np.ndarray:
    """``masks`` as an array of ``dtype``; ValueError if the cast changes a value."""
    masks = np.asarray(masks)
    narrow = masks.astype(dtype, copy=False)
    if narrow is not masks and not np.array_equal(narrow, masks):
        raise ValueError(f"masks do not fit {dtype} unchanged")
    return narrow


@dataclass
class TmiSeries:
    """Per-time TMI extrema over a partition set, as arrays over time.

    ``argmin`` / ``argmax`` hold the index of the extremal triple in the
    set; ``min_proper`` is the minimum over triples that leave part of the
    chain out, or None when it was not asked for or every triple covers
    the chain.
    """

    min_values: np.ndarray
    argmin: np.ndarray
    max_values: np.ndarray
    argmax: np.ndarray
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
    appears; so is one whose smaller or larger part outgrows the pair's,
    and with ``orbits`` one that holds the top bit but skips a later one.
    """
    def sizes_are(test, beta, gamma):  # the smaller and larger part against the pair's
        n_b, n_c = np.bitwise_count(beta), np.bitwise_count(gamma)
        return test(np.minimum(n_b, n_c), min(pair)) & test(np.maximum(n_b, n_c), max(pair))

    beta = gamma = np.zeros(1, dtype=dtype)

    for i in reversed(range(n_bits)):
        beta = np.concatenate([beta, beta, beta | (1 << i)])
        gamma = np.concatenate([gamma, gamma | (1 << i), gamma])
        keep = beta <= gamma
        if pair is not None:
            keep &= sizes_are(np.less_equal, beta, gamma)
        if orbits:  # a union with the top bit holds every bit so far
            union = beta | gamma
            keep &= (union < 1 << (n_bits - 1)) | (union == (1 << n_bits) - (1 << i))
        beta, gamma = beta[keep], gamma[keep]
    keep = beta > 0
    if pair is not None:
        keep &= sizes_are(np.equal, beta, gamma)
    beta, gamma = beta[keep], gamma[keep]
    order = np.lexsort((gamma, beta))
    return beta[order], gamma[order]


def _enumerate_assignments(n_sites: int, sizes=None, orbits: bool = False) -> PartitionSet:
    """Canonical triples in (a, b, c) order, one numpy slice per A.

    Every assignment, or with ``sizes`` those whose parts have these sizes
    in some order: A, the smallest mask, takes any of them and B and C the
    other two.  B and C label bits of the rest R of the chain.  Label
    tables index the ascending submasks of R, and depositing bits in R's
    positions keeps their order and popcounts, so (beta, gamma) order is
    (b, c) order; the rows with b > a form a suffix of the table.  The
    deposit looks each label up in two tables of R's submasks
    (bits.submask_tables), so no A costs a pass over all 2^N masks.  A never
    holds the top site, the top bit of R, so with ``orbits`` the tables
    keep the labelings that leave it to D or leave D empty.
    """
    dtype = mask_dtype(n_sites)
    counts = np.bitwise_count(np.arange(1 << n_sites, dtype=dtype))
    tables = {n_rest: _labelings(n_rest, pair, orbits, dtype)
              for n_rest, pair in _rest_sizes(n_sites, sizes).items()}
    total = _family_count(n_sites, sizes, orbits=orbits)
    out = np.empty((3, total), dtype=dtype)
    # np.take would copy a narrower index to intp, label by label
    lookup = np.empty(max(len(beta) for beta, _ in tables.values()), dtype=np.intp)
    pos, full = 0, (1 << n_sites) - 1
    for a in map(int, np.flatnonzero(np.isin(counts, [n_sites - n for n in tables]))):
        beta, gamma = tables[n_sites - a.bit_count()]
        rest = full ^ a
        # a submask of the rest (disjoint from a) is below a exactly when it
        # lies under a's top bit: the 2^popcount of those bits lowest labels
        below = rest & ((1 << (a.bit_length() - 1)) - 1)
        # (a value of beta's type: a Python int would have beta copied to int64)
        first = int(np.searchsorted(beta, dtype.type(1 << below.bit_count())))
        stop = pos + len(beta) - first
        if stop == pos:
            continue
        # B and C: each label's bits on the rest's sites, looked up in two
        # tables; a's row holds the low table's part until a is written
        low, high, shift = submask_tables(rest, n_sites)
        index, part = lookup[:stop - pos], out[0, pos:stop]
        for row, label in zip(out[1:, pos:stop], (beta[first:], gamma[first:])):
            np.right_shift(label, shift, out=index)
            np.take(high, index, out=row, mode="clip")  # in range; "raise" would copy
            np.bitwise_and(label, len(low) - 1, out=index)
            row |= np.take(low, index, out=part, mode="clip")
        part[:] = a
        pos = stop
    if pos != total:
        raise AssertionError(f"enumerated {pos} triples, expected {total}")
    strategy = ALL_ASSIGNMENTS if sizes is None else \
        f"{FIXED_SIZES}:{','.join(map(str, sizes))}"
    return PartitionSet(n_sites, *out, strategy=strategy, orbits=orbits)


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


@lru_cache(maxsize=4)
def _enumerate_cached(n_sites: int, strategy: str, sizes, orbits: bool):
    if strategy == CONTIGUOUS_BLOCKS:
        return _enumerate_contiguous_blocks(n_sites)
    if strategy == ALL_ASSIGNMENTS:
        name = "all-assignments family"
    elif strategy == FIXED_SIZES:
        if sum(sizes) > n_sites:
            raise ValueError(f"sizes {sizes} do not fit a {n_sites}-site chain")
        name = f"fixed-sizes family {','.join(map(str, sizes))}"
    else:
        raise ValueError(f"partition strategy {strategy!r} is one triple, not a family")
    count = _family_count(n_sites, sizes, orbits=orbits)
    labels = [_family_count(n_rest, pair, 2, orbits)
              for n_rest, pair in _rest_sizes(n_sites, sizes).items()]
    # three masks per triple; beta, gamma and gamma's pieces per row of the
    # (B, C) labeling tables; an intp lookup index as long as the largest
    need = 3 * mask_dtype(n_sites).itemsize * (count + sum(labels)) + 8 * max(labels)
    check_budget(f"{name} of {n_sites} sites has {count:,} "
                 f"{'orbit representatives' if orbits else 'triples'}",
                 need + (SCRATCH_BYTES_PER_MASK << n_sites), "of masks and scratch")
    return _enumerate_assignments(n_sites, sizes, orbits)


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
    """
    strategy, sizes = parse_strategy(strategy)
    if n_sites < 3:
        raise ValueError(f"need at least 3 sites to form a triple, got {n_sites}")
    return _enumerate_cached(n_sites, strategy, sizes, orbits and strategy == ALL_ASSIGNMENTS)


def _first_within(vals: np.ndarray, lo, hi) -> tuple:
    """Per column, the first row within EXTREMUM_TIE_TOL of lo, and of hi.

    Mirror-image triples have equal TMI in exact arithmetic, so the pick
    among values that tie with an extremum is the first triple in
    enumeration order rather than the last bit.
    """
    return (np.argmax(vals <= lo + EXTREMUM_TIE_TOL, axis=0),
            np.argmax(vals >= hi - EXTREMUM_TIE_TOL, axis=0))


def tmi_extrema(pset: PartitionSet, table: SubsetEntropyTable, times,
                proper: bool = False) -> TmiSeries:
    """Per-time TMI extrema over a partition set, from a time-batched table.

    ``table`` holds a column of entropies per entry of ``times``.  The
    triples stream through in slices, each gathering whole table rows for
    every time at once (PartitionSet._tmi_block).  Ties resolve as by the
    brute-force reference.extrema, and ``argmin``/``argmax`` index
    ``pset``; ``min_proper`` is filled when ``proper`` is set.  An
    ``orbits`` set needs a pure state's table: its TMI ties across each
    orbit up to roundoff, and each representative comes first in its
    orbit, so the picks are the family's.

    Only the first chunk holding a value within EXTREMUM_TIE_TOL of an
    extremum is evaluated again to place the pick: no earlier chunk holds
    such a value, so the pick is the one reference.extrema would make.  A
    non-finite TMI raises NumericalConsistencyError naming its time.
    """
    if len(pset) == 0:
        raise ValueError("empty partition list")
    n_t = table.values.shape[1]
    rows = max(1, _BLOCK_BYTES // (8 * n_t))
    full = (1 << pset.n_sites) - 1
    # scratch reused by every chunk: new arrays this large come from mmap
    # and fault in their pages, chunk after chunk
    size = min(rows, len(pset))
    idx, work = np.empty((7, size), dtype=np.int64), np.empty((7, size, n_t))
    by_time = np.empty((n_t, size))

    def block(k):
        vals, masks = pset._tmi_block(table, slice(k * rows, (k + 1) * rows), idx, work)
        return vals, masks[6]

    # each chunk's extrema, made once: 56 MB at N=14 for fig4's 101 times
    block_lo, block_hi = np.empty((2, -(-len(pset) // rows), n_t))
    proper_lo = None
    for k in range(len(block_lo)):
        vals, abc = block(k)
        # reduce a time-major copy along its rows: contiguous, unlike axis 0
        vals_t = by_time[:, :len(vals)]
        np.copyto(vals_t, vals.T)
        vals_t.min(axis=1, out=block_lo[k])
        vals_t.max(axis=1, out=block_hi[k])
        bad = ~(np.isfinite(block_lo[k]) & np.isfinite(block_hi[k]))
        if bad.any():
            raise NumericalConsistencyError(
                f"non-finite TMI at t={times[int(np.argmax(bad))]}")
        if proper and not (covers := abc == full).all():
            lo_k = vals[~covers].min(axis=0)
            proper_lo = lo_k if proper_lo is None else np.minimum(proper_lo, lo_k)
    lo, hi = block_lo.min(axis=0), block_hi.max(axis=0)
    k_min = _first_within(block_lo, lo, hi)[0]
    k_max = _first_within(block_hi, lo, hi)[1]
    i_min = np.empty(n_t, dtype=np.int64)
    i_max = np.empty(n_t, dtype=np.int64)
    for k in np.union1d(k_min, k_max):
        first_lo, first_hi = _first_within(block(k)[0], lo, hi)
        at_min, at_max = k_min == k, k_max == k
        i_min[at_min] = k * rows + first_lo[at_min]
        i_max[at_max] = k * rows + first_hi[at_max]
    return TmiSeries(lo, i_min, hi, i_max, proper_lo)


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
