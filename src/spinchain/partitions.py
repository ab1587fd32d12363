"""Subsystem partition enumeration and TMI extremum scans.

A partition triple is an unordered set {A, B, C} of pairwise disjoint,
nonempty site subsets; the remainder D is implied and may be empty.  The
canonical representative orders the three masks ascending, which makes
enumeration lists reproducible and extremum tie-breaking deterministic.

Scanning TMI over millions of triples reduces to seven table lookups per
triple once subset entropies are tabulated, so a PartitionSet caches the
seven gathered mask arrays and reuses them across time steps.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .bits import bit_positions, popcount
from .entropy import SiteSubset, SubsetEntropyTable
from .errors import CapacityError
from .model import ModelSpec
from .propagate import TimeGrid

QUARTERS = "quarters"
ALL_ASSIGNMENTS = "all-assignments"
CONTIGUOUS_BLOCKS = "contiguous-blocks"
FIXED_SIZES = "fixed-sizes"

# 4^N site->label maps make the exhaustive strategy explode quickly
ALL_ASSIGNMENTS_MAX_SITES = 16
# TMI values this close to an extremum tie with it (roundoff, not physics)
EXTREMUM_TIE_TOL = 1e-12

__all__ = [
    "PartitionTriple", "PartitionSet", "TmiSeries",
    "contiguous_quarters", "enumerate_partitions", "parse_strategy",
    "minmax_tmi", "extrema", "tau_sign_change", "lightcone_onset",
    "QUARTERS", "ALL_ASSIGNMENTS", "CONTIGUOUS_BLOCKS", "FIXED_SIZES",
]


@dataclass(frozen=True)
class PartitionTriple:
    """Canonical unordered triple of disjoint nonempty site subsets."""

    a: SiteSubset
    b: SiteSubset
    c: SiteSubset

    def __post_init__(self):
        n = self.a.n_sites
        if (self.b.n_sites, self.c.n_sites) != (n, n):
            raise ValueError("subsets live on chains of different lengths")
        masks = sorted((self.a.mask, self.b.mask, self.c.mask))
        if masks[0] == 0:
            raise ValueError("partition subsets must be nonempty")
        if (self.a.mask & self.b.mask) or (self.a.mask & self.c.mask) or (self.b.mask & self.c.mask):
            raise ValueError("partition subsets must be pairwise disjoint")
        # canonical order: ascending masks
        object.__setattr__(self, "a", SiteSubset(n, masks[0]))
        object.__setattr__(self, "b", SiteSubset(n, masks[1]))
        object.__setattr__(self, "c", SiteSubset(n, masks[2]))

    @classmethod
    def from_masks(cls, n_sites: int, a: int, b: int, c: int) -> "PartitionTriple":
        return cls(SiteSubset(n_sites, a), SiteSubset(n_sites, b), SiteSubset(n_sites, c))

    @property
    def n_sites(self) -> int:
        return self.a.n_sites

    @property
    def d(self) -> SiteSubset:
        """Implied remainder subset (may be empty)."""
        full = (1 << self.n_sites) - 1
        return SiteSubset(self.n_sites, full ^ self.a.mask ^ self.b.mask ^ self.c.mask)

    def masks(self) -> tuple:
        return (self.a.mask, self.b.mask, self.c.mask)


class PartitionSet:
    """Immutable sequence of canonical PartitionTriples backed by mask arrays.

    Behaves like a list of PartitionTriple but stores three integer arrays,
    which keeps exhaustive N=12 scans (millions of triples) affordable and
    lets TMI evaluation run as vectorized table gathers.
    """

    def __init__(self, n_sites: int, a: np.ndarray, b: np.ndarray, c: np.ndarray,
                 strategy: str = "explicit"):
        self.n_sites = n_sites
        self.a = np.asarray(a, dtype=np.int64)
        self.b = np.asarray(b, dtype=np.int64)
        self.c = np.asarray(c, dtype=np.int64)
        if not (len(self.a) == len(self.b) == len(self.c)):
            raise ValueError("mask arrays must have equal length")
        self.strategy = strategy
        self._positions = None  # (table mask array, lookup positions)
        for arr in (self.a, self.b, self.c):
            arr.flags.writeable = False

    @classmethod
    def from_triples(cls, triples) -> "PartitionSet":
        triples = list(triples)
        if not triples:
            raise ValueError("empty partition list")
        n = triples[0].n_sites
        a = np.array([t.a.mask for t in triples], dtype=np.int64)
        b = np.array([t.b.mask for t in triples], dtype=np.int64)
        c = np.array([t.c.mask for t in triples], dtype=np.int64)
        return cls(n, a, b, c)

    def __len__(self):
        return len(self.a)

    def __getitem__(self, i) -> PartitionTriple:
        if isinstance(i, (slice, np.ndarray, list)):
            return PartitionSet(self.n_sites, self.a[i], self.b[i], self.c[i],
                                strategy=self.strategy)
        return PartitionTriple.from_masks(
            self.n_sites, int(self.a[i]), int(self.b[i]), int(self.c[i]))

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    @cached_property
    def lookup_masks(self) -> tuple:
        """The seven subset masks entering TMI, as gather-ready arrays.

        Order: A, B, C, AB, AC, BC, ABC.
        """
        a, b, c = self.a, self.b, self.c
        return (a, b, c, a | b, a | c, b | c, a | b | c)

    @cached_property
    def covers_chain(self) -> np.ndarray:
        """Boolean flag per triple: A, B, C jointly cover every site.

        For a pure state such covering triples have identically zero TMI
        (S_ABC = 0 and each pairwise entropy mirrors the remaining part),
        so extremal scans often want to separate them from proper
        four-part splits.
        """
        full = (1 << self.n_sites) - 1
        return (self.a | self.b | self.c) == full

    def tmi_values(self, table: SubsetEntropyTable) -> np.ndarray:
        """TMI of every triple from one subset-entropy table.

        Tables from one plan share a mask array, so the positions of the
        seven lookup arrays in it are found once per plan, not per state.
        """
        if table.n_sites != self.n_sites:
            raise ValueError("table and partitions disagree on chain length")
        if self._positions is None or self._positions[0] is not table.mask_array:
            self._positions = (table.mask_array,
                               [table.positions(m) for m in self.lookup_masks])
        ia, ib, ic, iab, iac, ibc, iabc = self._positions[1]
        s = table.values
        return (s[ia] + s[ib] + s[ic] + s[iabc]) - (s[iab] + s[iac] + s[ibc])


@dataclass
class TmiSeries:
    """Minimal and maximal TMI over a partition family along a time grid.

    ``argmin`` / ``argmax`` hold the extremal triple per time; ``meta``
    carries the run descriptors (n_sites, site, strategy, ...).
    """

    grid: TimeGrid
    min_values: np.ndarray
    max_values: np.ndarray
    argmin: list
    argmax: list
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.grid)
        for name in ("min_values", "max_values"):
            track = np.asarray(getattr(self, name), dtype=float)
            if track.shape != (n,):
                raise ValueError(f"{name} length {track.shape} does not match grid ({n})")
            setattr(self, name, track)
        if np.any(self.min_values > self.max_values + 1e-12):
            raise ValueError("min track exceeds max track")

    def global_min(self):
        """(time, value, argmin triple) of the smallest TMI seen."""
        i = int(np.argmin(self.min_values))
        return float(self.grid.times[i]), float(self.min_values[i]), self.argmin[i]


def contiguous_quarters(n_sites: int) -> PartitionTriple:
    """A, B, C = first, second, third quarter of the chain (D implied)."""
    if n_sites % 4 != 0:
        raise ValueError(f"chain length {n_sites} is not divisible by 4")
    w = n_sites // 4
    block = (1 << w) - 1
    return PartitionTriple.from_masks(
        n_sites, block, block << w, block << (2 * w))


@lru_cache(maxsize=2)
def _submask_arrays(n_sites: int):
    """For every mask, its submasks as an ascending int64 array."""
    out = [None] * (1 << n_sites)
    for mask in range(1 << n_sites):
        subs = []
        s = mask
        while True:
            subs.append(s)
            if s == 0:
                break
            s = (s - 1) & mask
        # the (s-1)&mask walk descends, so reversing sorts ascending
        out[mask] = np.array(subs[::-1], dtype=np.int64)
    return out


def _enumerate_all_assignments(n_sites: int) -> PartitionSet:
    full = (1 << n_sites) - 1
    subs = _submask_arrays(n_sites)
    ab_runs = []   # (a, b, run length) per inner array of c masks
    c_chunks = []
    for a in range(1, full):
        rest_a = full ^ a
        bs = subs[rest_a]
        for b in bs[np.searchsorted(bs, a + 1):].tolist():
            cs = subs[rest_a ^ b]
            cs = cs[np.searchsorted(cs, b + 1):]
            if len(cs):
                ab_runs.append((a, b, len(cs)))
                c_chunks.append(cs)
    runs = np.array(ab_runs, dtype=np.int64)
    a_col = np.repeat(runs[:, 0], runs[:, 2])
    b_col = np.repeat(runs[:, 1], runs[:, 2])
    c_col = np.concatenate(c_chunks)
    return PartitionSet(n_sites, a_col, b_col, c_col, strategy=ALL_ASSIGNMENTS)


def _enumerate_contiguous_blocks(n_sites: int) -> PartitionSet:
    from itertools import combinations

    def block(lo, hi):  # sites lo..hi-1
        return ((1 << (hi - lo)) - 1) << lo

    triples = []
    for n_blocks in (3, 4):
        for cuts in combinations(range(1, n_sites), n_blocks - 1):
            edges = (0, *cuts, n_sites)
            triples.append(tuple(block(edges[i], edges[i + 1]) for i in range(3)))
    # position order is mask order for contiguous blocks, already canonical
    triples.sort()
    arr = np.array(triples, dtype=np.int64)
    return PartitionSet(n_sites, arr[:, 0], arr[:, 1], arr[:, 2],
                        strategy=CONTIGUOUS_BLOCKS)


def _enumerate_fixed_sizes(n_sites: int, sizes) -> PartitionSet:
    from itertools import combinations

    if len(sizes) != 3 or any(s < 1 for s in sizes) or sum(sizes) > n_sites:
        raise ValueError(f"sizes {sizes} do not fit a {n_sites}-site chain")
    sa, sb, sc = sizes
    sites = tuple(range(n_sites))
    seen = set()
    for comb_a in combinations(sites, sa):
        mask_a = sum(1 << s for s in comb_a)
        rest_1 = tuple(s for s in sites if not (mask_a >> s) & 1)
        for comb_b in combinations(rest_1, sb):
            mask_b = sum(1 << s for s in comb_b)
            rest_2 = tuple(s for s in rest_1 if not (mask_b >> s) & 1)
            for comb_c in combinations(rest_2, sc):
                mask_c = sum(1 << s for s in comb_c)
                seen.add(tuple(sorted((mask_a, mask_b, mask_c))))
    arr = np.array(sorted(seen), dtype=np.int64)
    return PartitionSet(n_sites, arr[:, 0], arr[:, 1], arr[:, 2],
                        strategy=f"{FIXED_SIZES}:{sa},{sb},{sc}")


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
def _enumerate_cached(n_sites: int, strategy: str, sizes):
    if strategy == ALL_ASSIGNMENTS:
        if n_sites > ALL_ASSIGNMENTS_MAX_SITES:
            raise CapacityError(
                f"all-assignments enumeration is capped at "
                f"{ALL_ASSIGNMENTS_MAX_SITES} sites, got {n_sites}"
            )
        return _enumerate_all_assignments(n_sites)
    if strategy == CONTIGUOUS_BLOCKS:
        return _enumerate_contiguous_blocks(n_sites)
    if strategy == FIXED_SIZES:
        return _enumerate_fixed_sizes(n_sites, sizes)
    raise ValueError(f"partition strategy {strategy!r} is one triple, not a family")


def enumerate_partitions(n_sites: int, strategy: str = ALL_ASSIGNMENTS) -> PartitionSet:
    """All canonical partition triples of a family, named as parse_strategy reads it.

    'all' (all-assignments): every site->{A,B,C,D} map with A, B, C
    nonempty (D may be empty), one representative per unordered {A,B,C}.
    'contiguous' (contiguous-blocks): chain cuts into 3 or 4 consecutive
    blocks.  'fixed:SA,SB,SC' (fixed-sizes): all assignments with
    |A|, |B|, |C| = SA, SB, SC.
    """
    strategy, sizes = parse_strategy(strategy)
    if n_sites < 3:
        raise ValueError(f"need at least 3 sites to form a triple, got {n_sites}")
    return _enumerate_cached(n_sites, strategy, sizes)


def extrema(vals: np.ndarray) -> tuple:
    """(min, argmin, max, argmax) of a TMI array, ties to the first index.

    Values within EXTREMUM_TIE_TOL of an extremum count as tied with it.
    Mirror-image triples have equal TMI in exact arithmetic, so the pick
    is the first triple in enumeration order rather than the last bit.
    """
    lo, hi = float(vals.min()), float(vals.max())
    i_min = int(np.argmax(vals <= lo + EXTREMUM_TIE_TOL))
    i_max = int(np.argmax(vals >= hi - EXTREMUM_TIE_TOL))
    return lo, i_min, hi, i_max


def minmax_tmi(table: SubsetEntropyTable, pset: PartitionSet):
    """Extrema of TMI over a partition set.

    Returns (min, argmin triple, max, argmax triple); ties resolve to the
    first triple in canonical enumeration order (see extrema).
    """
    if len(pset) == 0:
        raise ValueError("empty partition list")
    lo, i_min, hi, i_max = extrema(pset.tmi_values(table))
    return lo, pset[i_min], hi, pset[i_max]


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


def lightcone_onset(spec: ModelSpec, partition: PartitionTriple) -> float:
    """Earliest time the triple can develop three-party correlations.

    Distance over velocity with v = 4*J0 and r the largest of the three
    pairwise minimal inter-subset distances: all three subsystems must be
    inside each other's light cone before the TMI can be sizable.  The
    distance convention is a modeling choice, recorded in run metadata.
    """
    r = max(
        _min_pair_distance(partition.a.mask, partition.b.mask),
        _min_pair_distance(partition.a.mask, partition.c.mask),
        _min_pair_distance(partition.b.mask, partition.c.mask),
    )
    return r / (4.0 * spec.j0)
