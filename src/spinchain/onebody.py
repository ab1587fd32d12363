"""Closed-form diagnostics in the single-excitation sector.

With one excitation, every reduced state is at most rank 2 and all
entropies reduce to the binary entropy of subset occupation weights
p_X = sum_{m in X} |c_m|^2.  The TMI then becomes an explicit function of
(p_A, p_B, p_C), which is nonnegative everywhere on the probability
simplex and vanishes exactly on its boundary, so these routines both
cross-check the general pipeline and certify the sign structure cheaply.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bits import bit_positions
from .entropy import SubsetEntropyTable, _disjoint_masks, _xlogx, tmi_terms
from .errors import check_budget
from .partitions import PartitionSet, TmiSeries, tmi_extrema

P_SNAP = 1e-12      # distance from {0, 1} inside which p snaps to the endpoint
NORM_TOL = 1e-10
# Peak bytes per (mask, time) of onebody_tmi_scan's table: binary_entropy's
# three arrays, one of them the weights p; the guard adds 8 B per mask for
# the mask array, made after them.  tracemalloc read 24.00-24.07 at N = 11-16
# and 5-41 times, and 24.0-24.5 B per mask at one time
_TABLE_BYTES = 25

__all__ = [
    "SimplexScan", "binary_entropy", "occupation_weights",
    "tmi_binary", "simplex_scan", "onebody_tmi_scan",
]

_LN2 = math.log(2.0)


def binary_entropy(p, out=None):
    """H(p) = -p log2 p - (1-p) log2 (1-p), elementwise, in bits.

    Values within 1e-12 outside [0, 1] are clipped; anything farther out
    raises ValueError.  ``out``, a float array of p's shape, receives the
    result and may be ``p`` itself.
    """
    arr = np.asarray(p, dtype=float)
    if np.any(arr < -P_SNAP) or np.any(arr > 1.0 + P_SNAP):
        bad = arr[(arr < -P_SNAP) | (arr > 1.0 + P_SNAP)]
        raise ValueError(f"probability {np.ravel(bad)[0]} outside [0, 1]")
    # besides ``out``, two arrays of p's size: 1 - p and _xlogx's logarithm
    h = np.clip(arr, 0.0, 1.0, out=np.empty_like(arr) if out is None else out)
    rest = np.subtract(1.0, h, out=np.empty_like(h))
    _xlogx(h, out=h)
    h += _xlogx(rest, out=rest)
    h /= -_LN2  # (-x) / y and x / (-y) round alike
    if np.ndim(p) == 0:
        return float(h)
    return h


def _checked_weights(*weights) -> tuple:
    """Occupation weights (p_a, p_b, p_c) of three disjoint subsets, checked.

    Each must lie in [0, 1] up to P_SNAP, and is clipped into it; a sum
    above 1 + NORM_TOL raises ValueError.
    """
    weights = [float(p) for p in weights]
    for name, p in zip(("p_a", "p_b", "p_c"), weights):
        if not -P_SNAP <= p <= 1.0 + P_SNAP:
            raise ValueError(f"{name}={p} outside [0, 1]")
    p_a, p_b, p_c = (min(max(p, 0.0), 1.0) for p in weights)
    total = p_a + p_b + p_c
    if total > 1.0 + NORM_TOL:
        raise ValueError(f"occupation weights sum to {total} > 1")
    return p_a, p_b, p_c


def occupation_weights(c: np.ndarray, a, b, c_subset) -> tuple:
    """Subset occupation probabilities (p_a, p_b, p_c) of a normalized k=1 amplitude vector.

    ``a``, ``b``, ``c_subset`` are site bitmasks, nonempty and pairwise
    disjoint (ValueError otherwise); site m of the chain is entry m of ``c``.
    """
    c = np.asarray(c, dtype=np.complex128)
    n = len(c)
    norm = np.linalg.norm(c)
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"amplitudes are not normalized (norm {norm})")
    masks = _disjoint_masks(n, (a, b, c_subset))
    w = np.abs(c) ** 2
    ps = [float(np.sum(w[bit_positions(m)])) for m in masks]
    return _checked_weights(*ps)


def tmi_binary(p_a: float, p_b: float, p_c: float) -> float:
    """TMI of a k=1 state as a function of its occupation weights, in bits.

    The weights are checked as occupation_weights' are.  Returns 0.0
    exactly when any weight vanishes or the three sum to one: those are
    the boundary faces of the parameter simplex.
    """
    p_a, p_b, p_c = _checked_weights(p_a, p_b, p_c)
    return float(_tmi_binary_grid(p_a, p_b, p_c, p_a + p_b + p_c))


def _tmi_binary_grid(pa, pb, pc, psum):
    """Vectorized TMI with the same boundary snap as tmi_binary."""
    vals = tmi_terms(*(binary_entropy(p) for p in
                       (pa, pb, pc, pa + pb, pa + pc, pb + pc, psum)))
    boundary = (np.minimum(np.minimum(pa, pb), pc) <= P_SNAP) | (psum >= 1.0 - P_SNAP)
    return np.where(boundary, 0.0, vals)


@dataclass
class SimplexScan:
    """Extrema of the k=1 TMI over the weight simplex p_i >= 0, sum <= 1."""

    resolution: float
    min_value: float
    argmin: tuple
    max_value: float
    argmax: tuple


def simplex_scan(resolution: float = 0.01) -> SimplexScan:
    """Scan tmi_binary over a regular simplex grid.

    The minimum sits on the simplex boundary (where the TMI vanishes
    identically) and the maximum at the interior point (1/4, 1/4, 1/4);
    the maximum is then polished on two successively finer local grids.
    """
    steps = round(1.0 / resolution)
    if steps < 4 or abs(steps * resolution - 1.0) > 1e-9:
        raise ValueError(f"resolution {resolution} must divide 1 into >= 4 steps")
    i, j, k = np.meshgrid(np.arange(steps + 1), np.arange(steps + 1),
                          np.arange(steps + 1), indexing="ij")
    keep = (i + j + k) <= steps
    i, j, k = i[keep], j[keep], k[keep]
    # integer sums keep the simplex boundary i+j+k == steps exact
    vals = _tmi_binary_grid(i / steps, j / steps, k / steps, (i + j + k) / steps)
    i_min = int(np.argmin(vals))
    i_max = int(np.argmax(vals))
    argmin = (i[i_min] / steps, j[i_min] / steps, k[i_min] / steps)
    argmax = (i[i_max] / steps, j[i_max] / steps, k[i_max] / steps)
    max_value = float(vals[i_max])

    span = resolution
    for _ in range(2):
        span /= 10.0
        offsets = np.linspace(-5 * span, 5 * span, 11)
        pa = argmax[0] + offsets[:, None, None]
        pb = argmax[1] + offsets[None, :, None]
        pc = argmax[2] + offsets[None, None, :]
        pa, pb, pc = np.broadcast_arrays(pa, pb, pc)
        ok = (pa > 0) & (pb > 0) & (pc > 0) & (pa + pb + pc < 1.0)
        vals_f = np.full(pa.shape, -np.inf)
        vals_f[ok] = _tmi_binary_grid(pa[ok], pb[ok], pc[ok],
                                      pa[ok] + pb[ok] + pc[ok])
        best = np.unravel_index(np.argmax(vals_f), vals_f.shape)
        if vals_f[best] > max_value:
            max_value = float(vals_f[best])
            argmax = (float(pa[best]), float(pb[best]), float(pc[best]))
    return SimplexScan(resolution=resolution, min_value=float(vals[i_min]),
                       argmin=tuple(float(x) for x in argmin),
                       max_value=max_value,
                       argmax=tuple(float(x) for x in argmax))


def _subset_probability_table(weights: np.ndarray) -> np.ndarray:
    """p[mask] = sum of site weights selected by the mask, for all masks.

    ``weights`` has a row per site; further axes (times) carry through.
    """
    n = len(weights)
    table = np.empty((1 << n, *weights.shape[1:]))
    table[0] = 0.0
    for s in range(n):
        half = 1 << s
        # the masks with top bit s are those below 2^s with site s added;
        # contiguous blocks, so numpy needs no buffers
        np.add(table[:half], weights[s], out=table[half:2 * half])
    return table


def onebody_tmi_scan(occupations: np.ndarray, times, pset: PartitionSet) -> TmiSeries:
    """Min/max TMI over partitions from the site weights of one excitation.

    ``occupations`` holds |c_m(t)|^2 with a row per entry of ``times`` and
    a column per site.  One binary-entropy table over all subset masks, a
    row per mask and a column per time, feeds one partitions.tmi_extrema
    pass over the triples, with the boundary snap of tmi_binary, whose
    result is returned.  Extremum ties resolve to the first triple.  The
    table is refused in bytes (CapacityError) before it is allocated.
    """
    n_times, n = occupations.shape
    if pset.n_sites != n:
        raise ValueError("partitions and occupations disagree on chain length")
    check_budget(f"k=1 entropy table of {n} sites has {1 << n:,} masks x {n_times} times",
                 (_TABLE_BYTES * n_times + 8) << n, "at its peak")
    p = _subset_probability_table(occupations.T)
    entropies = binary_entropy(p, out=p)
    # summed again for the snap flags: keeping p through binary_entropy
    # would hold a fourth table-sized array at its peak
    p = _subset_probability_table(occupations.T)
    low, high = p <= P_SNAP, p >= 1.0 - P_SNAP
    del p
    masks = np.arange(1 << n)
    masks.flags.writeable = False  # the table keeps it rather than a copy
    table = SubsetEntropyTable(n, masks, entropies)
    buffers = []  # made at the first block, the largest, after the table's peak

    def boundary(a, b, c, abc):
        # same boundary snap as tmi_binary: zero on the simplex faces
        if not buffers:
            buffers.extend(np.empty((2, len(a), n_times), dtype=bool))
        snap, part = (buffer[:len(a)] for buffer in buffers)
        np.take(low, a, axis=0, out=snap, mode="clip")  # in range; "raise" would copy
        for flags, index in ((low, b), (low, c), (high, abc)):
            snap |= np.take(flags, index, axis=0, out=part, mode="clip")
        return snap

    return tmi_extrema(pset, table, times, zero=boundary)
