"""Bitmask helpers for site subsets.

Site ``i`` of the chain is bit ``i`` (least significant bit = site 0);
a set bit marks an excited site.
"""

import numpy as np


def popcount(masks):
    """Number of set bits, elementwise for integer arrays or a scalar."""
    if np.isscalar(masks) or isinstance(masks, (int, np.integer)):
        return int(masks).bit_count()
    return np.bitwise_count(np.asarray(masks)).astype(np.int64)


def bit_positions(mask):
    """Indices of set bits of ``mask``, ascending."""
    mask = int(mask)
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out

