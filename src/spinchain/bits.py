"""Bitmask helpers for site subsets.

Site ``i`` of the chain is bit ``i`` (least significant bit = site 0);
a set bit marks an excited site.
"""

import numpy as np


def bit_positions(mask):
    """Indices of set bits of ``mask``, ascending."""
    mask = int(mask)
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def reverse_bits(masks, n_bits: int) -> np.ndarray:
    """Masks with their low ``n_bits`` bits in reverse order (bit i to n_bits-1-i)."""
    masks = np.asarray(masks, dtype=np.int64)
    out = np.zeros_like(masks)
    for i in range(n_bits):
        out |= ((masks >> i) & 1) << (n_bits - 1 - i)
    return out
