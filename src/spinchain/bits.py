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


def mask_dtype(n_bits: int) -> np.dtype:
    """Narrowest signed integer type holding every mask of ``n_bits`` bits and its ~."""
    return np.min_scalar_type(-(1 << n_bits))


def reverse_bits(masks, n_bits: int) -> np.ndarray:
    """Masks with their low ``n_bits`` bits in reverse order (bit i to n_bits-1-i)."""
    masks = np.asarray(masks, dtype=np.int64)
    out = np.zeros_like(masks)
    for i in range(n_bits):
        out |= ((masks >> i) & 1) << (n_bits - 1 - i)
    return out


def submask_tables(mask: int, n_bits: int):
    """The ascending submasks of ``mask`` as two tables, split at bit n_bits // 2.

    The i-th smallest submask of ``mask`` (the bits of i, lowest first, on
    the set bits of ``mask``) is ``low[i & (len(low) - 1)] | high[i >> shift]``
    with len(low) = 2^shift, so neither table has more than 2^ceil(n_bits/2)
    entries.  Returns (low, high, shift), the tables in mask_dtype(n_bits).
    """
    half, dtype = n_bits // 2, mask_dtype(n_bits)
    low = np.arange(1 << half, dtype=dtype)
    high = np.arange(1 << (n_bits - half), dtype=dtype) << half
    low, high = (t[(t & ~mask) == 0] for t in (low, high))
    return low, high, len(low).bit_length() - 1
