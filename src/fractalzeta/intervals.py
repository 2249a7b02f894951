"""The exact tube volume of a finite set of points on the real line.

Fattening points with consecutive gaps ``g_i`` by ``t`` covers the span of
one point, ``2t``, plus ``min(g_i, 2t)`` per gap: each gap is either
bridged or left open with ``2t`` of it covered.
"""

from __future__ import annotations

import numpy as np


def gap_volumes(two_t: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """``2t + sum_i min(g_i, 2t)`` for every ``2t`` in a flat array.

    Only the multiset of gaps matters, but the sum runs in their given
    order.  Radius x gap tables are built about 2^20 entries at a time.
    """
    step = max(1, (1 << 20) // max(gaps.size, 1))
    chunks = np.split(two_t, range(step, two_t.size, step))
    return np.concatenate([c + np.minimum(gaps, c[:, None]).sum(axis=1) for c in chunks])
