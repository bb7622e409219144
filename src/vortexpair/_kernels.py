"""Batched fiber kernels: rank-1 fast paths over the generic numpy path.

A rank-1 field is a scalar field, so its eigendecomposition and both
functional calculi are elementwise. Every other rank goes to _fiber_np,
whose batched product mm (re-exported as fiber.mm) writes rank 2 out
and leaves rank 3 and up to np.matmul.
"""

import numpy as np

from . import _fiber_np

BACKEND = "numpy"


def eigh_batch(a):
    """Batched Hermitian eigendecomposition, grid axes first."""
    a = np.asarray(a)
    if a.shape[-1] == 1:
        # rank 1 fast path, used heavily by the line-bundle instances
        w = a[..., 0].real.astype(np.float64)
        v = np.ones(a.shape, dtype=np.complex128)
        return w, v
    return _fiber_np.eigh_batch(a)


def apply_one(g, v):
    """v diag(g) v^H per grid point. g real valued."""
    g = np.asarray(g, dtype=np.float64)
    v = np.asarray(v)
    if v.shape[-1] == 1:
        return g[..., None].astype(np.complex128)
    return _fiber_np.apply_one(g, v)


def apply_two(k, v, a):
    """v (k * (v^H a v)) v^H per grid point. k real valued."""
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v)
    a = np.asarray(a)
    if v.shape[-1] == 1:
        return k * a
    return _fiber_np.apply_two(k, v, a)
