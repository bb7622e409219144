"""Pure numpy implementation of the batched fiber kernels.

Arrays carry grid axes first and the two matrix axes last, so a field of
r x r endomorphisms on an N x N grid has shape (N, N, r, r). All three
kernels below are the hot path of the solver. This is the generic path
for every rank; _kernels adds the rank-1 fast paths on top of it.
"""

import numpy as np


def eigh_batch(a):
    """Eigendecomposition of a batch of Hermitian matrices.

    Returns (w, v) with w real ascending and v unitary, a = v diag(w) v^H
    per batch element.
    """
    return np.linalg.eigh(a)


def apply_one(g, v):
    """Assemble v diag(g) v^H per batch element. g real, shape (..., r)."""
    return (v * g[..., None, :]) @ np.conjugate(np.swapaxes(v, -1, -2))


def apply_two(k, v, a):
    """Two sided functional calculus: v (k * (v^H a v)) v^H per element.

    k is the real kernel matrix evaluated on eigenvalue pairs, shape
    (..., r, r); the product with v^H a v is entrywise.
    """
    vh = np.conjugate(np.swapaxes(v, -1, -2))
    m = vh @ a @ v
    return v @ (k * m) @ vh
