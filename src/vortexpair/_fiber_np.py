"""Pure numpy implementation of the batched fiber algebra.

Arrays carry grid axes first and the two matrix axes last, so a field of
r x r endomorphisms on an N x N grid has shape (N, N, r, r).

mm is the one batched matrix product of the solver; fiber re-exports it.
It picks its path from the matrix size of its operands: rank 1 is an
elementwise product, rank 2 writes the four entries out, and every other
rank falls through to the generic `a @ b`. The written-out rank-2
product avoids the per-matrix overhead of np.matmul on tiny matrices; it
matches `@` to roundoff, not bit for bit.

eigh_batch, apply_one and apply_two are the generic kernels for every
rank, and apply_one/apply_two form their products with mm. _kernels adds
the rank-1 fast paths on top of them.
"""

import numpy as np


def mm(a, b):
    """Batched matrix product a b, matrix axes last, broadcasting over
    grid axes; a constant (r, r) operand broadcasts against a field."""
    shape = a.shape[-2:]
    if shape != b.shape[-2:]:
        return a @ b
    if shape == (1, 1):
        return a * b
    if shape != (2, 2):
        return a @ b
    out = np.empty(np.broadcast_shapes(a.shape, b.shape),
                   dtype=np.result_type(a, b))
    a00, a01 = a[..., 0, 0], a[..., 0, 1]
    a10, a11 = a[..., 1, 0], a[..., 1, 1]
    b00, b01 = b[..., 0, 0], b[..., 0, 1]
    b10, b11 = b[..., 1, 0], b[..., 1, 1]
    out[..., 0, 0] = a00 * b00 + a01 * b10
    out[..., 0, 1] = a00 * b01 + a01 * b11
    out[..., 1, 0] = a10 * b00 + a11 * b10
    out[..., 1, 1] = a10 * b01 + a11 * b11
    return out


def eigh_batch(a):
    """Eigendecomposition of a batch of Hermitian matrices.

    Returns (w, v) with w real ascending and v unitary, a = v diag(w) v^H
    per batch element.
    """
    return np.linalg.eigh(a)


def apply_one(g, v):
    """Assemble v diag(g) v^H per batch element. g real, shape (..., r)."""
    return mm(v * g[..., None, :], np.conjugate(np.swapaxes(v, -1, -2)))


def apply_two(k, v, a):
    """Two sided functional calculus: v (k * (v^H a v)) v^H per element.

    k is the real kernel matrix evaluated on eigenvalue pairs, shape
    (..., r, r); the product with v^H a v is entrywise.
    """
    vh = np.conjugate(np.swapaxes(v, -1, -2))
    m = mm(mm(vh, a), v)
    return mm(mm(v, k * m), vh)
