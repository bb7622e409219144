"""Pure numpy implementation of the batched fiber algebra.

Arrays carry grid axes first and the two matrix axes last, so a field of
r x r endomorphisms on an N x N grid has shape (N, N, r, r). The shape
stays grid-first, but the storage is entry-plane-major: empty_field, the
one allocator of fields, lays the array out as (r, r, N, N) in C order
and returns the transposed view, so every entry [..., i, j] is a
C-contiguous grid plane. numpy's order-K rule carries that layout
through elementwise operations and FFTs, so the written-out products
below read and write whole planes instead of views strided by r^2
elements.

mm is the one batched matrix product of the solver; fiber re-exports it.
Rank 1 is an elementwise product, and every rank from 2 up writes the
r^2 entries out with mm_planes, over the entry views that planes lists.
Operands whose matrix shapes differ or are not square go to `a @ b`, so
that a mismatch raises as it does there. The written-out product avoids
the per-matrix overhead of np.matmul on tiny matrices; it matches `@` to
roundoff, not bit for bit. Each entry is formed in place in the output
with one scratch array, in the same IEEE operations as the expression
a_i0 * b_0j + a_i1 * b_1j + ... summed left to right.

eigh_batch (LAPACK), apply_one and apply_two are the generic kernels
for every rank, and apply_one/apply_two form their products with mm.
_kernels writes its kernels out on top of them; these generic kernels
are the reference its tests compare against.
"""

import numpy as np


def empty_field(grid, tail, dtype=np.complex128):
    """Uninitialized field of logical shape grid + tail whose entries
    [..., i, j] (one per index of tail) are C-contiguous grid planes."""
    grid, tail = tuple(grid), tuple(tail)
    k = len(tail)
    a = np.empty(tail + grid, dtype=dtype)
    return a.transpose(tuple(range(k, k + len(grid))) + tuple(range(k)))


def mm(a, b):
    """Batched matrix product a b, matrix axes last, broadcasting over
    grid axes; a constant (r, r) operand broadcasts against a field."""
    shape = a.shape[-2:]
    if shape != b.shape[-2:] or shape[0] != shape[1]:
        return a @ b
    if shape == (1, 1):
        return a * b
    x, y = planes(a), planes(b)
    grid = np.broadcast(x[0][0], y[0][0]).shape
    out = empty_field(grid, shape, dtype=np.result_type(a, b))
    mm_planes(x, y, planes(out), np.empty(grid, dtype=out.dtype))
    return out


def planes(a):
    """The r x r entries of a field as nested lists of views."""
    idx = range(a.shape[-1])
    return [[a[..., i, j] for j in idx] for i in idx]


def mm_planes(x, y, out, tmp):
    """out = x y for r x r fields given by their entries, written in place.

    Entry (i, j) is x_i0 * y_0j, then += x_ik * y_kj for k = 1 ... r-1,
    each product formed in the scratch entry tmp: at r = 2 exactly the
    IEEE operations of x_i0 * y_0j + x_i1 * y_1j.
    """
    ks = range(1, len(x))
    for xi, oi in zip(x, out):
        for j, o in enumerate(oi):
            np.multiply(xi[0], y[0][j], out=o)
            for k in ks:
                np.multiply(xi[k], y[k][j], out=tmp)
                o += tmp


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
