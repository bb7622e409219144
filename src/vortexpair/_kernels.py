"""The fiber algebra: storage, the batched product and the kernels.

Arrays carry grid axes first and the two matrix axes last, so a field of
r x r endomorphisms on an N x N grid has shape (N, N, r, r). The shape
stays grid-first, but the storage is entry-plane-major: empty_field, the
one allocator of fields, lays the array out as (r, r, N, N) in C order
and returns the transposed view, so every entry [..., i, j] is a
C-contiguous grid plane. numpy's order-K rule carries that layout
through elementwise operations and FFTs, so the written-out products
below read and write whole planes instead of views strided by r^2
elements.

mm is the one batched matrix product of the solver. Rank 1 is an
elementwise product, and every rank from 2 up writes the r^2 entries
out with mm_planes, over the entry views that planes lists. Operands
whose matrix shapes differ or are not square go to `a @ b`, so that a
mismatch raises as it does there. The written-out product avoids the
per-matrix overhead of np.matmul on tiny matrices; it matches `@` to
roundoff, not bit for bit. Each entry is formed in place in the output
with one scratch array, in the same IEEE operations as the expression
a_i0 * b_0j + a_i1 * b_1j + ... summed left to right.

The kernels are the eigendecomposition and the two functional calculi.
A rank-1 field is a scalar field, so all three are elementwise there.
From rank 2 up the two congruences are written out entry by entry over
whole grid planes: apply_one sums g_k v_ik conj(v_jk), and apply_two
chains four mm_planes products. The eigendecomposition is a Givens
rotation at rank 2 and LAPACK's from rank 3 up, copied into entry
planes.

The chain is fiber -> _kernels: fiber, the module the solver calls,
imports everything here, and this module imports nothing from the
package. The generic kernels of _fiber_np, written with `@` and sharing
no code with these, are the reference that the tests and perfbench
compare them against; nothing in the package imports them.
"""

from functools import reduce

import numpy as np

BACKEND = "numpy"


def empty_field(grid, tail, dtype=np.complex128):
    """Uninitialized field of logical shape grid + tail whose entries
    [..., i, j] (one per index of tail) are C-contiguous grid planes."""
    grid, tail = tuple(grid), tuple(tail)
    k = len(tail)
    a = np.empty(tail + grid, dtype=dtype)
    return a.transpose(tuple(range(k, k + len(grid))) + tuple(range(k)))


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


def _eigh2(a):
    """Closed-form eigendecomposition of a Hermitian 2x2 field.

    Reads the diagonal and the lower triangle, as LAPACK does. With
    m = (a00 + a11)/2, d = (a00 - a11)/2 and r = hypot(d, |a10|) the
    eigenvalues are m -+ r. The one of larger magnitude is taken from
    that sum and the other as det / (the first), which keeps a small
    eigenvalue accurate relative to itself, as LAPACK's dlae2 does.

    The eigenvectors are the columns of a Givens rotation. Its larger
    entries are (r + |d|) / hypot(r + |d|, |a10|) and the other two
    are a10 / hypot(r + |d|, |a10|) up to conjugation and sign, so
    nothing cancels. A scalar point (r = 0) gets V = I. A non-finite
    point gives NaN there and nowhere else, without a warning.
    """
    shape = a.shape[:-2]
    a00 = a[..., 0, 0].real
    a11 = a[..., 1, 1].real
    b = a[..., 1, 0]
    w = empty_field(shape, (2,), dtype=np.float64)
    v = empty_field(shape, (2, 2))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        m = 0.5 * (a00 + a11)
        d = 0.5 * (a00 - a11)
        nb = np.abs(b)
        r = np.hypot(d, nb)
        big = m + np.copysign(r, m)
        # det / big with each factor scaled by big first, so neither
        # overflows nor underflows early; big = 0 only at the zero matrix
        big0 = big + (big == 0.0)
        small = (a00 / big0) * a11 - (nb / big0) * nb
        np.minimum(big, small, out=w[..., 0])
        np.maximum(big, small, out=w[..., 1])
        # the rotation's larger entry over its norm; r = 0 takes u = 1
        u = r + np.abs(d) + (r == 0.0)
        n = np.hypot(u, nb)
        p = u / n
        zc = np.conjugate(b) / n
    # with z = a10 / n: V = [[p, zc], [-z, p]] when a00 <= a11, else
    # [[zc, p], [-p, z]]; the larger entry p sits where the larger
    # eigenvector component does
    flip = d > 0.0
    v[..., 0, 0] = np.where(flip, zc, p)
    v[..., 0, 1] = np.where(flip, p, zc)
    np.conjugate(v[..., 0, 0], out=v[..., 1, 1])
    np.negative(np.conjugate(v[..., 0, 1]), out=v[..., 1, 0])
    return w, v


def eigh_batch(a):
    """Batched Hermitian eigendecomposition, grid axes first."""
    a = np.asarray(a)
    if a.shape[-1] == 1:
        # rank 1 fast path, used heavily by the line-bundle instances
        w = a[..., 0].real.astype(np.float64)
        v = np.ones(a.shape, dtype=np.complex128)
        return w, v
    if a.shape[-1] == 2:
        return _eigh2(a)
    # LAPACK returns C order: copy into entry planes like every field
    w, v = np.linalg.eigh(a)
    wp = empty_field(w.shape[:-1], w.shape[-1:], w.dtype)
    vp = empty_field(v.shape[:-2], v.shape[-2:], v.dtype)
    wp[...], vp[...] = w, v
    return wp, vp


def apply_one(g, v):
    """v diag(g) v^H per grid point. g real valued.

    Entry (i, j) is the sum of g_k v_ik conj(v_jk) over k, left to right;
    the diagonal is summed real and the lower triangle is the conjugate
    of the upper one.
    """
    g = np.asarray(g, dtype=np.float64)
    v = np.asarray(v)
    r = v.shape[-1]
    if r == 1:
        return g[..., None].astype(np.complex128)
    out = empty_field(np.broadcast_shapes(g.shape[:-1], v.shape[:-2]), (r, r))
    g, v, o = [g[..., k] for k in range(r)], planes(v), planes(out)
    for i in range(r):
        o[i][i][...] = reduce(np.add, (
            g[k] * (v[i][k].real ** 2 + v[i][k].imag ** 2) for k in range(r)))
        for j in range(i + 1, r):
            o[i][j][...] = reduce(np.add, (
                g[k] * v[i][k] * np.conjugate(v[j][k]) for k in range(r)))
            np.conjugate(o[i][j], out=o[j][i])
    return out


def apply_two(k, v, a):
    """v (k * (v^H a v)) v^H per grid point. k real valued."""
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v)
    a = np.asarray(a)
    r = v.shape[-1]
    if r == 1:
        return k * a
    # t = a v, n = k * (v^H t), t = v n, out = t v^H, each product
    # written entry by entry into grid-sized scratch fields
    grid = np.broadcast_shapes(k.shape, v.shape, a.shape)[:-2]
    out, t, n = (empty_field(grid, (r, r)) for _ in range(3))
    tmp = np.empty(grid, dtype=np.complex128)
    te, ne = planes(t), planes(n)
    ve, vh = planes(v), planes(np.conjugate(np.swapaxes(v, -1, -2)))
    mm_planes(planes(a), ve, te, tmp)
    mm_planes(vh, te, ne, tmp)
    n *= k
    mm_planes(ve, ne, te, tmp)
    mm_planes(te, vh, planes(out), tmp)
    return out
