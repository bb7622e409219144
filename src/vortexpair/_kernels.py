"""Batched fiber kernels: rank-1 and rank-2 closed forms over the generic
numpy path.

A rank-1 field is a scalar field, so its eigendecomposition and both
functional calculi are elementwise. At rank 2 all three are written out
entry by entry: the eigendecomposition is a Givens rotation, and the
two congruences are sums of products of the four entries. Rank 3 and
up goes to _fiber_np, whose generic kernels (LAPACK eigh, congruences
formed with mm) are also the reference the fast paths are tested
against.
"""

import numpy as np

from . import _fiber_np
from ._fiber_np import _mm2, empty_field, entries

BACKEND = "numpy"


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
    return _fiber_np.eigh_batch(a)


def apply_one(g, v):
    """v diag(g) v^H per grid point. g real valued."""
    g = np.asarray(g, dtype=np.float64)
    v = np.asarray(v)
    if v.shape[-1] == 1:
        return g[..., None].astype(np.complex128)
    if v.shape[-1] != 2:
        return _fiber_np.apply_one(g, v)
    g0, g1 = g[..., 0], g[..., 1]
    v00, v01 = v[..., 0, 0], v[..., 0, 1]
    v10, v11 = v[..., 1, 0], v[..., 1, 1]
    out = empty_field(np.broadcast_shapes(g.shape[:-1], v.shape[:-2]), (2, 2))
    out[..., 0, 0] = (g0 * (v00.real ** 2 + v00.imag ** 2)
                      + g1 * (v01.real ** 2 + v01.imag ** 2))
    out[..., 1, 1] = (g0 * (v10.real ** 2 + v10.imag ** 2)
                      + g1 * (v11.real ** 2 + v11.imag ** 2))
    out[..., 0, 1] = g0 * v00 * np.conjugate(v10) + g1 * v01 * np.conjugate(v11)
    out[..., 1, 0] = np.conjugate(out[..., 0, 1])
    return out


def apply_two(k, v, a):
    """v (k * (v^H a v)) v^H per grid point. k real valued."""
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v)
    a = np.asarray(a)
    if v.shape[-1] == 1:
        return k * a
    if v.shape[-1] != 2:
        return _fiber_np.apply_two(k, v, a)
    # rank 2: t = a v, n = k * (v^H t), t = v n, out = t v^H, each product
    # written entry by entry into separate grid-sized scratch entries
    shape = np.broadcast_shapes(k.shape, v.shape, a.shape)
    grid = shape[:-2]
    out = empty_field(grid, (2, 2))
    t = [[np.empty(grid, dtype=np.complex128) for _ in (0, 1)] for _ in (0, 1)]
    n = [[np.empty(grid, dtype=np.complex128) for _ in (0, 1)] for _ in (0, 1)]
    tmp = np.empty(grid, dtype=np.complex128)
    ve = entries(v)
    vh = [[np.conjugate(ve[j][i]) for j in (0, 1)] for i in (0, 1)]
    _mm2(entries(a), ve, t, tmp)
    _mm2(vh, t, n, tmp)
    for i in (0, 1):
        for j in (0, 1):
            n[i][j] *= k[..., i, j]
    _mm2(ve, n, t, tmp)
    _mm2(t, vh, entries(out), tmp)
    return out
