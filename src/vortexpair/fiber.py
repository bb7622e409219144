"""Fiberwise functional calculus for Hermitian endomorphism fields.

Fields keep grid axes first and matrix axes last in their shape, but
are stored entry-plane-major: empty_field is the only allocator of
fields, and it makes every entry [..., i, j] a C-contiguous grid plane.
Elementwise operations keep that layout, so no index or einsum string
depends on it. Everything here is pointwise in the grid:
eigendecompositions, matrix exp/log, and the one and two variable
transforms built on eigenvalue kernels.

The algebra under them is one chain: this module imports the
allocator, the batched product mm and the three kernels from _kernels,
which imports nothing from the package. Every field-valued matrix
product of the solver goes through mm: elementwise at rank 1 and
written out entry by entry, over whole grid planes, at every rank from
2 up. The kernels take rank-1 fields elementwise and write both
functional calculi out entry by entry at every rank from 2 up; the
eigendecomposition is a closed form at rank 2 (the eigenvectors are a
Givens rotation) and LAPACK's from rank 3 up. The generic reference
kernels of _fiber_np are for the tests and perfbench only; nothing in
the package imports them.

Importing the module allocates and frees one 16 MiB block, so that
glibc keeps freed fields on the heap (see the comment after the imports).

Norms: unless stated otherwise, pointwise norms are Frobenius norms and
sup norms are the grid max of the pointwise norm.
"""

import numpy as np

from ._kernels import apply_one, apply_two, eigh_batch, empty_field, mm

# Allocate an untouched 16 MiB block and free it at once. glibc serves
# it with mmap, and freeing an mmapped block raises glibc's dynamic mmap
# threshold to the block's size and its trim threshold to twice that
# (mallopt(3), M_MMAP_THRESHOLD). From then on the solver's 64-256 KiB
# field temporaries stay on the heap, and the Newton loop reuses their
# pages instead of trimming the heap top and faulting the pages back in.
# The size must stay at or below glibc's 32 MiB cap on that adjustment:
# a block of exactly 32 MiB was measured to have no effect, while 8 MiB
# was enough at 64x64. No option, environment variable or mallopt call
# goes with it, and no computed number changes. Under another C
# library, or when MALLOC_*_ variables pin glibc's thresholds, it is a
# 16 MiB virtual allocation and nothing more.
np.empty(16 << 20, dtype=np.uint8)

# positivity clamp policy for logarithms of metric factors:
# eigenvalues are floored at EIG_FLOOR before taking log. An eigenvalue
# below -CLAMP_HARD_REL * scale means the field is decisively not
# positive and raises ClampError instead of being papered over.
EIG_FLOOR = 1e-14
CLAMP_HARD_REL = 1e-10

HERM_TOL = 1e-12


class ClampError(ValueError):
    """A field that must be positive definite has a clearly negative eigenvalue."""


class NotHermitianError(ValueError):
    """A field that must be Hermitian has a skew part above HERM_TOL, or
    an entry that is not finite."""


clamp_events = 0


def _frob_sq(a):
    sq = np.square(np.abs(a))
    return sq[..., 0, 0] if sq.shape[-2:] == (1, 1) else sq.sum(axis=(-2, -1))


def frob(a):
    """Pointwise Frobenius norm of a matrix field."""
    return np.sqrt(_frob_sq(a))


def sup_norm(a):
    """Grid sup of the pointwise Frobenius norm of a matrix field (the
    last two axes are the fiber). sqrt is monotone and correctly rounded:
    the root of the largest square is the max of frob(a), NaN included."""
    return float(np.sqrt(np.maximum.reduce(_frob_sq(a), axis=None)))


def herm_part(a):
    # conj(a^T) into an array laid out like a, as a + conj(a^T) would be
    out = np.conjugate(np.swapaxes(a, -1, -2), out=np.empty_like(a))
    return np.multiply(np.add(a, out, out=out), 0.5, out=out)


def skew_defect(a):
    """Sup norm of the anti-Hermitian part."""
    skew = np.conjugate(np.swapaxes(a, -1, -2), out=np.empty_like(a))
    np.multiply(np.subtract(a, skew, out=skew), 0.5, out=skew)
    return sup_norm(skew) if skew.size else 0.0


def assert_hermitian(a, what="field"):
    if not np.isfinite(a).all():
        raise NotHermitianError("%s has non-finite entries" % what)
    scale = max(1.0, float(np.max(frob(a)))) if a.size else 1.0
    d = skew_defect(a)
    if d > HERM_TOL * scale:
        raise NotHermitianError(
            "%s is not Hermitian: skew defect %.3e (tol %.3e, scale %.3e)"
            % (what, d, HERM_TOL, scale))


def herm_eig(a, what="field"):
    """Eigendecomposition (w, v) of a Hermitian matrix field; what names
    the field in the NotHermitianError that assert_hermitian raises."""
    assert_hermitian(a, what=what)
    return eigh_batch(herm_part(np.asarray(a, dtype=np.complex128)))


# ---------------------------------------------------------------------------
# eigenvalue kernels, all stable near coincident arguments

def psi_kernel(x, y):
    """(e^(y-x) - 1) / (y - x), equal to 1 on the diagonal.

    Strictly positive. Near t = y - x = 0 the series 1 + t/2 + t^2/6 is
    used to avoid cancellation.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    t = y - x
    small = np.abs(t) < 1e-6
    series = 1.0 + t / 2.0 + t * t / 6.0
    if small.all():
        return series
    ts = np.where(small, 0.0, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        main = np.expm1(ts) / ts
    return np.where(small, series, main)


def dexp_kernel(x, y):
    """(e^x - e^y) / (x - y), the symmetric divided difference of exp."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    # e^x * psi(x, y) is stable and symmetric up to roundoff; symmetrize
    # explicitly so the kernel matrix is exactly symmetric
    a = np.exp(x) * psi_kernel(x, y)
    b = np.exp(y) * psi_kernel(y, x)
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# transforms

def kernel_matrix(fn, w):
    """Kernel matrix K[i, j] = fn(lambda_j, lambda_i) on eigenvalue pairs.

    Column-first argument order: entry (i, j) of a conjugated field gets
    multiplied by fn evaluated at (eigenvalue of column j, eigenvalue of
    row i). For symmetric fn the order is immaterial.
    """
    lam_i = w[..., :, None]
    lam_j = w[..., None, :]
    return fn(lam_j, lam_i)


def comm(a, b):
    """Matrix commutator a b - b a, broadcasting over grid axes."""
    out = mm(a, b)
    return np.subtract(out, mm(b, a), out=out)


def herm_exp(s):
    """Matrix exp of a Hermitian field through its spectrum."""
    w, v = herm_eig(s)
    return apply_one(np.exp(w), v)


def herm_log(f, what="herm_log"):
    """Matrix log of a Hermitian positive definite field, with clamping.

    Eigenvalues in [-CLAMP_HARD_REL * scale, EIG_FLOOR) are floored at
    EIG_FLOOR and counted in clamp_events. Anything more negative raises
    ClampError.
    """
    global clamp_events
    w, v = herm_eig(f)
    wmin = float(np.min(w))
    scale = max(1.0, float(np.max(np.abs(w))))
    if wmin < -CLAMP_HARD_REL * scale:
        raise ClampError("%s: eigenvalue %.6e is negative beyond the clamp policy"
                         % (what, wmin))
    if wmin < EIG_FLOOR:
        clamp_events += int(np.count_nonzero(w < EIG_FLOOR))
        w = np.maximum(w, EIG_FLOOR)
    return apply_one(np.log(w), v)


# ---------------------------------------------------------------------------
# section term

def phi_outer(phi):
    """Section outer product phi phi^H as an endomorphism field.

    phi has shape (grid..., r). This is the section term at the
    reference metric, which the solver keeps at the identity; the
    deformed metric f enters as phi phi^H f.
    """
    phi = np.asarray(phi, dtype=np.complex128)
    return phi[..., :, None] * np.conjugate(phi[..., None, :])
