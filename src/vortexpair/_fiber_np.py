"""Generic reference kernels of the fiber algebra, for every rank.

Arrays carry grid axes first and the two matrix axes last. These are
the textbook forms: LAPACK's eigendecomposition and the two functional
calculi written as `@` formulas. The solver never calls them; the tests
and perfbench compare the written-out kernels of _kernels against them.
They import nothing from the package, so they share no code with the
kernels they check.
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
    return v @ (k * (vh @ a @ v)) @ vh
