import numpy as np
import pytest

from vortexpair import fiber


def rand_herm(rng, shape, r, amp=1.0):
    """Random Hermitian matrix field, grid axes first."""
    a = rng.standard_normal(shape + (r, r)) + 1j * rng.standard_normal(shape + (r, r))
    return amp * fiber.herm_part(a)


def rand_band_herm(geom, rng, r, amp=0.3, kmax=2):
    """Random smooth Hermitian matrix field built from band-limited
    scalars, so spectral truncation errors stay near machine level."""
    gshape = tuple(geom.shape)
    s = np.zeros(gshape + (r, r), dtype=complex)
    for i in range(r):
        s[..., i, i] = geom.random_band_scalar(rng, kmax=kmax, amp=amp)
    for i in range(r):
        for j in range(i + 1, r):
            re = geom.random_band_scalar(rng, kmax=kmax, amp=amp)
            im = geom.random_band_scalar(rng, kmax=kmax, amp=amp)
            s[..., i, j] = re + 1j * im
            s[..., j, i] = re - 1j * im
    return s


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
