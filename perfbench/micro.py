"""Micro-benchmarks of the three rank-2 fiber kernels on seeded inputs,
with the compiled-versus-numpy agreement gate.

The timed functions are the library's dispatch entry points in
`vortexpair._kernels`, so they measure whichever backend is active
(recorded as `_kernels.BACKEND`). When the compiled extension is
importable, its outputs are compared with the numpy implementation on
the same inputs and must agree to 1e-10.
"""

import statistics
import time

import numpy as np

from vortexpair import _fiber_np, _kernels

GRID = 64
RANK = 2
REPS = 15


def _rand_herm(rng, shape, r):
    a = (rng.standard_normal(shape + (r, r))
         + 1j * rng.standard_normal(shape + (r, r)))
    return 0.5 * (a + np.conjugate(np.swapaxes(a, -1, -2)))


def _median_ms(fn):
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _inputs(seed):
    rng = np.random.default_rng(seed)
    shape = (GRID, GRID)
    s = _rand_herm(rng, shape, RANK)
    a = _rand_herm(rng, shape, RANK)
    w, v = _kernels.eigh_batch(s)
    g = np.exp(w)
    k = np.abs(w[..., :, None] - w[..., None, :]) + 1.0
    return s, a, g, k, v


def timings(seed):
    """Median milliseconds per call of each kernel on seeded inputs."""
    s, a, g, k, v = _inputs(seed)
    return {
        "fiber.micro.eigh_batch_ms": _median_ms(lambda: _kernels.eigh_batch(s)),
        "fiber.micro.apply_one_ms": _median_ms(lambda: _kernels.apply_one(g, v)),
        "fiber.micro.apply_two_ms": _median_ms(lambda: _kernels.apply_two(k, v, a)),
    }


def disagreement(seed):
    """Max |numpy - compiled| over the three kernels on seeded inputs,
    or None when the compiled extension is not importable."""
    try:
        from vortexpair import _fiberext
    except ImportError:
        return None
    n = GRID * GRID
    s, a, g, k, v = (np.ascontiguousarray(x).reshape((n,) + x.shape[2:])
                     for x in _inputs(seed))
    pairs = [
        (_fiber_np.eigh_batch(s)[1], _fiberext.eigh_batch(s)[1]),
        (_fiber_np.apply_one(g, v), _fiberext.apply_one(g, v)),
        (_fiber_np.apply_two(k, v, a), _fiberext.apply_two(k, v, a)),
    ]
    return max(float(np.max(np.abs(x - y))) for x, y in pairs)
