"""Field storage: shapes are grid-first, entries are contiguous planes.

Every rank-2 field the solver allocates stores each matrix entry
[..., i, j] as a C-contiguous grid plane (fiber.empty_field), so the
written-out rank-2 product never reads or writes a strided view. The
layout must not change a single bit: every kernel gives the same bytes
from C-order and entry-plane copies of the same inputs. Freed fields
stay on glibc's heap, so a repeated solve does not fault their pages in
again.
"""

import dataclasses
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from vortexpair import _kernels, fiber, instances
from vortexpair.continuation import (ContinuationConfig, HermPacker,
                                     MetricState, initial_gauge,
                                     run_continuation)
from vortexpair.geometry import TorusBackend

from conftest import rand_herm
from oracles import plane_layout_guard

# rank 3 runs np.matmul, whose summation may follow the operand layout
RANK3_RTOL = 1e-14

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
# a second rank2-extension solve at 64x64 takes about 900 minor faults
# when glibc keeps freed fields on the heap, and about 18000 when it
# trims the heap top and faults the pages back in
REPEAT_SOLVE_FAULTS_MAX = 3000


def _plane_copy(a, k=2):
    """A copy of a, same shape, whose entries over its last k axes are
    C-contiguous grid planes; built without the library's allocator."""
    tail = tuple(range(a.ndim - k, a.ndim))
    front = tuple(range(k))
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, tail, front)),
                       front, tail)


def _both(a, k=2):
    return np.ascontiguousarray(a), _plane_copy(a, k)


def _planes(a, k=2):
    """Every entry over the last k axes is a C-contiguous grid plane."""
    return all(a[(Ellipsis,) + idx].flags.c_contiguous
               for idx in np.ndindex(a.shape[-k:]))


def _same(x, y):
    assert x.shape == y.shape and x.dtype == y.dtype
    assert x.tobytes() == y.tobytes()


def _edge_field(rng, n=8):
    """A Hermitian rank-2 field on an n x n grid: generic split spectra,
    scalar points c I (whose eigenvectors are exactly I), spectra split
    by 1e-9 in a random frame, and diagonal points."""
    a = rand_herm(rng, (n, n), 2)
    a[1] = np.eye(2) * rng.uniform(-2.0, 2.0, size=(n, 1, 1))
    q = np.linalg.qr(rng.standard_normal((n, 2, 2))
                     + 1j * rng.standard_normal((n, 2, 2)))[0]
    w = rng.uniform(-1.0, 1.0, size=(n, 1)) + np.array([0.0, 1e-9])
    a[2] = fiber.herm_part((q * w[..., None, :])
                           @ np.conjugate(np.swapaxes(q, -1, -2)))
    a[3] = 0.0
    a[3, :, 0, 0] = rng.uniform(-1.0, 1.0, size=n)
    a[3, :, 1, 1] = rng.uniform(-1.0, 1.0, size=n)
    return a


# ---------------------------------------------------------------------------
# the layout holds

@pytest.mark.parametrize("name", ["rank2-extension", "higgs-nilpotent"])
def test_quick_solves_pass_only_entry_planes_to_the_rank2_product(name):
    p = instances.make(name, n=instances.quick_grid(name))
    h = None
    if name == "rank2-extension":
        h = instances.gauge_probe(p.geom, p.rank, np.random.default_rng(5),
                                  constant=True)
    with plane_layout_guard() as guard:
        out = run_continuation(p, ContinuationConfig(eps_min=1e-2), h_start=h)
    assert out.verdict == instances.EXPECTED_VERDICTS[name]
    assert guard.calls > 1000


def test_rank2_results_are_stored_as_entry_planes(rng):
    a = _edge_field(rng)
    c = rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)
    assert not _planes(a)
    # inputs in C order: every allocated result is planes all the same
    assert _planes(fiber.mm(a, c))
    assert _planes(fiber.mm(a[0, 0], c))
    w, v = fiber.eigh_batch(a)
    assert _planes(w, 1) and _planes(v)
    assert _planes(fiber.apply_one(np.exp(w), v))
    k = fiber.kernel_matrix(fiber.dexp_kernel, w)
    assert _planes(fiber.apply_two(k, v, c))
    packer = HermPacker(a.shape[:2], 2)
    assert _planes(packer.unpack(packer.pack(a)))
    geom = TorusBackend(8)
    assert _planes(geom.d(_plane_copy(c)))
    assert _planes(geom.dbar(_plane_copy(c)))
    st = MetricState(_plane_copy(a))
    for f in (st.f, st.finv, st.fsr, st.fsri):
        assert _planes(f)


@pytest.mark.parametrize("name", ["rank2-extension", "higgs-nilpotent"])
def test_problem_fields_are_stored_as_entry_planes(name):
    p = instances.make(name, n=8)
    fields = [p.ilf0, p.phi_outer0]
    if name == "higgs-nilpotent":
        fields += [p.theta, p.theta_dag]
    assert all(_planes(f) for f in fields)
    assert _planes(p.phi, 1)
    # the gauged clone stores its pushed-forward fields the same way
    h = instances.gauge_probe(p.geom, p.rank, np.random.default_rng(2),
                              constant=True)
    q = initial_gauge(p, h=np.ascontiguousarray(h)).problem
    fields = [q.ilf0, q.phi_outer0, q.a01]
    if name == "higgs-nilpotent":
        fields += [q.theta, q.theta_dag]
    assert all(_planes(f) for f in fields)
    assert _planes(q.phi, 1)


# ---------------------------------------------------------------------------
# the layout changes no bit

def test_rank2_kernels_give_the_same_bytes_in_both_layouts(rng):
    a = _edge_field(rng)
    c = rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)
    a_c, a_p = _both(a)
    c_c, c_p = _both(c)
    assert not _planes(a_c) and _planes(a_p)

    _same(fiber.mm(a_c, c_c), fiber.mm(a_p, c_p))
    _same(fiber.mm(a[0, 0], c_c), fiber.mm(a[0, 0], c_p))
    _same(fiber.mm(c_c, a[0, 0]), fiber.mm(c_p, a[0, 0]))

    (w_c, v_c), (w_p, v_p) = fiber.eigh_batch(a_c), fiber.eigh_batch(a_p)
    _same(w_c, w_p)
    _same(v_c, v_p)
    # the scalar points take V = I, the near-degenerate ones stay split
    assert np.array_equal(v_c[1], np.broadcast_to(np.eye(2), v_c[1].shape))
    assert np.all(w_c[2, :, 1] > w_c[2, :, 0])

    g_c, g_p = _both(np.exp(w_c), 1)
    v_c, v_p = _both(v_c)
    _same(fiber.apply_one(g_c, v_c), fiber.apply_one(g_p, v_p))
    k_c, k_p = _both(fiber.kernel_matrix(fiber.dexp_kernel, w_c))
    _same(fiber.apply_two(k_c, v_c, c_c), fiber.apply_two(k_p, v_p, c_p))

    _same(fiber.frob(c_c), fiber.frob(c_p))
    _same(fiber.herm_part(c_c), fiber.herm_part(c_p))
    assert fiber.skew_defect(c_c) == fiber.skew_defect(c_p)

    geom = TorusBackend(8)
    _same(geom.d(c_c), geom.d(c_p))
    _same(geom.dbar(c_c), geom.dbar(c_p))

    packer = HermPacker(geom.shape, 2)
    x_c, x_p = packer.pack(c_c), packer.pack(c_p)
    _same(x_c, x_p)
    h_c, h_p = _both(packer.unpack(x_c))
    _same(packer.unpack(packer.pack(h_c)), packer.unpack(packer.pack(h_p)))


def test_a_c_order_start_runs_bit_for_bit_like_an_entry_plane_start():
    name = "rank2-extension"
    p = instances.make(name, n=instances.quick_grid(name))
    h = instances.gauge_probe(p.geom, p.rank, np.random.default_rng(11),
                              constant=True)
    h_c, h_p = _both(h)
    assert not _planes(h_c) and _planes(h_p)
    cfg = ContinuationConfig(eps_min=1e-2, full_diagnostics=False)
    runs = [run_continuation(p, cfg, h_start=x) for x in (h_c, h_p)]
    assert runs[0].verdict == "converged"
    reps = [dataclasses.replace(out.report, wall_time=0.0, trace=[])
            for out in runs]
    assert reps[0] == reps[1]
    traces = [np.array([dataclasses.astuple(rec) for rec in out.report.trace])
              for out in runs]
    _same(*traces)
    _same(runs[0].state.s, runs[1].state.s)


def test_rank3_generic_path_agrees_across_layouts(rng):
    a = rand_herm(rng, (4, 6), 3)
    c = rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)
    a_c, a_p = _both(a)
    c_c, c_p = _both(c)
    assert not _planes(a_c) and _planes(a_p)

    def close(x, y, scale):
        assert x.shape == y.shape and x.dtype == y.dtype
        assert np.max(np.abs(x - y)) <= RANK3_RTOL * scale

    close(fiber.mm(a_c, c_c), fiber.mm(a_p, c_p),
          np.max(np.abs(a)) * np.max(np.abs(c)))
    (w_c, v_c), (w_p, _) = _kernels.eigh_batch(a_c), _kernels.eigh_batch(a_p)
    close(w_c, w_p, np.max(np.abs(w_c)))
    g = np.exp(w_c)
    v_c, v_p = _both(v_c)
    close(fiber.apply_one(g, v_c), fiber.apply_one(_plane_copy(g, 1), v_p),
          np.max(g))
    k = fiber.kernel_matrix(fiber.dexp_kernel, w_c)
    close(fiber.apply_two(k, v_c, c_c),
          fiber.apply_two(_plane_copy(k), v_p, c_p),
          np.max(k) * np.max(np.abs(c)))
    packer = HermPacker(a.shape[:2], 3)
    _same(packer.pack(c_c), packer.pack(c_p))


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc"
                    or any(key.startswith("MALLOC_") for key in os.environ),
                    reason="needs glibc's dynamic mmap threshold, which "
                    "MALLOC_* variables pin")
def test_a_repeated_solve_reuses_freed_field_pages():
    # importing fiber frees a 16 MiB mmapped block, which raises glibc's
    # mmap and trim thresholds above every 64x64 field, so the second
    # solve in a fresh process reuses the pages the first one freed
    code = ("import resource\n"
            "from vortexpair import instances\n"
            "from vortexpair.continuation import (ContinuationConfig,\n"
            "                                     run_continuation)\n"
            "cfg = ContinuationConfig(eps_min=0.3, full_diagnostics=False)\n"
            "for _ in range(2):\n"
            "    p = instances.make('rank2-extension')\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    verdict = run_continuation(p, cfg).verdict\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "print(verdict, *p.geom.shape, after - before)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    verdict, nx, ny, faults = proc.stdout.split()
    assert (verdict, nx, ny) == ("converged", "64", "64"), proc.stdout
    assert int(faults) < REPEAT_SOLVE_FAULTS_MAX, proc.stdout
