"""The hot path builds each grid field once and changes no bit.

Every function that builds its result in place, in an array it
allocated, is compared bit for bit with the plain expression it
replaced (tests/oracles.py): on random, scalar (V = I) and 1e-9-split
Hermitian fields and on generic complex fields, each in C order and as
entry planes, at ranks 1 to 3 on both backends. Each call must also
leave the bytes of everything it reads as they were, return an array
that shares no memory with an input, a stored problem field or a
MetricState field or memo, and keep the plain expression's entry-plane
layout where it has one.

Two guards on what the in-place forms save: the allocation peaks of the
torus derivatives and of one preconditioner application on a 64 x 64
rank-2 field, and one skew-defect evaluation per recorded state.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from vortexpair import continuation as C
from vortexpair import fiber, instances
from vortexpair.continuation import (ContinuationConfig, HermPacker,
                                     MetricState, run_continuation)
from vortexpair.geometry import HopfBackend, TorusBackend
from vortexpair.higgs import HiggsProblem
from vortexpair.pair import PairProblem

import oracles as O

STATE_FIELDS = ("s", "w", "v", "f", "finv", "fsr", "fsri")
QUIET = ContinuationConfig(full_diagnostics=False)


def _problems():
    rng = np.random.default_rng(11)

    def twist(r):
        return 0.3 * (rng.standard_normal((r, r))
                      + 1j * rng.standard_normal((r, r)))

    torus, hopf = TorusBackend(8), HopfBackend(12)
    theta = np.array([[0.0, 0.4], [0.0, 0.0]])
    return {
        "torus-wave": instances.make("torus-wave", n=8),
        "rank2-extension": instances.make("rank2-extension", n=8),
        "higgs-nilpotent": instances.make("higgs-nilpotent", n=8),
        "torus rank 3": PairProblem(torus, 3, np.zeros((3, 3)), np.zeros(3),
                                    0.7, a01=twist(3)),
        "hopf-wave": instances.make("hopf-wave", n=12),
        "hopf rank 2": PairProblem(hopf, 2, np.zeros((2, 2)), np.zeros(2),
                                   0.7, a01=twist(2)),
        "hopf higgs": HiggsProblem(hopf, 2, np.zeros((2, 2)), theta, 1.0),
        "hopf rank 3": PairProblem(hopf, 3, np.zeros((3, 3)), np.zeros(3),
                                   0.7, a01=twist(3)),
    }


PROBLEMS = _problems()


def _layouts(a):
    """a in C order and as entry planes over its last two axes."""
    planes = fiber.empty_field(a.shape[:-2], a.shape[-2:], dtype=a.dtype)
    planes[...] = a
    return {"C": np.ascontiguousarray(a), "planes": planes}


def _hermitian_fields(rng, gshape, r):
    """Hermitian fields named by their spectra: random in a random frame,
    scalar c I per point (eigenvectors exactly I), and from rank 2 on the
    first two eigenvalues split by 1e-9 in a random frame."""
    npts = int(np.prod(gshape))
    q = np.linalg.qr(rng.standard_normal((npts, r, r))
                     + 1j * rng.standard_normal((npts, r, r)))[0]
    w = rng.uniform(-1.0, 1.0, size=(npts, r))
    spectra = {"random": w}
    if r > 1:
        spectra["split"] = w.copy()
        spectra["split"][:, 1] = w[:, 0] + 1e-9
    out = {k: fiber.herm_part((q * lam[:, None, :])
                              @ np.conjugate(np.swapaxes(q, -1, -2)))
           for k, lam in spectra.items()}
    out["scalar"] = (w[:, :1, None] * np.eye(r)).astype(complex)
    return {k: v.reshape(gshape + (r, r)) for k, v in out.items()}


def _generic(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _cases(rng, gshape, r):
    """(name, field) for every Hermitian kind and a generic complex
    field, each in both layouts."""
    fields = dict(_hermitian_fields(rng, gshape, r))
    fields["generic"] = _generic(rng, gshape + (r, r))
    for kind, a in fields.items():
        for layout, b in _layouts(a).items():
            yield "%s/%s" % (kind, layout), b


def _held(*objs):
    """The arrays a call can read: arrays themselves, the fields and memo
    fields of a MetricState (its memo also keeps floats), the stored
    fields of a problem and its backend."""
    out = []
    for o in objs:
        if isinstance(o, np.ndarray):
            out.append(o)
        elif isinstance(o, MetricState):
            out += [getattr(o, k) for k in STATE_FIELDS]
            out += [v for v in o._memo.values() if isinstance(v, np.ndarray)]
        elif isinstance(o, PairProblem):
            out += _held(o.geom)
            out += [v for v in vars(o).values() if isinstance(v, np.ndarray)]
        elif hasattr(o, "shape"):  # a backend
            out += [v for v in vars(o).values() if isinstance(v, np.ndarray)]
    return out


def _planes(a):
    """a is a matrix field whose every entry is a C-contiguous grid plane
    (at rank 1, any C-contiguous field)."""
    return a.ndim > 2 and all(a[(Ellipsis,) + ij].flags.c_contiguous
                              for ij in np.ndindex(a.shape[-2:]))


def _check(fn, args, want, what, also=()):
    """fn(*args) gives the bytes and layout of want, writes into nothing
    it reads (args, the object of a bound method and also), and returns
    an array that shares memory with none of it, memo fields built
    during the call included."""
    reads = args + tuple(also) + (getattr(fn, "__self__", None),)
    held = _held(*reads)
    before = [a.tobytes() for a in held]
    got = fn(*args)
    assert got.shape == want.shape and got.dtype == want.dtype, what
    assert np.array_equal(got, want), what
    assert got.tobytes() == want.tobytes(), what  # signed zeros too
    if _planes(want):
        assert got.strides == want.strides, what
    assert [a.tobytes() for a in held] == before, what
    assert not any(np.shares_memory(got, a) for a in _held(*reads)), what
    return got


# ---------------------------------------------------------------------------
# bit for bit, no shared memory, the plain form's layout

@pytest.mark.parametrize("geom", [TorusBackend(8), HopfBackend(12)],
                         ids=["torus", "hopf"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_fiber_helpers_match_their_plain_forms(geom, r, rng):
    for name, a in _cases(rng, tuple(geom.shape), r):
        what = (r, name)
        _check(fiber.herm_part, (a,), O.herm_part_plain(a), what)
        _check(fiber.frob, (a,), O.frob_plain(a), what)
        before = a.tobytes()
        assert fiber.sup_norm(a) == O.sup_norm_plain(a), what
        assert fiber.skew_defect(a) == O.skew_defect_plain(a), what
        assert a.tobytes() == before, what
        b = _generic(rng, a.shape)
        _check(fiber.comm, (a, b), O.comm_plain(a, b), what)
        _check(fiber.comm, (a[0, ...], b), O.comm_plain(a[0, ...], b), what)
        w = fiber.eigh_batch(a)[0]
        lam_i, lam_j = w[..., :, None], w[..., None, :]
        _check(fiber.psi_kernel, (lam_j, lam_i),
               O.psi_kernel_plain(lam_j, lam_i), what)
    assert fiber.skew_defect(np.zeros((0, r, r))) == 0.0


def test_psi_kernel_returns_its_series_on_close_arguments(rng):
    # every pair within 1e-6 takes the series alone; a mixed grid takes
    # the branch, and both agree with the plain form bit for bit
    x = rng.uniform(-1.0, 1.0, size=(8, 8, 2, 2))
    close = x + rng.uniform(-5e-7, 5e-7, size=x.shape)
    far = x.copy()
    far[0, 0, 0, 1] += 0.5
    for y in (close, far, x):
        _check(fiber.psi_kernel, (x, y), O.psi_kernel_plain(x, y), "psi")


@pytest.mark.parametrize("r", [None, 1, 2, 3])
def test_derivatives_match_their_plain_forms(r, rng):
    for geom in (TorusBackend(8), HopfBackend(12)):
        gshape = tuple(geom.shape)
        if r is None:  # scalar fields, real and complex
            fields = {"real": rng.standard_normal(gshape),
                      "complex": _generic(rng, gshape)}
        else:
            fields = dict(_cases(rng, gshape, r))
        for name, a in fields.items():
            what = (type(geom).__name__, r, name)
            if isinstance(geom, TorusBackend):
                _check(geom.d, (a,), O.deriv_plain(geom, a, False), what)
                _check(geom.dbar, (a,), O.deriv_plain(geom, a, True), what)
            if np.iscomplexobj(a):
                _check(geom.lam_dbar_10, (a,), O.lam_dbar_10_plain(geom, a),
                       what)
            axes = tuple(range(len(gshape)))
            for inverse, plain in ((False, np.fft.fftn), (True, np.fft.ifftn)):
                want = plain(a, axes=axes)
                got = geom.fft(a, np.empty_like(a, dtype=complex),
                               inverse=inverse)
                assert got.tobytes() == want.tobytes(), what
                inplace = a.astype(complex)
                assert geom.fft(inplace, inplace, inverse=inverse) is inplace
                assert inplace.tobytes() == want.tobytes(), what


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_equation_hooks_and_operators_match_their_plain_forms(name, rng):
    p = PROBLEMS[name]
    gshape, r = tuple(p.geom.shape), p.rank
    packer = HermPacker(gshape, r)
    higgs = isinstance(p, HiggsProblem)
    for case, s in _cases(rng, gshape, r):
        if case.startswith("generic"):
            x = s
            _check(p.d0_end, (x,), O.d0_end_plain(p, x), case)
            _check(p.lam_dbar_end, (x,), O.lam_dbar_end_plain(p, x), case)
            _check(packer.pack, (x,), O.pack_plain(packer, x), case)
            continue
        layout = case.split("/")[1]
        vh = _layouts(fiber.herm_part(_generic(rng, s.shape)))[layout]
        for eps in (0.0, 0.4):
            what = (name, case, eps)
            # a fresh state: residual_parts builds the memo it reads
            st = MetricState(s)
            r_plain, skew_plain = O.residual_parts_plain(p, eps,
                                                         MetricState(s))
            _check(C.residual_parts, (p, eps, st), r_plain, what)
            rec = C.diagnostics_check(p, eps, st, 0.0, None, 0, QUIET)
            assert rec.skew_defect == skew_plain, what
            _check(p.mean_curvature_raw, (st,),
                   O.mean_curvature_raw_plain(p, st), what)
            _check(C.d2lhat_apply, (p, eps, st, vh),
                   O.d2lhat_apply_plain(p, eps, st, vh), what)
            if higgs:
                _check(p.zero_order_lin, (st, vh),
                       O.higgs_zero_order_lin_plain(p, st, vh), what)
            xp = packer.pack(vh)
            _check(C._precond_operator(p, eps, packer), (xp,),
                   O.precond_plain(p, eps, packer)(xp), what, also=(p,))


# ---------------------------------------------------------------------------
# what the in-place forms save

FIELD = (64, 64)


def _field_bytes():
    return int(np.prod(FIELD)) * 4 * 16


def _peak_fields(fn, *args):
    """tracemalloc peak of fn(*args), in 64 x 64 rank-2 complex fields,
    after one untraced call has warmed the FFT plan cache."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / _field_bytes()


def _rank2_field(rng):
    a = fiber.empty_field(FIELD, (2, 2))
    a[...] = _generic(rng, FIELD + (2, 2))
    return a


def test_torus_derivatives_allocate_at_most_two_fields(rng):
    geom = TorusBackend(64)
    a = _rank2_field(rng)
    for fn in (geom.d, geom.dbar, geom.lam_dbar_10):
        assert _peak_fields(fn, a) <= 2.0, fn.__name__


def test_a_preconditioner_application_allocates_at_most_two_and_a_half_fields(
        rng):
    p = PairProblem(TorusBackend(64), 2, np.zeros((2, 2)), np.zeros(2), 0.7)
    packer = HermPacker(FIELD, 2)
    mv = C._precond_operator(p, 0.5, packer)
    assert _peak_fields(mv, packer.pack(_rank2_field(rng))) <= 2.5


def test_the_skew_defect_is_evaluated_once_per_record(monkeypatch):
    # Newton evaluates the residual at every iterate and trial; only the
    # diagnostics records read its skew defect. Counted are the skew
    # defects that the continuation module itself asks for
    defects, residuals = [], []
    skew_defect, residual_parts = fiber.skew_defect, C.residual_parts

    def tap(a):
        if sys._getframe(1).f_globals["__name__"] == C.__name__:
            defects.append(a.shape)
        return skew_defect(a)

    def counting(*args):
        residuals.append(args[1])
        return residual_parts(*args)

    monkeypatch.setattr(fiber, "skew_defect", tap)
    monkeypatch.setattr(C, "skew_defect", tap, raising=False)
    monkeypatch.setattr(C, "residual_parts", counting)
    name = "torus-stable"
    p = instances.make(name, n=instances.quick_grid(name))
    out = run_continuation(p, ContinuationConfig(full_diagnostics=False))
    assert out.verdict == instances.EXPECTED_VERDICTS[name]
    assert len(residuals) > 2 * len(out.report.trace)
    assert len(defects) == len(out.report.trace)

    # higgs-theta-zero records one state at several stops: Newton accepts
    # each start unchanged. A state's defect is evaluated once
    defects.clear()
    recorded, check = {}, C.diagnostics_check

    def recording(p, eps, st, *args):
        recorded[id(st)] = st
        return check(p, eps, st, *args)

    monkeypatch.setattr(C, "diagnostics_check", recording)
    name = "higgs-theta-zero"
    p = instances.make(name, n=instances.quick_grid(name))
    out = run_continuation(p, ContinuationConfig(full_diagnostics=False))
    assert out.verdict == instances.EXPECTED_VERDICTS[name]
    assert len(out.report.trace) > len(recorded)
    assert len(defects) == len(recorded)
