"""The verdict contract, fuzzed: every input the library or the CLI
accepts ends in one of the four verdicts with a cause, and the CLI
exits 0, 1 or 2 with no traceback.

The draws are derandomized and fixed in number, so the suite stays
deterministic. Extreme inputs (starts of 1e300, tau of 1e300) overflow
by design, so each draw records its RuntimeWarnings instead of letting
the suite's error filter raise them; the tests assert on verdicts and
exits, not on warnings.
"""

import contextlib
import io
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vortexpair import cli, instances
from vortexpair.continuation import (CAP_MAX, ContinuationConfig,
                                     run_continuation)

VERDICTS = {"converged", "diverged", "boundary", "failed"}
FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])
MAX_STOPS = 30


def _decades(lo, hi):
    """Positive floats spread over the decades 10^lo .. 10^hi."""
    return st.builds(lambda m, e: m * 10.0 ** e,
                     st.floats(1.0, 9.99), st.integers(lo, hi))


@st.composite
def _instance(draw):
    """(name, n, tau): a shipped instance on a tiny grid (torus 4-8,
    even; circle 3-16) at its default tau (None), 0, or a signed tau
    (lam of a Higgs instance) over many decades."""
    name = draw(st.sampled_from(instances.names()))
    if instances.REGISTRY[name][0] == "torus":
        n = draw(st.sampled_from([4, 6, 8]))
    else:
        n = draw(st.integers(3, 16))
    sign = draw(st.sampled_from([1.0, -1.0]))
    tau = draw(st.one_of(st.none(), st.just(0.0),
                         _decades(-12, 12).map(lambda t: sign * t),
                         st.just(sign * 1e300)))
    return name, n, tau


# caps ContinuationConfig accepts, below CAP_MAX where exp(s) overflows;
# the config file draws caps up to 1e300, which it must reject
CAPS = st.one_of(_decades(-1, 1), st.floats(10.0, CAP_MAX, exclude_max=True))
WIDE_CAPS = st.one_of(_decades(-1, 3), _decades(3, 299))


@st.composite
def _schedule(draw, caps=CAPS):
    """ContinuationConfig keywords with at most MAX_STOPS stops before
    the snap and a cap drawn from caps."""
    ratio = draw(st.floats(0.05, 0.95))
    stops = draw(st.floats(0.1, MAX_STOPS))
    return dict(ratio=ratio, eps_min=ratio ** stops,
                newton_tol=draw(_decades(-14, -2)),
                linear_rtol=draw(_decades(-12, -1)),
                newton_max=draw(st.integers(0, 50)),
                cap=draw(caps))


@st.composite
def _start(draw, shape, rank):
    """None (half the draws, so that most runs reach the schedule), a
    scaled identity (1e-300 to 1e300), or the identity with one
    non-finite entry."""
    kind = draw(st.integers(0, 3))
    if kind < 2:
        return None
    h = np.zeros(shape + (rank, rank), dtype=complex)
    h[..., range(rank), range(rank)] = 1.0
    if kind == 2:
        return draw(_decades(-300, 299)) * h
    at = tuple(draw(st.integers(0, k - 1)) for k in shape)
    i, j = draw(st.integers(0, rank - 1)), draw(st.integers(0, rank - 1))
    h[at + (i, j)] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return h


@FUZZ
@given(st.data())
def test_every_input_ends_in_a_verdict(data):
    name, n, tau = data.draw(_instance())
    cfg = ContinuationConfig(full_diagnostics=data.draw(st.booleans()),
                             **data.draw(_schedule()))
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        p = instances.make(name, n=n, tau=tau)
        h = data.draw(_start(tuple(p.geom.shape), p.rank))
        out = run_continuation(p, cfg, h_start=h)
    assert out.verdict in VERDICTS
    assert isinstance(out.report.cause, str) and out.report.cause


def _config_value(draw, key, good):
    """good, or now and then a value the config parser or
    ContinuationConfig rejects."""
    bad = {"ratio": ["1.0", "1.5", "0.999999"], "grid": ["3", "0"]}
    if draw(st.integers(0, 7)):
        return repr(good)
    return draw(st.sampled_from(bad.get(key, ["0", "-1", "nan", "inf"])))


@settings(FUZZ, max_examples=40)
@given(st.data())
def test_every_config_file_ends_in_an_exit_code(data):
    # exit 1 is an error: line on stderr or a failed verdict; 0 and 2
    # are verdicts and print no error
    name, n, tau = data.draw(_instance())
    sched = data.draw(_schedule(WIDE_CAPS))
    del sched["newton_max"]  # not a config key
    if instances.REGISTRY[name][0] == "torus":
        n = _config_value(data.draw, "grid", n)
    lines = ["instance = %s" % name, "grid = %s" % n]
    if tau is not None:
        lines.append("tau = %r" % tau)
    lines += ["%s = %s" % (key, _config_value(data.draw, key, val))
              for key, val in sched.items()]
    quick = ["--quick"] if data.draw(st.booleans()) else []
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.conf")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with warnings.catch_warnings(record=True), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(["solve", "--config", path, "--out", tmp]
                            + quick)
    stdout, stderr = out.getvalue(), err.getvalue()
    assert code in (cli.EXIT_OK, cli.EXIT_FAIL, cli.EXIT_SCIENCE)
    assert "Traceback" not in stdout + stderr
    if sched["cap"] >= CAP_MAX:
        assert "error:" in stderr and code == cli.EXIT_FAIL
    if "error:" in stderr:
        assert code == cli.EXIT_FAIL
    elif code == cli.EXIT_FAIL:
        assert " verdict=failed " in stdout, stdout


def test_a_cap_past_the_float_range_is_rejected():
    with pytest.raises(ValueError, match=r"cap 1000\.0 must be below "
                       r"log\(float max\) = 709\.78"):
        ContinuationConfig(cap=1000.0)


def test_the_largest_accepted_caps_still_diverge():
    # a cap near CAP_MAX ends diverged, as a small one does, and not in a
    # residual that is not finite. At caps 709 and 709.7 a rejected
    # line-search trial overflows exp, without a warning (an error here)
    for name, n in (("torus-unstable", 8), ("hopf-unstable", 64)):
        for cap in (700.0, 709.0, 709.7):
            out = run_continuation(instances.make(name, n=n),
                                   ContinuationConfig(cap=cap,
                                                      full_diagnostics=False))
            assert out.verdict == "diverged", (name, cap, out.report.cause)
